"""Update-incremental Bayesian intent understanding.

The model is a count model (Kennington, Kousidis & Schlangen, SIGDIAL 2013):
training counts each word under its intent and its entity class, and a
bundle stores those counts. One builder derives the smoothed log tables from
them, after training and at load alike.

Each incoming word multiplies per-intent word likelihoods into a running
posterior, kept in log space as one row of scores per prefix length: an
add folds the word into the row before it once, and a revoke drops the
word and reads nothing back, as the row before it is still there. So an
add/revoke pair gets back the exact scores from before the add, bit for
bit, and neither edit touches the rest of the prefix. The rows stay valid
for every word still on the board, so the component follows the buffer,
at any lag: it keeps the units it added, and each call keeps the longest
run of them that are still the buffer's very units, drops the words past
that run and adds the buffer's words past it. So it catches up alike
after an edit, after a restore or a redo of a board, and after any number
of edits it did not see, as when the interpreter runs it only when its
view is read.

Entities are read off per token: on its add, a word whose entity-class
posterior clears a confidence threshold is labelled with its argmax class.
That pick depends only on the word's likelihood row, so the model memoises
it per row on first use, and every session on the model shares the memo.
Adjacent same-class words merge into one span. An edit can change only the
last span, so the readout keeps the spans before it.

A bundle names the intents, the entity classes and the vocabulary in
``intents.tsv``, ``entity_classes.tsv`` and ``vocabulary.tsv``, one a
line, and holds the counts in the sparse table of
:func:`~incnlu.components.write_rows`: a row per intent, then a row per
entity class, and a column per word. Its three files, ``widths``,
``index`` and ``values.i4``, hold only their values; the names files fix
how many each must hold, and loading refuses any other size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .components import Component, TrainingContext, read_names, read_rows, write_names, write_rows
from .data import NO_ENTITY
from .errors import ConfigError, ConsistencyError, DataError, ParameterError
from .iu import ENTITIES, INTENT_DISTRIBUTION, TOKENS, Blackboard, IncrementalUnit
from .results import EntitySpan, label_order, rank_distribution


@dataclass
class SiumModel:
    """Smoothed count model over words, conditioned on intent and entity class.

    The counts are the model's only record: ``intent_counts`` and
    ``entity_counts`` are int64 tables of training counts, a row per intent
    or entity class, in label order, and a column per ``word_index`` entry.
    Building the model derives the rest, after training and at load alike:
    uniform priors, and likelihood tables with one row per ``word_index``
    entry plus a final row for unseen words, add-alpha smoothed against the
    vocabulary size so every row is strictly positive. The build checks the
    parameter ranges and that every table column sums to one.
    """

    intents: list[str]
    entity_classes: list[str]
    word_index: dict[str, int]
    intent_counts: np.ndarray
    entity_counts: np.ndarray
    alpha: float
    entity_threshold: float
    lowercase: bool

    def __post_init__(self) -> None:
        if not 0 < self.alpha < math.inf:
            raise ParameterError(f"smoothing alpha must be positive and finite, got {self.alpha}")
        if not 0.0 <= self.entity_threshold <= 1.0:
            raise ParameterError(f"entity_threshold must be in [0, 1], got {self.entity_threshold}")
        self.log_word_given_intent = self._smoothed_log_table(self.intent_counts)
        self.log_word_given_entity = self._smoothed_log_table(self.entity_counts)
        self.log_intent_prior = np.full(len(self.intents), -math.log(len(self.intents)))
        self.intent_order = label_order(self.intents)
        n_classes = len(self.entity_classes)
        self.log_entity_prior = np.full(n_classes, -math.log(n_classes))
        # Entity pick per likelihood row, filled on first use: at most V+1
        # entries, shared by every session on this model. Not fields, so a
        # copy made through ``dataclasses.replace`` starts memos of its own.
        self._picks: dict[int, tuple[str, float] | None] = {}

    def _smoothed_log_table(self, counts: np.ndarray) -> np.ndarray:
        """Rows are words (last row unseen), columns labels, entries log probs.
        Each column must sum to one. A word with no count in a column, like
        the unseen row, gets log(alpha / denom): (0 + alpha) is alpha. Every
        entry is a ``math.log``, whose bits ``np.log`` does not always give."""
        alpha, n_rows = self.alpha, len(self.word_index) + 1
        denoms = [total + alpha * n_rows for total in counts.sum(axis=1).tolist()]
        table = np.empty((n_rows, len(denoms)), dtype=np.float64)
        table[:] = [math.log(alpha / denom) for denom in denoms]
        labels, words = np.nonzero(counts)
        # numpy's + and / round as Python's do; only the log must be math's.
        ratios = (counts[labels, words] + alpha) / np.array(denoms)[labels]
        table[words, labels] = [*map(math.log, ratios.tolist())]
        sums = np.exp(table).sum(axis=0)
        # np.allclose's bound, in one comparison that NaN fails.
        if not abs(sums - 1.0).max() <= 1e-9 + 1e-5:
            raise ConsistencyError(f"a likelihood table does not normalize: {sums}")
        return table

    def row(self, word: str) -> int:
        if self.lowercase:
            word = word.lower()
        return self.word_index.get(word, len(self.word_index))

    def intent_loglik(self, word: str) -> np.ndarray:
        return self.log_word_given_intent[self.row(word)]

    def row_pick(self, row: int) -> tuple[str, float] | None:
        """:func:`entity_pick` of the class posterior of a word whose
        likelihood row is ``row``, memoised per row."""
        try:
            return self._picks[row]
        except KeyError:
            score = self.log_entity_prior + self.log_word_given_entity[row]
            probs = np.exp(score - score.max())
            pick = self._picks[row] = entity_pick(self, probs / probs.sum())
            return pick


def train_sium(ctx: TrainingContext, alpha: float = 1.0, entity_threshold: float = 0.6) -> SiumModel:
    """Count each token the tokenizer left on ``ctx`` under its example's
    intent and its own entity class, that of its BIO tag or NO_ENTITY, and
    build the model from those counts. The model lowers the words a
    session adds as the tokenizer lowered these."""
    dataset = ctx.dataset
    if not dataset.examples:
        raise DataError("cannot train on an empty dataset")

    intents = dataset.intents
    entity_classes = dataset.entity_types + [NO_ENTITY]
    intent_row = {intent: i for i, intent in enumerate(intents)}
    class_row = {cls: i for i, cls in enumerate(entity_classes)}
    word_index: dict[str, int] = {}
    intent_rows, class_rows, columns = [], [], []
    for ex, tokens, tags in zip(dataset.examples, ctx.tokens, ctx.tags):
        for token, tag in zip(tokens, tags):
            columns.append(word_index.setdefault(token, len(word_index)))
            intent_rows.append(intent_row[ex.intent])
            class_rows.append(class_row[tag[2:] or NO_ENTITY])  # "O" names no class
    intent_counts = np.zeros((len(intents), len(word_index)), dtype=np.int64)
    entity_counts = np.zeros((len(entity_classes), len(word_index)), dtype=np.int64)
    np.add.at(intent_counts, (intent_rows, columns), 1)
    np.add.at(entity_counts, (class_rows, columns), 1)
    return SiumModel(
        intents=intents,
        entity_classes=entity_classes,
        word_index=word_index,
        intent_counts=intent_counts,
        entity_counts=entity_counts,
        alpha=alpha,
        entity_threshold=entity_threshold,
        lowercase=ctx.lowercase,
    )


@dataclass
class SiumState:
    """Running posterior over one utterance, one row of scores per prefix.

    Row i of ``scores`` holds the log prior plus the likelihood rows of the
    first i words, so row 0 is the prior; rows past ``len(tokens)`` are
    spare room, which the next add overwrites. ``spans`` caches the merged
    picks of the first ``merged`` words for :func:`sium_entities`.
    """

    model: SiumModel
    tokens: list[str] = field(default_factory=list)
    scores: np.ndarray = None
    picks: list[tuple[str, float] | None] = field(default_factory=list)
    spans: list[EntitySpan] = field(default_factory=list)
    merged: int = 0

    def __post_init__(self) -> None:
        if self.scores is None:
            self.scores = np.empty((8, len(self.model.intents)))
            self.scores[0] = self.model.log_intent_prior

    def add(self, word: str) -> None:
        model = self.model
        if model.lowercase:
            word = word.lower()
        row = model.word_index.get(word, len(model.word_index))  # model.row(word), lowercased once
        n = len(self.tokens)
        if n + 1 == len(self.scores):
            grown = np.empty((2 * (n + 1), self.scores.shape[1]))
            grown[:n + 1] = self.scores
            self.scores = grown
        np.add(self.scores[n], model.log_word_given_intent[row], out=self.scores[n + 1])
        self.tokens.append(word)
        self.picks.append(model.row_pick(row))

    def revoke(self, word: str) -> None:
        if not self.tokens:
            raise ConsistencyError("revoke with no accumulated words")
        if self.model.lowercase:
            word = word.lower()
        top = self.tokens[-1]
        if top != word:
            raise ConsistencyError(f"revoke of {word!r} but last accumulated word was {top!r}")
        self.truncate(len(self.tokens) - 1)

    def truncate(self, n: int) -> None:
        """Keep the first ``n`` words, if there are more."""
        if n < len(self.tokens):
            del self.tokens[n:], self.picks[n:]
            self.merged = min(self.merged, n)


def _normalize(log_scores: np.ndarray) -> np.ndarray:
    probs = np.exp(log_scores - log_scores.max())
    return probs / probs.sum()


def classify(state: SiumState) -> np.ndarray:
    """Posterior over intents, normalized to sum to one."""
    return _normalize(state.scores[len(state.tokens)])


def batch_posterior(model: SiumModel, words: list[str]) -> np.ndarray:
    """Whole-utterance posterior as one row-sum over the words' likelihoods,
    without the word-by-word fold of :class:`SiumState`."""
    rows = [model.row(word) for word in words]
    return _normalize(model.log_intent_prior + model.log_word_given_intent[rows].sum(axis=0))


def entity_pick(model: SiumModel, probs: np.ndarray) -> tuple[str, float] | None:
    """(class, confidence) of a word's best class, or None when that class is
    the null class or its probability is not strictly above the threshold."""
    best = int(np.argmax(probs))
    cls = model.entity_classes[best]
    conf = float(probs[best])
    if cls == NO_ENTITY or conf <= model.entity_threshold:
        return None
    return cls, conf


def sium_entities(state: SiumState) -> tuple[EntitySpan, ...]:
    """Merge adjacent same-class picks; a span's confidence is its weakest word.

    Only a span that reaches the last merged word can change, so the merge
    restarts at its start and the state keeps the spans before it.
    """
    picks, spans = state.picks, state.spans
    i = state.merged
    while spans and spans[-1].end >= state.merged:
        i = min(i, spans.pop().start)
    while i < len(picks):
        if picks[i] is None:
            i += 1
            continue
        cls = picks[i][0]
        j = i
        conf = picks[i][1]
        while j + 1 < len(picks) and picks[j + 1] is not None and picks[j + 1][0] == cls:
            j += 1
            conf = min(conf, picks[j][1])
        spans.append(
            EntitySpan(
                type=cls,
                value=" ".join(state.tokens[i:j + 1]),
                start=i,
                end=j + 1,
                confidence=conf,
            )
        )
        i = j + 1
    state.merged = len(picks)
    return tuple(spans)


class SiumIntent(Component):
    """Update-incremental intent and entity component. Its session state is
    the :class:`SiumState` and the units it added, by which it follows the
    buffer at any lag; it publishes its ranking and entities as tuples."""

    name = "intent_sium"
    provides = (INTENT_DISTRIBUTION, ENTITIES)
    requires = (TOKENS,)
    defaults = {"alpha": 1.0, "entity_threshold": 0.6, "lowercase": True}

    def __init__(self, params=None) -> None:
        super().__init__(params)
        if self.params["alpha"] <= 0:
            raise ParameterError(f"smoothing alpha must be positive, got {self.params['alpha']}")
        if not 0.0 <= self.params["entity_threshold"] <= 1.0:
            raise ParameterError(
                f"entity_threshold must be in [0, 1], got {self.params['entity_threshold']}"
            )
        self.model: SiumModel | None = None
        self._state: SiumState | None = None
        self._units: list[IncrementalUnit] = []

    def train(self, dataset, ctx: TrainingContext) -> None:
        self.new_utterance()
        params = self.params
        self.model = train_sium(ctx, alpha=params["alpha"], entity_threshold=params["entity_threshold"])

    def _require_state(self) -> SiumState:
        if self.model is None:
            raise ConsistencyError("intent_sium used before training or loading")
        if self._state is None:
            self._state = SiumState(self.model)
        return self._state

    def process(self, board: Blackboard, edit=None, word=None) -> None:
        state = self._require_state()
        if TOKENS not in board.annotations:
            raise ConfigError("no tokens on the blackboard; is a tokenizer ahead of intent_sium?")
        # Keep the longest run of the units added that are still the
        # buffer's own. A unit can sit at its position only if nothing below
        # it was popped, so the first match down from the shorter length
        # ends that run. Then add the buffer's words past it, as the ADDs
        # handed them over: SIUM lowers them if the tokenizer does, as its
        # lowercase equals the tokenizer's.
        units, held = board.buffer.units, self._units
        kept = min(len(units), len(held))
        while kept and held[kept - 1] is not units[kept - 1]:
            kept -= 1
        state.truncate(kept)
        del held[kept:]
        for unit in units[kept:]:
            state.add(unit.word)
            held.append(unit)
        model = self.model
        ranking = rank_distribution(model.intents, classify(state), model.intent_order)
        board.write(self.name, INTENT_DISTRIBUTION, ranking)
        board.write(self.name, ENTITIES, sium_entities(state))

    def new_utterance(self) -> None:
        # Reassign rather than reset in place: fresh() shallow-copies the
        # component, and the copy must not clobber the original's state.
        self._state = None
        self._units = []

    # -- persistence ---------------------------------------------------

    def persist(self, directory: Path) -> None:
        model = self.model
        if model is None:
            raise ConsistencyError("cannot persist an untrained intent_sium")
        write_names(directory / "intents.tsv", model.intents)
        write_names(directory / "entity_classes.tsv", model.entity_classes)
        write_names(directory / "vocabulary.tsv", sorted(model.word_index, key=model.word_index.get))
        write_rows(directory, np.vstack((model.intent_counts, model.entity_counts)))

    def restore(self, files) -> None:
        intents = read_names(files, "intents.tsv")
        entity_classes = read_names(files, "entity_classes.tsv")
        words = read_names(files, "vocabulary.tsv")
        counts = read_rows(files, (len(intents) + len(entity_classes), len(words)))
        if (counts < 0).any():
            raise ValueError("a count is negative")
        self.model = SiumModel(
            intents=intents,
            entity_classes=entity_classes,
            word_index={word: i for i, word in enumerate(words)},
            intent_counts=counts[:len(intents)],
            entity_counts=counts[len(intents):],
            alpha=self.params["alpha"],
            entity_threshold=self.params["entity_threshold"],
            lowercase=self.params["lowercase"],
        )
