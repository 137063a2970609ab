"""Entity tagging over the surviving prefix, decoded incrementally per edit.

An averaged structured perceptron scores BIO tag sequences; Viterbi with
transition constraints guarantees no decoded sequence ever places I-t after
anything but B-t or I-t.

The component keeps one Viterbi lattice per session (:class:`ViterbiState`)
and computes only the columns an edit changes: the right-context feature
``nw=`` makes a column final once the next word is known. An ADD computes
one new column, and finalises the one before it by adding the ``nw=``
weights to the parts of it kept when it was the last. Those parts are kept
for the two most recent positions, so a REVOKE right after an ADD rebuilds
the new last column from them with no new features; a deeper REVOKE
recomputes it from a checkpoint, the final column kept at every
CHECKPOINT_EVERY-th position. The traceback stops where it
meets the previous best path (partial traceback, Brown, Spohrer, Hochschild
& Baker, ICASSP 1982), and spans are re-extracted from there on. Every
column is computed by the same float operations as in the batch
:func:`decode`, so the entity output is still exactly that of a restart
over the current prefix.

Training (:func:`train_tagger`, Collins, EMNLP 2002) decodes a sentence
only if a weight has changed since it last decoded to its gold tags. A
skipped decode would give gold again and update nothing, so the averaged
weights are bit for bit those of decoding every sentence in every epoch.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .components import Component, TrainingContext
from .data import TrainingDataset, bio_tags
from .errors import ConsistencyError, ParameterError
from .iu import ENTITIES, TOKENS, Blackboard
from .results import EntitySpan

START = "<s>"
_NEG_INF = float("-inf")
# A session's lattice keeps the final score column of every CHECKPOINT_EVERY-th
# position; a revoke recomputes at most this many columns.
CHECKPOINT_EVERY = 16
# tag_features puts first the features that read no token past their own.
_HEAD_FEATURES = 6


def tag_features(tokens: list[str], i: int) -> list[str]:
    """Static feature strings for position i (prev-tag added at decode time).

    The first _HEAD_FEATURES read no token past i; the rest are
    :func:`_tail_features`, the only ones the next token can change.
    """
    word = tokens[i]
    return [
        "bias",
        f"w={word}",
        f"lw={word.lower()}",
        f"p3={word[:3]}",
        f"s3={word[-3:]}",
        f"pw={tokens[i - 1] if i > 0 else START}",
    ] + _tail_features(tokens, i)


def _tail_features(tokens: Sequence[str], i: int) -> list[str]:
    """``nw=`` and, summed after it, ``digit``: the last features of position i."""
    tail = [f"nw={tokens[i + 1] if i + 1 < len(tokens) else '</s>'}"]
    if tokens[i].isdigit():
        tail.append("digit")
    return tail


def _transition_mask(tags: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """(initial, pairwise) masks: 0 where allowed, -inf where BIO forbids."""
    n = len(tags)
    init = np.zeros(n)
    pair = np.zeros((n, n))
    for b, tag in enumerate(tags):
        if not tag.startswith("I-"):
            continue
        etype = tag[2:]
        init[b] = _NEG_INF
        for a, prev in enumerate(tags):
            if prev not in (f"B-{etype}", f"I-{etype}"):
                pair[a, b] = _NEG_INF
    return init, pair


def _transition_scores(
    weights: dict[str, np.ndarray], tags: list[str], mask: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """(initial, pairwise) scores: the pt= weights plus the BIO mask."""
    init_mask, pair_mask = mask
    zero = np.zeros(len(tags))
    init = weights.get(f"pt={START}", zero) + init_mask
    pair = np.array([weights.get(f"pt={tag}", zero) for tag in tags]) + pair_mask
    return init, pair


@dataclass
class TaggerModel:
    """Finalized averaged weights, one vector over tags per feature string."""

    tags: list[str]
    weights: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        # Built once, as the weights are final; read-only, as every session shares them.
        self._transitions = _transition_scores(self.weights, self.tags, _transition_mask(self.tags))
        # Row b: the pairwise scores into tag b, for ViterbiState's _predecessors.
        self._incoming = np.ascontiguousarray(self._transitions[1].T)
        for scores in (*self._transitions, self._incoming):
            scores.flags.writeable = False

    def transition_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        return self._transitions


def _emission(weights: dict[str, np.ndarray], feats: list[str], out: np.ndarray) -> np.ndarray:
    """Add the weight vectors of ``feats`` into ``out``, in feature order."""
    for feat in feats:
        vec = weights.get(feat)
        if vec is not None:
            out += vec
    return out


def _emissions(weights: dict[str, np.ndarray], n_tags: int, feats: list[list[str]]) -> np.ndarray:
    em = np.zeros((len(feats), n_tags))
    for i, row in enumerate(feats):
        _emission(weights, row, em[i])
    return em


def _back_dtype(n_tags: int) -> np.dtype:
    """Smallest unsigned type that holds a tag index: one byte up to 256 tags."""
    return np.min_scalar_type(n_tags - 1)


def _predecessors(delta: np.ndarray, incoming: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One Viterbi column step before its emission is added: back-pointers
    into ``delta`` and each tag's best-predecessor score. ``incoming`` is
    the transposed pairwise matrix, row b holding the scores into tag b;
    the argmax takes the first maximum."""
    scores = incoming + delta
    back = scores.argmax(axis=1)
    return back, scores[np.arange(len(delta)), back]


def _viterbi(em: np.ndarray, init: np.ndarray, incoming: np.ndarray, tags: list[str]) -> list[str]:
    n_pos, n_tags = em.shape
    delta = em[0] + init
    back = np.zeros((n_pos, n_tags), dtype=_back_dtype(n_tags))
    for i in range(1, n_pos):
        back[i], best = _predecessors(delta, incoming)
        delta = best + em[i]
    best = int(np.argmax(delta))
    path = [best]
    for i in range(n_pos - 1, 0, -1):
        best = int(back[i, best])
        path.append(best)
    path.reverse()
    return [tags[t] for t in path]


def decode(model: TaggerModel, tokens: list[str]) -> list[str]:
    """Best tag sequence for the prefix; empty prefix decodes to nothing."""
    if not tokens:
        return []
    feats = [tag_features(tokens, i) for i in range(len(tokens))]
    em = _emissions(model.weights, len(model.tags), feats)
    return _viterbi(em, model.transition_matrix()[0], model._incoming, model.tags)


def _tag_set(dataset: TrainingDataset) -> list[str]:
    # "O" first, so an all-zero score row argmaxes to it.
    tags = ["O"]
    for etype in dataset.entity_types:
        tags.extend((f"B-{etype}", f"I-{etype}"))
    return tags


class _AveragedWeights:
    """Perceptron weights with the lazily-updated averaging accumulators."""

    def __init__(self, n_tags: int) -> None:
        self.n_tags = n_tags
        self.weights: dict[str, np.ndarray] = {}
        self._totals: dict[str, np.ndarray] = {}
        self._stamps: dict[str, np.ndarray] = {}
        self.step = 0

    def update(self, feat: str, tag_idx: int, delta: float) -> None:
        if feat not in self.weights:
            self.weights[feat] = np.zeros(self.n_tags)
            self._totals[feat] = np.zeros(self.n_tags)
            self._stamps[feat] = np.zeros(self.n_tags, dtype=np.int64)
        self._totals[feat][tag_idx] += (self.step - self._stamps[feat][tag_idx]) * self.weights[feat][tag_idx]
        self._stamps[feat][tag_idx] = self.step
        self.weights[feat][tag_idx] += delta

    def averaged(self) -> dict[str, np.ndarray]:
        if self.step == 0:
            return {f: v.copy() for f, v in self.weights.items()}
        out = {}
        for feat, vec in self.weights.items():
            total = self._totals[feat] + (self.step - self._stamps[feat]) * vec
            out[feat] = total / self.step
        return out


def train_tagger(dataset: TrainingDataset, epochs: int = 10, seed: int = 13,
                 lowercase: bool = True) -> TaggerModel:
    """Averaged perceptron training with per-sentence Viterbi decoding.

    A sentence is decoded only if a weight has changed since it last
    decoded to its gold tags: with the same weights it would decode to gold
    again and update nothing. Its step still counts, so the averaged
    weights are bit for bit those of decoding every sentence in every
    epoch; once every sentence is clean, the remaining epochs only count
    steps. The transition scores are rebuilt only after an update.

    A dataset with no entity annotations still yields a valid model; its
    single tag is "O" and decoding is trivially all-"O".
    """
    tags = _tag_set(dataset)
    tag_idx = {t: i for i, t in enumerate(tags)}
    mask = _transition_mask(tags)

    sentences = []
    for ex in dataset.examples:
        tokens, gold = bio_tags(ex.text, ex.entities, lowercase=lowercase)
        if tokens:
            feats = [tag_features(tokens, i) for i in range(len(tokens))]
            sentences.append((feats, gold))

    acc = _AveragedWeights(len(tags))
    rng = random.Random(seed)
    order = list(range(len(sentences)))
    clean = [0] * len(sentences)  # step of each sentence's last decode to gold
    updated = 0  # step of the last weight update
    transitions = None  # (initial, incoming) scores of the current weights
    for _ in range(epochs):
        rng.shuffle(order)
        for idx in order:
            acc.step += 1
            if clean[idx] > updated:
                continue
            feats, gold = sentences[idx]
            if transitions is None:
                init, pair = _transition_scores(acc.weights, tags, mask)
                transitions = init, np.ascontiguousarray(pair.T)
            pred = _viterbi(_emissions(acc.weights, len(tags), feats), *transitions, tags)
            if pred == gold:
                clean[idx] = acc.step
                continue
            # A wrong decode always updates some pt= weight: the transition scores go stale.
            updated, transitions = acc.step, None
            for i, (p, g) in enumerate(zip(pred, gold)):
                prev_p = pred[i - 1] if i > 0 else START
                prev_g = gold[i - 1] if i > 0 else START
                if p == g and prev_p == prev_g:
                    continue
                for feat in feats[i]:
                    acc.update(feat, tag_idx[g], 1.0)
                    acc.update(feat, tag_idx[p], -1.0)
                acc.update(f"pt={prev_g}", tag_idx[g], 1.0)
                acc.update(f"pt={prev_p}", tag_idx[p], -1.0)

    return TaggerModel(tags=tags, weights=acc.averaged())


def extract_entities(tags: list[str], tokens: Sequence[str], start: int = 0) -> list[EntitySpan]:
    """Turn maximal B-I runs from ``start`` on into spans; perceptron
    confidence is fixed at 1.

    A stray I- with no compatible predecessor opens a new span; the decoder
    never produces one, but hand-built tag lists may. A ``start`` inside a
    run reads the run's rest as such a span, so callers start where a span
    starts or at an "O".
    """
    if len(tags) != len(tokens):
        raise ConsistencyError(
            f"{len(tags)} tags for {len(tokens)} tokens"
        )
    spans = []
    i = start
    while i < len(tags):
        tag = tags[i]
        if tag == "O":
            i += 1
            continue
        etype = tag[2:]
        j = i
        while j + 1 < len(tags) and tags[j + 1] == f"I-{etype}":
            j += 1
        spans.append(
            EntitySpan(
                type=etype,
                value=" ".join(tokens[i:j + 1]),
                start=i,
                end=j + 1,
                confidence=1.0,
            )
        )
        i = j + 1
    return spans


class _Lowered(Sequence):
    """Lowercased read-only view of a token list, so no second copy is kept."""

    def __init__(self, tokens: list[str]) -> None:
        self._tokens = tokens

    def __len__(self) -> int:
        return len(self._tokens)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [t.lower() for t in self._tokens[i]]
        return self._tokens[i].lower()


class ViterbiState:
    """One session's Viterbi lattice over the prefix, with its best path and spans.

    Column i is final once token i+1 is known, as only ``nw=`` reads past
    token i. A back-pointer row only reads the final column before it, so
    every row is final and all are kept, one byte per tag. Final score
    columns are kept as checkpoints, at every CHECKPOINT_EVERY-th position.
    Two parts of a column are kept too: its best-predecessor scores and its
    emission summed up to ``pw=``. They read no token past their own, so
    they stay valid while the column survives; they are kept for the two
    most recent positions. Adding ``nw=`` and ``digit`` to a copy of the
    sum, and the result to the scores, gives the column again: final on an
    ADD, which then computes one new column, and the last on a REVOKE right
    after an ADD, which so computes none. Any other column is recomputed
    forward from the nearest checkpoint. Every column so gets the sums
    ``decode`` makes of its ``_predecessors`` and ``_emission`` rows, in
    the same order, so it has the same bits.
    """

    __slots__ = ("model", "n", "back", "checkpoints", "parts", "parted", "tags", "spans")

    def __init__(self, model: TaggerModel) -> None:
        self.model = model
        self.n = 0
        n_tags = len(model.tags)
        self.back = np.zeros((8, n_tags), dtype=_back_dtype(n_tags))  # row i points into column i-1
        self.checkpoints = np.zeros((1, n_tags))  # row j: final column j * CHECKPOINT_EVERY
        # Rows 2p and 2p+1: the best-predecessor scores and head emission of
        # the most recent column computed at a position of parity p.
        self.parts = np.zeros((4, n_tags))
        self.parted = (-1, -1)  # their positions, for p = 0 and 1; -1 for none
        self.tags: list[str] = []
        self.spans: list[EntitySpan] = []

    def _column(self, tokens: Sequence[str], i: int, prev: np.ndarray | None) -> np.ndarray:
        """Score column i from final column i-1; records back-pointer row i
        and keeps the parts :meth:`_finalise` reads."""
        model = self.model
        feats = tag_features(tokens, i)
        row = 2 * (i % 2)
        head = self.parts[row + 1]
        head.fill(0.0)
        _emission(model.weights, feats[:_HEAD_FEATURES], head)
        em = _emission(model.weights, feats[_HEAD_FEATURES:], head.copy())
        if i == 0:
            self.parts[row] = model.transition_matrix()[0]
        else:
            if i == len(self.back):
                self.back = np.resize(self.back, (2 * i, self.back.shape[1]))
            self.back[i], self.parts[row] = _predecessors(prev, model._incoming)
        self.parted = (self.parted[0], i) if row else (i, self.parted[1])
        return self.parts[row] + em

    def _finalise(self, tokens: Sequence[str], i: int) -> np.ndarray:
        """Column i from the parts :meth:`_column` kept of it: final if
        ``tokens`` go past i, else the last."""
        row = 2 * (i % 2)
        em = _emission(self.model.weights, _tail_features(tokens, i), self.parts[row + 1].copy())
        return self.parts[row] + em

    def update(self, tokens: Sequence[str]) -> None:
        """Follow the prefix to ``tokens``.

        The state trusts that the first min(old, new) tokens are the ones it
        has seen, as the lock-step pipeline guarantees; one ADD or REVOKE
        changes the length by one, and a fresh state catches up in one call.
        """
        n = len(tokens)
        kept = min(self.n, n)
        if n == self.n:
            return
        self.n = n
        tags, spans = self.tags, self.spans
        if n == 0:
            tags.clear()
            spans.clear()
            return
        # Parts of columns up to kept-1 and checkpoints up to kept-2 saw only
        # kept tokens. Resume from the newest column whose parts are held,
        # or one past the newest checkpoint, whichever is later; make the
        # columns up to n-2 final, then column n-1 the last.
        p0, p1 = self.parted
        self.parted = (p0 if p0 < kept else -1, p1 if p1 < kept else -1)
        first, col = max(*self.parted, 0), None
        if kept >= 2:
            j = (kept - 2) // CHECKPOINT_EVERY
            if j * CHECKPOINT_EVERY >= first:
                first, col = j * CHECKPOINT_EVERY + 1, self.checkpoints[j]
        for i in range(first, n):
            col = self._finalise(tokens, i) if i in self.parted else self._column(tokens, i, col)
            j, off = divmod(i, CHECKPOINT_EVERY)
            if off == 0 and i < n - 1:
                if j == len(self.checkpoints):
                    self.checkpoints = np.resize(self.checkpoints, (2 * j, len(col)))
                self.checkpoints[j] = col

        # Partial traceback: back-pointer rows below kept are unchanged, so
        # once the new path meets the old one there, the rest is the old one.
        names = self.model.tags
        del tags[n:]
        tags.extend([names[0]] * (n - len(tags)))  # placeholders; the traceback writes them all
        i, cur = n - 1, int(col.argmax())
        tags[i] = names[cur]
        while i > 0:
            cur = int(self.back[i, cur])
            if i - 1 < kept and tags[i - 1] == names[cur]:
                break
            i -= 1
            tags[i] = names[cur]

        # Spans ending before i cannot change; one that reaches i may.
        start = i
        while spans and spans[-1].end >= i:
            start = min(start, spans.pop().start)
        spans.extend(extract_entities(tags, tokens, start))


class SequenceEntityTagger(Component):
    """Restart-incremental entity path: each edit's output equals a full
    re-decode of the prefix, but only the lattice columns the edit changes
    are computed (see :class:`ViterbiState`). Publishes copies of its spans.
    """

    name = "entity_tagger_sequence"
    provides = (ENTITIES,)
    requires = (TOKENS,)
    defaults = {"epochs": 10, "seed": 13, "lowercase": True}

    def __init__(self, params=None) -> None:
        super().__init__(params)
        if self.params["epochs"] < 0:
            raise ParameterError(f"{self.name} epochs must be at least 0, got {self.params['epochs']}")
        self.model: TaggerModel | None = None
        self._state: ViterbiState | None = None

    def train(self, dataset, ctx: TrainingContext) -> None:
        self._state = None
        self.model = train_tagger(
            dataset,
            epochs=self.params["epochs"],
            seed=self.params["seed"],
            lowercase=self.params["lowercase"],
        )

    def process(self, board: Blackboard, edit=None, word=None) -> None:
        if self.model is None:
            raise ConsistencyError("entity_tagger_sequence used before training or loading")
        if self._state is None:
            self._state = ViterbiState(self.model)
        tokens = board.annotations.get(TOKENS, [])
        self._state.update(_Lowered(tokens) if self.params["lowercase"] else tokens)
        board.write(self.name, ENTITIES, list(self._state.spans))

    def new_utterance(self) -> None:
        # Reassign rather than reset in place: fresh() shallow-copies the
        # component, and the copy must not clobber the original's state.
        self._state = None

    def persist(self, directory: Path) -> None:
        model = self.model
        if model is None:
            raise ConsistencyError("cannot persist an untrained entity_tagger_sequence")
        lines = ["#tags\t" + "\t".join(model.tags)]
        for feat in sorted(model.weights):
            vec = model.weights[feat]
            for t, tag in enumerate(model.tags):
                if vec[t] != 0.0:
                    lines.append(f"{feat}\t{tag}\t{float(vec[t])!r}")
        (directory / "model.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, directory: Path, params) -> "SequenceEntityTagger":
        comp = cls(params)
        lines = (directory / "model.tsv").read_text(encoding="utf-8").splitlines()
        header = lines[0].split("\t")
        if header[0] != "#tags":
            raise ConsistencyError("tagger model file missing tag-set header")
        tags = header[1:]
        tag_idx = {t: i for i, t in enumerate(tags)}
        weights: dict[str, np.ndarray] = {}
        for line in lines[1:]:
            if not line:
                continue
            feat, tag, value = line.rsplit("\t", 2)
            if feat not in weights:
                weights[feat] = np.zeros(len(tags))
            weights[feat][tag_idx[tag]] = float(value)
        comp.model = TaggerModel(tags=tags, weights=weights)
        return comp
