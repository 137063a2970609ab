"""Entity tagging over the surviving prefix, decoded incrementally per edit.

An averaged structured perceptron scores BIO tag sequences; Viterbi with
transition constraints guarantees no decoded sequence ever places I-t after
anything but B-t or I-t.

The component keeps one Viterbi lattice per session (:class:`ViterbiState`)
and computes only the columns an edit changes: the right-context feature
``nw=`` makes a column final once the next word is known. Its emission rows
are sums of each word's parts (:class:`WordParts`), which depend only on
the word: the model memoises them per known token on first use, the
token as the tokenizer published it, and those of any other token under
the head features it knows of it. Every session shares the memos, so the
lattice builds no feature string. Position i's last column, its column as
if it were the final word, reads no token to the right of its position,
and one add of the next word's parts makes it final, so an ADD computes
one new column. The component publishes its BIO path and the last
columns of the prefix's RECORD_COLUMNS newest positions under one key,
its lattice record, and its spans, all as tuples; each edit reads the
last ones back from the board. The traceback stops where it meets that
path (partial traceback, Brown, Spohrer, Hochschild & Baker, ICASSP
1982), and spans are re-extracted from there on; a span that ends there
is kept unless the new tag there continues it. Most ADDs change only the
newest tag: those keep every old span and build at most one, a one-word
span for a B- tag or the last span extended by the new word for an I-
tag that continues it, and none for "O".
A REVOKE right after an ADD, and an ADD that puts back the word a REVOKE
just took, get back a board the tagger published, its record included,
so the tagger does nothing on them, and the next edit resumes at a last
column of that record. Up to RECORD_COLUMNS - 1 further REVOKEs in a row
also compute no column; a deeper REVOKE resumes at a checkpoint, the last
column the lattice keeps of every CHECKPOINT_EVERY-th position, at most
CHECKPOINT_EVERY - 1 columns back.
Every score is an int64 sum of the model's integer totals, exact in any
order, so every column equals the one the batch :func:`decode` makes of
feature strings, and the entity output is exactly that of a restart over
the current prefix.

Training (:func:`train_tagger`, Collins, EMNLP 2002) reads the tokens and
BIO tags the tokenizer left on the training context, and decodes a sentence
only if a weight has changed since it last decoded to its gold tags. A
skipped decode would give gold again and update nothing, so the averaged
weights are those of decoding every sentence in every epoch. An averaged
weight is the weight's total over the sentence steps divided by the step
count. Scaling every score by the same positive count moves no argmax, so
the model keeps the totals and never divides, and the bundle stores them:
``tags.tsv`` names the tags and ``features.tsv`` each feature with a
nonzero total, one a line, and the sparse table of
:func:`~incnlu.components.write_rows` holds the totals, a row per feature
and a column per tag: a width for each feature in ``widths``, then as many
tag indices in ``index`` and totals in ``values.i4``, files that hold only
their values, so the names files fix their sizes. The model keeps the totals as one read-only int64
table, a row per feature, as training leaves them and loading scatters
them, and its ``weights`` are a view of that table by feature.
"""

from __future__ import annotations

import random
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .components import Component, TrainingContext, read_names, read_rows, write_names, write_rows
from .data import TrainingDataset
from .errors import ConsistencyError, DataError, ParameterError
from .iu import ENTITIES, LATTICE, TOKENS, Blackboard
from .results import EntitySpan

START = "<s>"
END = "</s>"
# A move BIO forbids scores this plus its weight; see ViterbiState for why
# no sum reaches it or overflows.
_MASKED = -2**60
# A session's lattice keeps the last column of every CHECKPOINT_EVERY-th
# position; an edit recomputes at most this many minus one columns.
CHECKPOINT_EVERY = 16
# The tagger's record on the board holds the last columns of this many of
# its prefix's newest positions, so a run of REVOKEs that a restore starts
# computes no column until it is deeper than this.
RECORD_COLUMNS = 3
# Every total is below this in magnitude, trained or loaded.
_TOTAL_BELOW = 2**31


def _head_features(word: str) -> list[str]:
    """The features of a position that read its own word alone, in the
    order :func:`tag_features` lists them."""
    return ["bias", f"w={word}", f"lw={word.lower()}", f"p3={word[:3]}", f"s3={word[-3:]}"]


def tag_features(tokens: list[str], i: int) -> list[str]:
    """Static feature strings for position i (prev-tag added at decode time)."""
    word = tokens[i]
    feats = _head_features(word)
    feats += (
        f"pw={tokens[i - 1] if i > 0 else START}",
        f"nw={tokens[i + 1] if i + 1 < len(tokens) else END}",
    )
    if word.isdigit():
        feats.append("digit")
    return feats


def _transition_mask(tags: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """(initial, pairwise) masks: 0 where allowed, _MASKED where BIO forbids.

    An I- tag may follow only the B- or I- tag of its own entity type, and
    may not start a sentence.
    """
    # Each B- or I- tag's entity type as a code, and -1 for every other tag.
    codes: dict[str, int] = {}
    types = np.array(
        [codes.setdefault(tag[2:], len(codes)) if tag[:2] in ("B-", "I-") else -1 for tag in tags],
        dtype=np.int64,
    )
    inside = np.array([tag.startswith("I-") for tag in tags], dtype=bool)
    init = np.where(inside, _MASKED, 0).astype(np.int64)
    pair = np.where(inside & (types[:, None] != types), _MASKED, 0).astype(np.int64)
    return init, pair


class Totals(Mapping):
    """The tagger's weights by feature string: ``table`` holds one int64
    row over the tags per feature, and ``rows`` maps each feature to its
    row. Reading a feature gives a view of its row."""

    __slots__ = ("rows", "table")

    def __init__(self, rows: dict[str, int], table: np.ndarray) -> None:
        self.rows = rows
        self.table = table

    def __getitem__(self, feat: str) -> np.ndarray:
        return self.table[self.rows[feat]]

    def __contains__(self, feat: object) -> bool:
        return feat in self.rows

    def __iter__(self) -> Iterator[str]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def get(self, feat: str, default=None):
        row = self.rows.get(feat)
        return default if row is None else self.table[row]

    def sum(self, feats: Sequence[str]) -> np.ndarray:
        """The sum of the rows of ``feats``, a feature it lacks counting as
        zero: a new int64 vector."""
        rows = self.rows
        return self.table[[rows[feat] for feat in feats if feat in rows]].sum(axis=0)


def _transition_scores(
    weights: Totals, tags: list[str], mask: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """(initial, pairwise) scores: the pt= weights plus the BIO mask."""
    init_mask, pair_mask = mask
    zero = np.zeros(len(tags), dtype=np.int64)
    init = weights.get(f"pt={START}", zero) + init_mask
    pair = np.array([weights.get(f"pt={tag}", zero) for tag in tags]) + pair_mask
    return init, pair


@dataclass
class TaggerModel:
    """Averaged-perceptron weights, one int64 vector over tags per feature
    string.

    Each weight is a total: the averaged weight times the number of
    sentence steps training took, so the argmax of every score is that of
    the averaged weights. Every total is below _TOTAL_BELOW in magnitude,
    or the model refuses to be built with a DataError. Training keeps no
    feature whose totals are all zero, as the model files hold none.

    ``weights`` are :class:`Totals` over one read-only int64 table, which
    every session shares. Training and loading hand over their tables as
    they are; a plain mapping of feature to vector is stacked into one.

    The streaming path reads a token's weights through :meth:`word_parts`,
    memoised per known word on first use and shared by every session on
    the model. Unseen words are kept by the head features the model knows
    of them, so every memo is bounded by the model, not by the input.
    """

    tags: list[str]
    weights: Mapping[str, np.ndarray]

    def __post_init__(self) -> None:
        n_tags = len(self.tags)
        if not isinstance(self.weights, Totals):
            vectors = [*self.weights.values()]
            table = np.array(vectors) if vectors else np.zeros((0, n_tags), dtype=np.int64)
            self.weights = Totals({feat: row for row, feat in enumerate(self.weights)}, table)
        table = self.weights.table
        if table.dtype != np.int64 or table.shape[1:] != (n_tags,) or table.size and not (
                -_TOTAL_BELOW < table.min() <= table.max() < _TOTAL_BELOW):
            raise DataError(f"tagger totals must be int64, {n_tags} a feature, "
                            f"below {_TOTAL_BELOW} in magnitude")
        # Built once, as the weights are final; read-only, as every session shares them.
        self._transitions = _transition_scores(self.weights, self.tags, _transition_mask(self.tags))
        # Row b: the pairwise scores into tag b, for ViterbiState's _predecessors.
        self._incoming = np.ascontiguousarray(self._transitions[1].T)
        # Each row's start in the flattened scores, for _predecessors.
        self._offsets = _row_offsets(n_tags)
        # The initial scores plus the pw=<s> weights: position 0's last
        # column is these plus its word's WordParts.last.
        self._first = self._transitions[0] + self.weights.get(f"pw={START}", 0)
        for array in (table, *self._transitions, self._incoming, self._offsets, self._first):
            array.flags.writeable = False
        # word_parts memos: at most one entry per known word, and one for
        # the other words, keyed by the head features the model knows of
        # them. Not fields, so a copy made through ``dataclasses.replace``
        # starts its own.
        self._memos: dict[str, WordParts] = {}
        self._unseen: dict[tuple[str | bool, ...], WordParts] = {}

    def transition_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        return self._transitions

    def word_parts(self, token: str) -> WordParts:
        """The emission parts of ``token``, as the tokenizer published it.
        They are memoised under it if the weights know it by its ``w=``,
        ``pw=`` or ``nw=`` feature. Any other token's parts are its ``lw=``,
        ``p3=`` and ``s3=`` weights and its ``digit`` flag alone, so they
        are memoised under the ones of those features the weights know and
        that flag: a key the model bounds, however many tokens share it."""
        parts = self._memos.get(token)
        if parts is None:
            rows = self.weights.rows
            if f"w={token}" in rows or f"pw={token}" in rows or f"nw={token}" in rows:
                parts = self._memos[token] = WordParts(self, token)
            else:
                key = (*[feat for feat in _head_features(token)[2:] if feat in rows], token.isdigit())
                parts = self._unseen.get(key)
                if parts is None:
                    parts = self._unseen[key] = WordParts(self, token)
        return parts


class WordParts:
    """A word's share of the emission rows, as :func:`tag_features` names it.

    ``last`` is the sum of its ``bias``, ``w=``, ``lw=``, ``p3=`` and
    ``s3=`` weights, its ``digit`` weights if it is a number, and the
    ``nw=</s>`` weights: its own emission as the final word, but for its
    left neighbour's ``pw=``. ``pw`` is the weights its right neighbour
    reads of it, None if the model lacks them. ``fin`` is the ``nw=``
    weights its left neighbour reads of it minus ``nw=</s>``, a weight the
    model lacks counting as zero: what turns that neighbour's last column
    into its final one. Column i's emission as the last is then ``last`` of
    word i plus ``pw`` of word i-1, and adding ``fin`` of word i+1 makes it
    the sum ``decode`` makes of its feature strings.
    """

    __slots__ = ("pw", "last", "fin")

    def __init__(self, model: TaggerModel, word: str) -> None:
        weights = model.weights
        zero = np.zeros(len(model.tags), dtype=np.int64)
        self.last = weights.sum([*_head_features(word), f"nw={END}", *["digit"] * word.isdigit()])
        self.pw = weights.get(f"pw={word}")
        self.fin = weights.get(f"nw={word}", zero) - weights.get(f"nw={END}", zero)
        self.last.flags.writeable = self.fin.flags.writeable = False


def _emissions(weights: Totals, n_tags: int, feats: list[list[str]]) -> np.ndarray:
    em = np.zeros((len(feats), n_tags), dtype=np.int64)
    for i, row in enumerate(feats):
        em[i] = weights.sum(row)
    return em


def _back_dtype(n_tags: int) -> np.dtype:
    """Smallest unsigned type that holds a tag index: one byte up to 256 tags."""
    return np.min_scalar_type(n_tags - 1)


def _row_offsets(n_tags: int) -> np.ndarray:
    """Where each row of an (n_tags, n_tags) matrix starts once flattened."""
    return np.arange(0, n_tags * n_tags, n_tags)


def _predecessors(delta: np.ndarray, incoming: np.ndarray, offsets: np.ndarray,
                  out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """One Viterbi column step before its emission is added: back-pointers
    into ``delta`` and each tag's best-predecessor score, a new array.
    ``incoming`` is the transposed pairwise matrix, row b holding the scores
    into tag b, and ``offsets`` its :func:`_row_offsets`. The scores are
    summed into ``out`` if given. The argmax takes the first maximum."""
    scores = np.add(incoming, delta, out=out)
    back = scores.argmax(axis=1)
    return back, scores.take(back + offsets)


def _viterbi(em: np.ndarray, init: np.ndarray, incoming: np.ndarray,
             offsets: np.ndarray) -> list[int]:
    """The best path's tag indices over emission rows ``em``."""
    n_pos, n_tags = em.shape
    delta = em[0] + init
    back = np.zeros((n_pos, n_tags), dtype=_back_dtype(n_tags))
    scores = np.empty((n_tags, n_tags), dtype=np.int64)
    for i in range(1, n_pos):
        back[i], delta = _predecessors(delta, incoming, offsets, scores)
        delta += em[i]
    best = int(delta.argmax())
    path = [best]
    for i in range(n_pos - 1, 0, -1):
        best = int(back[i, best])
        path.append(best)
    path.reverse()
    return path


def decode(model: TaggerModel, tokens: list[str]) -> list[str]:
    """Best tag sequence for the prefix; empty prefix decodes to nothing."""
    if not tokens:
        return []
    feats = [tag_features(tokens, i) for i in range(len(tokens))]
    em = _emissions(model.weights, len(model.tags), feats)
    path = _viterbi(em, model.transition_matrix()[0], model._incoming, model._offsets)
    return [model.tags[t] for t in path]


def _tag_set(dataset: TrainingDataset) -> list[str]:
    # "O" first, so an all-zero score row argmaxes to it.
    tags = ["O"]
    for etype in dataset.entity_types:
        tags.extend((f"B-{etype}", f"I-{etype}"))
    return tags


def train_tagger(ctx: TrainingContext, epochs: int = 10, seed: int = 13) -> TaggerModel:
    """Averaged perceptron training with per-sentence Viterbi decoding, on
    the tokens and gold BIO tags the tokenizer left on ``ctx``.

    A sentence is decoded only if a weight has changed since it last
    decoded to its gold tags: with the same weights it would decode to gold
    again and update nothing. Its step still counts, so the totals are
    those of decoding every sentence in every epoch; once every sentence is
    clean, the remaining epochs only count steps. The transition scores are
    rebuilt only after an update.

    The weights and ``moved``, each cell's sum of step times change, are
    dense int64 arrays with one row per feature string, and each sentence's
    features are an index array into them, padded with an all-zero row. So
    one gather and one reduction make a sentence's emissions, and a wrong
    decode's updates land in one batch. A change d at step t counts in the
    weight at each of the S - t later steps, so a cell's total over S steps
    is S times its final weight minus its ``moved``. The model gets those
    totals, of the features with a nonzero one.

    A dataset with no entity annotations still yields a valid model; its
    single tag is "O" and decoding is trivially all-"O".
    """
    tags = _tag_set(ctx.dataset)
    n_tags = len(tags)
    tag_idx = {t: i for i, t in enumerate(tags)}
    init_mask, pair_mask = _transition_mask(tags)
    offsets = _row_offsets(n_tags)

    # Each feature string's row: the training features, then the pt= ones.
    rows: dict[str, int] = {}
    sentences = []
    for tokens, gold in zip(ctx.tokens, ctx.tags):
        if tokens:
            feats = [[rows.setdefault(f, len(rows)) for f in tag_features(tokens, i)]
                     for i in range(len(tokens))]
            sentences.append((feats, [tag_idx[t] for t in gold]))
    start_row = rows.setdefault(f"pt={START}", len(rows))
    tag_rows = np.array([rows.setdefault(f"pt={tag}", len(rows)) for tag in tags])
    pad = len(rows)  # the all-zero row that pads every position to its sentence's width
    for n, (feats, gold) in enumerate(sentences):
        index = np.full((max(map(len, feats)), len(feats)), pad)
        for i, row in enumerate(feats):
            index[:len(row), i] = row
        sentences[n] = index, gold

    weights = np.zeros((pad + 1, n_tags), dtype=np.int64)
    moved = np.zeros_like(weights)
    # Flat views, which the updates index by cell.
    flat_weights, flat_moved = weights.ravel(), moved.ravel()
    rng = random.Random(seed)
    order = list(range(len(sentences)))
    clean = [0] * len(sentences)  # step of each sentence's last decode to gold
    step = 0
    updated = 0  # step of the last weight update
    transitions = None  # (initial, incoming) scores of the current weights
    for _ in range(epochs):
        rng.shuffle(order)
        for idx in order:
            step += 1
            if clean[idx] > updated:
                continue
            index, gold = sentences[idx]
            if transitions is None:
                transitions = (weights[start_row] + init_mask,
                               np.ascontiguousarray((weights[tag_rows] + pair_mask).T))
            pred = _viterbi(weights[index].sum(axis=0), *transitions, offsets)
            if pred == gold:
                clean[idx] = step
                continue
            # A wrong decode always updates some pt= weight: the transition scores go stale.
            updated, transitions = step, None
            # A position is wrong if its tag or the one before it is: its
            # features and the previous tag's pt= feature move toward gold.
            pred, gold = np.array(pred), np.array(gold)
            prev_pred = np.append(start_row, tag_rows[pred[:-1]])
            prev_gold = np.append(start_row, tag_rows[gold[:-1]])
            wrong = (pred != gold) | (prev_pred != prev_gold)
            feats = index[:, wrong]
            up = np.vstack((feats, prev_gold[wrong])) * n_tags + gold[wrong]
            down = np.vstack((feats, prev_pred[wrong])) * n_tags + pred[wrong]
            cells = np.concatenate((up.ravel(), down.ravel()))
            deltas = np.repeat((1, -1), up.size)
            real = cells < pad * n_tags  # the padding row stays zero
            cells, deltas = cells[real], deltas[real]
            np.add.at(flat_weights, cells, deltas)
            np.add.at(flat_moved, cells, step * deltas)

    totals = step * weights - moved
    kept = np.flatnonzero(totals.any(axis=1))
    names = list(rows)
    return TaggerModel(tags=tags, weights=Totals({names[r]: i for i, r in enumerate(kept)}, totals[kept]))


def extract_entities(tags: Sequence[str], tokens: Sequence[str]) -> tuple[EntitySpan, ...]:
    """Turn maximal B-I runs into spans; perceptron confidence is fixed at 1.

    A stray I- with no compatible predecessor opens a new span; the decoder
    never produces one, but hand-built tag lists may.
    """
    if len(tags) != len(tokens):
        raise ConsistencyError(
            f"{len(tags)} tags for {len(tokens)} tokens"
        )
    return tuple(
        EntitySpan(type=etype, value=" ".join(tokens[i:j]), start=i, end=j, confidence=1.0)
        for etype, i, j in _runs(tags, 0)
    )


def _runs(tags: Sequence[str], start: int):
    """(type, start, end) of each maximal B-I run from ``start`` on; ``end``
    is exclusive. A ``start`` inside a run reads the run's rest as a run of
    its own, so callers start where a span starts or at an "O"."""
    i = start
    while i < len(tags):
        tag = tags[i]
        if tag == "O":
            i += 1
            continue
        etype = tag[2:]
        j = i + 1
        while j < len(tags) and tags[j] == f"I-{etype}":
            j += 1
        yield etype, i, j
        i = j


class ViterbiState:
    """One session's Viterbi lattice over the prefix.

    The state reads the tokens as the tokenizer published them and takes
    each one's emission parts from :meth:`TaggerModel.word_parts`; it
    builds no feature string. Column i is final once token i+1 is known,
    as only ``nw=`` reads past token i. A back-pointer row only reads the
    final column before it, so every row is final and all are kept, one
    byte per tag. Position i's last column, its column as if it were the
    final word, with ``nw=</s>`` on its right, reads no token past its own.
    One vector add, the next word's ``fin``, turns it into the final one.

    Scores are int64, and a move BIO forbids scores _MASKED, -2^60, plus
    its weight. A last column adds nine totals at a position, each below
    _TOTAL_BELOW (2^31) in magnitude: the five head features, ``digit``,
    ``nw=</s>``, the left neighbour's ``pw=`` and a transition. Its final
    column adds ``fin``, which takes ``nw=</s>`` out again and puts the
    next word's ``nw=`` in, so it lands on a sum of nine totals too, the
    ones ``decode`` adds there. An I- tag is reached through its B- one
    position back, so every allowed score in a column is within 36 bounds,
    below 2^37, of the column's best, and a forbidden move never wins: no
    best-predecessor score holds the sentinel, and a candidate sum holds it
    at most twice, from the initial and a pairwise mask. Over n positions
    no column, last or final, exceeds 2 * 2^60 + 9 * n * 2^31 in
    magnitude, below 2^63 while n is below 2^30 / 3, about 358 million.
    ``fin`` is below 2^32 in magnitude, and adding it to a last column
    gives a final column, so that add stays within the bound too.

    The state keeps the back-pointer rows and ``checkpoints``, the last
    columns of positions CHECKPOINT_EVERY, 2 * CHECKPOINT_EVERY, and so on;
    position 0's is rebuilt from the model's initial scores with one add.
    Both are written whenever a position is computed and never dropped, as
    every position below a board's length was last computed from that
    board's own words: the state computes a position only for the board
    the components run on, below its length, and every board the
    interpreter can give back agrees with that one below both lengths, as
    the board before an ADD is a prefix of it, a REVOKE parks one that
    extends it, and an ADD the components run clears the redo stack.

    The best path, its spans and the last columns of its RECORD_COLUMNS
    newest positions are not kept here: :meth:`update` is given the last
    ones the tagger published and returns the new ones. An edit resumes at
    the newest of those columns below its length, or else at the
    checkpoint below it.
    """

    __slots__ = ("model", "back", "checkpoints")

    def __init__(self, model: TaggerModel) -> None:
        self.model = model
        n_tags = len(model.tags)
        self.back = np.zeros((8, n_tags), dtype=_back_dtype(n_tags))  # row i points into column i-1
        self.checkpoints: dict[int, np.ndarray] = {}

    def update(self, tokens: Sequence[str], tags: tuple[str, ...], spans: tuple[EntitySpan, ...],
               columns: tuple[np.ndarray, ...]) -> tuple[tuple[str, ...], tuple[EntitySpan, ...],
                                                         tuple[np.ndarray, ...]]:
        """The best path, spans and record columns over ``tokens``, from
        ``tags``, ``spans`` and ``columns``, those of the prefix last
        decoded; ``columns`` are the read-only last columns of at most
        RECORD_COLUMNS of its newest positions, the newest last.

        The state trusts that the first min(len(tags), len(tokens)) tokens
        are that prefix's, as the lock-step pipeline guarantees, and that it
        last computed each of their positions from them. The lengths may
        differ by any number of tokens.
        """
        n, m = len(tokens), len(tags)
        if n == m:
            return tags, spans, columns
        if n == 0:
            return (), (), ()
        # Resume at the newest position below n whose last column is known,
        # one of the record's or else a checkpoint, position 0's rebuilt:
        # make each column up to n-2 final and compute the next one's last.
        model = self.model
        word_parts = model.word_parts
        kept = min(m, n)
        below = len(columns) - m + kept  # the record's columns below n
        if below > 0:
            first, columns = kept - 1, columns[:below]
        else:
            first = (n - 1) // CHECKPOINT_EVERY * CHECKPOINT_EVERY
            if first:
                col = self.checkpoints[first]
            else:
                col = model._first + word_parts(tokens[0]).last
                col.setflags(write=False)
            columns = (col,)
        col, word = columns[-1], word_parts(tokens[first])
        for i in range(first + 1, n):
            after = word_parts(tokens[i])
            if i == len(self.back):
                grown = np.empty((2 * i, self.back.shape[1]), dtype=self.back.dtype)
                grown[:i] = self.back
                self.back = grown
            self.back[i], col = _predecessors(col + after.fin, model._incoming, model._offsets)
            col += after.last
            if word.pw is not None:
                col += word.pw
            col.setflags(write=False)
            if not i % CHECKPOINT_EVERY:
                self.checkpoints[i] = col
            columns = (*columns, col)[-RECORD_COLUMNS:]
            word = after

        # Partial traceback: back-pointer rows below kept are unchanged, so
        # once the new path meets the old one there, the rest is the old one.
        names, back = model.tags, self.back
        i, cur = n - 1, int(col.argmax())
        path = [names[cur]]
        while i > 0:
            cur = back.item(i, cur)
            if i - 1 < kept and tags[i - 1] == names[cur]:
                break
            i -= 1
            path.append(names[cur])
        if i == m == n - 1:
            # An ADD that changed only the newest tag: the old spans stand,
            # and the new tag adds a span, continues the last one or is "O".
            tag = path[0]
            tags += (tag,)
            if tag == "O":
                return tags, spans, columns
            last = spans[-1] if spans else None
            if last is not None and last.end == i and tag == "I-" + last.type:
                span = EntitySpan(last.type, f"{last.value} {tokens[i]}", last.start, n, 1.0)
                return tags, spans[:-1] + (span,), columns
            return tags, spans + (EntitySpan(tag[2:], tokens[i], i, n, 1.0),), columns
        path.reverse()
        tags = tags[:i] + tuple(path)

        # Spans ending before i cannot change, nor can one ending at i unless
        # tag i continues it. Such a span keeps its value and takes on the
        # run from i; one holding position i is scanned again from its start.
        k = len(spans)
        while k:
            span = spans[k - 1]
            if span.end < i or span.end == i and tags[i] != "I-" + span.type:
                break
            k -= 1
        head = spans[k] if k < len(spans) else None
        continued = head is not None and head.end == i
        new = []
        for etype, s, e in _runs(tags, min(i, head.start) if head is not None and head.end > i else i):
            value = " ".join(tokens[s:e])
            if continued:
                continued, s, value = False, head.start, f"{head.value} {value}"
            new.append(EntitySpan(etype, value, s, e, 1.0))
        return tags, spans[:k] + tuple(new), columns


class SequenceEntityTagger(Component):
    """Restart-incremental entity path: each edit's output equals a full
    re-decode of the prefix, but only the lattice columns the edit changes
    are computed (see :class:`ViterbiState`). Publishes its lattice record,
    ``(path, columns)``, and its spans as tuples, and computes the next
    ones from those on the board; its session state is the lattice's
    back-pointer rows and checkpoints.
    """

    name = "entity_tagger_sequence"
    provides = (LATTICE, ENTITIES)
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
        self.model = train_tagger(ctx, epochs=self.params["epochs"], seed=self.params["seed"])

    def process(self, board: Blackboard, edit=None, word=None) -> None:
        if self.model is None:
            raise ConsistencyError("entity_tagger_sequence used before training or loading")
        state = self._state
        if state is None:
            # A new lattice holds no row of a record on the board: it decodes anew.
            state = self._state = ViterbiState(self.model)
            (tags, columns), spans = ((), ()), ()
        else:
            tags, columns = board.published(self.name, LATTICE, ((), ()))
            spans = board.published(self.name, ENTITIES, ())
        tags, spans, columns = state.update(board.annotations.get(TOKENS, ()), tags, spans, columns)
        board.write(self.name, LATTICE, (tags, columns))
        board.write(self.name, ENTITIES, spans)

    def new_utterance(self) -> None:
        # Reassign rather than reset in place: fresh() shallow-copies the
        # component, and the copy must not clobber the original's state.
        self._state = None

    def persist(self, directory: Path) -> None:
        model = self.model
        if model is None:
            raise ConsistencyError("cannot persist an untrained entity_tagger_sequence")
        rows, table = model.weights.rows, model.weights.table
        nonzero = table.any(axis=1)
        feats = sorted(feat for feat, row in rows.items() if nonzero[row])
        write_names(directory / "tags.tsv", model.tags)
        write_names(directory / "features.tsv", feats)
        write_rows(directory, table[np.array([rows[feat] for feat in feats], dtype=np.intp)])

    def restore(self, files) -> None:
        tags = read_names(files, "tags.tsv")
        if not tags:
            raise ValueError("tags.tsv names no tag")
        feats = read_names(files, "features.tsv")
        table = read_rows(files, (len(feats), len(tags)))
        if not table.any(axis=1).all():
            raise ValueError("a feature has no nonzero total")
        self.model = TaggerModel(tags=tags, weights=Totals(dict(zip(feats, range(len(feats)))), table))
