"""Whitespace tokenization and the incremental bag-of-words count vector.

The tokenizer alone decides what a token is. At training it tokenizes each
example once and projects its entity spans onto the tokens as BIO tags
(:func:`bio_tags`); every later component trains from those tokens and
tags, and lowercases as the tokenizer does, or the pipeline is refused.

The count vector is updated exactly: an add increments one word count, a
revoke decrements it, so after any balanced edit sequence the vector equals
a from-scratch recount of the surviving hypothesis. Out-of-vocabulary words
contribute nothing to the vector but still occupy a buffer position.

The batch vector used in training is int64. The one a session publishes is
a read-only unsigned array as narrow as its largest count allows: uint8 at
the start of an utterance, widened to the next unsigned type by the add that
would overflow it, and never narrowed. Equal counts give the classifier the
same float row whatever their dtype.

A bundle's ``vocabulary.tsv`` lists the words in index order, one a line,
as :func:`~incnlu.components.write_names` writes every names file.
"""

from __future__ import annotations

import logging
import re
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .components import Component, TrainingContext, read_names, write_names
from .errors import ConfigError, ConsistencyError, DataError
from .iu import ADD, COUNT_VECTOR, REVOKE, TOKENS, Blackboard, EditType

if TYPE_CHECKING:  # pragma: no cover
    from .data import EntityAnnotation

log = logging.getLogger(__name__)

_TOKEN_RE = re.compile(r"\S+")


def tokenize(text: str, lowercase: bool = True) -> list[str]:
    """Split on whitespace runs; empty input gives an empty list."""
    tokens = _TOKEN_RE.findall(text)
    if lowercase:
        tokens = [t.lower() for t in tokens]
    return tokens


def tokenize_with_spans(text: str, lowercase: bool = True) -> list[tuple[str, int, int]]:
    """Tokens plus their character offsets in the original text."""
    out = []
    for match in _TOKEN_RE.finditer(text):
        token = match.group(0)
        if lowercase:
            token = token.lower()
        out.append((token, match.start(), match.end()))
    return out


def bio_tags(
    text: str, entities: list[EntityAnnotation], lowercase: bool = True
) -> tuple[list[str], list[str]]:
    """Project character spans onto whitespace tokens as B-/I-/O tags.

    A span whose boundary lands inside a token is snapped outward to cover
    the whole token; each such adjustment is logged once per utterance.
    """
    spans = tokenize_with_spans(text, lowercase=lowercase)
    tokens = [t for t, _, _ in spans]
    tags = ["O"] * len(tokens)
    snapped = 0
    for ann in entities:
        covered = [
            i for i, (_, s, e) in enumerate(spans) if s < ann.end and e > ann.start
        ]
        if not covered:
            continue
        first, last = covered[0], covered[-1]
        if spans[first][1] != ann.start or spans[last][2] != ann.end:
            snapped += 1
        tags[first] = f"B-{ann.type}"
        for i in covered[1:]:
            tags[i] = f"I-{ann.type}"
    if snapped:
        log.debug("snapped %d entity span(s) to token boundaries in %r", snapped, text)
    return tokens, tags


class Vocabulary:
    """Frozen word-to-index map built from training tokens.

    Indices are dense and assigned in first-occurrence order, so fitting is
    deterministic for a fixed corpus. The tokens are indexed as given;
    ``lowercase`` lowers the words :meth:`index_of` is asked about.
    """

    def __init__(self, index: dict[str, int], lowercase: bool = True) -> None:
        self.index = index
        self.lowercase = lowercase

    @classmethod
    def fit(cls, token_lists: Iterable[list[str]]) -> "Vocabulary":
        index: dict[str, int] = {}
        empty = True
        for tokens in token_lists:
            empty = False
            for token in tokens:
                if token not in index:
                    index[token] = len(index)
        if empty:
            raise DataError("cannot fit a vocabulary on an empty corpus")
        return cls(index)

    def index_of(self, token: str) -> int | None:
        if self.lowercase:
            token = token.lower()
        return self.index.get(token)

    def __len__(self) -> int:
        return len(self.index)

    def to_lines(self) -> list[str]:
        """The words in index order."""
        return sorted(self.index, key=self.index.get)


def count_vector(vocab: Vocabulary, tokens: Iterable[str]) -> np.ndarray:
    """Batch word-count vector of a token sequence."""
    vec = np.zeros(len(vocab), dtype=np.int64)
    for token in tokens:
        idx = vocab.index_of(token)
        if idx is not None:
            vec[idx] += 1
    return vec


# The next wider unsigned type, for an add that would overflow a count.
_WIDER = {np.dtype(narrow): np.dtype(wide) for narrow, wide in
          ((np.uint8, np.uint16), (np.uint16, np.uint32), (np.uint32, np.uint64))}


def vector_apply(vec: np.ndarray, vocab: Vocabulary, token: str, edit: EditType) -> np.ndarray:
    """The count vector after one edit, as a new read-only array.

    ``vec`` is a published vector and is never written. An out-of-vocabulary
    token returns ``vec`` itself. An add that would take a count past its
    unsigned dtype's maximum returns a copy widened to the next unsigned
    type. A revoke that would drive a count negative means the vector no
    longer tracks the buffer.
    """
    idx = vocab.index_of(token)
    if idx is None:
        return vec
    count = vec.item(idx)
    if edit is ADD:
        count += 1
    elif count < 1:
        raise ConsistencyError(
            f"revoke of {token!r} would drive its count below zero"
        )
    else:
        count -= 1
    # A count fits an unsigned type of n bytes if it has no bit above 8n.
    vec = vec.astype(_WIDER[vec.dtype]) if count >> 8 * vec.itemsize else vec.copy()
    vec[idx] = count
    vec.flags.writeable = False
    return vec


class WhitespaceTokenizer(Component):
    """Maintains the token sequence of the surviving hypothesis.

    Incremental adds carry exactly one token each (the buffer rejects
    whitespace in payloads), so an add appends to the tuple it published
    last and a revoke drops that tuple's last token. It keeps no state of
    its own: the board holds its last publication.
    """

    name = "tokenizer_whitespace"
    provides = (TOKENS,)
    defaults = {"lowercase": True}

    def train(self, dataset, ctx: TrainingContext) -> None:
        ctx.lowercase = self.params["lowercase"]
        pairs = [bio_tags(ex.text, ex.entities, ctx.lowercase) for ex in dataset.examples]
        ctx.tokens = [tokens for tokens, _ in pairs]
        ctx.tags = [tags for _, tags in pairs]

    def process(self, board: Blackboard, edit=None, word=None) -> None:
        tokens = board.published(self.name, TOKENS, ())
        if edit is ADD:
            # One copy; (*tokens, token) would make two.
            tokens = tokens + (word.lower() if self.params["lowercase"] else word,)
        elif edit is REVOKE:
            if not tokens:
                raise ConsistencyError("token list empty on revoke")
            tokens = tokens[:-1]
        board.write(self.name, TOKENS, tokens)


class CountVectorsFeaturizer(Component):
    """Bag-of-words featurizer with exact add/revoke updates.

    A new utterance publishes a uint8 zero vector. An edit applies to the
    vector it published last, which the board holds: ``vector_apply`` makes
    the new read-only one, widened if a count outgrew its dtype, and an
    out-of-vocabulary word or a republish shares the last one. It keeps no
    state of its own.
    """

    name = "featurizer_count_vectors"
    provides = (COUNT_VECTOR,)
    requires = (TOKENS,)
    defaults = {"lowercase": True}

    def __init__(self, params=None) -> None:
        super().__init__(params)
        self.vocabulary: Vocabulary | None = None

    def train(self, dataset, ctx: TrainingContext) -> None:
        if ctx.tokens is None:
            raise ConfigError("featurizer_count_vectors needs a tokenizer earlier in the pipeline")
        self.vocabulary = ctx.vocabulary = Vocabulary(Vocabulary.fit(ctx.tokens).index, ctx.lowercase)

    def _require_vocab(self) -> Vocabulary:
        if self.vocabulary is None:
            raise ConsistencyError("featurizer used before training or loading")
        return self.vocabulary

    def process(self, board: Blackboard, edit=None, word=None) -> None:
        vocab = self._require_vocab()
        vec = board.published(self.name, COUNT_VECTOR)
        if vec is None:
            vec = np.zeros(len(vocab), dtype=np.uint8)
            vec.flags.writeable = False
        if edit is not None:
            vec = vector_apply(vec, vocab, word, edit)
        board.write(self.name, COUNT_VECTOR, vec)

    def persist(self, directory: Path) -> None:
        vocab = self._require_vocab()
        write_names(directory / "vocabulary.tsv", vocab.to_lines())

    def restore(self, files) -> None:
        words = read_names(files, "vocabulary.tsv")
        self.vocabulary = Vocabulary({word: i for i, word in enumerate(words)}, self.params["lowercase"])
