"""Seeded edit streams for the benchmark workloads.

Every input is derived from ``data/snips_train.json`` and
``data/snips_test.json`` and a seed; the program under test only ever sees
the resulting words and ADD/REVOKE edits. A stream is a list of
:class:`Segment`; the benchmark checks the session after each segment.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from incnlu import EditType, load_dataset, tokenize

ADD = EditType.ADD
REVOKE = EditType.REVOKE

# ASR-style revisions. stream_revise draws them at random, wrong words at
# the noise protocol's rate of 0.4. stream_long revises less, once per block
# of words at a seeded place in the block, so that its revokes spread evenly
# over the prefix lengths and their median does not hang on the seed.
REVISE_RATES = (0.4, 0.2)
LONG_BLOCKS = (10, 25)
LONG_WORDS = 1000
LONG_REFERENCE_CHECKS = 10
TRAIN_EVAL_PASSES = 4
MAX_REDO = 3


@dataclass
class Segment:
    """Edits fed to one session, then checked.

    ``reset`` starts a new utterance before the edits. ``words`` is the
    surviving hypothesis once the edits are applied. ``reference`` asks for
    the independent output checks at the end of the segment, ``memory`` for
    a measurement of the memory the session holds there.
    """

    reset: bool
    edits: list[tuple[EditType, str | None]]
    words: list[str]
    reference: bool = True
    memory: bool = True


class Corpus:
    """Test utterances as word lists, and the pool of wrong words."""

    def __init__(self, root) -> None:
        self.train = load_dataset(root / "data" / "snips_train.json")
        self.test = load_dataset(root / "data" / "snips_test.json")
        self.utterances = [tokenize(ex.text, lowercase=False) for ex in self.test.examples]
        self.wrong_words = sorted({w for ex in self.train.examples for w in tokenize(ex.text)})

    def shuffled(self, rng: random.Random) -> list[list[str]]:
        order = list(self.utterances)
        rng.shuffle(order)
        return order


def rng_for(workload: str, seed: int, round_no: int) -> random.Random:
    # str seeds hash through sha512, so they do not depend on PYTHONHASHSEED.
    return random.Random(f"{workload}/{seed}/{round_no}")


def _random_plan(n: int, rng: random.Random, rates) -> tuple[set[int], set[int]]:
    """Positions to revise, each drawn independently at its rate."""
    return tuple({i for i in range(n) if rng.random() < rate} for rate in rates)


def _block_plan(n: int, rng: random.Random, blocks) -> tuple[set[int], set[int]]:
    """One position to revise per block, at a seeded offset in the block."""
    return tuple({b + rng.randrange(min(size, n - b)) for b in range(0, n, size)} for size in blocks)


def _revised_edits(
    words: list[str], done: list[str], corpus: Corpus, rng: random.Random, plan
) -> list[tuple[EditType, str | None]]:
    """Edits that add ``words`` after ``done``, with the planned revisions.

    ``plan`` holds two sets of true-word positions in the session. Before a
    word at a position of the first set, a wrong word is added and revoked.
    After a word at a position of the second, the last one to three true
    words are revoked and added again. The surviving hypothesis at the end
    is ``done + words``.
    """
    wrong_at, redo_at = plan
    edits: list[tuple[EditType, str | None]] = []
    history = list(done)
    for word in words:
        if len(history) in wrong_at:
            edits += [(ADD, rng.choice(corpus.wrong_words)), (REVOKE, None)]
        edits.append((ADD, word))
        history.append(word)
        if len(history) - 1 in redo_at:
            k = rng.randint(1, min(MAX_REDO, len(history)))
            edits += [(REVOKE, None)] * k
            edits += [(ADD, w) for w in history[-k:]]
    return edits


def stream_clean(corpus: Corpus, rng: random.Random) -> list[Segment]:
    """Each utterance word by word, then its last word retracted once."""
    segments = []
    for words in corpus.shuffled(rng):
        segments.append(Segment(True, [(ADD, w) for w in words], words))
        segments.append(Segment(False, [(REVOKE, None)], words[:-1], memory=False))
    return segments


def stream_revise(corpus: Corpus, rng: random.Random) -> list[Segment]:
    """Each utterance with wrong words and redos at the revise rates."""
    segments = []
    for words in corpus.shuffled(rng):
        plan = _random_plan(len(words), rng, REVISE_RATES)
        segments.append(Segment(True, _revised_edits(words, [], corpus, rng, plan), words))
    return segments


def train_eval(corpus: Corpus, rng: random.Random) -> list[Segment]:
    """TRAIN_EVAL_PASSES passes of stream_revise, so that the 99th percentile
    has samples enough; memory is measured in the first pass only."""
    segments = stream_revise(corpus, rng)
    for _ in range(TRAIN_EVAL_PASSES - 1):
        segments += [replace(seg, memory=False) for seg in stream_revise(corpus, rng)]
    return segments


def long_words(corpus: Corpus, rng: random.Random) -> list[list[str]]:
    """Utterances in seeded order, cycled and cut to LONG_WORDS words."""
    chunks: list[list[str]] = []
    total = 0
    while total < LONG_WORDS:
        for words in corpus.shuffled(rng):
            words = words[: LONG_WORDS - total]
            chunks.append(words)
            total += len(words)
            if total == LONG_WORDS:
                break
    return chunks


def stream_long(corpus: Corpus, rng: random.Random) -> list[Segment]:
    """One session with no utterance break, LONG_WORDS true words long.

    There is a checkpoint after every utterance; the independent output
    checks run at LONG_REFERENCE_CHECKS evenly spaced ones and the last, and
    the session's memory is measured at the last.
    """
    chunks = long_words(corpus, rng)
    plan = _block_plan(LONG_WORDS, rng, LONG_BLOCKS)
    every = max(1, len(chunks) // LONG_REFERENCE_CHECKS)
    segments = []
    done: list[str] = []
    for i, words in enumerate(chunks):
        edits = _revised_edits(words, done, corpus, rng, plan)
        done = done + words
        last = i == len(chunks) - 1
        segments.append(
            Segment(i == 0, edits, done, reference=last or (i + 1) % every == 0, memory=last)
        )
    return segments
