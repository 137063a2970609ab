"""Scaling of measured times to one reference machine speed.

On a shared machine the speed of one vCPU drifts by a third and more over
seconds to minutes, and flips between a fast and a slow state within tens
of milliseconds, as other tenants come and go; medians of raw times taken a
minute apart differ by that much however long each run is. So the
benchmark times a fixed calibration kernel right before every timed edit,
and every TIMER_EVERY_NS from a timer signal during long calls, and scales
each time by ``REFERENCE_NS / kernel time``: a time is reported as it would
read on a machine where the kernel takes REFERENCE_NS. The kernel is the
benchmark's own code and does not touch the program, so a change to the
program moves the scaled times as it moves the raw ones. The raw kernel
times go into the run report.

The kernel does the same kinds of work as the program's per-edit path: a
Viterbi decode over a seeded synthetic perceptron model (string features,
dict lookups, small numpy operations), a pass over tag pairs with string
formatting like a BIO transition mask, and a sort of scored labels.
"""

from __future__ import annotations

import random
import signal
import time

import numpy as np

clock = time.perf_counter_ns

REFERENCE_NS = 400_000
TIMER_EVERY_NS = 20_000_000
_TAGS = 33
_WORDS = 12
_TAG_NAMES = ["O"] + [f"{p}-t{i}" for i in range(_TAGS // 2) for p in "BI"]


class Calibration:
    """Kernel times measured over a run, and the scale factors they give."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        pick = random.Random(0)
        vocab = [f"word{i}" for i in range(300)]
        self._weights = {
            f"{kind}={w}": rng.standard_normal(_TAGS)
            for w in vocab
            for kind in ("w", "lw", "p3", "s3", "pw", "nw")
        }
        self._weights["bias"] = rng.standard_normal(_TAGS)
        self._pair = rng.standard_normal((_TAGS, _TAGS))
        self._sentence = [pick.choice(vocab) for _ in range(_WORDS)]
        self.kernel_ns: list[float] = []
        self.factors: list[float] = []
        self.measure()

    def _kernel(self) -> int:
        s, w = self._sentence, self._weights
        em = []
        for i, word in enumerate(s):
            row = np.zeros(_TAGS)
            for feat in (
                "bias", "w=" + word, "lw=" + word.lower(), "p3=" + word[:3], "s3=" + word[-3:],
                "pw=" + (s[i - 1] if i else "<s>"), "nw=" + (s[i + 1] if i + 1 < len(s) else "</s>"),
            ):
                vec = w.get(feat)
                if vec is not None:
                    row += vec
            em.append(row)
        cols = np.arange(_TAGS)
        delta = em[0]
        for row in em[1:]:
            cand = delta[:, None] + self._pair
            delta = cand[cand.argmax(axis=0), cols] + row
        forbidden = 0
        for tag in _TAG_NAMES:
            if tag.startswith("I-"):
                etype = tag[2:]
                forbidden += sum(prev not in (f"B-{etype}", f"I-{etype}") for prev in _TAG_NAMES)
        ranked = sorted((-float(p), f"label{i}") for i, p in enumerate(delta))
        return forbidden + len(ranked)

    def measure(self) -> float:
        """Time the kernel now; return the new scale factor."""
        t0 = clock()
        self._kernel()
        ns = clock() - t0
        self.kernel_ns.append(ns)
        self.factors.append(REFERENCE_NS / ns)
        return self.factors[-1]

    def mark(self) -> int:
        """Measure before a timed operation; return the measurement's index."""
        self.measure()
        return len(self.factors) - 1

    def factor(self, mark: int) -> float:
        """Scale factor for a time taken after measurement ``mark``: the mean of
        that measurement and the next one, which brackets it."""
        f = self.factors
        return (f[mark] + f[mark + 1]) / 2 if mark + 1 < len(f) else f[mark]

    def timed(self, fn, *args, **kwargs):
        """Run ``fn``; return its result and its scaled duration in seconds.

        A call can outlast many changes of machine speed, so while it runs
        a timer signal measures the kernel every TIMER_EVERY_NS. Each
        stretch between two measurements is scaled by the mean of their
        factors; the kernel's own time is left out.
        """
        marks: list[tuple[int, int, float]] = []  # (start, end, factor) of each kernel run

        def on_timer(signum, frame):
            start = clock()
            factor = self.measure()
            marks.append((start, clock(), factor))

        first = self.measure()
        previous = signal.signal(signal.SIGALRM, on_timer)
        every = TIMER_EVERY_NS / 1e9
        signal.setitimer(signal.ITIMER_REAL, every, every)
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = clock()
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        marks.append((end, end, self.measure()))
        scaled, since, factor = 0.0, t0, first
        for start, stop, next_factor in marks:
            scaled += (start - since) * (factor + next_factor) / 2
            since, factor = stop, next_factor
        return result, scaled / 1e9
