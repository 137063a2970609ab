"""Time one ADD at growing prefix lengths in one long session.

Usage: python3 tools/prefix_probe.py [--lengths 10,100,1000,10000] [--window 100]

Trains the bundle ``incnlu train --data data/snips_train.json --seed 13``
writes, loads it, and streams one utterance that never ends: the training
split's words, each example's text split on whitespace, in file order,
cycled as often as the longest length needs. For each length L it times the
``window`` ADDs that bring the prefix to L - window/2 + 1 ... L + window/2
words (starting at 1 word if L is below window/2): first the
``parse_incremental`` call, then ``cli._format_result`` of the result it
returned, the line ``incnlu stream`` prints. It prints the median of each
over the window, in µs, and each median's ratio to the one at the first
length. Only the ADDs in a window are formatted.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from incnlu import EditType, load_dataset  # noqa: E402
from incnlu.cli import _format_result  # noqa: E402
from incnlu.cli import main as cli  # noqa: E402
from incnlu.interpreter import load  # noqa: E402

TRAIN = ROOT / "data" / "snips_train.json"
SEED = 13


def filler() -> itertools.cycle:
    """The training split's words in file order, cycled."""
    words = [word for ex in load_dataset(TRAIN).examples for word in ex.text.split()]
    return itertools.cycle(words)


def windows(lengths: list[int], window: int) -> dict[int, range]:
    """Each length's window: the prefix lengths whose ADDs it times."""
    spans = {}
    for length in lengths:
        first = max(1, length - window // 2 + 1)
        spans[length] = range(first, first + window)
    return spans


def probe(interp, lengths: list[int], window: int) -> dict[int, tuple[float, float]]:
    """Per length, the median µs of ``parse_incremental`` and of
    ``_format_result`` over its window of ADDs, all in one session."""
    timed = windows(lengths, window)
    samples = {length: ([], []) for length in lengths}
    clock = time.perf_counter_ns
    words = filler()
    interp.new_utterance()
    for n in range(1, max(span.stop for span in timed.values())):
        word = next(words)
        t0 = clock()
        result = interp.parse_incremental(EditType.ADD, word)
        t1 = clock()
        owners = [length for length, span in timed.items() if n in span]  # windows may overlap
        if owners:
            _format_result(result)
            t2 = clock()
            for length in owners:
                samples[length][0].append((t1 - t0) / 1e3)
                samples[length][1].append((t2 - t1) / 1e3)
    return {length: (statistics.median(parse), statistics.median(line))
            for length, (parse, line) in samples.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="time one ADD at growing prefix lengths")
    parser.add_argument("--lengths", default="10,100,1000,10000",
                        help="comma-separated prefix lengths (default: 10,100,1000,10000)")
    parser.add_argument("--window", type=int, default=100, help="ADDs timed around each length (default: 100)")
    args = parser.parse_args(argv)
    lengths = [int(part) for part in args.lengths.split(",")]
    if args.window < 1 or min(lengths) < 1:
        parser.error("every length and the window must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        bundle = Path(tmp) / "bundle"
        with contextlib.redirect_stdout(io.StringIO()):
            cli(["train", "--data", str(TRAIN), "--out", str(bundle), "--seed", str(SEED)])
        interp = load(bundle)
    medians = probe(interp, lengths, args.window)
    base_parse, base_line = medians[lengths[0]]
    print(f"{'prefix':>8}  {'parse_incremental':>17}  {'ratio':>5}  {'_format_result':>14}  {'ratio':>5}")
    for length, (parse, line) in medians.items():
        print(f"{length:>8,}  {parse:>14.1f} µs  {parse / base_parse:>5.2f}  "
              f"{line:>11.1f} µs  {line / base_line:>5.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
