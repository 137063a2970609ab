"""Compare editbench's end-to-end metrics between a parent checkout and this one.

Usage: python3 tools/ab.py --parent DIR --workload W [--seeds 41-50] [--seconds S]

For each seed it runs ``python3 editbench/run.py --workload W --seed N
--seconds S --trace 0`` in the checkout DIR and in this repository,
alternating which side runs first, and reads each run's last line of
standard output, one JSON object. For every end-to-end metric that
``BENCHMARK.json`` lists it prints:

- the parent's median and quartiles;
- this checkout's median and its change in %;
- the pairs (runs of one seed) this checkout won, ties counting for neither;
- whether the medians differ by more than the parent's quartile spread;
- whether this checkout is worse than the metric's bound, or better than it:
  its median beats the parent's by more than the bound.

It exits 1 if a run was not ``correct`` or had failed operations. It changes
nothing under ``editbench/``; ``run.py`` still writes its own reports to
each checkout's ``editbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """``41-50`` or ``41,43,47``: the seeds, in order."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced run: the JSON object on the last line of its output."""
    cmd = [sys.executable, "editbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    print(f"+ ({checkout}) {' '.join(cmd[1:])}", flush=True)
    done = subprocess.run(cmd, cwd=checkout, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(metric: dict, parent: list[float], change: list[float]) -> dict:
    """Compare one metric over pairs of runs: ``parent[i]`` and ``change[i]``
    ran on the same seed. ``metric`` is its entry in BENCHMARK.json."""
    lower = metric["better"] == "lower"
    q1, median, q3 = np.percentile(parent, [25, 50, 75])
    changed = float(np.median(change))
    worse = (changed - median) if lower else (median - changed)
    return {
        "name": metric["name"],
        "unit": metric["unit"],
        "parent_median": float(median),
        "parent_q1": float(q1),
        "parent_q3": float(q3),
        "change_median": changed,
        "change_pct": 100.0 * (changed - median) / median if median else 0.0,
        "wins": sum((c < p) if lower else (c > p) for p, c in zip(parent, change)),
        "pairs": len(parent),
        "beyond_spread": abs(changed - median) > q3 - q1,
        "worse_than_bound": worse > metric["bound"] * abs(median),
        "better_than_bound": -worse > metric["bound"] * abs(median),
    }


def format_row(row: dict) -> str:
    return (f"{row['name']:14s} {row['unit']:8s} "
            f"parent {row['parent_median']:12.4f} [{row['parent_q1']:.4f}, {row['parent_q3']:.4f}]  "
            f"change {row['change_median']:12.4f} ({row['change_pct']:+6.1f}%)  "
            f"won {row['wins']}/{row['pairs']}  "
            f"beyond spread: {'yes' if row['beyond_spread'] else 'no'}  "
            f"worse than bound: {'YES' if row['worse_than_bound'] else 'no'}  "
            f"better than bound: {'yes' if row['better_than_bound'] else 'no'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="A/B editbench's end-to-end metrics against a parent checkout")
    parser.add_argument("--parent", type=Path, required=True, help="the parent's checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="41-50", help="e.g. 41-50 or 41,43 (default: 41-50)")
    parser.add_argument("--seconds", type=int, default=8)
    args = parser.parse_args(argv)

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i, seed in enumerate(parse_seeds(args.seeds)):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            runs[side].append(run(sides[side], args.workload, seed, args.seconds))

    ok = all(r["correct"] and r["failed"] == 0 for side in runs.values() for r in side)
    print(f"{args.workload}, seeds {args.seeds}, {args.seconds} s a run; "
          f"every run correct with 0 failed: {'yes' if ok else 'NO'}")
    for metric in metrics:
        name = metric["name"]
        if not all(name in r["metrics"] for side in runs.values() for r in side):
            continue
        values = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in runs.items()}
        print(format_row(summarize(metric, values["parent"], values["change"])))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
