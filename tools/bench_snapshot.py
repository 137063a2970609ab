"""Run the edit benchmark and keep its figures in one committed file.

Usage: python3 tools/bench_snapshot.py --tag T [--seed 1] [--seconds 5] [--checkout DIR]

Runs ``python3 editbench/run.py`` in the checkout DIR (default: this
repository) untraced on each of the four workloads, then once traced on
``stream_long``; a traced run also takes the scaling probe at prefix lengths
10, 100 and 1000. It reads each run's report back from DIR's
``editbench/results/`` and writes the metrics, the run counts and the
machine they ran on to ``BENCH_T.json`` at the root of this repository. It
changes nothing under ``editbench/``. It exits 1 if a run failed or any
output check did not pass; the file is written either way.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("stream_clean", "stream_revise", "stream_long", "train_eval")
TRACED = "stream_long"
KEPT = ("workload", "trace", "seed", "seconds", "rounds", "attempted", "failed", "checks_pass", "problems")


def run(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run: its counts and metrics, and the machine it ran on."""
    cmd = [sys.executable, "editbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    print("+", " ".join(cmd[1:]), flush=True)
    subprocess.run(cmd, cwd=checkout, check=True, stdout=subprocess.DEVNULL)
    path = checkout / "editbench" / "results" / f"{workload}_seed{seed}_trace{trace}.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    kept = {key: report[key] for key in KEPT}
    kept["metrics"] = {name: {"value": m["value"], "unit": m["unit"]}
                       for name, m in report["metrics"].items()}
    return kept, report["machine"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="write BENCH_<tag>.json from editbench runs")
    parser.add_argument("--tag", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=5)
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="the checkout to benchmark (default: this repository)")
    args = parser.parse_args(argv)

    checkout = args.checkout.resolve()
    runs = []
    for workload, trace in [(w, 0) for w in WORKLOADS] + [(TRACED, 1)]:
        kept, machine = run(checkout, workload, args.seed, args.seconds, trace)
        runs.append(kept)
    snapshot = {
        "tag": args.tag,
        "command": (f"python3 tools/bench_snapshot.py --tag {args.tag} "
                    f"--seed {args.seed} --seconds {args.seconds}"),
        "machine": machine,
        "runs": runs,
    }
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(snapshot, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    ok = all(r["failed"] == 0 and r["checks_pass"] for r in runs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
