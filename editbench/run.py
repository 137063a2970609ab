"""Per-edit latency benchmark for incnlu, run from the root of a checkout.

    python3 editbench/run.py --workload stream_clean --seed 1 --seconds 5 --trace 0

It trains a bundle from ``data/snips_train.json``, runs one workload for
``--seconds`` seconds (whole rounds, at least one), checks every output,
prints each metric with its unit and sample count, and writes the run
report to ``editbench/results/``. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = ("src/incnlu/__init__.py", "data/snips_train.json", "data/snips_test.json")
WORKLOADS = ("stream_clean", "stream_revise", "stream_long", "train_eval")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="incnlu per-edit latency benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "cpus_pinned": False,
        "clock_frequency_fixed": False,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"editbench: {ROOT} is not an incnlu checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import calibration
    import inputs
    import workloads

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    scratch = HERE / ".work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        corpus = inputs.Corpus(ROOT)
        samples, stream, spans = workloads.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), corpus, workdir
        )
        if args.trace:
            metrics = workloads.per_layer(samples, stream, spans)
        else:
            metrics = workloads.end_to_end(samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    name = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "client": "one closed-loop client, one session, one process",
        "rounds": samples.rounds,
        "attempted": samples.attempted,
        "failed": samples.failed,
        "checks_pass": samples.checks_ok,
        "problems": dict(samples.problems),
        "tracing_overhead_pct": metrics["trace.overhead_pct"][0] if args.trace else None,
        "calibration": {
            "reference_us": calibration.REFERENCE_NS / 1e3,
            "kernel_us": [ns / 1e3 for ns in samples.cal.kernel_ns],
        },
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
    }
    (results / f"{name}.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    if args.trace:
        (results / f"{name}_spans.json").write_text(json.dumps({
            "columns": ["edit_id", "name", "parent", "start_ns", "end_ns"],
            "rows": spans.rows,
        }) + "\n", encoding="utf-8")

    print(f"{args.workload} seed={args.seed} trace={args.trace} rounds={samples.rounds} "
          f"attempted={samples.attempted} failed={samples.failed} checks_pass={samples.checks_ok}")
    for problem, count in sorted(samples.problems.items()):
        print(f"  problem x{count}: {problem}")
    for key, (value, unit, n) in metrics.items():
        print(f"  {key:34s} {value:14.4f} {unit:8s} n={n}")
    print(json.dumps({
        "correct": samples.checks_ok,
        "attempted": samples.attempted,
        "failed": samples.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
