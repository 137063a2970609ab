"""Workload runs: the offline build, the timed edit streams, their checks.

A run is one closed-loop client in one process: it feeds one session and
waits for each result before it sends the next edit. With tracing off it
times whole ``parse_incremental`` calls; with tracing on it drives each
edit itself (see tracing.py) and reports per-layer figures instead.
"""

from __future__ import annotations

import copy
import gc
import statistics
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np

import inputs
from calibration import Calibration
from incnlu import EditType, NoiseConfig, default_config, evaluate, load, run_equivalence
from incnlu import run_noise_protocol, train_pipeline
from incnlu.components import TrainingContext
from incnlu.config import build_components
from incnlu.registry import REGISTRY
from oracles import CleanSession, Oracles, snapshot
from tracing import ProbeCounts, Probes, Spans, scaling_probe, traced_edit

clock = time.perf_counter_ns

TRAIN_SEED = 13
NOISE_SEED = 97
NOISE_RATES = (0.0, 0.4, 1.0)
LOAD_REPEATS = 9
TRAIN_REPEATS = 3
WARMUP_SEGMENTS = 40
SHORT = {
    "tokenizer_whitespace": "tokenizer",
    "featurizer_count_vectors": "featurizer",
    "intent_sium": "sium",
    "entity_tagger_sequence": "tagger",
    "intent_classifier_bow": "bow",
}
STREAMS = {
    "stream_clean": inputs.stream_clean,
    "stream_revise": inputs.stream_revise,
    "stream_long": inputs.stream_long,
    "train_eval": inputs.train_eval,
}


class Samples:
    """Timings and counts gathered over a run; times are scaled (calibration.py)."""

    def __init__(self) -> None:
        self.cal = Calibration()
        # (raw ns, calibration mark) of each timed edit
        self.edit_ns: list[tuple[int, int]] = []
        self.revoke_ns: list[tuple[int, int]] = []
        self.twin_ns: list[tuple[int, int]] = []
        self.train_s: list[float] = []
        self.eval_s: list[float] = []
        self.setup_s: list[float] = []
        self.bundle_bytes: list[int] = []
        self.session_kib: list[float] = []
        self.layer: dict[str, list[float]] = {}
        self.probes = ProbeCounts()
        self.attempted = 0
        self.failed = 0
        self.problems: Counter = Counter()
        self.checks_ok = True
        self.rounds = 0

    def scaled_us(self, timed: list[tuple[int, int]]) -> np.ndarray:
        return np.array([ns * self.cal.factor(mark) / 1e3 for ns, mark in timed])

    def note(self, name: str, value: float) -> None:
        self.layer.setdefault(name, []).append(value)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.checks_ok = False
            self.problems[what] += 1


def _bundle_files(path: Path) -> dict[str, bytes]:
    return {str(p.relative_to(path)): p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}


def _load_ready(path: Path):
    """Load a bundle up to the point where it can take its first edit."""
    bundle = load(path)
    bundle.new_utterance()
    return bundle


def build(corpus, workdir: Path, tag: str, samples: Samples, traced: bool):
    """Train and persist a bundle, load it, evaluate it; time each step.

    Training runs TRAIN_REPEATS times, and every bundle must have the same
    bytes as the first. Returns the first in-memory pipeline and the bundle
    loaded from its files.
    """
    config = default_config()
    timed = samples.cal.timed
    for i in range(TRAIN_REPEATS):
        pipeline, seconds = timed(train_pipeline, config, corpus.train, seed=TRAIN_SEED)
        samples.train_s.append(seconds)
        _, seconds = timed(pipeline.persist, workdir / f"{tag}.{i}")
        samples.note("interpreter.persist_s", seconds)
        if i == 0:
            interp, files = pipeline, _bundle_files(workdir / f"{tag}.0")
        else:
            samples.check(files == _bundle_files(workdir / f"{tag}.{i}"),
                          "two trainings with one seed gave different bundles")
    path = workdir / f"{tag}.0"
    samples.bundle_bytes.append(sum(len(b) for b in files.values()))
    for _ in range(LOAD_REPEATS):
        bundle, seconds = timed(_load_ready, path)
        samples.setup_s.append(seconds)

    if not traced:
        report, seconds = timed(evaluate, bundle, corpus.test, NOISE_RATES, NOISE_SEED, TRAIN_SEED)
        samples.eval_s.append(seconds)
        samples.check(report.all_checks_pass(), "evaluate: a consistency check failed")
        return interp, bundle

    ctx = TrainingContext(dataset=corpus.train, seed=TRAIN_SEED)
    for comp in build_components(config):
        _, seconds = timed(comp.train, corpus.train, ctx)
        samples.note(f"train.{SHORT[comp.name]}_s", seconds)
    for spec in config.components:
        for _ in range(LOAD_REPEATS):
            _, seconds = timed(REGISTRY[spec.name].load, path / spec.name, spec.params)
            samples.note(f"load.{SHORT[spec.name]}_s", seconds)
    eq, seconds = timed(run_equivalence, bundle, corpus.test)
    samples.note("evaluation.equivalence_s", seconds)
    samples.check(
        eq["exact"] == eq["total"] and eq["sium_max_deviation"] < 1e-9,
        "run_equivalence: streamed and whole-utterance outputs differ",
    )
    total = 0.0
    for rate in NOISE_RATES:
        noise = NoiseConfig(rate, corpus.wrong_words, NOISE_SEED)
        (passed, count), seconds = timed(run_noise_protocol, bundle, corpus.test, noise)
        samples.check(passed == count, f"run_noise_protocol: rate {rate} not identical")
        total += seconds
    samples.note("evaluation.noise_s", total)
    return interp, bundle


class Stream:
    """Feeds segments to one session of a bundle, times the edits, checks the outputs.

    ``source`` is the in-memory pipeline the bundle was persisted from; the
    clean sessions of the revision check run on it, so that check also
    compares the loaded bundle with its source. With ``spans`` set the
    session is driven by the traced driver and probes run after each edit;
    a twin session of the bundle takes the same edits through
    ``parse_incremental``, must return the same results, and gives the
    untraced baseline for the tracing overhead.
    """

    def __init__(self, bundle, source, samples: Samples, spans: Spans | None = None):
        self.bundle = bundle
        self.session = bundle.fresh_copy()
        self.samples = samples
        self.spans = spans
        self.twin = bundle.fresh_copy() if spans is not None else None
        self.probes = Probes(self.session, samples.probes) if spans is not None else None
        self.oracles = Oracles(bundle)
        self.clean = CleanSession(source)

    def feed(self, segments, measure_memory: bool) -> None:
        """Feed and check the segments; with ``measure_memory``, record the
        session's memory at the end of each segment that asks for it."""
        s = self.samples
        # Keep the harness's own objects (corpus, samples, trainings) out of
        # the collections that run during timed edits.
        gc.collect()
        gc.freeze()
        for seg in segments:
            if seg.reset:
                self.session.new_utterance()
                if self.twin is not None:
                    self.twin.new_utterance()
                if self.probes is not None:
                    self.probes.reset()
            last_failed = False
            for edit, word in seg.edits:
                s.attempted += 1
                problems = self._edit(edit, word)
                for p in problems:
                    s.problems[p] += 1
                last_failed = bool(problems)
                s.failed += last_failed
            problems = []
            views = snapshot(self.session)
            if self.twin is not None and snapshot(self.twin) != views:
                problems.append("twin session views differ")
            if self.clean.views(seg.words) != views:
                problems.append("views differ from a clean session of the surviving words")
            if seg.reference:
                problems += self.oracles.problems(self.session, seg.words)
            if seg.memory and measure_memory:
                s.session_kib.append(session_kib(self.bundle, self.session))
            for p in problems:
                s.problems[p] += 1
            if problems and not last_failed:
                s.failed += 1

    def _edit(self, edit: EditType, word: str | None) -> list[str]:
        s = self.samples
        mark = s.cal.mark()
        if self.spans is None:
            t0 = clock()
            result = self.session.parse_incremental(edit, word)
            timed = (clock() - t0, mark)
            s.edit_ns.append(timed)
            if edit is EditType.REVOKE:
                s.revoke_ns.append(timed)
            return []
        t0 = clock()
        expected = self.twin.parse_incremental(edit, word)
        s.twin_ns.append((clock() - t0, mark))
        # attempted counts every edit of the run, so it serves as the edit id.
        edit_id = s.attempted
        self.spans.marks[edit_id] = mark
        unit, result = traced_edit(self.session, edit, word, edit_id, self.spans)
        problems = self.probes.run(self.session, edit, unit.word, edit_id, self.spans)
        if result != expected:
            problems.append("traced result differs from parse_incremental")
        return problems


def session_kib(bundle, session) -> float:
    """KiB the session holds apart from the trained models it shares.

    tracemalloc counts the allocations of a deep copy of the session, in
    which the bundle's configuration and component attributes (the trained
    models) are kept by reference, not copied. Replaying a 1000-word
    session under tracemalloc instead would take over a minute.
    """
    shared = {id(bundle.config): bundle.config}
    for comp in bundle.components:
        shared.update((id(v), v) for v in vars(comp).values())
    # An untraced copy first, so one-off caches the copy fills are not
    # counted; then a full collection, which empties the free lists, so
    # every object of the counted copy is allocated afresh.
    copy.deepcopy(session, dict(shared))
    gc.collect()
    memo = dict(shared)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        clone = copy.deepcopy(session, memo)
        memo.clear()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del clone
    return held / 1024


def warm_up(bundle, corpus, workload: str, seed: int) -> None:
    """Untimed edits, so caches fill and lazy set-up ends before timing."""
    session = bundle.fresh_copy()
    for seg in inputs.stream_clean(corpus, inputs.rng_for(workload, seed, -1))[:WARMUP_SEGMENTS]:
        if seg.reset:
            session.new_utterance()
        for edit, word in seg.edits:
            session.parse_incremental(edit, word)


def run_workload(workload: str, seed: int, seconds: int, traced: bool, corpus, workdir: Path):
    """Run whole rounds until ``seconds`` have passed, at least one."""
    samples = Samples()
    spans = Spans(samples.cal) if traced else None
    make = STREAMS[workload]

    def rounds(start: int):
        while samples.rounds == 0 or (clock() - start) / 1e9 < seconds:
            yield inputs.rng_for(workload, seed, samples.rounds)
            samples.rounds += 1

    if workload == "train_eval":
        # Each round builds anew, then streams edits through the loaded bundle.
        for rng in rounds(clock()):
            interp, bundle = build(corpus, workdir, f"bundle{samples.rounds}", samples, traced)
            stream = Stream(bundle, interp, samples, spans)
            stream.feed(make(corpus, rng), measure_memory=samples.rounds == 0)
    else:
        interp, bundle = build(corpus, workdir, "bundle0", samples, traced)
        warm_up(bundle, corpus, workload, seed)
        stream = Stream(bundle, interp, samples, spans)
        for rng in rounds(clock()):
            stream.feed(make(corpus, rng), measure_memory=samples.rounds == 0)
    samples.cal.measure()  # brackets the last timed edits
    if traced:
        words = [w for chunk in inputs.long_words(corpus, inputs.rng_for("scaling", seed, 0)) for w in chunk]
        for name, values in scaling_probe(bundle, words, samples.cal).items():
            samples.layer[name] = values
    return samples, stream, spans


def end_to_end(samples: Samples) -> dict[str, tuple[float, str, int]]:
    """name -> (value, unit, sample count)."""
    edits = samples.scaled_us(samples.edit_ns)
    revokes = samples.scaled_us(samples.revoke_ns)
    return {
        "edit_us_p50": (float(np.median(edits)), "us", len(edits)),
        "edit_us_p99": (float(np.percentile(edits, 99)), "us", len(edits)),
        "edits_per_s": (len(edits) / (edits.sum() / 1e6), "edits/s", len(edits)),
        "revoke_us_p50": (float(np.median(revokes)), "us", len(revokes)),
        "setup_s": (statistics.median(samples.setup_s), "s", len(samples.setup_s)),
        "session_kib": (statistics.mean(samples.session_kib), "KiB", len(samples.session_kib)),
        "train_s": (statistics.median(samples.train_s), "s", len(samples.train_s)),
        "eval_s": (statistics.median(samples.eval_s), "s", len(samples.eval_s)),
        "bundle_bytes": (float(samples.bundle_bytes[-1]), "bytes", len(samples.bundle_bytes)),
    }


def per_layer(samples: Samples, stream, spans: Spans) -> dict[str, tuple[float, str, int]]:
    out: dict[str, tuple[float, str, int]] = {}
    for name, (mean, calls) in sorted(spans.mean_us().items()):
        if name != "edit":
            out[f"{name}_us"] = (mean, "us", calls)
    mean, edits = spans.dispatch_us()
    out["interpreter.dispatch_us"] = (mean, "us", edits)
    counts = samples.probes
    out["sium.refolded_per_revoke"] = (float(np.mean(counts.refolded)), "count", len(counts.refolded))
    out["tagging.positions_per_edit"] = (float(np.mean(counts.positions)), "count", len(counts.positions))
    out["tagging.changed_ratio"] = (counts.changed / sum(counts.positions), "ratio", len(counts.positions))
    out["intent_bow.nonzero_ratio"] = (float(np.mean(counts.nonzero)), "ratio", len(counts.nonzero))
    board = stream.session.board
    out["iu.edit_log_entries"] = (float(len(board.edit_log)), "count", 1)
    out["iu.units_held"] = (float(len(board.buffer.units)), "count", 1)
    for name, values in sorted(samples.layer.items()):
        unit = "s" if name.endswith("_s") else "us"
        out[name] = (float(np.median(values)), unit, len(values))
    kernel = samples.cal.kernel_ns
    out["calibration.kernel_us"] = (float(np.median(kernel)) / 1e3, "us", len(kernel))
    traced = float(np.median(spans.edit_us()))
    untraced = float(np.median(samples.scaled_us(samples.twin_ns)))
    out["trace.overhead_pct"] = (100 * (traced / untraced - 1), "%", len(samples.twin_ns))
    return out
