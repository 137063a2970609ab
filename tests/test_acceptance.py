"""End-to-end acceptance gates for the trained engine.

Each test prints one verdict line of the form

    criterion N (label): PASS - detail

and then asserts the same condition, so the full list of gates and their
measured values is visible in the test report. The gates run against the
bundled corpus (data/), trained once per module with the default pipeline.
"""

import random
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from incnlu.config import default_config
from incnlu.data import load_dataset
from incnlu.evaluation import (
    BOW,
    REFERENCE_F1,
    SIUM,
    TAGGER,
    NoiseConfig,
    _noise_vocabulary,
    _snapshot,
    f1_entities,
    f1_intent,
    gold_spans,
    run_equivalence,
    run_noise_protocol,
)
from incnlu.features import count_vector, vector_apply
from incnlu.intent_bow import gradient, loss
from incnlu.interpreter import load as load_bundle, train_pipeline
from incnlu.iu import COUNT_VECTOR, Blackboard, EditType
from incnlu.features import tokenize
from incnlu.tagging import CHECKPOINT_EVERY

DATA = Path(__file__).resolve().parents[1] / "data"

TRAIN_SEED = 13
RUNTIME_LIMIT_S = 120.0
POSTERIOR_TOL = 1e-9
NOISE_RATES = (0.0, 0.4, 1.0)
BOW_MICRO_FLOOR = 0.85
TAGGER_F1_FLOOR = 0.65
EDIT_SEQUENCES = 10_000
EDIT_BUDGET_S = 10.0
GRAD_INSTANCES = 100
GRAD_TOL = 1e-5
NORM_TOL = 1e-9
ISOLATION_PAIRS = 200
ROUND_TRIP_UTTERANCES = 50
# Deep noise: test utterances joined into sessions of more than this many
# words, and the depths of its revoke runs, some past the checkpoint spacing.
DEEP_NOISE_SESSION_WORDS = 3 * CHECKPOINT_EVERY
DEEP_NOISE_DEPTHS = (1, 2, 3, 4, 5, CHECKPOINT_EVERY + 1, CHECKPOINT_EVERY + 7)


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


@pytest.fixture(scope="module")
def bundle():
    train = load_dataset(DATA / "snips_train.json")
    test = load_dataset(DATA / "snips_test.json")
    started = time.perf_counter()
    interp = train_pipeline(default_config(), train, seed=TRAIN_SEED)
    train_seconds = time.perf_counter() - started
    return SimpleNamespace(interp=interp, train=train, test=test, train_seconds=train_seconds)


@pytest.fixture(scope="module")
def equivalence(bundle):
    started = time.perf_counter()
    result = run_equivalence(bundle.interp, bundle.test)
    result["seconds"] = time.perf_counter() - started
    return result


def test_criterion_1_restart_equivalence(bundle, equivalence):
    exact, total = equivalence["exact"], equivalence["total"]
    elapsed = bundle.train_seconds + equivalence["seconds"]
    ok = exact == total and elapsed < RUNTIME_LIMIT_S
    _report(
        1,
        "restart equivalence",
        ok,
        f"{exact}/{total} utterances bit-exact, train+compare {elapsed:.1f}s "
        f"(limit {RUNTIME_LIMIT_S:.0f}s)",
    )


def test_criterion_2_sium_streamed_vs_batch(equivalence):
    deviation = equivalence["sium_max_deviation"]
    ok = deviation < POSTERIOR_TOL
    _report(
        2,
        "update-incremental posterior",
        ok,
        f"max |streamed - batch| = {deviation:.3e} (tolerance {POSTERIOR_TOL:.0e})",
    )


def test_criterion_3_noise_protocol(bundle):
    vocabulary = _noise_vocabulary(bundle.interp)
    results = {}
    for rate in NOISE_RATES:
        noise = NoiseConfig(insertion_rate=rate, noise_vocabulary=vocabulary, seed=97)
        results[rate] = run_noise_protocol(bundle.interp, bundle.test, noise)
    ok = all(passed == total for passed, total in results.values())
    detail = ", ".join(
        f"rate {rate:g}: {passed}/{total}" for rate, (passed, total) in sorted(results.items())
    )
    _report(3, "insert-revoke noise", ok, detail + " identical to clean runs")


def test_criterion_4_accuracy_floors(bundle):
    session = bundle.interp.fresh_copy()
    preds = {BOW: [], SIUM: []}
    spans = {TAGGER: [], SIUM: []}
    gold_intents, gold_span_lists = [], []
    for ex in bundle.test.examples:
        session.parse_full(ex.text)
        gold_intents.append(ex.intent)
        gold_span_lists.append(gold_spans(ex))
        for name in preds:
            preds[name].append(session.component_result(name).intent)
        for name in spans:
            spans[name].append(session.component_result(name).entities)

    bow_micro, _ = f1_intent(preds[BOW], gold_intents)
    sium_micro, _ = f1_intent(preds[SIUM], gold_intents)
    tagger_f1 = f1_entities(spans[TAGGER], gold_span_lists)[2]
    sium_entity_f1 = f1_entities(spans[SIUM], gold_span_lists)[2]
    chance = 1.0 / len(bundle.train.intents)

    ok = (
        bow_micro >= BOW_MICRO_FLOOR
        and tagger_f1 >= TAGGER_F1_FLOOR
        and sium_micro > chance
        and sium_entity_f1 > 0.0
    )
    _report(
        4,
        "accuracy floors",
        ok,
        f"bow micro {bow_micro:.3f} (floor {BOW_MICRO_FLOOR}, reference "
        f"{REFERENCE_F1['tensorflow_restart_incremental'][0]}), "
        f"tagger span F1 {tagger_f1:.3f} (floor {TAGGER_F1_FLOOR}, reference "
        f"{REFERENCE_F1['tensorflow_restart_incremental'][1]}), "
        f"sium micro {sium_micro:.3f} (> chance {chance:.3f}, reference "
        f"{REFERENCE_F1['sium_update_incremental'][0]}), "
        f"sium entity F1 {sium_entity_f1:.3f} (> 0, reference "
        f"{REFERENCE_F1['sium_update_incremental'][1]})",
    )


def test_criterion_5_count_vector_oracle(bundle):
    featurizer = next(c for c in bundle.interp.components if c.name == "featurizer_count_vectors")
    vocab = featurizer.vocabulary
    words = sorted(vocab.index)[:80] + ["zzz_oov_1", "zzz_oov_2"]
    # The featurizer's own empty-prefix vector, and the function it applies
    # each edit with.
    board = Blackboard()
    board.begin_cycle()
    featurizer.process(board)
    empty = board.annotations[COUNT_VECTOR]
    rng = random.Random(2024)
    started = time.perf_counter()
    mismatches = 0
    for _ in range(EDIT_SEQUENCES):
        vec = empty
        stack = []
        for _ in range(rng.randrange(4, 14)):
            if stack and rng.random() < 0.4:
                vec = vector_apply(vec, vocab, stack.pop(), EditType.REVOKE)
            else:
                word = rng.choice(words)
                stack.append(word)
                vec = vector_apply(vec, vocab, word, EditType.ADD)
        if vec.flags.writeable or vec.dtype.kind != "u" or not np.array_equal(
            vec, count_vector(vocab, stack)
        ):
            mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < EDIT_BUDGET_S
    _report(
        5,
        "exact count-vector updates",
        ok,
        f"{EDIT_SEQUENCES} random edit sequences, {mismatches} oracle mismatches, "
        f"{elapsed:.1f}s (budget {EDIT_BUDGET_S:.0f}s)",
    )


def test_criterion_6_gradient_check():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(GRAD_INSTANCES):
        n, vocab_size, n_intents = 4, 5, 3
        inputs = np.concatenate(
            [rng.integers(0, 4, size=(n, vocab_size)).astype(np.float64), np.ones((n, 1))],
            axis=1,
        )
        labels = rng.integers(0, n_intents, size=n)
        weights = rng.normal(scale=0.5, size=(vocab_size + 1, n_intents))
        grad = gradient(weights, inputs, labels, l2=1e-4)
        fd = np.zeros_like(weights)
        h = 1e-6
        for idx in np.ndindex(weights.shape):
            bumped = weights.copy()
            bumped[idx] += h
            hi = loss(bumped, inputs, labels, 1e-4)
            bumped[idx] -= 2 * h
            lo = loss(bumped, inputs, labels, 1e-4)
            fd[idx] = (hi - lo) / (2 * h)
        rel = np.abs(grad - fd) / np.maximum(1e-8, np.abs(grad) + np.abs(fd))
        worst = max(worst, float(rel.max()))
    ok = worst < GRAD_TOL
    _report(
        6,
        "analytic gradient",
        ok,
        f"{GRAD_INSTANCES} random instances, worst relative error {worst:.2e} "
        f"(tolerance {GRAD_TOL:.0e})",
    )


def test_criterion_7_normalization(bundle):
    sium = next(c for c in bundle.interp.components if c.name == SIUM)
    worst = 0.0
    for table in (sium.model.log_word_given_intent, sium.model.log_word_given_entity):
        worst = max(worst, float(np.abs(np.exp(table).sum(axis=0) - 1.0).max()))

    session = bundle.interp.fresh_copy()
    checked = 0
    for ex in bundle.test.examples:
        session.new_utterance()
        for word in tokenize(ex.text, lowercase=False):
            session.parse_incremental(EditType.ADD, word)
            for name in (SIUM, BOW):
                ranking = session.component_result(name).intent_ranking
                worst = max(worst, abs(sum(p for _, p in ranking) - 1.0))
                checked += 1
    ok = worst < NORM_TOL
    _report(
        7,
        "distributions normalize",
        ok,
        f"likelihood columns and {checked} emitted distributions, "
        f"worst |sum - 1| = {worst:.2e} (tolerance {NORM_TOL:.0e})",
    )


def test_criterion_8_state_isolation(bundle):
    rng = random.Random(1012)
    session = bundle.interp
    mismatches = 0
    for _ in range(ISOLATION_PAIRS):
        prefix_words = tokenize(rng.choice(bundle.train.examples).text, lowercase=False)
        cut = rng.randrange(1, len(prefix_words) + 1)
        utterance = rng.choice(bundle.test.examples).text

        session.new_utterance()
        for word in prefix_words[:cut]:
            session.parse_incremental(EditType.ADD, word)
        session.new_utterance()
        session.parse_full(utterance)
        polluted = _snapshot(session)

        reference = bundle.interp.fresh_copy()
        reference.parse_full(utterance)
        if polluted != _snapshot(reference):
            mismatches += 1
    ok = mismatches == 0
    _report(
        8,
        "state isolation",
        ok,
        f"{ISOLATION_PAIRS} abandoned-prefix pairs, {mismatches} deviations from "
        "a fresh session",
    )


def _stream_with_deep_noise(session, words, reference, vocabulary, rng):
    """ADD ``words`` one by one on ``session``. After each true ADD, maybe
    add a run of noise words and revoke it, or revoke a run of true words
    and add them again, each re-added word maybe followed by a noise word
    added and revoked. Every true ADD leaves the first k true words, whose
    views must equal ``reference[k - 1]``. Returns (checks, mismatches,
    deepest noise run, deepest true run)."""
    checks = mismatches = deepest_noise = deepest_true = 0
    k = 0

    def add_true():
        nonlocal k, checks, mismatches
        session.parse_incremental(EditType.ADD, words[k])
        k += 1
        checks += 1
        mismatches += _snapshot(session) != reference[k - 1]

    while k < len(words):
        add_true()
        roll = rng.random()
        if roll < 0.25:
            depth = rng.choice(DEEP_NOISE_DEPTHS)
            for _ in range(depth):
                session.parse_incremental(EditType.ADD, rng.choice(vocabulary))
            for _ in range(depth):
                session.parse_incremental(EditType.REVOKE)
            deepest_noise = max(deepest_noise, depth)
        elif roll < 0.45:
            depth = min(rng.choice(DEEP_NOISE_DEPTHS), k)
            for _ in range(depth):
                session.parse_incremental(EditType.REVOKE)
            k -= depth
            for _ in range(depth):
                add_true()
                if rng.random() < 0.3:
                    session.parse_incremental(EditType.ADD, rng.choice(vocabulary))
                    session.parse_incremental(EditType.REVOKE)
            deepest_true = max(deepest_true, depth)
    return checks, mismatches, deepest_noise, deepest_true


def test_deep_noise_on_trained_weights_matches_a_fresh_run_of_the_survivors(bundle):
    """The test split, joined into sessions longer than CHECKPOINT_EVERY
    words, streamed with revoke runs 1 to 5 deep and past the checkpoint
    spacing, of noise words and of true words added again. After every
    true ADD the survivors are the session's first k true words, so every
    view must equal that of a fresh session fed only them: a clean
    ADD-only pass, snapshotted after each of its k ADDs."""
    vocabulary = _noise_vocabulary(bundle.interp)
    sessions, words = [], []
    for ex in bundle.test.examples:
        words += tokenize(ex.text, lowercase=False)
        if len(words) > DEEP_NOISE_SESSION_WORDS:
            sessions.append(words)
            words = []
    rng = random.Random(2016)
    checks = mismatches = deepest_noise = deepest_true = 0
    for words in sessions:
        clean = bundle.interp.fresh_copy()
        reference = []
        for word in words:
            clean.parse_incremental(EditType.ADD, word)
            reference.append(_snapshot(clean))
        got = _stream_with_deep_noise(bundle.interp.fresh_copy(), words, reference, vocabulary, rng)
        checks += got[0]
        mismatches += got[1]
        deepest_noise, deepest_true = max(deepest_noise, got[2]), max(deepest_true, got[3])
    print(f"deep noise: {len(sessions)} sessions, {checks} true ADDs checked, {mismatches} mismatches; "
          f"deepest runs: {deepest_noise} noise, {deepest_true} true words")
    assert mismatches == 0
    assert min(deepest_noise, deepest_true) > CHECKPOINT_EVERY


def test_criterion_9_persistence(bundle, tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance-bundles")
    bundle.interp.persist(root / "first")
    loaded = load_bundle(root / "first")
    rng = random.Random(7119)
    probes = [ex.text for ex in rng.sample(bundle.test.examples, ROUND_TRIP_UTTERANCES)]
    mismatches = 0
    for text in probes:
        original = bundle.interp.fresh_copy()
        original.parse_full(text)
        loaded.parse_full(text)
        if _snapshot(original) != _snapshot(loaded):
            mismatches += 1

    retrained = train_pipeline(default_config(), bundle.train, seed=TRAIN_SEED)
    retrained.persist(root / "second")
    first_files = sorted(p.relative_to(root / "first") for p in (root / "first").rglob("*") if p.is_file())
    second_files = sorted(p.relative_to(root / "second") for p in (root / "second").rglob("*") if p.is_file())
    byte_identical = first_files == second_files and all(
        (root / "first" / rel).read_bytes() == (root / "second" / rel).read_bytes()
        for rel in first_files
    )
    ok = mismatches == 0 and byte_identical
    _report(
        9,
        "persistence round trip",
        ok,
        f"{ROUND_TRIP_UTTERANCES} utterances reproduced with {mismatches} mismatches "
        f"after reload; retrained bundle byte-identical: {byte_identical}",
    )
