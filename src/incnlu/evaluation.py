"""Evaluation harness: F1 scoring, equivalence runs, and the noise protocol.

Three questions are answered about a trained bundle. Do two sessions that
stream the same words end on exactly the same outputs, so that no state
leaks between utterances or sessions? Do inserted then immediately revoked
words leave every output identical to a clean run? And how well do the two
intent strategies and two entity paths actually score on held-out data?

Each test utterance is streamed once, clean, on a fresh session. Its final
views give the F1 predictions and are the reference that a second,
word-by-word stream of the same words on the given session and every noise
rate are compared against. SIUM's streamed posterior is also checked
against a batch row-sum over the whole utterance, the one reference here
that does not stream.

Entity scoring is span-exact: a predicted span counts only when its
(type, start, end) triple equals a gold span's. Published reference scores
for the full-scale systems this package's models stand in for are carried
in ``REFERENCE_F1`` and printed beside measured numbers in every report.
"""

from __future__ import annotations

import random
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from .data import TrainingDataset, bio_tags
from .errors import ConsistencyError, ParameterError
from .features import tokenize
from .interpreter import IncrementalInterpreter
from .iu import EditType
from .results import NluResult
from .sium import SiumIntent, batch_posterior
from .tagging import extract_entities

# Published F1 reference points for the systems our from-scratch models
# replace: a TensorFlow embedding intent classifier with a CRF entity
# tagger, and the original SIUM. (intent, entities) pairs. Our models are
# deliberate substitutions, so these are context, not targets.
REFERENCE_F1 = {
    "tensorflow_nonincremental": (0.93, 0.86),
    "tensorflow_restart_incremental": (0.93, 0.85),
    "sium_nonincremental": (0.37, 0.34),
    "sium_update_incremental": (0.36, 0.34),
}

BOW = "intent_classifier_bow"
SIUM = "intent_sium"
TAGGER = "entity_tagger_sequence"

# Insertion rates of the noise protocol when none are given.
NOISE_RATES = (0.0, 0.4, 1.0)


def f1_intent(predictions: list[str], gold: list[str]) -> tuple[float, float]:
    """(micro, macro) F1 for single-label predictions.

    Micro-F1 reduces to accuracy in the single-label case; macro is the
    unweighted mean of per-class F1 over every label that occurs.
    """
    if len(predictions) != len(gold):
        raise ConsistencyError(
            f"{len(predictions)} predictions against {len(gold)} gold labels"
        )
    if not gold:
        return 1.0, 1.0
    correct = sum(p == g for p, g in zip(predictions, gold))
    micro = correct / len(gold)

    tp, fp, fn = Counter(), Counter(), Counter()
    for p, g in zip(predictions, gold):
        if p == g:
            tp[g] += 1
        else:
            fp[p] += 1
            fn[g] += 1
    labels = sorted(set(gold) | set(predictions))
    per_class = []
    for label in labels:
        denom = 2 * tp[label] + fp[label] + fn[label]
        per_class.append(2 * tp[label] / denom if denom else 0.0)
    return micro, sum(per_class) / len(per_class)


def _span_triples(spans) -> Counter:
    return Counter((s.type, s.start, s.end) for s in spans)


def f1_entities(predicted: list[list], gold: list[list]) -> tuple[float, float, float]:
    """Micro-averaged span precision/recall/F1 over per-utterance span lists.

    With no spans on either side anywhere, all three are 1.0 by convention
    (vacuous perfection), so a no-entity dataset does not read as failure.
    """
    if len(predicted) != len(gold):
        raise ConsistencyError(
            f"{len(predicted)} predicted utterances against {len(gold)} gold"
        )
    tp = n_pred = n_gold = 0
    for pred_spans, gold_spans in zip(predicted, gold):
        pred_c = _span_triples(pred_spans)
        gold_c = _span_triples(gold_spans)
        tp += sum((pred_c & gold_c).values())
        n_pred += sum(pred_c.values())
        n_gold += sum(gold_c.values())
    if n_pred == 0 and n_gold == 0:
        return 1.0, 1.0, 1.0
    precision = tp / n_pred if n_pred else 0.0
    recall = tp / n_gold if n_gold else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return precision, recall, f1


@dataclass
class NoiseConfig:
    insertion_rate: float = 0.4
    noise_vocabulary: list[str] = field(default_factory=list)
    seed: int = 97

    def __post_init__(self) -> None:
        if not 0.0 <= self.insertion_rate <= 1.0:
            raise ParameterError(
                f"insertion_rate must be in [0, 1], got {self.insertion_rate}"
            )


@dataclass
class EvalReport:
    """Everything one evaluation run measured, with render helpers."""

    utterances: int = 0
    intent_f1: dict[str, tuple[float, float]] = field(default_factory=dict)
    entity_f1: dict[str, tuple[float, float, float]] = field(default_factory=dict)
    equivalence_total: int = 0
    equivalence_exact: int = 0
    sium_max_deviation: float = 0.0
    noise_results: dict[float, tuple[int, int]] = field(default_factory=dict)
    seeds: dict[str, int] = field(default_factory=dict)
    runtime_seconds: float = 0.0

    def all_checks_pass(self) -> bool:
        if self.equivalence_total and self.equivalence_exact != self.equivalence_total:
            return False
        if self.sium_max_deviation >= 1e-9:
            return False
        return all(passed == total for passed, total in self.noise_results.values())

    def to_text(self) -> str:
        width = 44
        lines = ["incremental NLU evaluation", "=" * width]
        lines.append(f"utterances evaluated      {self.utterances}")
        lines.append(f"runtime                   {self.runtime_seconds:.1f}s")
        for name, seed in sorted(self.seeds.items()):
            lines.append(f"seed ({name})          {seed}")
        lines.append("")
        lines.append("intent F1 (micro / macro)        measured      reference")
        refs = {
            BOW: ("tensorflow_restart_incremental", REFERENCE_F1["tensorflow_restart_incremental"][0]),
            SIUM: ("sium_update_incremental", REFERENCE_F1["sium_update_incremental"][0]),
        }
        for name, (micro, macro) in sorted(self.intent_f1.items()):
            ref = refs.get(name)
            tail = f"    {ref[1]:.2f} ({ref[0]})" if ref else ""
            lines.append(f"  {name:26s} {micro:.3f} / {macro:.3f}{tail}")
        lines.append("")
        lines.append("entity span F1 (P / R / F1)      measured      reference")
        erefs = {
            TAGGER: ("tensorflow_restart_incremental", REFERENCE_F1["tensorflow_restart_incremental"][1]),
            SIUM: ("sium_update_incremental", REFERENCE_F1["sium_update_incremental"][1]),
        }
        for name, (p, r, f1) in sorted(self.entity_f1.items()):
            ref = erefs.get(name)
            tail = f"    {ref[1]:.2f} ({ref[0]})" if ref else ""
            lines.append(f"  {name:20s} {p:.3f} / {r:.3f} / {f1:.3f}{tail}")
        lines.append("")
        lines.append("equivalence (two sessions stream the same words)")
        lines.append(f"  identical final views   {self.equivalence_exact}/{self.equivalence_total}")
        lines.append(f"  max posterior deviation {self.sium_max_deviation:.3e}")
        if self.noise_results:
            lines.append("")
            lines.append("noise protocol (insert + revoke, outputs must match clean run)")
            for rate in sorted(self.noise_results):
                passed, total = self.noise_results[rate]
                lines.append(f"  rate {rate:.1f}                {passed}/{total} identical")
        lines.append("")
        lines.append(f"all consistency checks pass: {'yes' if self.all_checks_pass() else 'NO'}")
        return "\n".join(lines)

    def to_kv(self) -> str:
        pairs: list[tuple[str, object]] = [
            ("utterances", self.utterances),
            ("runtime_seconds", f"{self.runtime_seconds:.3f}"),
        ]
        for name, seed in sorted(self.seeds.items()):
            pairs.append((f"seed.{name}", seed))
        for name, (micro, macro) in sorted(self.intent_f1.items()):
            pairs.append((f"intent_f1.{name}.micro", f"{micro:.6f}"))
            pairs.append((f"intent_f1.{name}.macro", f"{macro:.6f}"))
        for name, (p, r, f1) in sorted(self.entity_f1.items()):
            pairs.append((f"entity_f1.{name}.precision", f"{p:.6f}"))
            pairs.append((f"entity_f1.{name}.recall", f"{r:.6f}"))
            pairs.append((f"entity_f1.{name}.f1", f"{f1:.6f}"))
        pairs.append(("equivalence.total", self.equivalence_total))
        pairs.append(("equivalence.exact", self.equivalence_exact))
        pairs.append(("equivalence.sium_max_deviation", repr(self.sium_max_deviation)))
        for rate in sorted(self.noise_results):
            passed, total = self.noise_results[rate]
            pairs.append((f"noise.rate_{rate:g}.passed", passed))
            pairs.append((f"noise.rate_{rate:g}.total", total))
        for key, (intent, entities) in sorted(REFERENCE_F1.items()):
            pairs.append((f"reference_f1.{key}.intent", intent))
            pairs.append((f"reference_f1.{key}.entities", entities))
        pairs.append(("all_checks_pass", int(self.all_checks_pass())))
        return "\n".join(f"{k}={v}" for k, v in pairs) + "\n"


def _snapshot(interp: IncrementalInterpreter) -> dict[str, NluResult]:
    """Final canonical result plus every component's own view."""
    views = {c.name: interp.component_result(c.name) for c in interp.components}
    views["__result__"] = interp.current_result()
    return views


def _sium_component(interp: IncrementalInterpreter) -> SiumIntent | None:
    for comp in interp.components:
        if isinstance(comp, SiumIntent):
            return comp
    return None


def _clean_views(
    interp: IncrementalInterpreter, test: TrainingDataset
) -> list[dict[str, NluResult]]:
    """Each utterance streamed once, clean, on a fresh session: its final views."""
    session = interp.fresh_copy()
    views = []
    for ex in test.examples:
        session.parse_full(ex.text)
        views.append(_snapshot(session))
    return views


def _check_streams(
    interp: IncrementalInterpreter,
    test: TrainingDataset,
    clean: list[dict[str, NluResult]],
    noise: NoiseConfig,
) -> tuple[int, float]:
    """Stream each utterance word by word on ``interp``, with the noise of
    :func:`run_noise_protocol`, and compare its final views with ``clean``.

    Returns how many utterances end with every view equal to the clean one,
    and the largest deviation of SIUM's streamed posterior from the batch
    row-sum over the true words.
    """
    if not noise.noise_vocabulary and noise.insertion_rate > 0.0:
        raise ParameterError("noise protocol needs a non-empty noise vocabulary")
    rng = random.Random(noise.seed)
    sium = _sium_component(interp)
    passed = 0
    max_dev = 0.0
    for ex, clean_views in zip(test.examples, clean):
        words = tokenize(ex.text, lowercase=False)
        interp.new_utterance()
        for word in words:
            if noise.insertion_rate > 0.0 and rng.random() < noise.insertion_rate:
                interp.parse_incremental(EditType.ADD, rng.choice(noise.noise_vocabulary))
                interp.parse_incremental(EditType.REVOKE)
            interp.parse_incremental(EditType.ADD, word)
        views = _snapshot(interp)
        passed += views == clean_views
        if sium is not None and sium.model is not None:
            # SIUM's published ranking, aligned to its model's intents.
            ranking = dict(views[sium.name].intent_ranking)
            streamed = np.array([ranking[intent] for intent in sium.model.intents])
            oracle = batch_posterior(sium.model, words)
            max_dev = max(max_dev, float(np.abs(streamed - oracle).max()))
    return passed, max_dev


def run_equivalence(interp: IncrementalInterpreter, test: TrainingDataset) -> dict:
    """Final views of two sessions that stream the same words, per utterance.

    One is a clean pass on a separate fresh session, the other streams on
    ``interp``; both ADD the words one by one, so equal views show that no
    state leaks between utterances or sessions, not that streamed output
    equals a non-incremental one. SIUM's streamed posterior is also checked
    against a batch row-sum over the whole utterance.
    """
    exact, max_dev = _check_streams(interp, test, _clean_views(interp, test), NoiseConfig(0.0))
    return {"total": len(test.examples), "exact": exact, "sium_max_deviation": max_dev}


def run_noise_protocol(
    interp: IncrementalInterpreter, test: TrainingDataset, noise: NoiseConfig
) -> tuple[int, int]:
    """Insert-then-revoke noise before true words; outputs must match clean runs.

    Before each true word, with probability ``insertion_rate``, one word
    sampled uniformly from the noise vocabulary is added and immediately
    revoked. Pass = final result and all component views identical to one
    clean pass of the same utterance on a fresh session.
    """
    passed, _ = _check_streams(interp, test, _clean_views(interp, test), noise)
    return passed, len(test.examples)


def gold_spans(example):
    """Gold (type, start, end) entity spans over token indices."""
    tokens, tags = bio_tags(example.text, example.entities)
    return extract_entities(tags, tokens)


def evaluate(
    interp: IncrementalInterpreter,
    test: TrainingDataset,
    noise_rates: tuple[float, ...] = NOISE_RATES,
    noise_seed: int = 97,
    train_seed: int | None = None,
) -> EvalReport:
    """Full harness run: F1 per path, equivalence, and the noise protocol.

    One clean pass per utterance feeds the F1 scores and is the reference
    for the equivalence check and every noise rate. The equivalence pass is
    also the rate-0.0 pass.
    """
    started = time.perf_counter()
    report = EvalReport(utterances=len(test.examples))
    report.seeds["noise"] = noise_seed
    if train_seed is not None:
        report.seeds["train"] = train_seed

    clean = _clean_views(interp, test)
    intent_preds: dict[str, list[str]] = defaultdict(list)
    entity_preds: dict[str, list[list]] = defaultdict(list)
    gold_intents = [ex.intent for ex in test.examples]
    gold_entities = [gold_spans(ex) for ex in test.examples]
    for views in clean:
        for comp in interp.components:
            view = views[comp.name]
            if view.intent_ranking:
                intent_preds[comp.name].append(view.intent)
            if comp.name in (TAGGER, SIUM):
                entity_preds[comp.name].append(view.entities)

    for name, preds in intent_preds.items():
        report.intent_f1[name] = f1_intent(preds, gold_intents)
    for name, preds in entity_preds.items():
        report.entity_f1[name] = f1_entities(preds, gold_entities)

    report.equivalence_total = report.utterances
    report.equivalence_exact, report.sium_max_deviation = _check_streams(
        interp, test, clean, NoiseConfig(0.0)
    )

    vocabulary = _noise_vocabulary(interp)
    for rate in noise_rates:
        if rate == 0.0:
            # Rate 0 draws no noise, so its pass would repeat the equivalence pass edit for edit.
            passed = report.equivalence_exact
        else:
            noise = NoiseConfig(insertion_rate=rate, noise_vocabulary=vocabulary, seed=noise_seed)
            passed, _ = _check_streams(interp, test, clean, noise)
        report.noise_results[rate] = (passed, report.utterances)

    report.runtime_seconds = time.perf_counter() - started
    return report


def _noise_vocabulary(interp: IncrementalInterpreter) -> list[str]:
    """Training vocabulary as the pool of 'incorrect words' to inject."""
    for comp in interp.components:
        vocab = getattr(comp, "vocabulary", None)
        if vocab is not None:
            return sorted(vocab.index)
    sium = _sium_component(interp)
    if sium is not None and sium.model is not None:
        return sorted(sium.model.word_index)
    raise ParameterError("no trained vocabulary available for noise sampling")
