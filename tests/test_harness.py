import pytest

from incnlu import ConsistencyError, IncrementalInterpreter, ParameterError, evaluation
from incnlu.evaluation import (
    BOW,
    NOISE_RATES,
    REFERENCE_F1,
    SIUM,
    TAGGER,
    EvalReport,
    NoiseConfig,
    evaluate,
    f1_entities,
    f1_intent,
    gold_spans,
    run_noise_protocol,
)
from incnlu.results import EntitySpan

from conftest import make_example


def _span(etype, start, end, value="v", confidence=1.0):
    return EntitySpan(type=etype, value=value, start=start, end=end, confidence=confidence)


class TestIntentF1:
    def test_micro_is_accuracy_macro_averages_classes(self):
        # One miss out of four: micro 3/4. Per class: A and B each 2/3,
        # C exactly 1, so macro is 7/9.
        pred = ["A", "B", "B", "C"]
        gold = ["A", "A", "B", "C"]
        micro, macro = f1_intent(pred, gold)
        assert micro == pytest.approx(3 / 4)
        assert macro == pytest.approx(7 / 9)

    def test_perfect_and_empty_inputs(self):
        assert f1_intent(["A", "B"], ["A", "B"]) == (1.0, 1.0)
        assert f1_intent([], []) == (1.0, 1.0)

    def test_label_only_ever_predicted_still_counts_for_macro(self):
        # "Z" never occurs in gold but drags the macro mean down as a class
        # with zero true positives.
        micro, macro = f1_intent(["Z"], ["A"])
        assert micro == 0.0
        assert macro == 0.0

    def test_length_mismatch_is_rejected(self):
        with pytest.raises(ConsistencyError):
            f1_intent(["A"], ["A", "B"])


class TestEntityF1:
    def test_hand_worked_counts(self):
        # Three predicted spans, two of them correct, four gold spans:
        # P = 2/3, R = 1/2, F1 = 4/7.
        predicted = [
            [_span("city", 0, 1), _span("city", 3, 4)],
            [_span("genre", 1, 2)],
        ]
        gold = [
            [_span("city", 0, 1), _span("city", 5, 6)],
            [_span("genre", 1, 2), _span("genre", 3, 4)],
        ]
        p, r, f1 = f1_entities(predicted, gold)
        assert p == pytest.approx(2 / 3)
        assert r == pytest.approx(1 / 2)
        assert f1 == pytest.approx(4 / 7)

    def test_matching_ignores_value_and_confidence(self):
        predicted = [[_span("city", 0, 1, value="bostn", confidence=0.2)]]
        gold = [[_span("city", 0, 1, value="boston")]]
        assert f1_entities(predicted, gold) == (1.0, 1.0, 1.0)

    def test_type_must_match(self):
        predicted = [[_span("city", 0, 1)]]
        gold = [[_span("genre", 0, 1)]]
        assert f1_entities(predicted, gold) == (0.0, 0.0, 0.0)

    def test_duplicates_match_with_multiplicity(self):
        predicted = [[_span("city", 0, 1), _span("city", 0, 1)]]
        gold = [[_span("city", 0, 1)]]
        p, r, _ = f1_entities(predicted, gold)
        assert p == pytest.approx(1 / 2)
        assert r == pytest.approx(1.0)

    def test_no_spans_anywhere_is_vacuous_perfection(self):
        assert f1_entities([[], []], [[], []]) == (1.0, 1.0, 1.0)

    def test_missing_everything_is_zero(self):
        assert f1_entities([[]], [[_span("city", 0, 1)]]) == (0.0, 0.0, 0.0)

    def test_length_mismatch_is_rejected(self):
        with pytest.raises(ConsistencyError):
            f1_entities([[]], [[], []])


def test_gold_spans_project_annotations_onto_tokens():
    ex = make_example("weather in boston", "GetWeather", [("boston", "city")])
    spans = gold_spans(ex)
    assert [(s.type, s.start, s.end, s.value) for s in spans] == [("city", 2, 3, "boston")]


def test_noise_config_validates_the_rate():
    for rate in (-0.1, 1.0001):
        with pytest.raises(ParameterError):
            NoiseConfig(insertion_rate=rate)
    NoiseConfig(insertion_rate=0.0)
    NoiseConfig(insertion_rate=1.0)


def test_noise_protocol_needs_a_vocabulary(toy_interp, toy_dataset):
    with pytest.raises(ParameterError):
        run_noise_protocol(
            toy_interp.fresh_copy(), toy_dataset, NoiseConfig(insertion_rate=0.5)
        )


def test_reference_scores_are_pinned():
    assert REFERENCE_F1["tensorflow_nonincremental"] == (0.93, 0.86)
    assert REFERENCE_F1["tensorflow_restart_incremental"] == (0.93, 0.85)
    assert REFERENCE_F1["sium_nonincremental"] == (0.37, 0.34)
    assert REFERENCE_F1["sium_update_incremental"] == (0.36, 0.34)


class TestEvalReport:
    def _passing(self):
        return EvalReport(
            utterances=10,
            equivalence_total=10,
            equivalence_exact=10,
            sium_max_deviation=0.0,
            noise_results={0.4: (10, 10)},
        )

    def test_all_checks_pass_requires_every_gate(self):
        assert self._passing().all_checks_pass()
        broken = self._passing()
        broken.equivalence_exact = 9
        assert not broken.all_checks_pass()
        broken = self._passing()
        broken.sium_max_deviation = 1e-9  # the bound is strict
        assert not broken.all_checks_pass()
        broken = self._passing()
        broken.noise_results[0.4] = (9, 10)
        assert not broken.all_checks_pass()

    def test_kv_dump_is_machine_readable(self):
        report = self._passing()
        report.intent_f1[BOW] = (0.93, 0.91)
        report.entity_f1[TAGGER] = (0.9, 0.8, 0.85)
        lines = report.to_kv().strip().splitlines()
        kv = dict(line.split("=", 1) for line in lines)
        assert kv[f"intent_f1.{BOW}.micro"] == "0.930000"
        assert kv[f"entity_f1.{TAGGER}.f1"] == "0.850000"
        assert kv["noise.rate_0.4.passed"] == "10"
        assert kv["all_checks_pass"] == "1"
        assert kv["reference_f1.sium_update_incremental.intent"] == "0.36"
        assert kv["reference_f1.sium_update_incremental.entities"] == "0.34"

    def test_text_report_shows_reference_columns(self):
        report = self._passing()
        report.intent_f1[BOW] = (0.93, 0.91)
        report.intent_f1[SIUM] = (0.36, 0.30)
        text = report.to_text()
        assert "reference" in text
        assert "tensorflow_restart_incremental" in text
        assert "sium_update_incremental" in text
        assert "all consistency checks pass: yes" in text


class TestEvaluateEndToEnd:
    def test_full_harness_on_the_toy_corpus(self, toy_interp, toy_dataset):
        report = evaluate(
            toy_interp.fresh_copy(), toy_dataset, noise_rates=(0.0, 0.5), train_seed=13
        )
        assert report.utterances == len(toy_dataset)
        assert report.equivalence_exact == report.equivalence_total == len(toy_dataset)
        assert report.sium_max_deviation < 1e-9
        assert set(report.noise_results) == {0.0, 0.5}
        for passed, total in report.noise_results.values():
            assert passed == total == len(toy_dataset)
        assert BOW in report.intent_f1 and SIUM in report.intent_f1
        assert TAGGER in report.entity_f1 and SIUM in report.entity_f1
        # Training utterances as the probe set: the restart path should be
        # essentially perfect here.
        assert report.intent_f1[BOW][0] == pytest.approx(1.0)
        assert report.entity_f1[TAGGER][2] >= 0.8
        assert report.seeds == {"noise": 97, "train": 13}
        assert report.runtime_seconds > 0
        assert report.all_checks_pass()

    def test_each_utterance_is_streamed_once_per_pass(self, toy_interp, toy_dataset, monkeypatch):
        # One clean pass, one word-streamed pass against it, one pass per
        # noise rate other than 0.0, whose pass is the word-streamed one; the
        # clean pass also feeds the F1 scores.
        calls = 0
        new_utterance = IncrementalInterpreter.new_utterance

        def counting(self):
            nonlocal calls
            calls += 1
            new_utterance(self)

        monkeypatch.setattr(IncrementalInterpreter, "new_utterance", counting)
        evaluate(toy_interp.fresh_copy(), toy_dataset, noise_rates=(0.0, 0.5))
        assert calls == (2 + 1) * len(toy_dataset)

    @pytest.mark.parametrize("rates, passes", [(NOISE_RATES, 3), ((0.4,), 2), ((0.0,), 1)])
    def test_rate_zero_reuses_the_equivalence_pass(
        self, toy_interp, toy_dataset, monkeypatch, rates, passes
    ):
        # At rate 0.0 no noise is drawn, so its pass would make the
        # equivalence pass's edits again; every other rate streams anew.
        calls = []
        check_streams = evaluation._check_streams

        def counting(interp, test, clean, noise):
            calls.append(noise.insertion_rate)
            return check_streams(interp, test, clean, noise)

        monkeypatch.setattr(evaluation, "_check_streams", counting)
        report = evaluate(toy_interp.fresh_copy(), toy_dataset, noise_rates=rates)
        assert len(calls) == passes
        assert sorted(report.noise_results) == sorted(rates)
        if 0.0 in rates:
            assert report.noise_results[0.0] == (report.equivalence_exact, len(toy_dataset))
