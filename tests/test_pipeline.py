import io
import json
import tempfile
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from incnlu import (
    BufferUnderflowError,
    BundleError,
    ConfigError,
    DataError,
    IncrementalInterpreter,
    InvalidPayloadError,
    ParameterError,
    load,
    train_pipeline,
)
from incnlu.components import Component, read_names, read_rows, write_names, write_rows
from incnlu.config import (
    ComponentSpec,
    PipelineConfig,
    build_components,
    config_text,
    default_config,
    key_owners,
    load_config,
    parse_config,
)
from incnlu.data import TrainingDataset, load_dataset, save_json
from incnlu.features import CountVectorsFeaturizer, Vocabulary, count_vector
from incnlu.intent_bow import BowIntentClassifier, LinearIntentModel, predict
from incnlu.interpreter import REDO_DEPTH, SCHEMA_VERSION
from incnlu.iu import ENTITIES, INTENT_DISTRIBUTION, EditType
from incnlu.registry import REGISTRY
from incnlu.sium import SiumIntent, SiumModel, batch_posterior

from conftest import make_example, reseal, spy_process, toy_rows

ROOT = Path(__file__).resolve().parent.parent


SAMPLE = """\
# intent pipeline, both strategies
language: "en"
pipeline:
- name: "tokenizer_whitespace"
- name: "intent_sium"
  entity_threshold: 0.7
  alpha: 2
  lowercase: true
"""


class TestConfigParsing:
    def test_parses_the_documented_grammar(self):
        config = parse_config(SAMPLE)
        assert config.language == "en"
        assert [c.name for c in config.components] == ["tokenizer_whitespace", "intent_sium"]
        params = config.components[1].params
        assert params == {"entity_threshold": 0.7, "alpha": 2, "lowercase": True}
        assert isinstance(params["alpha"], int)

    def test_rendered_text_parses_back_to_the_same_config(self):
        config = parse_config(SAMPLE)
        again = parse_config(config_text(config))
        assert again == config

    def test_missing_language_is_an_error(self):
        with pytest.raises(ConfigError, match="language"):
            parse_config('pipeline:\n- name: "tokenizer_whitespace"\n')

    def test_empty_pipeline_is_an_error(self):
        with pytest.raises(ConfigError, match="pipeline"):
            parse_config('language: "en"\n')

    def test_unknown_top_level_key_is_an_error(self):
        with pytest.raises(ConfigError, match="line 2.*extras"):
            parse_config('language: "en"\nextras: 3\n')

    def test_component_entry_outside_pipeline_is_an_error(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config('language: "en"\n- name: "tokenizer_whitespace"\n')

    def test_parameter_with_no_component_is_an_error(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config('language: "en"\npipeline:\n  alpha: 1\n')

    def test_unparseable_value_reports_its_line(self):
        with pytest.raises(ConfigError, match="line 4"):
            parse_config(
                'language: "en"\npipeline:\n- name: "intent_sium"\n  alpha: {oops}\n'
            )

    def test_quoted_value_cut_by_a_comment_reports_its_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config('language: "en#x"\npipeline:\n- name: "tokenizer_whitespace"\n')

    def test_repeated_parameter_is_an_error(self):
        with pytest.raises(ConfigError, match=r"^line 5: parameter 'alpha' of 'intent_sium' given twice$"):
            parse_config(
                'language: "en"\npipeline:\n- name: "intent_sium"\n  alpha: 1.0\n  alpha: 2.0\n'
            )

    def test_repeated_language_is_an_error(self):
        with pytest.raises(ConfigError, match=r"^line 4: top-level key 'language' given twice$"):
            parse_config('language: "en"\npipeline:\n- name: "tokenizer_whitespace"\nlanguage: "de"\n')

    def test_second_pipeline_section_is_an_error(self):
        with pytest.raises(ConfigError, match=r"^line 4: top-level key 'pipeline' given twice$"):
            parse_config(
                'language: "en"\npipeline:\n- name: "tokenizer_whitespace"\npipeline:\n'
                '- name: "featurizer_count_vectors"\n'
            )

    def test_load_config_prefixes_the_path(self, tmp_path):
        path = tmp_path / "p.yml"
        path.write_text('language: "en"\n', encoding="utf-8")
        with pytest.raises(ConfigError, match=r"p\.yml"):
            load_config(path)
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.yml")

    def test_config_file_that_is_not_utf8_is_an_error(self, tmp_path):
        path = tmp_path / "p.yml"
        path.write_bytes(b'language: "en"\n# caf\xe9\npipeline:\n- name: "tokenizer_whitespace"\n')
        with pytest.raises(ConfigError, match=r"p\.yml: not UTF-8"):
            load_config(path)


class TestPipelineAssembly:
    def test_unknown_component_lists_the_known_ones(self):
        config = PipelineConfig(components=[ComponentSpec("no_such_component")])
        with pytest.raises(ConfigError, match="tokenizer_whitespace"):
            build_components(config)

    def test_unknown_parameter_is_rejected(self):
        config = PipelineConfig(
            components=[ComponentSpec("tokenizer_whitespace", {"casing": "upper"})]
        )
        with pytest.raises(ConfigError, match="casing"):
            build_components(config)

    @pytest.mark.parametrize(
        "component, line",
        [
            ("intent_sium", 'alpha: "x"'),
            ("entity_tagger_sequence", 'epochs: "x"'),
            ("intent_sium", "lowercase: 3"),
            ("entity_tagger_sequence", "epochs: 2.5"),
            ("intent_classifier_bow", "lr: true"),
        ],
    )
    def test_wrongly_typed_parameter_is_rejected(self, component, line):
        config = parse_config(
            'language: "en"\npipeline:\n- name: "tokenizer_whitespace"\n'
            f'- name: "featurizer_count_vectors"\n- name: "{component}"\n  {line}\n'
        )
        with pytest.raises(ConfigError, match=line.split(":")[0]):
            build_components(config)

    @pytest.mark.parametrize(
        "component, line",
        [
            ("intent_classifier_bow", "batch_size: 0"),
            ("intent_classifier_bow", "epochs: -3"),
            ("intent_classifier_bow", "lr: -0.5"),
            ("intent_classifier_bow", "lr: 0"),
            ("intent_classifier_bow", "l2: -1.0"),
            ("entity_tagger_sequence", "epochs: -1"),
            ("intent_sium", "alpha: nan"),
            ("intent_sium", "alpha: inf"),
            ("intent_classifier_bow", "lr: inf"),
            ("intent_classifier_bow", "l2: inf"),
            ("intent_classifier_bow", "seed: -5"),
        ],
    )
    def test_out_of_range_parameter_is_rejected(self, component, line):
        config = parse_config(
            'language: "en"\npipeline:\n- name: "tokenizer_whitespace"\n'
            f'- name: "featurizer_count_vectors"\n- name: "{component}"\n  {line}\n'
        )
        with pytest.raises(ParameterError, match=f"{component}.*{line.split(':')[0]}"):
            build_components(config)

    def test_int_is_accepted_for_a_float_parameter(self):
        sium = build_components(parse_config(SAMPLE))[1]
        assert sium.params["alpha"] == 2

    def test_requirement_must_be_provided_earlier(self):
        config = PipelineConfig(
            components=[
                ComponentSpec("tokenizer_whitespace"),
                ComponentSpec("intent_classifier_bow"),  # needs the featurizer
            ]
        )
        with pytest.raises(ConfigError, match="count_vector"):
            build_components(config)

    def test_component_listed_twice_is_an_error(self):
        config = PipelineConfig(
            components=[ComponentSpec("tokenizer_whitespace"), ComponentSpec("tokenizer_whitespace")]
        )
        with pytest.raises(ConfigError, match="twice"):
            build_components(config)

    def test_default_pipeline_ownership(self):
        owners = key_owners(build_components(default_config()))
        # Both intent strategies run; the later one is authoritative, and the
        # sequence tagger outranks the probabilistic entity readout.
        assert owners["intent_distribution"] == "intent_classifier_bow"
        assert owners["entities"] == "entity_tagger_sequence"
        assert owners["tokens"] == "tokenizer_whitespace"
        assert owners["count_vector"] == "featurizer_count_vectors"


class _Recorder(Component):
    """Test double that logs every process() call into a shared list."""

    provides = ()
    requires = ()

    def __init__(self, name, calls):
        super().__init__()
        self.name = name
        self.calls = calls

    def process(self, board, edit=None, word=None):
        self.calls.append((self.name, edit, word, tuple(unit.word for unit in board.buffer.units)))

    def persist(self, directory):
        pass


class _Publisher(_Recorder):
    """Recorder that publishes the hypothesis length, and raises on the
    ``fail_edit`` of ``fail_on``."""

    def __init__(self, name, calls, fail_on=None, fail_edit=EditType.ADD):
        super().__init__(name, calls)
        self.fail_on = fail_on
        self.fail_edit = fail_edit

    def process(self, board, edit=None, word=None):
        super().process(board, edit, word)
        if edit is self.fail_edit and word == self.fail_on:
            raise RuntimeError(f"{self.name} refuses {word!r}")
        board.write(self.name, f"length_{self.name}", len(board.buffer.units))


class TestLockStep:
    def test_every_edit_visits_every_component_in_order(self, toy_dataset):
        calls = []
        config = PipelineConfig(components=[ComponentSpec("recorder_a"), ComponentSpec("recorder_b")])
        interp = IncrementalInterpreter(
            config, components=[_Recorder("a", calls), _Recorder("b", calls)]
        )
        interp.train(toy_dataset)
        # Construction and training each start an utterance: one sweep with
        # no edit publishes its empty prefix.
        assert calls == [("a", None, None, ()), ("b", None, None, ())] * 2
        calls.clear()
        for word in ["play", "jazz", "now"]:
            interp.parse_incremental(EditType.ADD, word)
        interp.parse_incremental(EditType.REVOKE)  # restores the board: no process runs
        interp.parse_incremental(EditType.REVOKE)
        names = [c[0] for c in calls]
        assert names == ["a", "b"] * 4  # one full sweep per processed edit, a before b
        # Components always see the post-edit hypothesis, including on revoke,
        # and the revoked word is handed to them explicitly.
        assert calls[6] == ("a", EditType.REVOKE, "jazz", ("play",))
        assert calls[7] == ("b", EditType.REVOKE, "jazz", ("play",))

    def test_an_add_that_raises_leaves_no_board_to_restore(self):
        calls = []
        config = PipelineConfig(components=[ComponentSpec("recorder_a"), ComponentSpec("recorder_b")])
        interp = IncrementalInterpreter(
            config, components=[_Publisher("a", calls), _Publisher("b", calls, fail_on="boom")]
        )
        interp.parse_incremental(EditType.ADD, "play")
        interp.parse_incremental(EditType.ADD, "jazz")
        calls.clear()
        interp.parse_incremental(EditType.REVOKE)  # restores the board: no process runs
        assert calls == []
        with pytest.raises(RuntimeError, match="boom"):
            interp.parse_incremental(EditType.ADD, "boom")
        calls.clear()
        interp.parse_incremental(EditType.REVOKE)
        assert calls == [
            ("a", EditType.REVOKE, "boom", ("play",)),
            ("b", EditType.REVOKE, "boom", ("play",)),
        ]
        assert interp.board.annotations == {"length_a": 1, "length_b": 1}


class TestInterpreter:
    def test_canonical_result_takes_the_owners_outputs(self, toy_interp):
        interp = toy_interp.fresh_copy()
        result = interp.parse_full("book a table for two")
        assert result.intent == "BookRestaurant"
        assert [s.value for s in result.entities] == ["two"]
        assert all(s.confidence == 1.0 for s in result.entities)
        assert sum(p for _, p in result.intent_ranking) == pytest.approx(1.0, abs=1e-9)

    def test_component_views_can_disagree_with_the_canonical_result(self, toy_interp):
        interp = toy_interp.fresh_copy()
        interp.parse_full("play some jazz")
        sium = interp.component_result("intent_sium")
        bow = interp.component_result("intent_classifier_bow")
        assert sium.intent == bow.intent == "PlayMusic"
        # Same call, two models: rankings come from different estimators.
        assert sium.intent_ranking != bow.intent_ranking

    def test_new_utterance_isolates_sessions(self, toy_interp):
        interp = toy_interp.fresh_copy()
        interp.parse_full("weather in boston")
        interp.new_utterance()
        replay = interp.parse_full("play some jazz")
        reference = toy_interp.fresh_copy().parse_full("play some jazz")
        assert replay == reference

    def test_training_starts_a_new_utterance(self, toy_dataset):
        # Training drops every component's session state, so the board must
        # drop its words too, or a REVOKE after it would reach a component
        # that holds no word. It then holds the empty prefix's publication.
        interp = train_pipeline(default_config(), toy_dataset)
        interp.parse_incremental(EditType.ADD, "play")
        interp.parse_incremental(EditType.ADD, "jazz")
        interp.train(toy_dataset)
        board = interp.board
        assert board.buffer.units == [] and board.edit_log == []
        assert _views(interp) == _views(interp.fresh_copy())

        def views():
            names = [c.name for c in interp.components]
            return interp.current_result(), [interp.component_result(n) for n in names]

        before = views()
        with pytest.raises(BufferUnderflowError):
            interp.parse_incremental(EditType.REVOKE)
        assert views() == before
        interp.parse_incremental(EditType.ADD, "now")
        reference = interp.fresh_copy()
        reference.parse_incremental(EditType.ADD, "now")
        assert _views(interp) == _views(reference)

    def test_empty_utterance_still_produces_a_distribution(self, toy_interp):
        interp = toy_interp.fresh_copy()
        result = interp.parse_full("")
        assert len(result.intent_ranking) == 3
        assert sum(p for _, p in result.intent_ranking) == pytest.approx(1.0, abs=1e-9)
        assert result.entities == ()

    def test_revoked_stream_equals_clean_stream(self, toy_interp):
        noisy = toy_interp.fresh_copy()
        noisy.new_utterance()
        for edit, word in [
            (EditType.ADD, "weather"),
            (EditType.ADD, "in"),
            (EditType.ADD, "denver"),
            (EditType.REVOKE, None),
            (EditType.ADD, "boston"),
        ]:
            noisy.parse_incremental(edit, word)
        clean = toy_interp.fresh_copy()
        clean.new_utterance()
        for word in ["weather", "in", "boston"]:
            clean.parse_incremental(EditType.ADD, word)
        assert noisy.current_result() == clean.current_result()
        for name in ("intent_sium", "intent_classifier_bow", "entity_tagger_sequence"):
            assert noisy.component_result(name) == clean.component_result(name)

    def test_refresh_mid_utterance_repeats_the_last_result(self, toy_interp):
        interp = toy_interp.fresh_copy()
        interp.new_utterance()
        for edit, word in [
            (EditType.ADD, "weather"),
            (EditType.ADD, "in"),
            (EditType.ADD, "denver"),
            (EditType.REVOKE, None),
            (EditType.ADD, "boston"),
            (EditType.ADD, "today"),
            (EditType.REVOKE, None),
        ]:
            last = interp.parse_incremental(edit, word)
        names = [c.name for c in interp.components]
        views = {name: interp.component_result(name) for name in names}
        tokens = interp.board.annotations["tokens"]
        counts = interp.board.annotations["count_vector"]
        edits = list(interp.board.edit_log)

        assert interp.refresh() == last
        assert {name: interp.component_result(name) for name in names} == views
        assert interp.board.annotations["tokens"] == tokens == ("weather", "in", "boston")
        assert np.array_equal(interp.board.annotations["count_vector"], counts)
        assert interp.board.edit_log == edits

    def test_published_annotations_do_not_alias_live_state(self, toy_interp):
        interp = toy_interp.fresh_copy()
        interp.new_utterance()
        interp.parse_incremental(EditType.ADD, "play")
        tokens = interp.board.published("tokenizer_whitespace", "tokens")
        counts = interp.board.published("featurizer_count_vectors", "count_vector")
        interp.parse_incremental(EditType.ADD, "some")
        interp.parse_incremental(EditType.REVOKE)
        interp.parse_incremental(EditType.ADD, "jazz")
        assert tokens == ("play",)
        assert counts.sum() == 1

        # Every published value is immutable, and a result hands on the
        # published ranking itself, not a copy; the REVOKE of that ADD gives
        # back what was published before it.
        rankers = ("intent_sium", "intent_classifier_bow")
        expected = interp.current_result(), [interp.component_result(n) for n in rankers]

        def assert_immutable():
            # The board holds every component's view. An array a published
            # tuple holds, at any depth, is read-only too.
            values = list(interp.board.annotations.values())
            for value in values:
                assert isinstance(value, tuple) or not value.flags.writeable
            while values:
                value = values.pop()
                if isinstance(value, tuple):
                    values.extend(value)
                elif isinstance(value, np.ndarray):
                    assert not value.flags.writeable

        assert_immutable()
        ranking = interp.parse_incremental(EditType.ADD, "tonight").intent_ranking
        assert ranking is interp.board.annotations[INTENT_DISTRIBUTION]
        assert_immutable()
        interp.parse_incremental(EditType.REVOKE)
        assert_immutable()
        assert (interp.current_result(), [interp.component_result(n) for n in rankers]) == expected
        assert len(expected[0].intent_ranking) == 3

    def test_a_revoke_right_after_an_add_restores_the_board_and_runs_no_process(self, toy_interp):
        interp = toy_interp.fresh_copy()
        interp.parse_full("play some")
        # The board holds every component's view.
        annotations = dict(interp.board.annotations)
        interp.parse_incremental(EditType.ADD, "jazz")
        calls = []
        for comp in interp.components:
            methods = [m for m in dir(comp) if not m.startswith("__") and callable(getattr(comp, m))]
            assert "process" in methods
            for method in methods:
                setattr(comp, method, lambda *args, call=(comp.name, method), **kw: calls.append(call))
        interp.parse_incremental(EditType.REVOKE)
        assert calls == []
        assert interp.board.annotations.keys() == annotations.keys()
        assert all(interp.board.annotations[key] is value for key, value in annotations.items())

    def test_tokenizer_featurizer_and_bow_keep_no_session_state(self, toy_interp):
        interp = toy_interp.fresh_copy()
        stateless = [c for c in interp.components if c.name in (
            "tokenizer_whitespace", "featurizer_count_vectors", "intent_classifier_bow"
        )]
        before = [dict(vars(comp)) for comp in stateless]
        interp.parse_full("play some jazz")
        interp.parse_incremental(EditType.ADD, "tonight")
        for _ in range(2):
            interp.parse_incremental(EditType.REVOKE)
        interp.refresh()
        interp.new_utterance()
        interp.parse_incremental(EditType.ADD, "weather")
        assert len(stateless) == 3
        for comp, attrs in zip(stateless, before):
            assert vars(comp).keys() == attrs.keys()
            assert all(vars(comp)[key] is value for key, value in attrs.items())

    def test_training_on_empty_dataset_is_an_error(self):
        with pytest.raises(DataError):
            train_pipeline(default_config(), TrainingDataset([]))

    def test_tokenizer_only_pipeline_has_no_intent(self, toy_dataset):
        config = PipelineConfig(components=[ComponentSpec("tokenizer_whitespace")])
        interp = train_pipeline(config, toy_dataset)
        result = interp.parse_full("whatever words")
        assert result.intent == ""
        assert result.intent_ranking == ()


class TestSharedPublication:
    """A result holds the tuples the board published, never a copy."""

    def _assert_shared(self, interp):
        board = interp.board
        result = interp.current_result()
        assert result.intent_ranking is board.annotations[INTENT_DISTRIBUTION]
        assert result.entities is board.annotations[ENTITIES]
        for name in ("intent_sium", "entity_tagger_sequence", "intent_classifier_bow"):
            view = interp.component_result(name)
            assert view.intent_ranking is board.published(name, INTENT_DISTRIBUTION, ())
            assert view.entities is board.published(name, ENTITIES, ())

    def test_results_share_the_board_after_every_kind_of_edit(self, toy_interp):
        interp = toy_interp.fresh_copy()
        self._assert_shared(interp)
        calls = spy_process(interp)
        for word in ("weather", "in", "boston"):
            interp.parse_incremental(EditType.ADD, word)
        assert calls == _EAGER * 3
        self._assert_shared(interp)
        calls.clear()
        interp.parse_incremental(EditType.REVOKE)
        interp.parse_incremental(EditType.ADD, "boston")
        assert calls == []  # a restored REVOKE, then a redo
        self._assert_shared(interp)
        interp.parse_incremental(EditType.REVOKE)
        assert calls == []  # a REVOKE right after a redo restores too
        self._assert_shared(interp)
        calls.clear()
        interp.parse_incremental(EditType.REVOKE)
        assert calls == _EAGER  # a processed REVOKE
        self._assert_shared(interp)

    def test_an_add_and_its_revoke_give_back_the_very_tuples(self, toy_interp):
        interp = toy_interp.fresh_copy()
        interp.parse_full("book a table for")
        names = [c.name for c in interp.components]
        before = interp.current_result(), [interp.component_result(n) for n in names]
        interp.parse_incremental(EditType.ADD, "two")
        after = interp.parse_incremental(EditType.REVOKE), [interp.component_result(n) for n in names]
        for old, new in zip([before[0], *before[1]], [after[0], *after[1]]):
            assert new.intent_ranking is old.intent_ranking
            assert new.entities is old.entities

    def test_a_name_outside_the_pipeline_is_a_config_error(self, toy_interp, toy_dataset):
        interp = toy_interp.fresh_copy()
        interp.parse_incremental(EditType.ADD, "play")
        with pytest.raises(ConfigError, match="intent_classifer_bow"):
            interp.component_result("intent_classifer_bow")
        restart = train_pipeline(load_config(ROOT / "configs" / "restart.yml"), toy_dataset)
        restart.parse_incremental(EditType.ADD, "play")
        with pytest.raises(ConfigError, match="intent_sium"):
            restart.component_result("intent_sium")
        assert restart.component_result("intent_classifier_bow").intent == "PlayMusic"


def _fresh_views(toy_interp, words):
    reference = toy_interp.fresh_copy()
    reference.parse_full(" ".join(words))
    return _views(reference)


# The default pipeline's components that run on every processed edit: SIUM
# owns no key there, so it runs when its view is read.
_EAGER = [s.name for s in default_config().components if s.name != "intent_sium"]


class TestRedo:
    """An ADD of the word the last REVOKE took back republishes the board
    that REVOKE took, and runs no component."""

    def test_re_adds_after_a_revoke_run_run_no_component(self, toy_interp):
        session = toy_interp.fresh_copy()
        words = ["play", "some", "jazz"]
        for word in words:
            session.parse_incremental(EditType.ADD, word)
        for _ in words:
            session.parse_incremental(EditType.REVOKE)
        calls = spy_process(session)
        for n, word in enumerate(words, 1):
            session.parse_incremental(EditType.ADD, word)
            assert calls == []
            assert _views(session) == _fresh_views(toy_interp, words[:n])
            calls.clear()  # reading SIUM's view may have run it

    def test_the_next_new_add_gives_sium_the_batch_posterior(self, toy_interp):
        session = toy_interp.fresh_copy()
        words = ["weather", "in", "boston"]
        for word in words:
            session.parse_incremental(EditType.ADD, word)
        for _ in words:
            session.parse_incremental(EditType.REVOKE)
        for word in words:
            session.parse_incremental(EditType.ADD, word)
        session.parse_incremental(EditType.ADD, "today")
        words.append("today")
        assert _views(session) == _fresh_views(toy_interp, words)
        sium = next(c for c in session.components if c.name == "intent_sium")
        ranking = dict(session.component_result("intent_sium").intent_ranking)
        streamed = np.array([ranking[intent] for intent in sium.model.intents])
        assert np.abs(streamed - batch_posterior(sium.model, words)).max() <= 1e-12

    def test_an_add_of_another_word_clears_the_stack(self, toy_interp):
        session = toy_interp.fresh_copy()
        for word in ["play", "some", "jazz"]:
            session.parse_incremental(EditType.ADD, word)
        for _ in range(2):
            session.parse_incremental(EditType.REVOKE)
        session.parse_incremental(EditType.ADD, "rock")
        for _ in range(2):
            session.parse_incremental(EditType.REVOKE)
        for word in ["play", "rock"]:
            session.parse_incremental(EditType.ADD, word)
        # Had "rock" kept the records of "jazz" and "some", this ADD would
        # republish the board of "play some".
        calls = spy_process(session)
        session.parse_incremental(EditType.ADD, "some")
        assert calls == _EAGER
        assert _views(session) == _fresh_views(toy_interp, ["play", "rock", "some"])

    @pytest.mark.parametrize("word", ["jazz", "rock"])
    def test_a_revoke_that_raises_leaves_no_record(self, word):
        """A REVOKE a component refuses parks nothing and drops the records
        it found: the words below them have changed."""
        calls = []
        config = PipelineConfig(components=[ComponentSpec("recorder_a"), ComponentSpec("recorder_b")])
        interp = IncrementalInterpreter(config, components=[
            _Publisher("a", calls), _Publisher("b", calls, fail_on="jazz", fail_edit=EditType.REVOKE)
        ])
        for added in ["play", "jazz", "rock"]:
            interp.parse_incremental(EditType.ADD, added)
        interp.parse_incremental(EditType.REVOKE)  # restores the board, parks "rock"
        with pytest.raises(RuntimeError, match="jazz"):
            interp.parse_incremental(EditType.REVOKE)
        calls.clear()
        interp.parse_incremental(EditType.ADD, word)
        assert [c[0] for c in calls] == ["a", "b"]
        assert interp.board.annotations == {"length_a": 2, "length_b": 2}

    def test_a_refused_add_keeps_the_records(self, toy_interp):
        """An ADD the board refuses changes no word, so the REVOKE after it
        still restores, and an ADD after that still redoes: neither runs a
        component."""
        session = toy_interp.fresh_copy()
        for word in ["play", "some"]:
            session.parse_incremental(EditType.ADD, word)
        calls = spy_process(session)
        with pytest.raises(InvalidPayloadError):
            session.parse_incremental(EditType.ADD, "a b")
        session.parse_incremental(EditType.REVOKE)  # restores the board of "play"
        with pytest.raises(InvalidPayloadError):
            session.parse_incremental(EditType.ADD, "a b")
        session.parse_incremental(EditType.ADD, "some")  # redoes the board of "play some"
        assert calls == []
        assert _views(session) == _fresh_views(toy_interp, ["play", "some"])

    def test_an_edit_type_that_is_no_edit_type_is_refused_and_keeps_the_records(self, toy_interp):
        session = toy_interp.fresh_copy()
        for word in ["play", "some", "jazz"]:
            session.parse_incremental(EditType.ADD, word)
        for _ in range(2):
            session.parse_incremental(EditType.REVOKE)
        session.parse_incremental(EditType.ADD, "some")  # a redo; "jazz" stays parked
        board = session.board
        units, log, notes = list(board.buffer.units), list(board.edit_log), board.annotations
        before_add, redo = session._before_add, list(session._redo)
        assert before_add is not None and len(redo) == 1
        calls = spy_process(session)
        with pytest.raises(InvalidPayloadError, match="unknown edit type"):
            session.parse_incremental("ADD", "x")
        assert board.buffer.units == units and board.edit_log == log and board.annotations is notes
        assert session._before_add is before_add
        assert len(session._redo) == 1 and session._redo[0] is redo[0]
        session.parse_incremental(EditType.REVOKE)  # restores the board of "play"
        for word in ["some", "jazz"]:
            session.parse_incremental(EditType.ADD, word)  # redoes
        assert calls == []
        assert _views(session) == _fresh_views(toy_interp, ["play", "some", "jazz"])

    def test_an_underflowing_revoke_keeps_the_records(self, toy_interp):
        session = toy_interp.fresh_copy()
        session.parse_incremental(EditType.ADD, "play")
        session.parse_incremental(EditType.REVOKE)
        with pytest.raises(BufferUnderflowError):
            session.parse_incremental(EditType.REVOKE)
        calls = spy_process(session)
        session.parse_incremental(EditType.ADD, "play")
        assert calls == []
        assert _views(session) == _fresh_views(toy_interp, ["play"])

    def test_a_revoke_run_deeper_than_the_bound_stays_exact(self, toy_interp):
        session = toy_interp.fresh_copy()
        words = ["book", "a", "table", "for", "two", "tonight", "in", "boston"]
        for word in words:
            session.parse_incremental(EditType.ADD, word)
        depth = REDO_DEPTH + 3
        for _ in range(depth):
            session.parse_incremental(EditType.REVOKE)
        calls = spy_process(session)
        for n in range(len(words) - depth + 1, len(words) + 1):
            calls.clear()
            session.parse_incremental(EditType.ADD, words[n - 1])
            redo = n <= len(words) - depth + REDO_DEPTH
            assert calls == ([] if redo else _EAGER)
            assert _views(session) == _fresh_views(toy_interp, words[:n])
        session.parse_incremental(EditType.ADD, "please")
        assert _views(session) == _fresh_views(toy_interp, words + ["please"])

    def test_a_revoke_right_after_a_redo_restores(self, toy_interp):
        session = toy_interp.fresh_copy()
        for word in ["play", "some", "jazz"]:
            session.parse_incremental(EditType.ADD, word)
        for _ in range(2):
            session.parse_incremental(EditType.REVOKE)
        before = dict(session.board.annotations)
        calls = spy_process(session)
        session.parse_incremental(EditType.ADD, "some")
        session.parse_incremental(EditType.REVOKE)
        assert calls == []
        after = session.board.annotations
        assert after.keys() == before.keys()
        assert all(after[key] is value for key, value in before.items())
        for word in ["some", "jazz"]:
            session.parse_incremental(EditType.ADD, word)
        assert calls == []
        session.parse_incremental(EditType.ADD, "tonight")
        assert _views(session) == _fresh_views(toy_interp, ["play", "some", "jazz", "tonight"])

    def test_sium_catches_up_on_the_words_as_given(self, toy_dataset):
        """SIUM adds the words a redo put back as it adds an ADD's word, as
        the ADDs handed them over, so a case-keeping SIUM behind a
        lowercasing tokenizer still lands on a fresh run."""
        config = default_config()
        next(s for s in config.components if s.name == "intent_sium").params["lowercase"] = False
        interp = train_pipeline(config, toy_dataset)
        session = interp.fresh_copy()
        words = ["Weather", "in", "Boston"]
        for word in words:
            session.parse_incremental(EditType.ADD, word)
        for _ in words:
            session.parse_incremental(EditType.REVOKE)
        for word in words + ["today"]:
            session.parse_incremental(EditType.ADD, word)
        assert _views(session) == _fresh_views(interp, words + ["today"])


class TestShadowed:
    """In the default pipeline SIUM owns none of the keys it declares, so
    it runs when its view is read, not on every edit."""

    def test_edits_and_refreshes_call_no_method_of_sium(self, toy_interp):
        session = toy_interp.fresh_copy()
        sium = next(c for c in session.components if c.name == "intent_sium")
        calls = []
        for method in [m for m in dir(sium) if not m.startswith("__") and callable(getattr(sium, m))]:
            setattr(sium, method, lambda *args, call=method, **kw: calls.append(call))
        session.refresh()
        for word in ["play", "some", "jazz"]:
            session.parse_incremental(EditType.ADD, word)
        session.parse_incremental(EditType.REVOKE)  # a restore
        session.parse_incremental(EditType.REVOKE)  # runs the eager components
        session.parse_incremental(EditType.ADD, "some")  # a redo
        session.parse_incremental(EditType.ADD, "blues")
        session.refresh()
        assert calls == []
        assert session.current_result() == _fresh_views(toy_interp, ["play", "some", "blues"])[0]

    def test_a_sium_owning_pipeline_runs_sium_on_every_processed_edit(self, sium_interp):
        session = sium_interp.fresh_copy()
        calls = spy_process(session)
        both = ["tokenizer_whitespace", "intent_sium"]
        for edit, word, ran in [
            (EditType.ADD, "play", both),
            (EditType.ADD, "some", both),
            (EditType.REVOKE, None, []),  # a restore
            (EditType.REVOKE, None, both),
            (EditType.ADD, "play", []),  # a redo
            (EditType.ADD, "jazz", both),
        ]:
            calls.clear()
            session.parse_incremental(edit, word)
            assert calls == ran
        calls.clear()
        session.refresh()
        assert calls == both
        reference = sium_interp.fresh_copy()
        reference.parse_full("play jazz")
        assert session.current_result() == reference.current_result()

    def test_a_board_runs_sium_once_and_a_restored_board_keeps_its_view(self, toy_interp):
        """Two reads of one board run SIUM once. A processed edit drops
        SIUM's view, and a restore or a redo gives back the board with the
        view it held, so reading it again runs nothing."""
        session = toy_interp.fresh_copy()
        calls = spy_process(session)
        for word in ["play", "some"]:
            session.parse_incremental(EditType.ADD, word)
        calls.clear()
        first = session.component_result("intent_sium")
        assert session.component_result("intent_sium") == first
        assert calls == ["intent_sium"]
        session.parse_incremental(EditType.ADD, "jazz")
        assert ("intent_sium", "intent_distribution") not in session.board.annotations
        calls.clear()
        third = session.component_result("intent_sium")
        assert calls == ["intent_sium"]
        calls.clear()
        session.parse_incremental(EditType.REVOKE)  # restores the board of "play some"
        assert session.component_result("intent_sium") == first
        session.parse_incremental(EditType.ADD, "jazz")  # redoes the board of "play some jazz"
        assert session.component_result("intent_sium") == third
        assert calls == []
        assert third == _fresh_views(toy_interp, ["play", "some", "jazz"])[1][2]

    def test_a_new_utterance_publishes_what_an_add_and_its_revoke_give_back(self, toy_interp):
        """A new utterance's board holds the empty prefix's publication, as
        a REVOKE of its first word gives it back: that REVOKE restores the
        board, so it runs no component. Reading SIUM's view of the empty
        prefix runs SIUM once."""
        session = toy_interp.fresh_copy()
        session.parse_incremental(EditType.ADD, "weather")
        session.new_utterance()
        calls = spy_process(session)
        empty = _views(session)
        assert session.component_result("intent_sium") == empty[1][2]
        assert calls == ["intent_sium"]
        assert empty[0].intent_ranking and empty[1][2].intent_ranking
        for word in ["play", "weather"]:
            session.parse_incremental(EditType.ADD, word)
            calls.clear()
            session.parse_incremental(EditType.REVOKE)
            assert calls == []
            assert _views(session) == empty


# Toy words, an unseen word, and a capitalised one that lowercases onto a
# known word.
_WORDS = sorted({w for row in toy_rows() for w in row[0].split()}) + ["zubat", "Boston"]
# A script step is a word to ADD, an int n for a run of n REVOKEs (runs that
# outlast the words underflow), "readd" to ADD the last revoked word again,
# or "refresh" to republish without an edit.
_STEPS = st.one_of(
    st.sampled_from(_WORDS), st.integers(1, 4), st.just("readd"), st.just("refresh")
)


def _views(interp):
    notes = interp.board.annotations
    return (
        interp.current_result(),
        [interp.component_result(c.name) for c in interp.components],
        notes["tokens"],
        notes["count_vector"].tolist(),
    )


class _Records:
    """The records a session's restores and redos give back, kept apart
    from the interpreter's own: the board's map before the last edit if it
    was an ADD, and the map before each REVOKE since the last ADD that was
    no redo, with its word, the newest last and at most REDO_DEPTH."""

    def __init__(self, session):
        self.session = session
        self.before_add = None
        self.redo = []

    def clear(self):
        self.before_add = None
        self.redo.clear()

    def edit(self, edit, word=None):
        """``parse_incremental``, then ``_assert_stored_once`` with the
        record the edit gives back, if any. A refused edit keeps them all."""
        session = self.session
        notes, units = session.board.annotations, session.board.buffer.units
        taken = units[-1].word if units else None
        session.parse_incremental(edit, word)
        if edit is EditType.ADD:
            given = self.redo.pop()[1] if self.redo and self.redo[-1][0] == word else None
            if given is None:
                self.redo.clear()
            self.before_add = notes
        else:
            given, self.before_add = self.before_add, None
            self.redo = [*self.redo, (taken, notes)][-REDO_DEPTH:]
        _assert_stored_once(session, given)


def _assert_stored_once(session, record=None):
    """No slot ``(c, k)`` on the board has ``c`` as the owner of ``k``, and
    a board given back is the very map of its ``record``."""
    owners = key_owners(session.components)
    notes = session.board.annotations
    assert not [slot for slot in notes if isinstance(slot, tuple) and owners.get(slot[1]) == slot[0]]
    assert record is None or notes is record


def _process_every_edit(interp, edit, word=None):
    """One edit as a caller that runs every edit through ``process`` makes
    it: ``apply_edit``, ``begin_cycle`` and each component's ``process``,
    so no board is given back. Then ``_assert_stored_once``."""
    board = interp.board
    unit = board.apply_edit(edit, word)
    board.begin_cycle()
    for comp in interp.components:
        comp.process(board, edit, unit.word)
    _assert_stored_once(interp)


@settings(deadline=None)
@given(script=st.lists(st.one_of(_STEPS, st.just("new")), max_size=30))
def test_any_edit_script_lands_on_a_fresh_run_of_the_survivors(toy_interp, script):
    """After every step of any ADD/REVOKE/refresh/new-utterance script, the
    pipeline result, every component's view, the tokens and the count
    vector equal those of a fresh session fed only the surviving words,
    after a new utterance those of ``parse_full("")``. A REVOKE right after
    an ADD, refreshes between them aside, gives back the results from
    before that ADD, the empty prefix's too. A second session runs every
    edit through ``process``, a REVOKE right after an ADD too, and lands on
    the same views. After every edit each session's board stores each value
    once, and a board given back is its record's very map
    (``_assert_stored_once``)."""
    sessions = toy_interp.fresh_copy(), toy_interp.fresh_copy()
    records = _Records(sessions[0])
    edits = records.edit, partial(_process_every_edit, sessions[1])
    reference = toy_interp.fresh_copy()
    stack: list[str] = []
    revoked: list[str] = []
    before_add = None  # the results before the last edit, if it was an ADD
    for step in script:
        if step == "new":
            for session in sessions:
                session.new_utterance()
            records.clear()
            stack.clear()
            revoked.clear()
            before_add = None
        elif step == "refresh":
            for session in sessions:
                session.refresh()
        elif isinstance(step, int):
            for _ in range(step):
                if not stack:
                    for session, edit in zip(sessions, edits):
                        before = _views(session)
                        with pytest.raises(BufferUnderflowError):
                            edit(EditType.REVOKE)
                        assert _views(session) == before
                    break
                revoked.append(stack.pop())
                for edit in edits:
                    edit(EditType.REVOKE)
                if before_add is not None:
                    assert _views(sessions[0])[:2] == before_add
                    before_add = None
        else:
            if step == "readd":
                if not revoked:
                    continue
                step = revoked.pop()
            stack.append(step)
            before_add = _views(sessions[0])[:2]
            for edit in edits:
                edit(EditType.ADD, step)
        reference.parse_full(" ".join(stack))
        for session in sessions:
            assert _views(session) == _views(reference)


@settings(deadline=None)
@given(script=st.lists(st.one_of(_STEPS, st.just("read")), max_size=40))
def test_shadowed_views_read_after_any_edits_land_on_a_fresh_run(toy_interp, script):
    """Reads of the views are a step of their own, so SIUM, which runs only
    when its view is read, lags the board by any number of edits, restores
    and redos between two reads. At each read, and at the end, every view
    equals that of a fresh session fed only the surviving words. After
    every edit the board stores each value once, and a board given back is
    its record's very map (``_assert_stored_once``)."""
    session = toy_interp.fresh_copy()
    edit = _Records(session).edit
    reference = toy_interp.fresh_copy()
    stack: list[str] = []
    revoked: list[str] = []
    for step in script + ["read"]:
        if step == "read":
            reference.parse_full(" ".join(stack))
            assert _views(session) == _views(reference)
        elif step == "refresh":
            session.refresh()
        elif isinstance(step, int):
            for _ in range(step):
                if not stack:
                    with pytest.raises(BufferUnderflowError):
                        edit(EditType.REVOKE)
                    break
                revoked.append(stack.pop())
                edit(EditType.REVOKE)
        else:
            if step == "readd":
                if not revoked:
                    continue
                step = revoked.pop()
            stack.append(step)
            edit(EditType.ADD, step)


def _published_bag(session, stack):
    """The featurizer's published vector is read-only, unsigned and equal to
    the batch count of the survivors; BoW's published ranking is, bit for
    bit, ``predict`` on an int64 copy of it."""
    comps = {c.name: c for c in session.components}
    vec = session.board.published("featurizer_count_vectors", "count_vector")
    assert not vec.flags.writeable and vec.dtype.kind == "u"
    assert np.array_equal(vec, count_vector(comps["featurizer_count_vectors"].vocabulary, stack))
    ranking = session.component_result("intent_classifier_bow").intent_ranking
    assert ranking == predict(comps["intent_classifier_bow"].model, vec.astype(np.int64))
    return vec


@settings(deadline=None)
@given(script=st.lists(_STEPS, max_size=30))
def test_the_published_bag_after_any_edits_is_the_batch_count(toy_interp, script):
    """After every step of any ADD/REVOKE/refresh script, out-of-vocabulary
    words included, the published count vector and BoW's ranking are those
    of the surviving words (``_published_bag``)."""
    session = toy_interp.fresh_copy()
    stack: list[str] = []
    revoked: list[str] = []
    _published_bag(session, stack)
    for step in script:
        if step == "refresh":
            session.refresh()
        elif isinstance(step, int):
            for _ in range(min(step, len(stack))):
                revoked.append(stack.pop())
                session.parse_incremental(EditType.REVOKE)
                _published_bag(session, stack)
            continue
        else:
            if step == "readd":
                if not revoked:
                    continue
                step = revoked.pop()
            stack.append(step)
            session.parse_incremental(EditType.ADD, step)
        _published_bag(session, stack)


def test_a_widened_bag_ranks_as_its_batch_count(toy_interp):
    """The 256th ADD of a word publishes a uint16 vector through the
    pipeline, and BoW ranks it as the int64 batch count."""
    session = toy_interp.fresh_copy()
    stack = ["play"] + ["jazz"] * 255
    for word in stack:
        session.parse_incremental(EditType.ADD, word)
    assert _published_bag(session, stack).dtype == np.uint8
    stack.append("jazz")
    session.parse_incremental(EditType.ADD, "jazz")
    assert _published_bag(session, stack).dtype == np.uint16


def _npy(array, version=(1, 0)):
    out = io.BytesIO()
    np.lib.format.write_array(out, array, version=version, allow_pickle=True)
    return out.getvalue()


def _rewrite_npy(change):
    """Edit of a .npy file that writes ``change`` of its array."""
    return lambda data: _npy(change(np.load(io.BytesIO(data))))


def _set_value(index, value, dtype=None):
    """Edit of a .npy file that sets one value of its array, first cast to
    ``dtype`` if given."""

    def change(array):
        array = array.astype(dtype or array.dtype)
        array[index] = value
        return array

    return _rewrite_npy(change)


def _weights_npz(data):
    out = io.BytesIO()
    np.savez(out, weights=np.load(io.BytesIO(data)))
    return out.getvalue()


def _reshape_header(shape):
    """Edit of a .npy file that keeps its values under a header naming
    ``shape`` of the array's own shape."""

    def edit(data):
        array = np.load(io.BytesIO(data))
        header = io.BytesIO()
        fields = {"descr": array.dtype.str, "fortran_order": False, "shape": shape(*array.shape)}
        np.lib.format.write_array_header_1_0(header, fields)
        return header.getvalue() + array.tobytes()

    return edit


def _names_cases(prefix, relpath):
    """The names file's refusals: an entry repeated, an empty entry, and
    the file deleted."""
    stem = Path(relpath).stem
    return {
        f"{prefix}-{stem}-repeated": (relpath, lambda text: text.split("\n", 1)[0] + "\n" + text),
        f"{prefix}-{stem}-empty-entry": (relpath, lambda text: "\n" + text),
        f"{prefix}-{stem}-deleted": (relpath, None),
    }


def _rows_cases(prefix, component, n_cols):
    """The sparse table's refusals, on the rows of ``component``, whose
    tables have ``n_cols`` columns. The first row has more than one
    nonzero cell."""
    widths, index, values = (f"{component}/{name}.npy" for name in ("widths", "index", "values"))
    cases = {
        "values-strings": (values, _rewrite_npy(lambda values: np.full(values.shape, "heavy"))),
        "value-nan": (values, _set_value(0, np.nan, "<f8")),
        "value-infinite": (values, _set_value(0, -np.inf, "<f8")),
        "value-not-an-int": (values, _set_value(0, 2.5, "<f8")),
        "value-past-int32": (values, _set_value(0, 2**31, "<i8")),
        # Its values are a pickle, which the load must not run.
        "value-past-int64": (values, _set_value(0, -2**70, object)),
        "value-repeated": (values, _rewrite_npy(lambda values: np.insert(values, 0, values[0]))),
        "value-zero": (values, _set_value(0, 0)),
        "values-int64": (values, _rewrite_npy(lambda values: values.astype("<i8"))),
        "values-big-endian": (values, _rewrite_npy(lambda values: values.astype(">i4"))),
        "values-two-dimensional": (values, _rewrite_npy(lambda values: values[None])),
        "values-empty": (values, lambda data: b""),
        "values-truncated": (values, lambda data: data[:-4]),
        "values-shape-past-the-file": (values, _reshape_header(lambda size: (2**40,))),
        "values-deleted": (values, None),
        "index-missing-one": (index, _rewrite_npy(lambda index: index[:-1])),
        "index-out-of-range": (index, _set_value(0, n_cols)),
        "index-negative": (index, _set_value(0, -1, "i1")),
        "index-float": (index, _rewrite_npy(lambda index: index.astype("<f8"))),
        "index-repeated": (index, _rewrite_npy(lambda index: index[[0, 0, *range(2, index.size)]])),
        "index-not-ascending": (index, _rewrite_npy(lambda index: index[[1, 0, *range(2, index.size)]])),
        "index-two-bytes": (index, _rewrite_npy(lambda index: index.astype("<u2"))),
        "index-trailing-bytes": (index, lambda data: data + bytes(1)),
        "index-format-2": (index, lambda data: _npy(np.load(io.BytesIO(data)), version=(2, 0))),
        "index-deleted": (index, None),
        "widths-missing-one": (widths, _rewrite_npy(lambda widths: widths[:-1])),
        "widths-extra": (widths, _rewrite_npy(lambda widths: np.append(widths, np.zeros(1, widths.dtype)))),
        "widths-past-the-cells": (widths, _rewrite_npy(lambda widths: np.append(widths[:-1], widths[-1] + 1))),
        "widths-int64": (widths, _rewrite_npy(lambda widths: widths.astype("<i8"))),
        "widths-deleted": (widths, None),
    }
    return {f"{prefix}-{name}": case for name, case in cases.items()}


_SIUM = "intent_sium"
_TAGGER = "entity_tagger_sequence"
_BOW = "intent_classifier_bow/weights.npy"
# The toy corpus's words, SIUM's columns.
_TOY_WORDS = len({word for text, _, _ in toy_rows() for word in text.split()})

# One edit per case, each leaving a bundle whose checksum is valid again
# (None deletes the file). A .npy file's edit maps bytes to bytes, any
# other file's text to text.
_MALFORMED = {
    **_names_cases("featurizer", "featurizer_count_vectors/vocabulary.tsv"),
    # SIUM's rows are those of its intents, then of its entity classes,
    # and a column per vocabulary word.
    **_names_cases("sium", f"{_SIUM}/intents.tsv"),
    **_names_cases("sium", f"{_SIUM}/entity_classes.tsv"),
    **_names_cases("sium", f"{_SIUM}/vocabulary.tsv"),
    **_rows_cases("sium", _SIUM, _TOY_WORDS),
    "sium-intent-extra": (f"{_SIUM}/intents.tsv", lambda text: text + "NoSuchIntent\n"),
    "sium-vocabulary-word-missing": (f"{_SIUM}/vocabulary.tsv", lambda text: text.rsplit("\n", 2)[0] + "\n"),
    # A negative count can still normalise, and would load silently.
    "sium-count-negative": (f"{_SIUM}/values.npy", _set_value(0, -1)),
    # The tagger's rows are its features, and a column per tag: the toy
    # tagger has 7.
    **_names_cases("tagger", f"{_TAGGER}/tags.tsv"),
    **_names_cases("tagger", f"{_TAGGER}/features.tsv"),
    **_rows_cases("tagger", _TAGGER, 7),
    "tagger-tags-none": (f"{_TAGGER}/tags.tsv", lambda text: ""),
    "tagger-feature-name-missing": (f"{_TAGGER}/features.tsv", lambda text: text.split("\n", 1)[1]),
    "tagger-feature-name-extra": (f"{_TAGGER}/features.tsv", lambda text: "w=extra\n" + text),
    "tagger-feature-without-total": (
        f"{_TAGGER}/widths.npy",
        _rewrite_npy(lambda widths: np.array([0, widths[0] + widths[1], *widths[2:]], dtype=widths.dtype)),
    ),
    # The int64 lattice has headroom for totals below 2^31 in magnitude.
    "tagger-total-int32-min": (f"{_TAGGER}/values.npy", _set_value(0, -2**31)),
    **_names_cases("bow", "intent_classifier_bow/intents.tsv"),
    "bow-intent-extra": ("intent_classifier_bow/intents.tsv", lambda text: text + "NoSuchIntent\n"),
    "bow-weights-big-endian": (_BOW, _rewrite_npy(lambda weights: weights.astype(">f8"))),
    "bow-weights-float32": (_BOW, _rewrite_npy(lambda weights: weights.astype("<f4"))),
    "bow-weights-one-dimensional": (_BOW, _rewrite_npy(np.ravel)),
    "bow-weights-three-dimensional": (_BOW, _rewrite_npy(lambda weights: weights[None])),
    # Its values are a pickle, which the load must not run.
    "bow-weights-object-array": (_BOW, _rewrite_npy(lambda weights: weights.astype(object))),
    "bow-weights-npz": (_BOW, _weights_npz),
    "bow-weights-format-2": (_BOW, lambda data: _npy(np.load(io.BytesIO(data)), version=(2, 0))),
    "bow-weights-empty": (_BOW, lambda data: b""),
    "bow-weights-header-truncated": (_BOW, lambda data: data[:64]),
    "bow-weights-truncated": (_BOW, lambda data: data[:-8]),
    "bow-weights-trailing-bytes": (_BOW, lambda data: data + bytes(8)),
    # np.load raised a MemoryError on this one, allocating 2**40 rows.
    "bow-weights-shape-past-the-file": (_BOW, _reshape_header(lambda rows, cols: (2**40, cols))),
    # Its size, rows times columns, is the file's own.
    "bow-weights-shape-negative": (_BOW, _reshape_header(lambda rows, cols: (-rows, -cols))),
    # A NaN weight parsed to a confidence of nan.
    "bow-weight-nan": (_BOW, _set_value((0, 0), np.nan)),
    "bow-weight-infinite": (_BOW, _set_value((-1, -1), np.inf)),
    "bow-weight-matrix-too-narrow": (_BOW, _rewrite_npy(lambda weights: weights[:, :-1])),
    # This one loaded, and every parse raised a ConsistencyError.
    "bow-weight-row-missing": (_BOW, _rewrite_npy(lambda weights: weights[1:])),
    "bow-weights-deleted": (_BOW, None),
}


_LABELS = st.text(st.sampled_from("aZ09 _-.[]éß中"), min_size=1, max_size=8)
_MAX = np.finfo(np.float64).max

# A word is a run of non-space characters, as the tokenizer cuts them;
# some look like a [section] heading, as a bundle's files once had.
_WORDS = st.one_of(
    st.sampled_from(["[vocabulary]", "[intents]", "[intent_counts]", "[]"]),
    st.text(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=6).filter(
        lambda word: word.split() == [word]
    ),
)


class TestBundles:
    def test_round_trip_preserves_predictions(self, toy_interp, tmp_path):
        toy_interp.persist(tmp_path / "bundle")
        loaded = load(tmp_path / "bundle")
        for text in ["play some jazz", "weather in denver", "book a spot for six"]:
            a = toy_interp.fresh_copy().parse_full(text)
            b = loaded.parse_full(text)
            assert a == b

    @settings(max_examples=20, deadline=None)
    @given(labels=st.lists(_LABELS, min_size=6, max_size=6, unique=True))
    def test_every_label_the_loaders_accept_survives_the_bundle(self, labels):
        """Spaces, brackets, a label shaped like a [section] heading and
        non-ASCII letters pass the loaders' label rule, so a bundle must
        hold them: the loaded pipeline parses as the trained one did."""
        intents = dict(zip(("PlayMusic", "GetWeather", "BookRestaurant"), labels))
        etypes = dict(zip(("genre", "city", "party_size"), labels[3:]))
        rows = [
            (text, intents[intent], [(value, etypes[etype]) for value, etype in entities])
            for text, intent, entities in toy_rows()
        ]
        with tempfile.TemporaryDirectory() as tmp:
            data = Path(tmp) / "d.json"
            save_json(TrainingDataset([make_example(*row) for row in rows]), data)
            interp = train_pipeline(default_config(), load_dataset(data))
            loaded = load(interp.persist(Path(tmp) / "bundle"))
        for text, _, _ in rows:
            assert loaded.parse_full(text) == interp.parse_full(text)

    @settings(max_examples=50, deadline=None)
    @given(
        weights=arrays(
            np.float64,
            array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        ),
        labels=st.lists(_LABELS, min_size=6, max_size=6, unique=True),
    )
    @example(
        # -0.0, the smallest subnormal and normal, and ±max.
        weights=np.array([[-0.0, 5e-324], [-2.2250738585072014e-308, _MAX], [1.0, -_MAX]]),
        labels=["a", "b", "c", "d", "e", "f"],
    )
    def test_any_finite_bow_matrix_survives_the_bundle_bit_for_bit(self, weights, labels):
        comp = BowIntentClassifier()
        comp.model = LinearIntentModel(intents=labels[: weights.shape[1]], weights=weights)
        with tempfile.TemporaryDirectory() as tmp:
            comp.persist(Path(tmp))
            loaded = BowIntentClassifier.load(Path(tmp), {}).model
        assert loaded.intents == comp.model.intents
        assert loaded.weights.dtype == np.float64 and loaded.weights.shape == weights.shape
        assert loaded.weights.tobytes() == weights.tobytes()

    def test_a_column_ordered_bow_matrix_loads_as_the_same_matrix(self, toy_interp, tmp_path):
        """A .npy file may hold its values in Fortran (column) order, as its
        header says; the load reads them so, as np.load does."""
        path = toy_interp.persist(tmp_path / "bundle") / _BOW
        weights = np.load(path)
        path.write_bytes(_npy(np.asfortranarray(weights)))
        loaded = BowIntentClassifier.load(path.parent, {}).model.weights
        assert loaded.shape == weights.shape and loaded.tobytes() == weights.tobytes()

    @settings(max_examples=50, deadline=None)
    @given(
        intents=st.lists(_LABELS, min_size=1, max_size=4, unique=True),
        classes=st.lists(_LABELS, min_size=1, max_size=4, unique=True),
        words=st.lists(_WORDS, max_size=8, unique=True),
        data=st.data(),
    )
    def test_any_sium_counts_survive_the_bundle(self, intents, classes, words, data):
        """Words that look like a [section] heading and labels with no count
        included, the counts, vocabulary and log tables load as they were
        persisted."""

        def table(labels):
            shape = (len(labels), len(words))
            return data.draw(arrays(np.int64, shape, elements=st.integers(0, 10**6) | st.just(0)))

        order = data.draw(st.permutations(range(len(words))))
        model = SiumModel(
            intents=intents,
            entity_classes=classes,
            word_index=dict(zip(words, order)),
            intent_counts=table(intents),
            entity_counts=table(classes),
            alpha=1.0,
            entity_threshold=0.6,
            lowercase=True,
        )
        comp = SiumIntent()
        comp.model = model
        with tempfile.TemporaryDirectory() as tmp:
            comp.persist(Path(tmp))
            loaded = SiumIntent.load(Path(tmp), {}).model
        assert (loaded.intents, loaded.entity_classes) == (intents, classes)
        assert loaded.word_index == model.word_index
        for name in ("intent_counts", "entity_counts", "log_word_given_intent", "log_word_given_entity"):
            assert getattr(loaded, name).dtype == getattr(model, name).dtype
            assert getattr(loaded, name).tobytes() == getattr(model, name).tobytes()

    @settings(max_examples=50, deadline=None)
    @given(words=st.lists(_WORDS, max_size=10, unique=True), data=st.data())
    def test_any_vocabulary_survives_the_bundle(self, words, data):
        order = data.draw(st.permutations(range(len(words))))
        comp = CountVectorsFeaturizer()
        comp.vocabulary = Vocabulary(dict(zip(words, order)))
        with tempfile.TemporaryDirectory() as tmp:
            comp.persist(Path(tmp))
            loaded = CountVectorsFeaturizer.load(Path(tmp), {})
        assert loaded.vocabulary.index == comp.vocabulary.index

    @settings(max_examples=100, deadline=None)
    @given(
        table=arrays(
            np.int64,
            st.tuples(st.integers(0, 6), st.integers(1, 8) | st.sampled_from([255, 256, 257, 300])),
            elements=st.integers(-2**31, 2**31 - 1),
            fill=st.just(0),
        )
    )
    # A row with no cell, one column, and a column index past one byte.
    @example(table=np.array([[0], [-2**31], [0]]))
    @example(table=np.array([[0] * 300, [*[0] * 256, 2**31 - 1, *[0] * 43]]))
    def test_any_int32_table_survives_the_sparse_rows(self, table):
        with tempfile.TemporaryDirectory() as tmp:
            write_rows(Path(tmp), table)
            loaded = read_rows(Path(tmp), table.shape)
        assert loaded.dtype == np.int64 and loaded.tobytes() == table.tobytes()

    @pytest.mark.parametrize("value", [2**31, -2**31 - 1])
    def test_the_sparse_rows_refuse_a_value_outside_int32(self, tmp_path, value):
        """Rather than wrap it silently, and before writing a file."""
        with pytest.raises(BundleError, match="outside int32"):
            write_rows(tmp_path, np.array([[0, value]]))
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("names", [["a", "b", "a"], ["a", ""], ["a\nb"], ["a\r"]])
    def test_a_names_file_refuses_names_that_would_not_read_back(self, tmp_path, names):
        with pytest.raises(BundleError, match="one a line"):
            write_names(tmp_path / "names.tsv", names)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("config", ["default", "sium", "restart"])
    def test_every_bundle_file_is_a_names_file_or_a_version_1_npy(self, toy_dataset, tmp_path, config):
        """Besides the config and the manifest, a bundle holds the two file
        forms of the components module, and no other."""
        root = train_pipeline(load_config(ROOT / "configs" / f"{config}.yml"), toy_dataset).persist(tmp_path)
        files = [path for path in root.rglob("*") if path.is_file()]
        assert files
        for path in files:
            if path.suffix == ".tsv":
                read_names(path)
            elif path.suffix == ".npy":
                with path.open("rb") as f:
                    assert np.lib.format.read_magic(f) == (1, 0), path
            else:
                assert path.relative_to(root).as_posix() in ("config.yml", "manifest.json"), path

    def test_untrained_pipeline_refuses_to_persist(self, tmp_path):
        interp = IncrementalInterpreter(default_config())
        with pytest.raises(BundleError):
            interp.persist(tmp_path / "bundle")

    def test_missing_manifest_is_an_error(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(BundleError, match="manifest.json"):
            load(tmp_path / "empty")

    def test_unreadable_manifest_is_an_error(self, toy_interp, tmp_path):
        root = toy_interp.persist(tmp_path / "bundle")
        (root / "manifest.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(BundleError, match="JSON"):
            load(root)

    def test_manifest_that_is_not_utf8_is_an_error(self, toy_interp, tmp_path):
        root = toy_interp.persist(tmp_path / "bundle")
        (root / "manifest.json").write_bytes(b'{"schema_version": "\xff"}')
        with pytest.raises(BundleError, match="JSON"):
            load(root)

    @pytest.mark.parametrize("text", ["[]", "5", '"manifest"', "null"])
    def test_manifest_that_is_not_an_object_is_an_error(self, toy_interp, tmp_path, text):
        root = toy_interp.persist(tmp_path / "bundle")
        (root / "manifest.json").write_text(text, encoding="utf-8")
        with pytest.raises(BundleError, match="not a JSON object"):
            load(root)

    @pytest.mark.parametrize("training", [5, [], "seed 13", None])
    def test_manifest_training_that_is_not_an_object_is_an_error(self, toy_interp, tmp_path, training):
        root = toy_interp.persist(tmp_path / "bundle")
        manifest = json.loads((root / "manifest.json").read_text(encoding="utf-8"))
        manifest["training"] = training
        (root / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(BundleError, match="'training' is not a JSON object"):
            load(root)

    def test_wrong_schema_version_names_the_expected_one(self, toy_interp, tmp_path):
        root = toy_interp.persist(tmp_path / "bundle")
        manifest = json.loads((root / "manifest.json").read_text(encoding="utf-8"))
        # Schema 1 kept parameters in per-component params.tsv files, schema
        # 2 kept SIUM's log tables instead of its counts, schema 3 kept the
        # tagger's weights as decimals instead of its integer totals, schema
        # 4 kept one tagger line per (feature, tag) cell, naming the tag,
        # schema 5 kept BoW's weights as decimal text and SIUM's counts and
        # both vocabularies by word, schema 6 kept the tagger's tag indices
        # and totals as decimal text, and schema 7 kept SIUM's counts as
        # decimal text under [section] headings and the tagger's tags and
        # step count in its feature file.
        for version in (999, 1, 2, 3, 4, 5, 6, 7):
            manifest["schema_version"] = version
            (root / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
            with pytest.raises(BundleError, match=rf"{version}.*expected {SCHEMA_VERSION}"):
                load(root)

    def test_tampered_model_file_fails_the_checksum(self, toy_interp, tmp_path):
        root = toy_interp.persist(tmp_path / "bundle")
        target = root / "intent_classifier_bow" / "weights.npy"
        target.write_bytes(target.read_bytes() + b"x")
        with pytest.raises(BundleError, match="checksum"):
            load(root)

    # Only the root's manifest is left out of the checksum.
    @pytest.mark.parametrize("name", ["extra.tsv", "manifest.json"])
    def test_a_file_added_in_a_nested_directory_fails_the_checksum(self, toy_interp, tmp_path, name):
        root = toy_interp.persist(tmp_path / "bundle")
        extra = root / "intent_sium" / "nested" / "deeper" / name
        extra.parent.mkdir(parents=True)
        extra.write_text("x\n", encoding="utf-8")
        with pytest.raises(BundleError, match="checksum"):
            load(root)

    def test_manifest_component_list_must_match_the_config(self, toy_interp, tmp_path):
        root = toy_interp.persist(tmp_path / "bundle")
        manifest = json.loads((root / "manifest.json").read_text(encoding="utf-8"))
        manifest["components"] = manifest["components"][:-1]
        (root / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(BundleError, match="component list"):
            load(root)

    def test_missing_component_directory_is_reported(self, toy_interp, tmp_path):
        import shutil

        root = toy_interp.persist(tmp_path / "bundle")
        shutil.rmtree(root / "intent_sium")
        reseal(root)
        with pytest.raises(BundleError, match="intent_sium"):
            load(root)

    def test_manifest_is_deterministic_json(self, toy_interp, tmp_path):
        root = toy_interp.persist(tmp_path / "bundle")
        manifest = json.loads((root / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["schema_version"] == SCHEMA_VERSION
        assert manifest["components"] == [c.name for c in toy_interp.components]
        assert manifest["training"]["examples"] == 14
        assert "checksum" in manifest
        # No wall-clock fields: persisting twice must be byte-identical.
        again = toy_interp.persist(tmp_path / "bundle2")
        assert (root / "manifest.json").read_bytes() == (again / "manifest.json").read_bytes()

    @pytest.mark.parametrize("relpath, edit", list(_MALFORMED.values()), ids=list(_MALFORMED))
    def test_malformed_model_file_is_a_bundle_error(self, toy_interp, tmp_path, relpath, edit):
        root = toy_interp.persist(tmp_path / "bundle")
        target = root / relpath
        if edit is None:
            target.unlink()
        elif target.suffix == ".npy":
            target.write_bytes(edit(target.read_bytes()))
        else:
            target.write_text(edit(target.read_text(encoding="utf-8")), encoding="utf-8")
        reseal(root)
        with pytest.raises(BundleError, match=relpath.split("/")[0]):
            load(root)

    def test_config_records_every_parameter_and_no_params_file_is_written(
        self, toy_interp, tmp_path
    ):
        root = toy_interp.persist(tmp_path / "bundle")
        config = load_config(root / "config.yml")
        assert [(s.name, s.params) for s in config.components] == [
            (c.name, c.params) for c in toy_interp.components
        ]
        assert config.components[2].params == {
            "alpha": 1.0, "entity_threshold": 0.6, "lowercase": True
        }
        assert not list(root.rglob("params.tsv"))

    @pytest.mark.parametrize(
        "name, params",
        [
            ("tokenizer_whitespace", {"lowercase": False}),
            ("featurizer_count_vectors", {"lowercase": False}),
            ("intent_sium", {"entity_threshold": 0.9}),
            ("entity_tagger_sequence", {"epochs": 3, "lowercase": False}),
            ("intent_classifier_bow", {"seed": 5}),
        ],
    )
    def test_component_load_uses_the_params_it_is_given(self, toy_interp, tmp_path, name, params):
        root = toy_interp.persist(tmp_path / "bundle")
        comp = REGISTRY[name].load(root / name, params)
        assert comp.params == {**REGISTRY[name].defaults, **params}
        if name == "intent_sium":
            assert comp.model.entity_threshold == 0.9
        if name == "featurizer_count_vectors":
            assert comp.vocabulary.lowercase is False

    def test_non_finite_bundle_parameter_is_a_parameter_error(self, toy_interp, tmp_path):
        root = toy_interp.persist(tmp_path / "bundle")
        path = root / "config.yml"
        text = path.read_text(encoding="utf-8")
        assert "alpha: 1.0" in text
        path.write_text(text.replace("alpha: 1.0", "alpha: nan"), encoding="utf-8")
        reseal(root)
        with pytest.raises(ParameterError, match="intent_sium.*alpha"):
            load(root)

    def test_bundle_config_that_is_not_utf8_is_a_config_error(self, toy_interp, tmp_path):
        root = toy_interp.persist(tmp_path / "bundle")
        path = root / "config.yml"
        path.write_bytes(path.read_bytes() + b"# caf\xe9\n")
        reseal(root)
        with pytest.raises(ConfigError, match=r"config\.yml: not UTF-8"):
            load(root)

    def test_wrongly_typed_bundle_parameter_is_a_config_error(self, toy_interp, tmp_path):
        root = toy_interp.persist(tmp_path / "bundle")
        path = root / "config.yml"
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("epochs: 10", 'epochs: "x"'), encoding="utf-8")
        reseal(root)
        with pytest.raises(ConfigError, match="epochs"):
            load(root)
