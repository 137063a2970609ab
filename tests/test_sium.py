import dataclasses
import math
from functools import partial
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from incnlu import ConfigError, ConsistencyError, ParameterError, sium
from incnlu.data import NO_ENTITY, TrainingDataset, TrainingExample
from incnlu.features import WhitespaceTokenizer
from incnlu.iu import ENTITIES, INTENT_DISTRIBUTION, Blackboard, EditType
from incnlu.sium import (
    SiumIntent,
    SiumModel,
    SiumState,
    batch_posterior,
    classify,
    entity_pick,
    sium_entities,
    train_sium,
)

from conftest import make_example, model_files, table_values, tokenized, toy_rows

SEVEN_INTENTS = [
    "AddToPlaylist",
    "BookRestaurant",
    "GetWeather",
    "PlayMusic",
    "RateBook",
    "SearchCreativeWork",
    "SearchScreeningEvent",
]


def _plain(text, intent):
    return TrainingExample(text=text, intent=intent)


def _entity_posterior(model, word):
    """The reference class posterior of ``word`` alone: the log prior plus
    its likelihood row, softmaxed."""
    score = model.log_entity_prior + model.log_word_given_entity[model.row(word)]
    probs = np.exp(score - score.max())
    return probs / probs.sum()


def test_smoothed_likelihoods_match_hand_computation():
    # Corpus: intent I1 says "a a b", intent I2 says "b". Vocabulary {a, b}
    # plus the unseen bucket gives 3 cells per intent; with alpha=1,
    # P(a | I1) = (2 + 1) / (3 + 1 * 3) = 1/2.
    ds = TrainingDataset([_plain("a a b", "I1"), _plain("b", "I2")])
    model = train_sium(tokenized(ds), alpha=1.0)
    probs = np.exp(model.log_word_given_intent)
    i1, i2 = model.intents.index("I1"), model.intents.index("I2")
    a, b, oov = model.word_index["a"], model.word_index["b"], len(model.word_index)
    assert probs[a, i1] == pytest.approx(3 / 6, rel=1e-12)
    assert probs[b, i1] == pytest.approx(2 / 6, rel=1e-12)
    assert probs[oov, i1] == pytest.approx(1 / 6, rel=1e-12)
    assert probs[a, i2] == pytest.approx(1 / 4, rel=1e-12)
    assert probs[b, i2] == pytest.approx(2 / 4, rel=1e-12)
    np.testing.assert_allclose(probs.sum(axis=0), 1.0, rtol=0, atol=1e-12)


def test_single_word_posterior_update():
    # Vocabulary {w, x} plus the unseen bucket; A saw w twice, B saw x twice.
    # With alpha=1, P(w | A) = (2 + 1) / (2 + 3) = 0.6 and P(w | B) = 1 / 5 =
    # 0.2, so from a uniform prior the posterior must be (0.75, 0.25).
    model = SiumModel(
        intents=["A", "B"],
        entity_classes=[NO_ENTITY],
        word_index={"w": 0, "x": 1},
        intent_counts=np.array([[2, 0], [0, 2]]),
        entity_counts=np.array([[2, 2]]),
        alpha=1.0,
        entity_threshold=0.6,
        lowercase=True,
    )
    np.testing.assert_allclose(np.exp(model.intent_loglik("w")), [0.6, 0.2], rtol=1e-12)
    state = SiumState(model)
    state.add("w")
    np.testing.assert_allclose(classify(state), [0.75, 0.25], rtol=0, atol=1e-12)


@pytest.mark.parametrize("miss, refused", [(5e-6, False), (2e-5, True), (math.nan, True)])
def test_a_table_whose_columns_miss_one_by_more_than_the_bound_is_refused(miss, refused):
    """Every column of a likelihood table must sum to one within
    np.allclose's bound, 1e-9 + 1e-5. Each entry's log is shifted here so
    that every column sums to 1 + ``miss``: 5e-6 passes, 2e-5 does not,
    and neither does NaN."""
    shifted = SimpleNamespace(inf=math.inf, log=lambda x: math.log(x) + math.log1p(miss))
    with mock.patch.object(sium, "math", shifted):
        build = partial(SiumModel, ["A", "B"], [NO_ENTITY], {"w": 0}, np.array([[2], [1]]),
                        np.array([[3]]), alpha=1.0, entity_threshold=0.6, lowercase=True)
        if not refused:
            build()
            return
        with pytest.raises(ConsistencyError, match="does not normalize"):
            build()


def test_rebuilding_from_the_fields_gives_bit_equal_tables(toy_dataset):
    # editbench's counting model is built this way, from the trained
    # model's fields, and must read the same numbers.
    model = train_sium(tokenized(toy_dataset))
    copy = SiumModel(**{f.name: getattr(model, f.name) for f in dataclasses.fields(SiumModel)})
    for name in (
        "log_word_given_intent",
        "log_word_given_entity",
        "log_intent_prior",
        "log_entity_prior",
    ):
        assert np.array_equal(getattr(copy, name), getattr(model, name))


def test_empty_state_returns_the_prior():
    ds = TrainingDataset([_plain(f"word{i} filler", it) for i, it in enumerate(SEVEN_INTENTS)])
    model = train_sium(tokenized(ds))
    probs = classify(SiumState(model))
    np.testing.assert_allclose(probs, np.full(7, 1 / 7), rtol=0, atol=1e-12)
    # Ties rank alphabetically, so the first label is stable.
    from incnlu.results import rank_distribution

    ranked = rank_distribution(model.intents, probs)
    assert ranked[0][0] == "AddToPlaylist"


def test_add_then_revoke_restores_state_bit_for_bit(toy_dataset):
    model = train_sium(tokenized(toy_dataset))
    state = SiumState(model)
    for w in ["weather", "in"]:
        state.add(w)
    snapshot = state.scores[len(state.tokens)].copy()
    state.add("boston")
    state.revoke("boston")
    # Bit-identical, not merely close: equality over float arrays on purpose.
    assert np.array_equal(state.scores[len(state.tokens)], snapshot)
    assert state.tokens == ["weather", "in"]


_TOY_MODEL = train_sium(tokenized(TrainingDataset([make_example(*row) for row in toy_rows()])))
# Toy words, an unseen word, and a capitalised one that lowercases onto a
# known word.
_WORDS = sorted({w for row in toy_rows() for w in row[0].split()}) + ["zubat", "Boston"]
# A script step is a word to ADD, an int n for a run of n REVOKEs (runs that
# outlast the words underflow), or "readd" to ADD the last revoked word again.
_STEPS = st.one_of(st.sampled_from(_WORDS), st.integers(1, 4), st.just("readd"))


@given(st.lists(_STEPS, max_size=30))
def test_randomized_streams_track_the_batch_oracle(script):
    """Any interleaving of adds and revokes must land exactly on the state
    a clean left-to-right run over the survivors produces."""
    model = _TOY_MODEL
    state = SiumState(model)
    stack: list[str] = []
    revoked: list[str] = []
    for step in script:
        if isinstance(step, int):
            for _ in range(step):
                if not stack:
                    with pytest.raises(ConsistencyError):
                        state.revoke("ghost")
                    break
                revoked.append(stack.pop())
                state.revoke(revoked[-1])
        else:
            if step == "readd":
                if not revoked:
                    continue
                step = revoked.pop()
            stack.append(step)
            state.add(step)
        clean = SiumState(model)
        for word in stack:
            clean.add(word)
        # Bit-equal, not merely close: a revoke restores the earlier array.
        assert np.array_equal(state.scores[len(state.tokens)], clean.scores[len(clean.tokens)])
        assert state.tokens == clean.tokens
        assert state.picks == clean.picks
        assert sium_entities(state) == sium_entities(clean)
        assert np.array_equal(classify(state), classify(clean))
        assert np.abs(classify(state) - batch_posterior(model, stack)).max() <= 1e-12


# At threshold 0 most toy words pick a class, so spans run over several
# words and their confidence varies along them.
_EAGER_MODEL = train_sium(
    tokenized(TrainingDataset([make_example(*row) for row in toy_rows()])), entity_threshold=0.0
)


@given(st.lists(st.tuples(_STEPS, st.booleans()), max_size=30))
def test_entity_readout_tracks_a_full_merge(script):
    """The readout keeps the spans of its last call; read after any edits,
    it must equal a first readout of a clean state of the survivors."""
    state = SiumState(_EAGER_MODEL)
    stack: list[str] = []
    revoked: list[str] = []
    for step, read in script:
        if isinstance(step, int):
            for _ in range(min(step, len(stack))):
                revoked.append(stack.pop())
                state.revoke(revoked[-1])
        else:
            if step == "readd":
                if not revoked:
                    continue
                step = revoked.pop()
            stack.append(step)
            state.add(step)
        if read:
            clean = SiumState(_EAGER_MODEL)
            for word in stack:
                clean.add(word)
            assert sium_entities(state) == sium_entities(clean)


def test_revoke_must_match_the_last_word(toy_dataset):
    model = train_sium(tokenized(toy_dataset))
    state = SiumState(model)
    with pytest.raises(ConsistencyError):
        state.revoke("ghost")
    state.add("play")
    with pytest.raises(ConsistencyError):
        state.revoke("jazz")
    # A refused revoke changes nothing, so the right word still pops cleanly.
    assert state.tokens == ["play"]
    state.revoke("play")
    assert np.array_equal(state.scores[len(state.tokens)], model.log_intent_prior)
    assert state.picks == []


def test_posteriors_and_tables_normalize(toy_dataset):
    model = train_sium(tokenized(toy_dataset))
    for table in (model.log_word_given_intent, model.log_word_given_entity):
        np.testing.assert_allclose(np.exp(table).sum(axis=0), 1.0, rtol=0, atol=1e-9)
    state = SiumState(model)
    for w in ["book", "a", "table", "for", "two"]:
        state.add(w)
        assert classify(state).sum() == pytest.approx(1.0, abs=1e-12)


def test_hyperparameter_validation():
    ds = TrainingDataset([_plain("x", "A")])
    for alpha in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ParameterError):
            train_sium(tokenized(ds), alpha=alpha)
        with pytest.raises(ParameterError):
            SiumIntent({"alpha": alpha})
    for threshold in (-0.1, 1.5):
        with pytest.raises(ParameterError):
            train_sium(tokenized(ds), entity_threshold=threshold)
        with pytest.raises(ParameterError):
            SiumIntent({"entity_threshold": threshold})


def test_a_token_outside_every_entity_counts_under_the_null_class():
    """Each token counts under the class of its BIO tag; a token tagged
    "O" counts under NO_ENTITY."""
    ds = TrainingDataset([make_example("play jazz now", "PlayMusic", [("jazz", "genre")])])
    model = train_sium(tokenized(ds))
    assert model.entity_classes == ["genre", NO_ENTITY]
    assert model.word_index == {"play": 0, "jazz": 1, "now": 2}
    assert model.entity_counts.tolist() == [[0, 1, 0], [1, 0, 1]]


class TestEntityReadout:
    def _model(self, threshold=0.6):
        ds = TrainingDataset([make_example(*row) for row in toy_rows()])
        model = train_sium(tokenized(ds), entity_threshold=threshold)
        assert model.entity_classes[-1] == NO_ENTITY
        return model

    def _state_with(self, model, tokens, picks):
        """Build a state whose per-word class posteriors are hand-chosen.

        ``picks`` maps each token position to (class, confidence) or None;
        remaining mass goes to the null class. Each posterior goes through
        ``entity_pick``, as an ADD would, so the threshold still applies.
        """
        state = SiumState(model)
        state.tokens = list(tokens)
        null = model.entity_classes.index(NO_ENTITY)
        for pick in picks:
            probs = np.zeros(len(model.entity_classes))
            if pick is None:
                probs[null] = 1.0
            else:
                cls, conf = pick
                idx = model.entity_classes.index(cls)
                probs[idx] = conf
                probs[null] = 1.0 - conf
            state.picks.append(entity_pick(model, probs))
        return state

    def test_adjacent_same_class_words_merge(self):
        model = self._model()
        state = self._state_with(
            model,
            ["weather", "in", "new", "york"],
            [None, None, ("city", 0.9), ("city", 0.7)],
        )
        spans = sium_entities(state)
        assert len(spans) == 1
        span = spans[0]
        assert (span.type, span.value, span.start, span.end) == ("city", "new york", 2, 4)
        # A span is only as confident as its weakest word.
        assert span.confidence == pytest.approx(0.7)

    def test_threshold_is_strict(self):
        model = self._model(threshold=0.6)
        state = self._state_with(model, ["boston"], [("city", 0.6)])
        assert sium_entities(state) == ()
        state = self._state_with(model, ["boston"], [("city", 0.6000001)])
        assert len(sium_entities(state)) == 1

    def test_threshold_one_silences_extraction(self):
        model = self._model(threshold=1.0)
        state = self._state_with(model, ["boston"], [("city", 1.0)])
        assert sium_entities(state) == ()

    def test_gap_splits_spans(self):
        model = self._model()
        state = self._state_with(
            model,
            ["boston", "to", "denver"],
            [("city", 0.8), None, ("city", 0.9)],
        )
        spans = sium_entities(state)
        assert [(s.value, s.start, s.end) for s in spans] == [("boston", 0, 1), ("denver", 2, 3)]

    def test_trained_model_finds_a_recurring_slot_word(self):
        # "jazz" only ever appears inside genre annotations in the toy
        # corpus, so its class posterior should clear the default threshold.
        model = self._model()
        state = SiumState(model)
        for w in ["play", "some", "jazz"]:
            state.add(w)
        spans = sium_entities(state)
        assert any(s.type == "genre" and s.value == "jazz" for s in spans)


class TestSiumComponent:
    """SIUM behind a tokenizer, on a board that carries the tokens it follows."""

    def _trained(self, dataset):
        comp = SiumIntent()
        comp.train(dataset, tokenized(dataset))
        return comp

    def _stream(self, comp, edits):
        """Apply each (edit, word) to a new board and run the tokenizer,
        then ``comp``, on it, as the lock-step pipeline does."""
        board = Blackboard()
        tokenizer = WhitespaceTokenizer()
        for edit, word in edits:
            unit = board.apply_edit(edit, word if edit is EditType.ADD else None)
            board.begin_cycle()
            tokenizer.process(board, edit, unit.word)
            comp.process(board, edit, unit.word)
        return board

    def test_writes_distribution_and_entities(self, toy_dataset):
        comp = self._trained(toy_dataset)
        board = self._stream(comp, [(EditType.ADD, w) for w in ["play", "some", "jazz"]])
        dist = board.annotations[INTENT_DISTRIBUTION]
        assert dist[0][0] == "PlayMusic"
        assert sum(p for _, p in dist) == pytest.approx(1.0, abs=1e-12)
        assert [s.value for s in board.annotations[ENTITIES]] == ["jazz"]
        assert comp._state.tokens == ["play", "some", "jazz"]

    def test_revoked_stream_equals_clean_stream(self, toy_dataset):
        comp = self._trained(toy_dataset)
        board = self._stream(comp, [
            (EditType.ADD, "book"),
            (EditType.ADD, "a"),
            (EditType.ADD, "spot"),
            (EditType.REVOKE, "spot"),
            (EditType.ADD, "table"),
        ])
        clean = self._trained(toy_dataset)
        clean_board = self._stream(clean, [(EditType.ADD, w) for w in ["book", "a", "table"]])
        assert comp._state.tokens == clean._state.tokens == ["book", "a", "table"]
        assert board.annotations[INTENT_DISTRIBUTION] == clean_board.annotations[INTENT_DISTRIBUTION]

    @pytest.mark.parametrize("after", [
        [(EditType.ADD, "table")],
        [(EditType.REVOKE, None)],
        [(EditType.REVOKE, None), (EditType.ADD, "the")],
        [],
    ])
    def test_state_follows_a_restored_board(self, sium_interp, after):
        """A restore calls no component, so SIUM, which owns its keys here
        and so runs on every edit, still holds the word it took back; the
        next edit, or a refresh, drops it and lands bit for bit where a
        session that never saw the word lands."""
        noisy, clean = sium_interp.fresh_copy(), sium_interp.fresh_copy()
        noisy.parse_full("book a")
        noisy.parse_incremental(EditType.ADD, "spot")
        noisy.parse_incremental(EditType.REVOKE)
        sium = next(c for c in noisy.components if c.name == "intent_sium")
        assert sium._state.tokens == ["book", "a", "spot"]
        clean.parse_full("book a")
        for session in (noisy, clean):
            for edit, word in after:
                session.parse_incremental(edit, word)
            session.refresh()
        clean_sium = next(c for c in clean.components if c.name == "intent_sium")
        assert sium._state.tokens == clean_sium._state.tokens
        # The published rankings and entities.
        assert noisy.component_result("intent_sium") == clean.component_result("intent_sium")

    def test_a_board_without_tokens_is_a_config_error(self, toy_dataset):
        comp = self._trained(toy_dataset)
        board = Blackboard()
        board.apply_edit(EditType.ADD, "play")
        board.begin_cycle()
        with pytest.raises(ConfigError):
            comp.process(board, EditType.ADD, "play")

    def test_fresh_copy_does_not_share_mutable_state(self, toy_dataset):
        comp = self._trained(toy_dataset)
        self._stream(comp, [(EditType.ADD, "weather")])
        clone = comp.fresh()
        self._stream(clone, [(EditType.ADD, "play")])
        # The original's accumulated state must be untouched by the clone.
        assert comp._state.tokens == ["weather"]
        assert clone._state.tokens == ["play"]

    def test_persist_load_round_trip(self, toy_dataset, tmp_path):
        comp = self._trained(toy_dataset)
        comp.persist(tmp_path)
        loaded = SiumIntent.load(model_files(tmp_path), {})
        assert loaded.model.intents == comp.model.intents
        assert loaded.model.entity_classes == comp.model.entity_classes
        assert loaded.model.word_index == comp.model.word_index
        assert np.array_equal(loaded.model.log_word_given_intent, comp.model.log_word_given_intent)
        assert np.array_equal(loaded.model.log_word_given_entity, comp.model.log_word_given_entity)
        # The files hold the labels, the words and the counts only: a row per
        # intent, then per entity class, of its nonzero counts.
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "entity_classes.tsv", "index.u1", "intents.tsv", "values.i4", "vocabulary.tsv", "widths.u1"
        ]
        counts = np.vstack((comp.model.intent_counts, comp.model.entity_counts))
        widths, index, values = (table_values(tmp_path, name) for name in ("widths", "index", "values"))
        assert widths.tolist() == np.count_nonzero(counts, axis=1).tolist()
        assert index.tolist() == np.nonzero(counts)[1].tolist()
        assert values.tolist() == counts[counts != 0].tolist()
        for name in ("intent_counts", "entity_counts"):
            assert np.array_equal(getattr(loaded.model, name), getattr(comp.model, name))

    def test_a_negative_count_is_refused(self, toy_dataset, tmp_path):
        """With alpha 2, a count of -1 still smooths to a positive
        probability, and would load silently."""
        comp = self._trained(toy_dataset)
        comp.persist(tmp_path)
        values = table_values(tmp_path, "values").copy()
        values[0] = -1
        (tmp_path / "values.i4").write_bytes(values.tobytes())
        with pytest.raises(ValueError, match="a count is negative"):
            SiumIntent.load(model_files(tmp_path), {"alpha": 2.0})

    def test_a_class_with_no_count_persists_and_loads(self, tmp_path):
        """Every word in an entity leaves the null class no count."""
        rows = [("jazz", "PlayMusic", [("jazz", "genre")]), ("boston", "GetWeather", [("boston", "city")])]
        comp = SiumIntent()
        dataset = TrainingDataset([make_example(*row) for row in rows])
        comp.train(dataset, tokenized(dataset))
        assert comp.model.entity_classes[-1] == NO_ENTITY and not comp.model.entity_counts[-1].any()
        comp.persist(tmp_path)
        loaded = SiumIntent.load(model_files(tmp_path), {}).model
        assert np.array_equal(loaded.entity_counts, comp.model.entity_counts)
        assert loaded.log_word_given_entity.tobytes() == comp.model.log_word_given_entity.tobytes()

    def test_use_before_training_is_an_error(self):
        comp = SiumIntent()
        board = Blackboard()
        board.begin_cycle()
        with pytest.raises(ConsistencyError):
            comp.process(board, EditType.ADD, "word")


class TestPickMemo:
    """An ADD's entity pick comes from a per-row memo on the model."""

    def test_add_appends_the_pick_of_the_words_posterior(self, toy_dataset):
        model = train_sium(tokenized(toy_dataset))
        words = sorted(model.word_index) + ["zubat", "Jazz", "BOSTON"]
        for _ in range(2):  # the first pass fills the memo, the second reads it
            state = SiumState(model)
            for word in words:
                state.add(word)
                assert state.picks[-1] == entity_pick(model, _entity_posterior(model, word))
        assert len(model._picks) == len(model.word_index) + 1

    def test_replaced_model_follows_its_own_threshold(self, toy_dataset):
        model = train_sium(tokenized(toy_dataset))
        words = sorted(model.word_index)
        SiumState(model).add("jazz")
        loose = dataclasses.replace(model, entity_threshold=0.0)
        assert loose._picks == {}
        state = SiumState(loose)
        for word in words:
            state.add(word)
            assert state.picks[-1] == entity_pick(loose, _entity_posterior(loose, word))
        strict = [entity_pick(model, _entity_posterior(model, word)) for word in words]
        assert state.picks != strict

    def test_fresh_sessions_share_one_memo(self, toy_interp):
        a, b = toy_interp.fresh_copy(), toy_interp.fresh_copy()
        sium_a, sium_b = (next(c for c in s.components if c.name == "intent_sium") for s in (a, b))
        assert sium_a.model._picks is sium_b.model._picks
        a.parse_incremental(EditType.ADD, "quasar")
        a.component_result("intent_sium")  # SIUM runs when its view is read
        assert sium_b.model.row("quasar") in sium_b.model._picks

    def test_memo_is_empty_after_load(self, toy_dataset, tmp_path):
        comp = SiumIntent()
        comp.train(toy_dataset, tokenized(toy_dataset))
        comp.persist(tmp_path)
        assert SiumIntent.load(model_files(tmp_path), {}).model._picks == {}
