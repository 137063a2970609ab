import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from incnlu import ConsistencyError, EditType, IncrementalInterpreter, default_config
from incnlu.data import TrainingDataset, TrainingExample
from incnlu.features import CountVectorsFeaturizer, WhitespaceTokenizer, count_vector, tokenize
from incnlu.intent_bow import (
    BowIntentClassifier,
    LinearIntentModel,
    _augment,
    gradient,
    loss,
    predict,
    softmax,
    train_classifier,
)
from incnlu.results import label_order, rank_distribution
from incnlu.sium import NO_ENTITY, SiumIntent, SiumModel, SiumState, classify

from conftest import make_example, model_files, tokenized, toy_rows


def _separable_dataset():
    rows = []
    for _ in range(50):
        rows.append(TrainingExample(text="play music", intent="PlayMusic"))
        rows.append(TrainingExample(text="book table", intent="BookRestaurant"))
    return TrainingDataset(rows)


def _featurized(dataset):
    """The training context the tokenizer and the featurizer leave."""
    ctx = tokenized(dataset)
    CountVectorsFeaturizer().train(dataset, ctx)
    return ctx


def _fd_gradient(weights, inputs, labels, l2, h=1e-6):
    """Central finite differences over every weight entry."""
    grad = np.zeros_like(weights)
    for idx in np.ndindex(weights.shape):
        bumped = weights.copy()
        bumped[idx] += h
        hi = loss(bumped, inputs, labels, l2)
        bumped[idx] -= 2 * h
        lo = loss(bumped, inputs, labels, l2)
        grad[idx] = (hi - lo) / (2 * h)
    return grad


def test_separable_toy_problem_is_fit_exactly():
    ds = _separable_dataset()
    ctx = _featurized(ds)
    vocab = ctx.vocabulary
    model = train_classifier(ctx)
    for text, intent in [("play music", "PlayMusic"), ("book table", "BookRestaurant")]:
        ranking = predict(model, count_vector(vocab, tokenize(text)))
        assert ranking[0][0] == intent
        assert ranking[0][1] > 0.9


def test_zero_epochs_means_uniform_output():
    # Zero-initialized weights score every intent identically.
    ds = _separable_dataset()
    ctx = _featurized(ds)
    vocab = ctx.vocabulary
    model = train_classifier(ctx, epochs=0)
    ranking = predict(model, count_vector(vocab, tokenize("play music")))
    np.testing.assert_allclose([p for _, p in ranking], 0.5, rtol=0, atol=1e-12)
    assert ranking[0][0] == "BookRestaurant"  # ties rank alphabetically


def test_equal_counts_of_any_integer_dtype_rank_bit_for_bit_alike():
    """The session publishes unsigned vectors as narrow as their counts
    allow; predict casts each to the same float row as the int64 batch
    vector, so the ranking keeps every bit."""
    ds = _separable_dataset()
    ctx = _featurized(ds)
    vocab = ctx.vocabulary
    model = train_classifier(ctx, epochs=5)
    rng = np.random.default_rng(30)
    for top, dtypes in [
        (255, (np.uint8, np.uint16, np.uint32, np.uint64, np.int32)),
        (70_000, (np.uint32, np.uint64)),
    ]:
        counts = rng.integers(0, top + 1, size=len(vocab))
        expected = predict(model, counts.astype(np.int64))
        for dtype in dtypes:
            assert predict(model, counts.astype(dtype)) == expected


def test_predictions_normalize_and_rank_descending():
    ds = _separable_dataset()
    ctx = _featurized(ds)
    vocab = ctx.vocabulary
    model = train_classifier(ctx, epochs=5)
    rng = np.random.default_rng(8)
    for _ in range(30):
        vec = rng.integers(0, 3, size=len(vocab)).astype(np.int64)
        ranking = predict(model, vec)
        probs = [p for _, p in ranking]
        assert probs == sorted(probs, reverse=True)
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)


_TOY = TrainingDataset([make_example(*row) for row in toy_rows()])
_TOY_CONTEXT = _featurized(_TOY)
_TOY_VOCAB = _TOY_CONTEXT.vocabulary
_TOY_MODEL = train_classifier(_TOY_CONTEXT, epochs=5)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=len(_TOY_VOCAB), max_size=len(_TOY_VOCAB)))
@example([0] * len(_TOY_VOCAB))
def test_predict_is_bit_equal_to_the_training_path(counts):
    """predict builds its input row apart from _augment; the ranking must be
    the same, bit for bit, with every probability a Python float."""
    vec = np.array(counts, dtype=np.int64)
    ranking = predict(_TOY_MODEL, vec)
    want = softmax(_augment(vec[None, :]) @ _TOY_MODEL.weights)[0]
    assert ranking == rank_distribution(_TOY_MODEL.intents, want)
    assert all(type(p) is float for _, p in ranking)


def _reference_ranking(labels, probs):
    return tuple(sorted(zip(labels, probs), key=lambda p: (-p[1], p[0])))


@st.composite
def _tied_distributions(draw):
    """Unique labels in no particular order, and probabilities drawn from
    three values, so most draws tie."""
    labels = draw(st.lists(st.text("abAB_ ", min_size=1, max_size=3), min_size=1, max_size=7, unique=True))
    probs = draw(st.lists(st.sampled_from([0.5, 0.25, 0.0]), min_size=len(labels), max_size=len(labels)))
    return labels, probs


@settings(max_examples=200, deadline=None)
@given(_tied_distributions(), st.lists(st.integers(0, 2), min_size=7, max_size=7))
@example((["b", "a", "B"], [0.25, 0.25, 0.25]), [0] * 7)
def test_every_ranking_breaks_ties_on_the_label(drawn, counts):
    """The one tie rule, probability descending and then label, checked
    against a plain sort: for rank_distribution with a label order worked
    out ahead, for BoW's predict on an all-zero model, where every intent
    ties, and for SIUM's published ranking over one word whose counts tie
    some intents."""
    labels, probs = drawn
    reference = _reference_ranking(labels, probs)
    assert rank_distribution(labels, np.array(probs), label_order(labels)) == reference

    bow = LinearIntentModel(intents=labels, weights=np.zeros((3, len(labels))))
    ranking = predict(bow, np.array([1, 0], dtype=np.uint8))
    assert ranking == _reference_ranking(labels, softmax(np.zeros((1, len(labels))))[0].tolist())
    assert [label for label, _ in ranking] == sorted(labels)

    model = SiumModel(
        intents=labels,
        entity_classes=[NO_ENTITY],
        word_index={"w": 0},
        intent_counts=np.array(counts[:len(labels)], dtype=np.int64)[:, None],
        entity_counts=np.ones((1, 1), dtype=np.int64),
        alpha=1.0,
        entity_threshold=0.6,
        lowercase=True,
    )
    sium = SiumIntent()
    sium.model = model
    session = IncrementalInterpreter(default_config(), [WhitespaceTokenizer(), sium])
    session.parse_incremental(EditType.ADD, "w")
    state = SiumState(model)
    state.add("w")
    want = _reference_ranking(labels, classify(state).tolist())
    assert session.component_result("intent_sium").intent_ranking == want


def test_dimension_mismatch_is_rejected():
    ds = _separable_dataset()
    ctx = _featurized(ds)
    vocab = ctx.vocabulary
    model = train_classifier(ctx, epochs=1)
    with pytest.raises(ConsistencyError):
        predict(model, np.zeros(len(vocab) + 3))


def test_training_is_deterministic():
    ds = _separable_dataset()
    ctx = _featurized(ds)
    a = train_classifier(ctx, seed=7)
    b = train_classifier(ctx, seed=7)
    assert np.array_equal(a.weights, b.weights)


def test_gradient_matches_finite_differences():
    """The analytic gradient is checked against central differences of the
    loss on random instances; ``gradient`` is the function training descends."""
    rng = np.random.default_rng(412)
    worst = 0.0
    for _ in range(20):
        n, v, k = 6, 5, 3
        inputs = np.concatenate(
            [rng.integers(0, 4, size=(n, v)).astype(np.float64), np.ones((n, 1))], axis=1
        )
        labels = rng.integers(0, k, size=n)
        weights = rng.normal(scale=0.5, size=(v + 1, k))
        grad = gradient(weights, inputs, labels, l2=1e-3)
        fd = _fd_gradient(weights, inputs, labels, l2=1e-3)
        rel = np.abs(grad - fd) / np.maximum(1e-8, np.abs(grad) + np.abs(fd))
        worst = max(worst, float(rel.max()))
    assert worst < 1e-5


def test_l2_penalty_spares_the_bias_row():
    # With pure-bias inputs the only way to lower the loss is through the
    # bias; an L2 term that taxed it would pull these probabilities off the
    # class frequencies.
    inputs = np.ones((4, 1))
    labels = np.array([0, 0, 0, 1])
    weights = np.zeros((1, 2))
    for _ in range(4000):
        weights = weights - 0.5 * gradient(weights, inputs, labels, l2=10.0)
    probs = softmax(inputs[:1] @ weights)[0]
    np.testing.assert_allclose(probs, [0.75, 0.25], atol=1e-6)


class TestBowComponent:
    def test_persist_load_round_trip(self, tmp_path):
        ds = _separable_dataset()
        ctx = _featurized(ds)
        comp = BowIntentClassifier({"epochs": 10})
        comp.train(ds, ctx)
        comp.persist(tmp_path)
        loaded = BowIntentClassifier.load(model_files(tmp_path), {})
        assert loaded.model.intents == comp.model.intents
        assert np.array_equal(loaded.model.weights, comp.model.weights)

    def test_a_matrix_with_no_intent_is_refused(self, tmp_path):
        """An empty intents.tsv beside a matrix with no column matches its
        width, and is refused all the same."""
        comp = BowIntentClassifier()
        comp.model = LinearIntentModel(intents=[], weights=np.zeros((3, 0)))
        comp.persist(tmp_path)
        with pytest.raises(ValueError, match="width does not match intents.tsv"):
            BowIntentClassifier.load(model_files(tmp_path), {})

    def test_weight_file_is_byte_stable(self, tmp_path):
        ds = _separable_dataset()
        ctx = _featurized(ds)
        blobs = []
        for run in range(2):
            comp = BowIntentClassifier({"epochs": 10})
            comp.train(ds, ctx)
            out = tmp_path / f"run{run}"
            out.mkdir()
            comp.persist(out)
            blobs.append((out / "weights.f8").read_bytes())
        assert blobs[0] == blobs[1]

    def test_requires_a_count_vector_on_the_board(self):
        from incnlu.errors import ConfigError
        from incnlu.iu import Blackboard

        ds = _separable_dataset()
        ctx = _featurized(ds)
        comp = BowIntentClassifier({"epochs": 1})
        comp.train(ds, ctx)
        board = Blackboard()
        board.begin_cycle()
        with pytest.raises(ConfigError):
            comp.process(board)

    def test_empty_prefix_reflects_the_trained_bias(self):
        # Class priors are equal in the toy set, so the empty prefix should
        # come out near-uniform through the bias alone (mini-batches are not
        # perfectly balanced, hence the loose tolerance).
        from incnlu.iu import COUNT_VECTOR, Blackboard, INTENT_DISTRIBUTION

        ds = _separable_dataset()
        ctx = _featurized(ds)
        vocab = ctx.vocabulary
        comp = BowIntentClassifier()
        comp.train(ds, ctx)
        board = Blackboard()
        board.begin_cycle()
        board.write("featurizer_count_vectors", COUNT_VECTOR, np.zeros(len(vocab), dtype=np.int64))
        comp.process(board)
        dist = board.annotations[INTENT_DISTRIBUTION]
        np.testing.assert_allclose([p for _, p in dist], 0.5, atol=5e-3)
