import itertools
import random
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from incnlu import (
    BufferUnderflowError,
    ConsistencyError,
    DataError,
    EntityAnnotation,
    IncrementalInterpreter,
    TrainingExample,
    default_config,
    load,
    load_dataset,
)
from incnlu import intent_bow, sium, tagging
from incnlu.cli import main as cli
from incnlu.data import TrainingDataset
from incnlu.features import WhitespaceTokenizer, bio_tags
from incnlu.interpreter import REDO_DEPTH
from incnlu.iu import ENTITIES, LATTICE, TOKENS, Blackboard, EditType
from incnlu.tagging import (
    CHECKPOINT_EVERY,
    RECORD_COLUMNS,
    SequenceEntityTagger,
    TaggerModel,
    Totals,
    decode,
    extract_entities,
    train_tagger,
)

from conftest import make_example, model_files, table_values, tokenized, toy_rows


def _dataset(rows):
    return TrainingDataset([make_example(*r) for r in rows])


def _is_valid_bio(tags):
    prev = "O"
    for tag in tags:
        if tag.startswith("I-") and prev not in (f"B-{tag[2:]}", f"I-{tag[2:]}"):
            return False
        prev = tag
    return True


def test_tag_set_is_o_first_then_sorted_types(toy_dataset):
    model = train_tagger(tokenized(toy_dataset), epochs=1)
    assert model.tags == [
        "O",
        "B-city", "I-city",
        "B-genre", "I-genre",
        "B-party_size", "I-party_size",
    ]


def test_learns_an_unambiguous_cue_word():
    rows = [
        ("rain tomorrow", "W", [("tomorrow", "date")]),
        ("sunny tomorrow", "W", [("tomorrow", "date")]),
        ("snow tomorrow", "W", [("tomorrow", "date")]),
    ]
    model = train_tagger(tokenized(_dataset(rows)), epochs=5)
    assert decode(model, ["rain", "tomorrow"]) == ["O", "B-date"]
    # the cue generalizes past an unseen first word
    assert decode(model, ["hail", "tomorrow"]) == ["O", "B-date"]


def test_fits_most_of_the_toy_corpus(toy_dataset):
    model = train_tagger(tokenized(toy_dataset))
    hits = 0
    for ex in toy_dataset.examples:
        tokens, gold = bio_tags(ex.text, ex.entities)
        if decode(model, tokens) == gold:
            hits += 1
    assert hits >= len(toy_dataset) - 2


def test_decoded_sequences_never_violate_bio(toy_dataset):
    model = train_tagger(tokenized(toy_dataset))
    rng = random.Random(77)
    words = [w for row in toy_rows() for w in row[0].split()] + ["zubat", "qux"]
    for _ in range(300):
        tokens = [rng.choice(words) for _ in range(rng.randrange(1, 9))]
        assert _is_valid_bio(decode(model, tokens))


def test_empty_prefix_decodes_to_nothing(toy_dataset):
    model = train_tagger(tokenized(toy_dataset), epochs=1)
    assert decode(model, []) == []


def test_entity_free_dataset_yields_the_trivial_tagger():
    rows = [("hello there", "Greet", []), ("good morning", "Greet", [])]
    model = train_tagger(tokenized(_dataset(rows)))
    assert model.tags == ["O"]
    assert decode(model, ["hello", "unseen"]) == ["O", "O"]


def test_same_seed_reproduces_identical_weights(toy_dataset):
    a = train_tagger(tokenized(toy_dataset), seed=13)
    b = train_tagger(tokenized(toy_dataset), seed=13)
    assert set(a.weights) == set(b.weights)
    for feat in a.weights:
        assert np.array_equal(a.weights[feat], b.weights[feat])


class _AveragedWeights:
    """Perceptron weights, one int64 array over tags per feature string,
    with lazily updated totals over the steps: one cell at a time."""

    def __init__(self, n_tags):
        self.n_tags = n_tags
        self.weights, self._totals, self._stamps = {}, {}, {}
        self.step = 0

    def update(self, feat, tag_idx, delta):
        if feat not in self.weights:
            self.weights[feat] = np.zeros(self.n_tags, dtype=np.int64)
            self._totals[feat] = np.zeros(self.n_tags, dtype=np.int64)
            self._stamps[feat] = np.zeros(self.n_tags, dtype=np.int64)
        self._totals[feat][tag_idx] += (self.step - self._stamps[feat][tag_idx]) * self.weights[feat][tag_idx]
        self._stamps[feat][tag_idx] = self.step
        self.weights[feat][tag_idx] += delta

    def totals(self):
        """Each weight summed over the steps: the averaged weight times the step count."""
        return {
            feat: self._totals[feat] + (self.step - self._stamps[feat]) * vec
            for feat, vec in self.weights.items()
        }


def _float_transitions(weights, tags):
    """(initial, pairwise) scores as floats: the pt= weights, with BIO's
    forbidden moves at -inf."""
    zero = np.zeros(len(tags))
    init = weights.get(f"pt={tagging.START}", zero).astype(float)
    pair = np.array([weights.get(f"pt={tag}", zero) for tag in tags], dtype=float)
    for b, tag in enumerate(tags):
        if tag.startswith("I-"):
            init[b] = -np.inf
            for a, prev in enumerate(tags):
                if prev not in ("B-" + tag[2:], tag):
                    pair[a, b] = -np.inf
    return init, pair


def _plain_viterbi(em, init, pair):
    """Viterbi down the columns of ``pair``, best scores gathered by ``np.arange``."""
    n_pos, n_tags = em.shape
    delta, back = em[0] + init, []
    for i in range(1, n_pos):
        scores = delta[:, None] + pair
        back.append(scores.argmax(axis=0))
        delta = scores[back[-1], np.arange(n_tags)] + em[i]
    path = [int(delta.argmax())]
    for row in reversed(back):
        path.append(int(row[path[-1]]))
    return path[::-1]


def _train_decoding_everything(dataset, epochs, seed):
    """The averaged perceptron's totals with no decode skipped and no array
    shared between features: every sentence is decoded in every epoch, on
    floats, against transition scores built anew for it, and each update is
    applied one cell at a time."""
    tags = tagging._tag_set(dataset)
    tag_idx = {t: i for i, t in enumerate(tags)}
    sentences = []
    for ex in dataset.examples:
        tokens, gold = bio_tags(ex.text, ex.entities)
        if tokens:
            sentences.append(([tagging.tag_features(tokens, i) for i in range(len(tokens))], gold))
    acc = _AveragedWeights(len(tags))
    rng = random.Random(seed)
    order = list(range(len(sentences)))
    zero = np.zeros(len(tags))
    for _ in range(epochs):
        rng.shuffle(order)
        for idx in order:
            feats, gold = sentences[idx]
            acc.step += 1
            init, pair = _float_transitions(acc.weights, tags)
            em = np.zeros((len(feats), len(tags)))
            for i, row in enumerate(feats):
                for feat in row:
                    em[i] += acc.weights.get(feat, zero)
            pred = [tags[t] for t in _plain_viterbi(em, init, pair)]
            for i, (p, g) in enumerate(zip(pred, gold)):
                prev_p = pred[i - 1] if i > 0 else tagging.START
                prev_g = gold[i - 1] if i > 0 else tagging.START
                if p != g or prev_p != prev_g:
                    for feat in feats[i]:
                        acc.update(feat, tag_idx[g], 1)
                        acc.update(feat, tag_idx[p], -1)
                    acc.update(f"pt={prev_g}", tag_idx[g], 1)
                    acc.update(f"pt={prev_p}", tag_idx[p], -1)
    return tags, acc.totals()


def _assert_same_bits(model, tags, totals):
    """The model keeps the features of ``totals`` with a nonzero total, and
    only those, and every weight has the bits of its int64 total."""
    assert model.tags == tags
    assert set(model.weights) == {feat for feat, vec in totals.items() if vec.any()}
    zero = np.zeros(len(tags), dtype=np.int64)
    for feat, vec in totals.items():
        assert vec.dtype == np.int64, feat
        assert model.weights.get(feat, zero).tobytes() == vec.tobytes(), feat


def _labelled(words, labels):
    """An example whose spans follow BIO ``labels``; an I- that continues
    no span of its type opens one."""
    text, starts, spans = " ".join(words), [0], []
    for word in words[:-1]:
        starts.append(starts[-1] + len(word) + 1)
    for i, label in enumerate(labels):
        if label == "O":
            continue
        if label.startswith("I-") and spans and spans[-1][2] == label[2:] and spans[-1][1] == i:
            spans[-1][1] = i + 1
        else:
            spans.append([i, i + 1, label[2:]])
    entities = []
    for first, end, etype in spans:
        start, stop = starts[first], starts[end - 1] + len(words[end - 1])
        entities.append(EntityAnnotation(start=start, end=stop, value=text[start:stop], type=etype))
    return TrainingExample(text=text, intent="X", entities=entities)


@st.composite
def _conflicting_datasets(draw):
    """A few texts, each labelled several ways, so some never converge."""
    word = st.sampled_from(["play", "jazz", "in", "boston", "7", "for"])
    texts = draw(st.lists(st.lists(word, min_size=1, max_size=5), min_size=1, max_size=3))
    label = st.sampled_from(["O", "O", "B-a", "I-a", "B-b", "I-b"])
    examples = []
    for _ in range(draw(st.integers(1, 8))):
        words = draw(st.sampled_from(texts))
        examples.append(_labelled(words, draw(st.lists(label, min_size=len(words), max_size=len(words)))))
    return TrainingDataset(examples)


@settings(max_examples=200, deadline=None)
@given(_conflicting_datasets(), st.integers(0, 12), st.sampled_from([1, 13, 99]))
def test_skipped_decodes_leave_every_weight_bit_for_bit(dataset, epochs, seed):
    """Training skips each decode whose outcome is known; the weights must
    be those of decoding every sentence in every epoch."""
    model = train_tagger(tokenized(dataset), epochs=epochs, seed=seed)
    _assert_same_bits(model, *_train_decoding_everything(dataset, epochs, seed))


_SNIPS_TRAIN = Path(__file__).resolve().parent.parent / "data" / "snips_train.json"


def test_skipped_decodes_leave_the_bundled_split_bit_for_bit():
    dataset = load_dataset(_SNIPS_TRAIN)
    _assert_same_bits(train_tagger(tokenized(dataset)), *_train_decoding_everything(dataset, 10, 13))


def test_no_decode_runs_once_training_has_converged(monkeypatch):
    """On the bundled split every sentence decodes to gold within 10
    epochs, so 40 more epochs only count steps: 1,602 decodes either way,
    out of 5,600 sentence steps at 10 epochs."""
    dataset = load_dataset(_SNIPS_TRAIN)
    decodes = []
    monkeypatch.setattr(tagging, "_viterbi", _counting(tagging._viterbi, decodes))
    counts = []
    for epochs in (10, 50):
        decodes.clear()
        train_tagger(tokenized(dataset), epochs=epochs)
        counts.append(len(decodes))
    assert counts == [1602, 1602]


def test_transition_scores_are_built_once_and_read_only(toy_dataset):
    model = train_tagger(tokenized(toy_dataset))
    init, pair = model.transition_matrix()
    again = model.transition_matrix()
    # Every session shares these arrays, so they are the same objects on
    # every call and refuse writes.
    assert again[0] is init and again[1] is pair
    assert not init.flags.writeable and not pair.flags.writeable
    # The incremental lattice reads the same scores, transposed.
    assert not model._incoming.flags.writeable and np.array_equal(model._incoming, pair.T)
    with pytest.raises(ValueError):
        pair[0, 0] = 0
    # They equal the pt= totals with _MASKED added to BIO's forbidden moves.
    tags = model.tags
    zero = np.zeros(len(tags), dtype=np.int64)
    want_init = model.weights.get("pt=<s>", zero).copy()
    want_pair = np.array([model.weights.get(f"pt={tag}", zero) for tag in tags])
    for b, tag in enumerate(tags):
        if tag.startswith("I-"):
            want_init[b] += tagging._MASKED
            for a, prev in enumerate(tags):
                if prev not in ("B-" + tag[2:], tag):
                    want_pair[a, b] += tagging._MASKED
    assert init.dtype == pair.dtype == np.int64
    assert np.array_equal(init, want_init)
    assert np.array_equal(pair, want_pair)


def _plain_transition_mask(tags):
    """The BIO masks by a plain loop over tag pairs."""
    init = np.zeros(len(tags), dtype=np.int64)
    pair = np.zeros((len(tags), len(tags)), dtype=np.int64)
    for b, tag in enumerate(tags):
        if tag.startswith("I-"):
            init[b] = tagging._MASKED
            for a, prev in enumerate(tags):
                if prev not in ("B-" + tag[2:], tag):
                    pair[a, b] = tagging._MASKED
    return init, pair


@st.composite
def _bio_tag_sets(draw):
    """Some of "O" and the B- and I- tags of a few entity types, in any order."""
    types = draw(st.lists(st.text("aI-", max_size=3), unique=True, max_size=5))
    tags = ["O", *(f"{prefix}-{etype}" for etype in types for prefix in "BI")]
    return draw(st.lists(st.sampled_from(tags), unique=True))


@settings(max_examples=200, deadline=None)
@given(tags=_bio_tag_sets())
@example(tags=["O"])
@example(tags=[])
def test_the_transition_mask_equals_a_plain_loop_over_tag_pairs(tags):
    got, want = tagging._transition_mask(tags), _plain_transition_mask(tags)
    for mask, plain in zip(got, want):
        assert mask.dtype == np.int64 and mask.shape == plain.shape
        assert np.array_equal(mask, plain)


def test_viterbi_agrees_with_exhaustive_search():
    """On random small models the decoded path must be valid BIO and score
    exactly as high as the best path found by brute-force enumeration over
    all valid sequences."""
    rng = np.random.default_rng(92)
    tags = ["O", "B-x", "I-x"]
    words = ["a", "b", "c", "d"]
    for _ in range(25):
        weights = {f"w={w}": rng.integers(-1000, 1001, size=3) for w in words}
        weights["pt=<s>"] = rng.integers(-1000, 1001, size=3)
        for t in tags:
            weights[f"pt={t}"] = rng.integers(-1000, 1001, size=3)
        model = TaggerModel(tags=tags, weights=weights)
        tokens = [words[i] for i in rng.integers(0, len(words), size=4)]
        init, pair = model.transition_matrix()
        em = np.array([weights[f"w={t}"] for t in tokens])

        def score(path):
            total = init[path[0]] + em[0, path[0]]
            for i in range(1, len(path)):
                total += pair[path[i - 1], path[i]] + em[i, path[i]]
            return total

        valid = [p for p in itertools.product(range(3), repeat=len(tokens))
                 if _is_valid_bio([tags[t] for t in p])]
        decoded = decode(model, tokens)
        assert _is_valid_bio(decoded)
        assert score([tags.index(t) for t in decoded]) == max(map(score, valid))


class TestExtractEntities:
    def test_multi_token_span(self):
        spans = extract_entities(["O", "B-city", "I-city"], ["in", "new", "york"])
        assert len(spans) == 1
        s = spans[0]
        assert (s.type, s.value, s.start, s.end, s.confidence) == ("city", "new york", 1, 3, 1.0)

    def test_adjacent_b_tags_stay_separate(self):
        spans = extract_entities(["B-a", "B-a"], ["x", "y"])
        assert [(s.value, s.start, s.end) for s in spans] == [("x", 0, 1), ("y", 1, 2)]

    def test_orphan_inside_tag_opens_a_span(self):
        spans = extract_entities(["O", "I-city"], ["to", "boston"])
        assert [(s.type, s.value) for s in spans] == [("city", "boston")]

    def test_type_change_closes_the_span(self):
        spans = extract_entities(["B-a", "I-a", "B-b"], ["x", "y", "z"])
        assert [(s.type, s.start, s.end) for s in spans] == [("a", 0, 2), ("b", 2, 3)]

    def test_length_mismatch_is_a_caller_bug(self):
        with pytest.raises(ConsistencyError):
            extract_entities(["O"], ["two", "words"])


_BOUND = tagging._TOTAL_BELOW


class TestTaggerComponent:
    def _trained(self, dataset):
        comp = SequenceEntityTagger()
        comp.train(dataset, tokenized(dataset))
        return comp

    def _board_with(self, tokens):
        board = Blackboard()
        board.begin_cycle()
        board.write("tokenizer_whitespace", TOKENS, tokens)
        return board

    def test_redecode_depends_only_on_current_tokens(self, toy_dataset):
        # Restart semantics: however the prefix was reached, the output is a
        # pure function of it.
        comp = self._trained(toy_dataset)
        board = self._board_with(["weather", "in", "boston"])
        comp.process(board, EditType.ADD, "boston")
        via_edits = board.annotations[ENTITIES]
        board2 = self._board_with(["weather", "in", "boston"])
        comp2 = comp.fresh()
        comp2.process(board2)
        assert board2.annotations[ENTITIES] == via_edits
        assert any(s.type == "city" and s.value == "boston" for s in via_edits)

    def test_untrained_component_refuses_to_run(self):
        comp = SequenceEntityTagger()
        with pytest.raises(ConsistencyError):
            comp.process(self._board_with(["x"]), EditType.ADD, "x")

    def test_persist_load_round_trip(self, toy_dataset, tmp_path):
        comp = self._trained(toy_dataset)
        comp.persist(tmp_path)
        loaded = SequenceEntityTagger.load(model_files(tmp_path), {})
        _assert_same_bits(loaded.model, comp.model.tags, comp.model.weights)
        rng = random.Random(5)
        words = [w for row in toy_rows() for w in row[0].split()]
        for _ in range(40):
            tokens = [rng.choice(words) for _ in range(rng.randrange(1, 8))]
            assert decode(loaded.model, tokens) == decode(comp.model, tokens)

    def test_persisted_file_has_tag_header_and_no_zero_cells(self, toy_dataset, tmp_path):
        comp = self._trained(toy_dataset)
        comp.persist(tmp_path)
        _assert_integer_totals(tmp_path, comp.model)

    def test_a_tagger_that_took_no_step_persists_and_loads(self, toy_dataset, tmp_path):
        comp = SequenceEntityTagger({"epochs": 0})
        comp.train(toy_dataset, tokenized(toy_dataset))
        comp.persist(tmp_path)
        loaded = SequenceEntityTagger.load(model_files(tmp_path), {"epochs": 0}).model
        assert loaded.weights == {}

    def test_totals_just_inside_the_bound_persist_and_load(self, tmp_path):
        bound = tagging._TOTAL_BELOW
        comp = SequenceEntityTagger()
        totals = np.array([bound - 1, 1 - bound, 0])
        comp.model = TaggerModel(tags=["O", "B-x", "I-x"], weights={"bias": totals})
        comp.persist(tmp_path)
        loaded = SequenceEntityTagger.load(model_files(tmp_path), {}).model
        assert loaded.weights["bias"].tobytes() == totals.tobytes()

    @pytest.mark.parametrize("name, values, message", [
        ("widths", [0, 3], "a feature has no nonzero total"),
        ("index", [3, 1, 2], r"a column index is outside 0\.\.2"),
    ])
    def test_a_total_moved_into_the_next_feature_is_refused(self, tmp_path, name, values, message):
        """Widths or a tag index that would move a total into the next
        feature's cells are refused, though every cell still ascends."""
        comp = SequenceEntityTagger()
        weights = {"a": np.array([5, 0, 0]), "b": np.array([0, 6, 7])}
        comp.model = TaggerModel(tags=["O", "B-x", "I-x"], weights=weights)
        comp.persist(tmp_path)
        (tmp_path / f"{name}.u1").write_bytes(bytes(values))
        with pytest.raises(ValueError, match=message):
            SequenceEntityTagger.load(model_files(tmp_path), {})

    @pytest.mark.parametrize("n_tags", [255, 256, 257])
    def test_a_tag_set_past_one_byte_persists_and_loads(self, tmp_path, n_tags):
        """256 tags need two bytes a feature's count of nonzero totals and a
        tag index; a feature whose every total is nonzero has the largest
        count, and the last tag the largest index."""
        tags = ["O", *(f"B-t{n}" for n in range(n_tags - 1))]
        weights = {"bias": np.arange(1, n_tags + 1), "w=x": np.zeros(n_tags, dtype=np.int64)}
        weights["w=x"][-1] = -3
        comp = SequenceEntityTagger()
        comp.model = TaggerModel(tags=tags, weights=weights)
        comp.persist(tmp_path)
        _assert_integer_totals(tmp_path, comp.model)
        loaded = SequenceEntityTagger.load(model_files(tmp_path), {}).model
        _assert_same_bits(loaded, tags, weights)

    @pytest.mark.parametrize("row", [[_BOUND, 0, 0], [0, -_BOUND, 0], [0.0, 1.0, 0.0], [1, 2]])
    def test_a_model_refuses_totals_that_are_not_int64_below_the_bound(self, row):
        with pytest.raises(DataError, match=f"must be int64, 3 a feature, below {_BOUND} in magnitude"):
            TaggerModel(tags=["O", "B-x", "I-x"], weights={"bias": np.array(row)})


def _assert_integer_totals(directory, model):
    """The model files in ``directory`` name ``model``'s tags, then each
    feature with a nonzero total in sorted order, one a line; then, feature
    by feature, the count of its nonzero totals, their tag indices in
    ascending order, both in the smallest unsigned type that holds the tag
    count, and the totals as int32."""
    assert (directory / "tags.tsv").read_text(encoding="utf-8") == "".join(f"{tag}\n" for tag in model.tags)
    feats = (directory / "features.tsv").read_text(encoding="utf-8").splitlines()
    assert feats == sorted(feat for feat, vec in model.weights.items() if vec.any())
    widths, index, totals = (table_values(directory, name) for name in ("widths", "index", "values"))
    assert widths.dtype == index.dtype == np.min_scalar_type(len(model.tags))
    assert totals.dtype == np.dtype("<i4")
    nonzero = [(feat, tag) for feat in feats for tag in np.flatnonzero(model.weights[feat])]
    assert widths.tolist() == [np.count_nonzero(model.weights[feat]) for feat in feats]
    assert index.tolist() == [tag for _, tag in nonzero]
    assert totals.tolist() == [model.weights[feat][tag] for feat, tag in nonzero]


_TAG_NAMES = st.text(st.characters(codec="ascii", categories=["L", "N", "P"]), min_size=1, max_size=6)
_FEATURES = st.text(st.characters(exclude_categories=["Z", "Cc", "Cs"]), min_size=1, max_size=8).filter(
    lambda feat: not any(c.isspace() for c in feat))


@st.composite
def _models(draw):
    tags = draw(st.lists(_TAG_NAMES, min_size=1, max_size=6, unique=True))
    total = st.integers(-_BOUND + 1, _BOUND - 1) | st.sampled_from([0, _BOUND - 1, 1 - _BOUND])
    weights = draw(st.dictionaries(_FEATURES, st.lists(total, min_size=len(tags), max_size=len(tags)),
                                   max_size=12))
    return tags, {feat: np.array(row, dtype=np.int64) for feat, row in weights.items()}


@settings(max_examples=200, deadline=None)
@given(_models())
@example((["O"], {}))
@example((["O"], {"bias": np.array([_BOUND - 1]), "digit": np.array([1 - _BOUND])}))
@example((["O", "B-x", "I-x"], {"bias": np.array([_BOUND - 1, 1 - _BOUND, -1]),
                                "[x]": np.array([0, 0, 5]), "w=x": np.array([0, 0, 0])}))
def test_any_model_persists_and_loads_with_its_tags_and_bits(tmp_path_factory, case):
    """Any tag set, non-empty whitespace-free feature strings and int64
    totals within the bound, all-zero rows and a model with no weight
    included, come back from the model files as they went in, bit for bit;
    a feature whose totals are all zero is not written. The examples hold
    the one-tag set, totals of +-(2^31 - 1), a feature shaped like a
    [section] heading and a feature whose every total is nonzero."""
    tags, weights = case
    directory = tmp_path_factory.mktemp("tagger")
    comp = SequenceEntityTagger()
    comp.model = TaggerModel(tags=tags, weights=weights)
    comp.persist(directory)
    _assert_integer_totals(directory, comp.model)
    loaded = SequenceEntityTagger.load(model_files(directory), {}).model
    _assert_same_bits(loaded, tags, weights)


def test_the_seed_13_bundle_holds_integer_totals_with_the_trained_bits(tmp_path):
    """``incnlu train --seed 13`` on the bundled split: the loaded totals are
    the trained ones."""
    cli(["train", "--data", str(_SNIPS_TRAIN), "--out", str(tmp_path), "--seed", "13"])
    trained = train_tagger(tokenized(load_dataset(_SNIPS_TRAIN)))
    _assert_integer_totals(tmp_path / SequenceEntityTagger.name, trained)
    loaded = SequenceEntityTagger.load(model_files(tmp_path / SequenceEntityTagger.name), {}).model
    _assert_same_bits(loaded, trained.tags, trained.weights)


@pytest.mark.parametrize("source", ["trained", "loaded"])
def test_the_totals_are_one_read_only_table_that_sessions_share(toy_interp, tmp_path, source):
    """A trained and a loaded model keep their totals as one read-only
    int64 table, and ``weights`` reads its rows by feature."""
    root = toy_interp.persist(tmp_path / "bundle")
    interp = toy_interp if source == "trained" else load(root)
    a, b = (next(c for c in session.components if c.name == SequenceEntityTagger.name).model
            for session in (interp.fresh_copy(), interp.fresh_copy()))
    weights = a.weights
    table = weights.table
    assert b.weights.table is table
    assert type(table) is np.ndarray and table.dtype == np.int64 and not table.flags.writeable
    assert table.shape == (len(weights), len(a.tags))
    with pytest.raises(ValueError):
        table[0, 0] = 1
    feats = (root / SequenceEntityTagger.name / "features.tsv").read_text(encoding="utf-8").splitlines()
    assert sorted(weights) == sorted(weights.keys()) == feats
    assert sorted(weights.rows.values()) == list(range(len(table)))
    for feat, vec in weights.items():
        assert vec.tobytes() == table[weights.rows[feat]].tobytes()
        assert not vec.flags.writeable and np.shares_memory(vec, table)
    zero = np.zeros(len(a.tags), dtype=np.int64)
    assert "w=no-such-word" not in weights
    assert weights.get("w=no-such-word") is None and weights.get("w=no-such-word", zero) is zero
    with pytest.raises(KeyError):
        weights["w=no-such-word"]


@pytest.mark.parametrize("table", [
    np.array([[1.0, 0.0, 0.0]]),
    np.array([[1, 0]]),
    np.array([1, 0, 0]),
    np.array([[_BOUND, 0, 0]]),
    np.array([[0, -_BOUND, 0]]),
])
def test_a_table_handed_over_as_it_is_is_checked(table):
    """Training and loading hand the model their tables as they are, and
    it refuses one that is not int64, not a row of 3 a feature, or holds a
    total at the bound, as it refuses a mapping of such vectors."""
    with pytest.raises(DataError, match=f"must be int64, 3 a feature, below {_BOUND} in magnitude"):
        TaggerModel(tags=["O", "B-x", "I-x"], weights=Totals({"bias": 0}, table))


def _random_model(seed=3):
    """A tagger whose random weights make the best path hinge on far-off
    words, so edits often change tags well before the last word. Its
    transitions favour I- after B- and I-, so multi-word spans are common.
    It weighs every kind of feature ``tag_features`` emits, ``pw=<s>`` and
    ``nw=</s>`` included; ``digit`` as heavily as the transitions, so a
    lost digit term shows in the tags."""
    rng = np.random.default_rng(seed)
    tags = ["O", "B-x", "I-x", "B-y", "I-y"]

    def draw(scale=1):
        return scale * rng.integers(-1000, 1001, size=5)

    weights = {"bias": draw(), "digit": draw(3)}
    for word in _WORDS:
        word = word.lower()
        for feat in ("w=", "lw=", "pw=", "nw="):
            weights[feat + word] = draw()
        weights["p3=" + word[:3]] = draw()
        weights["s3=" + word[-3:]] = draw()
    for tag in ["<s>"] + tags:
        weights[f"pt={tag}"] = draw(3)
    for b in (1, 3):
        weights[f"pt={tags[b]}"][b + 1] += 3000
        weights[f"pt={tags[b + 1]}"][b + 1] += 3000
    weights[f"pw={tagging.START}"], weights[f"nw={tagging.END}"] = draw(), draw()
    return TaggerModel(tags=tags, weights=weights)


def _model_at_the_bound(seed=5):
    """The random model's features, every total drawn from +-(bound - 1):
    the largest sums any model may make."""
    rng = np.random.default_rng(seed)
    bound = tagging._TOTAL_BELOW - 1
    model = _random_model()
    weights = {feat: rng.choice([-bound, bound], size=len(model.tags)) for feat in model.weights}
    return TaggerModel(tags=model.tags, weights=weights)


_WORDS = sorted({w for row in toy_rows() for w in row[0].split()}) + ["zubat", "Boston", "7", "2019"]
_MODELS = {
    "toy": train_tagger(tokenized(TrainingDataset([make_example(*r) for r in toy_rows()]))),
    "random": _random_model(),
    "bound": _model_at_the_bound(),
    # No weights: every allowed predecessor ties, so the first maximum decides.
    "tied": TaggerModel(tags=["O", "B-x", "I-x", "B-y", "I-y"], weights={}),
}


def _tagger_session(model):
    """A tokenizer and a tagger over one blackboard."""
    tagger = SequenceEntityTagger()
    tagger.model = model
    return IncrementalInterpreter(default_config(), [WhitespaceTokenizer(), tagger])


def _entities(session):
    return session.component_result("entity_tagger_sequence").entities


def _clean_entities(session, words):
    clean = session.fresh_copy()
    for word in words:
        clean.parse_incremental(EditType.ADD, word)
    return _entities(clean)


# A script step is a run of words to ADD, an int n for a run of n REVOKEs
# (runs that outlast the words underflow), or "readd" to ADD the last
# revoked word again.
_STEPS = st.one_of(
    st.lists(st.sampled_from(_WORDS), min_size=1, max_size=12),
    st.integers(1, 12),
    st.just("readd"),
)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(_MODELS)),
    st.sampled_from([2, 3, CHECKPOINT_EVERY]),
    st.lists(_STEPS, max_size=25),
)
def test_incremental_decoding_tracks_a_restart(model_name, every, script):
    """Any interleaving of adds and revokes, with revokes deeper than the
    checkpoint spacing, must give after every edit exactly the spans of a
    full decode of the survivors and of a clean session over them."""
    model = _MODELS[model_name]
    with mock.patch.object(tagging, "CHECKPOINT_EVERY", every):
        session = _tagger_session(model)
        stack: list[str] = []
        revoked: list[str] = []
        for step in script:
            if isinstance(step, int):
                for _ in range(step):
                    if not stack:
                        before = _entities(session)
                        with pytest.raises(BufferUnderflowError):
                            session.parse_incremental(EditType.REVOKE)
                        assert _entities(session) == before == ()
                        break
                    revoked.append(stack.pop())
                    session.parse_incremental(EditType.REVOKE)
                    _check(session, model, stack)
                continue
            if step == "readd":
                if not revoked:
                    continue
                step = [revoked.pop()]
            for word in step:
                stack.append(word)
                session.parse_incremental(EditType.ADD, word)
                _check(session, model, stack)


def _check(session, model, stack):
    tokens = [w.lower() for w in stack]
    view = _entities(session)
    assert view == extract_entities(decode(model, tokens), tokens)
    assert view == _clean_entities(session, stack)


_CASED_WORDS = _WORDS + ["BOSTON", "Denver", "Jazz", "Rain", "ZUBAT"]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(_MODELS)),
    st.booleans(),
    st.lists(st.one_of(st.sampled_from(_CASED_WORDS), st.none()), max_size=40),
)
def test_the_tagger_reads_the_tokens_as_the_tokenizer_publishes_them(model_name, lowercase, script):
    """The tagger scores the tokens, and takes its span values from them,
    as the tokenizer published them: "Boston" is "boston" behind a
    lowercasing tokenizer and stays "Boston" behind a case-keeping one,
    after every ADD (a word) and REVOKE (None), over revoke runs deeper
    than the checkpoints."""
    model = _MODELS[model_name]
    with mock.patch.object(tagging, "CHECKPOINT_EVERY", 3):
        tagger = SequenceEntityTagger({"lowercase": lowercase})
        tagger.model = model
        session = IncrementalInterpreter(
            default_config(), [WhitespaceTokenizer({"lowercase": lowercase}), tagger]
        )
        stack: list[str] = []
        for step in script:
            if step is None:
                if not stack:
                    continue
                stack.pop()
                session.parse_incremental(EditType.REVOKE)
            else:
                stack.append(step)
                session.parse_incremental(EditType.ADD, step)
            tokens = [w.lower() if lowercase else w for w in stack]
            assert session.board.annotations[TOKENS] == tuple(tokens)
            assert _entities(session) == extract_entities(decode(model, tokens), tokens)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(_MODELS)),
    st.sampled_from([2, RECORD_COLUMNS]),
    st.sampled_from([3, 5]),
    st.lists(st.one_of(st.sampled_from(_WORDS), st.none(), st.just("readd")), max_size=40),
)
@example("bound", 2, 3, ["play", "jazz", None, None, "boston", "jazz", None, "jazz", None, None, "play"])
@example("random", 3, 3, [*_WORDS[:8], None, None, None, None, "readd", "readd", "readd", "boston", None, "readd"])
def test_kept_columns_equal_the_batch_forward_pass_bit_for_bit(model_name, record, every, script):
    """ADDs (a word), REVOKEs (None) and ADDs of the last word revoked
    ("readd") run through a session, so the interpreter restores boards
    and redoes them. After every edit, the published path is that of
    ``decode``; each column of the published record has the bytes of its
    position's last column, the forward pass's column there over the tokens
    up to it, with ``nw=</s>`` on its right; and so does each checkpoint
    below the length, where every multiple of the checkpoint spacing is
    one. Adding the next word's ``fin`` to a record column below the last
    position gives the bytes of the final column, and each back-pointer
    row below the length has the bits of that row in a plain forward pass
    over ``pair``. The record holds between 1 and ``record`` read-only
    columns, the last position's last. Records of 2 and 3 columns over
    checkpoints every 3 or 5 positions make REVOKE runs resume both at the
    record and at a checkpoint. The reference reads ``pair`` down its
    columns, so it also checks that ``_predecessors`` on the transposed
    matrix makes the same sums and takes the same first maximum."""
    model = _MODELS[model_name]
    init, pair = model.transition_matrix()

    def emission(tokens, i):
        return tagging._emissions(model.weights, len(model.tags), [tagging.tag_features(tokens, i)])[0]

    def forward(tokens):
        columns, best, back = [emission(tokens, 0) + init], [init], [None]
        for i in range(1, len(tokens)):
            scores = columns[-1][:, None] + pair
            back.append(scores.argmax(axis=0))
            best.append(scores.max(axis=0))
            columns.append(best[-1] + emission(tokens, i))
        return columns, best, back

    with mock.patch.object(tagging, "CHECKPOINT_EVERY", every), \
            mock.patch.object(tagging, "RECORD_COLUMNS", record):
        session = _tagger_session(model)
        tagger = session.components[-1]
        revoked: list[str] = []
        for step in script:
            if step is None:
                if not session.board.buffer.units:
                    continue
                revoked.append(session.board.buffer.units[-1].word)
                session.parse_incremental(EditType.REVOKE)
            elif step == "readd":
                if not revoked:
                    continue
                session.parse_incremental(EditType.ADD, revoked.pop())
            else:
                session.parse_incremental(EditType.ADD, step)
            tokens = list(session.board.annotations[TOKENS])
            path, kept = session.board.annotations[LATTICE]
            assert list(path) == decode(model, tokens)
            n = len(tokens)
            if not n:
                assert kept == ()
                continue
            columns, best, back = forward(tokens)
            last = [best[i] + emission(tokens[:i + 1], i) for i in range(n)]
            assert 1 <= len(kept) <= record
            for i, column in enumerate(kept, n - len(kept)):
                assert not column.flags.writeable and column.tobytes() == last[i].tobytes()
                if i < n - 1:
                    final = column + model.word_parts(tokens[i + 1]).fin
                    assert final.tobytes() == columns[i].tobytes()
            state = tagger._state
            assert set(range(every, n, every)) <= set(state.checkpoints)
            for i, column in state.checkpoints.items():
                assert i % every == 0 and i > 0
                if i < n:
                    assert column.tobytes() == last[i].tobytes()
            for i in range(1, n):
                assert np.array_equal(state.back[i], back[i])


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(sorted(_MODELS)),
    st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3),
    st.data(),
)
def test_a_column_is_the_same_whatever_order_its_parts_are_summed_in(model_name, words, data):
    """A column is its best-predecessor scores plus the total of each
    feature ``tag_features`` gives its word. Summed in any order, they make
    the column the lattice makes of the word's parts and its neighbours':
    the last column, the scores plus the word's ``last`` and the left
    neighbour's ``pw`` (``pw=<s>`` at position 0), and, if a word follows,
    that one's ``fin`` on top. This holds even with scores up to 2^62,
    where a float sum would round."""
    model = _MODELS[model_name]
    tokens = [w.lower() for w in words]
    i = data.draw(st.integers(0, len(tokens) - 1))
    n_tags = len(model.tags)
    preds = np.array(data.draw(st.lists(st.integers(-2**62, 2**62), min_size=n_tags, max_size=n_tags)))
    parts = [preds] + [model.weights[f] for f in tagging.tag_features(tokens, i) if f in model.weights]
    column = np.zeros(n_tags, dtype=np.int64)
    for k in data.draw(st.permutations(range(len(parts)))):
        column += parts[k]
    words = [model.word_parts(t) for t in tokens]
    pw = model.weights.get(f"pw={tagging.START}") if i == 0 else words[i - 1].pw
    lattice = preds + words[i].last + (0 if pw is None else pw)
    if i + 1 < len(tokens):
        lattice += words[i + 1].fin
    assert lattice.dtype == np.int64 and lattice.tobytes() == column.tobytes()


def test_totals_at_the_bound_decode_a_long_stream_as_a_float_viterbi_does():
    """Every total of the bound model is +-(bound - 1), so a word's
    ``fin``, its ``nw=`` totals minus those of ``nw=</s>``, reaches
    +-2 * (bound - 1). A 10,000-word stream decodes, through ``decode`` and
    word by word through a session, to the tags of a float Viterbi over the
    same totals, which is exact here as no sum reaches 2^53: the int64
    lattice neither overflows nor lets a forbidden move win."""
    model = _MODELS["bound"]
    extreme = 2 * (tagging._TOTAL_BELOW - 1)
    fins = np.array([model.word_parts(word).fin for word in _WORDS])
    assert fins.max() == extreme and fins.min() == -extreme
    rng = random.Random(17)
    tokens = [rng.choice(_WORDS).lower() for _ in range(10_000)]
    em = np.zeros((len(tokens), len(model.tags)))
    for i in range(len(tokens)):
        for feat in tagging.tag_features(tokens, i):
            em[i] += model.weights.get(feat, 0)
    want = [model.tags[t] for t in _plain_viterbi(em, *_float_transitions(model.weights, model.tags))]
    assert set(want) == set(model.tags)
    assert decode(model, tokens) == want
    session = _tagger_session(model)
    for word in tokens:
        session.parse_incremental(EditType.ADD, word)
    assert list(session.board.annotations[LATTICE][0]) == want


def test_interleaved_sessions_do_not_share_tagger_state(toy_interp):
    a, b = toy_interp.fresh_copy(), toy_interp.fresh_copy()
    a_words = ["weather", "in", "boston", "and", "denver"]
    b_words = ["play", "some", "jazz", "tonight"]
    for i in range(max(len(a_words), len(b_words))):
        if i < len(a_words):
            a.parse_incremental(EditType.ADD, a_words[i])
        if i < len(b_words):
            b.parse_incremental(EditType.ADD, b_words[i])
            b.parse_incremental(EditType.REVOKE)
            b.parse_incremental(EditType.ADD, b_words[i])
    name = "entity_tagger_sequence"
    states = [next(c for c in s.components if c.name == name)._state for s in (a, b)]
    assert states[0] is not states[1]
    assert a.component_result(name).entities == _clean_entities(a, a_words)
    assert b.component_result(name).entities == _clean_entities(b, b_words)
    assert [s.value for s in a.component_result(name).entities] == ["boston", "denver"]


@pytest.mark.parametrize("model_name", ["random", "toy"])
def test_a_tagger_whose_lattice_was_dropped_decodes_the_board_anew(model_name):
    """``new_utterance`` drops the tagger's lattice, as training does. On a
    board that still holds its record, the next ADD or REVOKE that runs
    the tagger decodes the prefix anew rather than resume at rows the new
    lattice lacks."""
    model = _MODELS[model_name]
    session = _tagger_session(model)
    tagger = session.components[-1]
    words = ["play", "jazz", "in", "boston", "new", "york", "7", "zubat"]
    for cut in range(2, len(words) + 1):
        for revoke in (False, True):
            session.new_utterance()
            for word in words[:cut]:
                session.parse_incremental(EditType.ADD, word)
            session.parse_incremental(EditType.REVOKE)  # restored: runs no component
            tagger.new_utterance()
            if revoke:
                session.parse_incremental(EditType.REVOKE)
            else:
                session.parse_incremental(EditType.ADD, "denver")
            tokens = list(session.board.annotations[TOKENS])
            assert list(session.board.annotations[LATTICE][0]) == decode(model, tokens)
            assert _entities(session) == extract_entities(decode(model, tokens), tokens)


# Scripts around a REVOKE right after an ADD, each run after a seeded prefix
# of seeded words: "add" one more, "revoke", "refresh", "empty" (REVOKE down
# to the empty prefix) or "new" (start a new utterance).
_AROUND_A_RESTORE = {
    "add-revoke-revoke": ["add", "revoke", "revoke"],
    "add-refresh-revoke": ["add", "refresh", "revoke"],
    "add-revoke-to-empty": ["add", "empty", "add", "revoke"],
    "add-new-add-revoke": ["add", "new", "add", "revoke"],
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("model_name", sorted(_MODELS))
@pytest.mark.parametrize("script", list(_AROUND_A_RESTORE.values()), ids=list(_AROUND_A_RESTORE))
def test_a_revoke_right_after_an_add_lands_on_a_fresh_run_of_the_survivors(
    toy_interp, script, model_name, seed
):
    """After every edit, the pipeline result and every component's view
    equal those of a fresh session fed only the surviving words: for a
    REVOKE right after its ADD, across a refresh, down to the empty prefix
    and after a new utterance, and for a REVOKE after another REVOKE."""
    rng = random.Random(seed)
    session = toy_interp.fresh_copy()
    tagger = next(c for c in session.components if c.name == "entity_tagger_sequence")
    tagger.model = _MODELS[model_name]
    session.new_utterance()  # the copy published its empty prefix with the old model
    stack: list[str] = []

    def check():
        reference = session.fresh_copy()
        reference.parse_full(" ".join(stack))
        assert _views(session) == _views(reference)

    for step in ["add"] * rng.randint(0, 6) + script:
        if step == "new":
            session.new_utterance()
            stack.clear()
        elif step == "refresh":
            session.refresh()
            check()
        elif step == "add":
            stack.append(rng.choice(_WORDS))
            session.parse_incremental(EditType.ADD, stack[-1])
            check()
        else:  # "revoke" once, "empty" until no word is left
            for _ in range(1 if step == "revoke" else len(stack)):
                stack.pop()
                session.parse_incremental(EditType.REVOKE)
                check()


def test_only_a_continued_span_is_rebuilt_and_a_revoke_gives_back_the_spans_it_had():
    """An ADD pops a span that ends where its traceback meets the old path
    only if the new tag there continues it: "york" extends "new" to "new
    york", and "now" leaves "new york" as it was, the same object. A REVOKE
    right after an ADD gives back the very tags and spans the board held
    before that ADD."""
    rows = [
        ("fly to new york", "Fly", [("new york", "city")]),
        ("fly to new york now", "Fly", [("new york", "city")]),
        ("fly to boston", "Fly", [("boston", "city")]),
        ("fly to boston now", "Fly", [("boston", "city")]),
    ]
    model = train_tagger(tokenized(_dataset(rows)))
    state = tagging.ViterbiState(model)
    tokens = "fly to new york now".split()
    tags, spans, columns = (), (), ()
    for n in range(1, 4):
        tags, spans, columns = state.update(tokens[:n], tags, spans, columns)
    [new] = spans
    assert tags == ("O", "O", "B-city")
    tags, spans, columns = state.update(tokens[:4], tags, spans, columns)
    [new_york] = spans
    assert (new.value, new.start, new.end) == ("new", 2, 3)
    assert (new_york.value, new_york.start, new_york.end) == ("new york", 2, 4)
    tags, spans, columns = state.update(tokens, tags, spans, columns)
    assert spans[0] is new_york and tags[-3:] == ("B-city", "I-city", "O")

    session = _tagger_session(model)
    board = session.board
    for word in tokens:
        before = board.annotations.get(LATTICE), board.annotations.get(ENTITIES)
        session.parse_incremental(EditType.ADD, word)
        session.parse_incremental(EditType.REVOKE)
        assert board.annotations.get(LATTICE) is before[0] and board.annotations.get(ENTITIES) is before[1]
        session.parse_incremental(EditType.ADD, word)
    assert board.annotations[LATTICE][0] == tags and board.annotations[ENTITIES] == spans


def _views(session):
    return session.current_result(), [session.component_result(c.name) for c in session.components]


def _counting(real, calls):
    def counting(*args):
        calls.append(args)
        return real(*args)
    return counting


def test_an_add_that_continues_a_span_scans_the_tags_from_its_own_position(monkeypatch):
    """A span the new tag continues keeps its value, so the ADD scans the
    tags at most from the new position on, not from the span's start: a
    span that grows by one word per ADD costs each ADD the same. An ADD
    that changed only the newest tag extends the span without a scan. The
    random model tags a stream of unseen words as one growing I-y span."""
    model = _random_model()
    session = _tagger_session(model)
    board = session.board
    calls = []
    monkeypatch.setattr(tagging, "_runs", _counting(tagging._runs, calls))
    continued = 0
    for n in range(200):
        tags, spans = board.annotations[LATTICE][0], board.annotations[ENTITIES]
        calls.clear()
        session.parse_incremental(EditType.ADD, f"unseen{n}")
        grown = board.annotations[LATTICE][0]
        if grown[:n] == tags and spans and spans[-1].end == n and grown[n] == "I-" + spans[-1].type:
            continued += 1
            assert len(calls) <= 1 and all(start >= n for _, start in calls)
    assert continued > 150
    tokens = list(session.board.annotations[TOKENS])
    assert _entities(session) == extract_entities(decode(model, tokens), tokens)


def test_work_per_edit_does_not_grow_with_the_prefix(monkeypatch, toy_interp):
    """At 1000 words an ADD computes one column (one predecessor step; one
    add makes the column before it final), and a REVOKE right
    after an ADD none: the tagger does not update its lattice, and no
    intent is ranked. Each of 3 REVOKEs in a row after 4 or more ADDs
    computes no column, and any REVOKE at most CHECKPOINT_EVERY - 1 columns.
    No edit builds a feature string. A REVOKE right after an ADD that
    empties the prefix also ranks no intent."""
    calls = {}
    for owner, name in (
        (tagging, "_predecessors"),
        (tagging, "tag_features"),
        (tagging.ViterbiState, "update"),
        (tagging, "_runs"),
        (intent_bow, "predict"),
        (sium, "classify"),
    ):
        calls[name] = []
        monkeypatch.setattr(owner, name, _counting(getattr(owner, name), calls[name]))
    rng = random.Random(11)
    session = toy_interp.fresh_copy()
    tagger = next(c for c in session.components if c.name == "entity_tagger_sequence")
    tagger.model = _MODELS["random"]
    session.new_utterance()  # the copy published its empty prefix with the old model

    restored = {"_predecessors": 0, "update": 0, "_runs": 0, "predict": 0, "classify": 0}

    def cost(edit, word=None):
        for made in calls.values():
            made.clear()
        session.parse_incremental(edit, word)
        made = {name: len(made) for name, made in calls.items()}
        assert made.pop("tag_features") == 0
        return made

    for _ in range(1000):
        assert cost(EditType.ADD, rng.choice(_WORDS))["_predecessors"] <= 1
    for _ in range(50):
        assert cost(EditType.ADD, rng.choice(_WORDS))["_predecessors"] <= 1
        assert cost(EditType.REVOKE) == restored
    length = 1000
    for _ in range(50):
        adds = rng.randint(4, 8)
        for _ in range(adds):
            assert cost(EditType.ADD, rng.choice(_WORDS))["_predecessors"] <= 1
        for _ in range(3):
            assert cost(EditType.REVOKE)["_predecessors"] == 0
        assert cost(EditType.REVOKE)["_predecessors"] <= CHECKPOINT_EVERY - 1
        length += adds - 4
    for _ in range(3 * CHECKPOINT_EVERY):
        assert cost(EditType.REVOKE)["_predecessors"] <= CHECKPOINT_EVERY - 1
    for _ in range(10):
        assert cost(EditType.ADD, rng.choice(_WORDS))["_predecessors"] <= 1
    tokens = [unit.word.lower() for unit in session.board.buffer.units]
    assert len(tokens) == length - 3 * CHECKPOINT_EVERY + 10
    assert _entities(session) == extract_entities(decode(tagger.model, tokens), tokens)

    # A REVOKE right after an ADD restores the board also where it empties
    # the prefix.
    session.new_utterance()
    for word in ("play", "weather"):
        cost(EditType.ADD, word)
        assert cost(EditType.REVOKE) == restored
    assert session.current_result() == toy_interp.fresh_copy().current_result()


@pytest.mark.parametrize("name", ["toy", "random"])
def test_an_add_that_changes_only_the_newest_tag_builds_at_most_one_span(monkeypatch, name):
    """An ADD whose path keeps every old tag publishes the old spans plus
    at most one: none for "O", a new one-word span, or the last span
    extended by the new word, built once. The stream, REVOKEs included,
    ends on the spans of a batch decode."""
    model, real = _MODELS[name], tagging.EntitySpan
    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(tagging, "EntitySpan", counting)
    rng = random.Random(29)
    session = _tagger_session(model)
    board = session.board
    common = 0
    for _ in range(300):
        tags, spans = board.annotations[LATTICE][0], board.annotations[ENTITIES]
        if tags and rng.random() < 0.2:
            session.parse_incremental(EditType.REVOKE)
            continue
        built.clear()
        session.parse_incremental(EditType.ADD, rng.choice(_WORDS))
        grown = board.annotations[LATTICE][0]
        if grown[:-1] == tags:
            common += 1
            assert len(built) <= 1
    assert common > 100, common
    tokens = list(board.annotations[TOKENS])
    assert _entities(session) == extract_entities(decode(model, tokens), tokens)


def test_an_add_after_a_redo_computes_no_more_columns_than_a_plain_add(monkeypatch, toy_interp):
    """After five ADDs, a run of 1 to REDO_DEPTH REVOKEs and the ADDs that
    put back each word it took, the next new ADD computes one column (one
    predecessor step), as a plain ADD does, and the redos compute none. A
    run right after an ADD has its first REVOKE restored and runs the
    tagger on the others; a run after a REVOKE runs it on every one. A
    restored or redone board holds the very record the tagger published
    for its prefix."""
    columns = []
    monkeypatch.setattr(tagging, "_predecessors", _counting(tagging._predecessors, columns))
    words = ["book", "a", "table", "for", "two"]
    plain = toy_interp.fresh_copy()
    for word in words:
        plain.parse_incremental(EditType.ADD, word)
    columns.clear()
    plain.parse_incremental(EditType.ADD, "tonight")
    assert len(columns) == 1
    for depth, processed in itertools.product(range(1, REDO_DEPTH + 1), (False, True)):
        session = toy_interp.fresh_copy()
        board = session.board
        published = {}  # the record last published for each prefix length

        def edit(edit, word=None, given_back=False):
            session.parse_incremental(edit, word)
            n = len(board.buffer.units)
            if given_back:
                assert board.annotations[LATTICE] is published[n]
            published[n] = board.annotations[LATTICE]

        for word in words:
            edit(EditType.ADD, word)
        if processed:
            edit(EditType.ADD, "please")
            edit(EditType.REVOKE, given_back=True)
        for k in range(depth):
            edit(EditType.REVOKE, given_back=k == 0 and not processed)
        columns.clear()
        for word in words[len(words) - depth:]:
            edit(EditType.ADD, word, given_back=True)
        assert columns == []  # redos
        session.parse_incremental(EditType.ADD, "tonight")
        assert len(columns) <= 1
        assert _views(session) == _views(plain)


@pytest.mark.parametrize("position", [2, 3, 4])
def test_a_different_word_put_back_drops_the_scores_held_from_it(toy_interp, position):
    """After three REVOKEs, ADDs that put back the revoked words but one,
    and a new ADD, land on a fresh run of the survivors."""
    words = ["book", "a", "table", "for", "two"]
    session = toy_interp.fresh_copy()
    for word in words:
        session.parse_incremental(EditType.ADD, word)
    for _ in range(3):
        session.parse_incremental(EditType.REVOKE)
    survivors = words[:position] + ["boston"] + words[position + 1:] + ["tonight"]
    for word in survivors[2:]:
        session.parse_incremental(EditType.ADD, word)
        fresh = toy_interp.fresh_copy()
        fresh.parse_full(" ".join(unit.word for unit in session.board.buffer.units))
        assert _views(session) == _views(fresh)
    assert [unit.word for unit in session.board.buffer.units] == survivors


def test_an_unseen_word_sums_its_parts_once_however_often_it_is_read():
    """A word the weights know by no ``w=``, ``pw=`` or ``nw=`` feature has
    its parts summed once, in the first session that reads it: neither the
    up to three ADDs that read each of its positions, nor REVOKEs, redos,
    its repeats or a second session sum them again, and "zubax" shares the
    parts of "zubay", as the model knows of both only "p3=zub". Each known
    word is summed once too, and the entities are those of a batch decode."""
    model = _random_model()
    assert not {"w=zubay", "pw=zubay", "nw=zubay", "lw=zubay", "s3=bay", "s3=bax"} & set(model.weights)
    script = ["zubay", "zubay", "in", "zubay", "-", "-", "zubay", "zubay", "zubax", "zubay", "-", "boston"]
    with mock.patch.object(tagging, "WordParts", wraps=tagging.WordParts) as spy:
        for session in (_tagger_session(model), _tagger_session(model)):
            for word in script:
                if word == "-":
                    session.parse_incremental(EditType.REVOKE)
                else:
                    session.parse_incremental(EditType.ADD, word)
            tokens = list(session.board.annotations[TOKENS])
            assert _entities(session) == extract_entities(decode(model, tokens), tokens)
    assert sorted(call.args[1] for call in spy.call_args_list) == ["boston", "in", "zubay"]


def test_the_memo_keeps_each_known_token_once_and_no_unseen_one():
    """The emission memo keeps the tokens the weights know, once each, and
    only those: the 64 case variants of "boston", which the tokenizer
    lowers, make one entry, and 10,000 distinct unseen words, streamed
    through two sessions on the same model, add none; their parts are kept
    under one of two keys."""
    model = _random_model()
    sessions = [_tagger_session(model)]
    for cases in itertools.product(*(c.upper() + c for c in "boston")):  # "BOSTON" first
        sessions[0].parse_incremental(EditType.ADD, "".join(cases))
    assert set(model._memos) == {"boston"}
    sessions += [_tagger_session(model), _tagger_session(model)]
    for word in _WORDS:
        for session in sessions[1:]:
            session.parse_incremental(EditType.ADD, word)
    memo = dict(model._memos)
    assert set(memo) == {w.lower() for w in _WORDS}
    for k in range(10_000):
        sessions[1 + k % 2].parse_incremental(EditType.ADD, f"unseen{k}")
    assert model._memos == memo
    # Their parts are kept by the head features the model knows of them:
    # none, or "s3=019" for the words ending as "2019" does.
    assert set(model._unseen) == {(False,), ("s3=019", False)}
    for session in sessions:
        tokens = list(session.board.annotations[TOKENS])
        assert _entities(session) == extract_entities(decode(model, tokens), tokens)
