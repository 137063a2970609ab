import random

import numpy as np
import pytest

from incnlu import ConsistencyError, DataError
from incnlu.components import TrainingContext, read_names, write_names
from incnlu.data import TrainingDataset
from incnlu.features import (
    CountVectorsFeaturizer,
    Vocabulary,
    WhitespaceTokenizer,
    count_vector,
    tokenize,
    tokenize_with_spans,
    vector_apply,
)
from incnlu.iu import COUNT_VECTOR, TOKENS, Blackboard, EditType

from conftest import make_example, model_files


def test_tokenize_splits_on_whitespace_runs():
    assert tokenize("Play  some\tJazz\n") == ["play", "some", "jazz"]
    assert tokenize("Play Jazz", lowercase=False) == ["Play", "Jazz"]
    assert tokenize("") == []
    assert tokenize("   ") == []


def test_tokenize_with_spans_reports_original_offsets():
    spans = tokenize_with_spans("Rain in  NYC")
    assert spans == [("rain", 0, 4), ("in", 5, 7), ("nyc", 9, 12)]
    for token, start, end in spans:
        assert "Rain in  NYC"[start:end].lower() == token


def test_vocabulary_uses_first_occurrence_order():
    vocab = Vocabulary.fit([["b", "a"], ["a", "c"]])
    assert vocab.index == {"b": 0, "a": 1, "c": 2}
    assert vocab.index_of("A") == 1
    assert vocab.index_of("missing") is None
    assert len(vocab) == 3


def test_vocabulary_fit_rejects_empty_corpus():
    with pytest.raises(DataError):
        Vocabulary.fit([])


def test_vocabulary_line_round_trip(tmp_path):
    vocab = Vocabulary.fit([["gamma", "beta", "alpha", "beta"]])
    # One word a line, in index order.
    assert vocab.to_lines() == ["gamma", "beta", "alpha"]
    write_names(tmp_path / "vocabulary.tsv", vocab.to_lines())
    assert (tmp_path / "vocabulary.tsv").read_text(encoding="utf-8") == "gamma\nbeta\nalpha\n"
    assert read_names(model_files(tmp_path), "vocabulary.tsv") == vocab.to_lines()


@pytest.mark.parametrize("lines", [["a", "b", "a"], ["a", ""]])
def test_read_names_rejects_repeated_or_empty_entries(tmp_path, lines):
    path = tmp_path / "names.tsv"
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    with pytest.raises(ValueError, match="names an entry twice, or an empty one"):
        read_names(model_files(tmp_path), "names.tsv")


def test_count_vector_counts_known_words_only(toy_dataset):
    vocab = Vocabulary.fit(tokenize(ex.text) for ex in toy_dataset.examples)
    vec = count_vector(vocab, ["play", "play", "quasar", "jazz"])
    assert vec[vocab.index_of("play")] == 2
    assert vec[vocab.index_of("jazz")] == 1
    assert vec.sum() == 3  # "quasar" is out of vocabulary
    assert vec.dtype == np.int64


def _published(counts, dtype=np.uint8):
    """A count vector as the featurizer publishes it: unsigned and read-only."""
    vec = np.array(counts, dtype=dtype)
    vec.flags.writeable = False
    return vec


def test_vector_apply_add_then_revoke_is_identity():
    vocab = Vocabulary.fit([["a", "b", "c"]])
    vec = _published([1, 1, 0])
    added = vector_apply(vec, vocab, "c", EditType.ADD)
    assert added.tolist() == [1, 1, 1] and vec.tolist() == [1, 1, 0]
    back = vector_apply(added, vocab, "c", EditType.REVOKE)
    assert back.tolist() == [1, 1, 0] and added.tolist() == [1, 1, 1]
    for out in added, back:
        assert out.dtype == np.uint8 and not out.flags.writeable


def test_vector_apply_ignores_oov_both_ways():
    vocab = Vocabulary.fit([["a"]])
    vec = _published([0])
    assert vector_apply(vec, vocab, "zzz", EditType.ADD) is vec
    assert vector_apply(vec, vocab, "zzz", EditType.REVOKE) is vec


def test_vector_apply_refuses_negative_counts():
    vocab = Vocabulary.fit([["a"]])
    with pytest.raises(ConsistencyError, match="^revoke of 'a' would drive its count below zero$"):
        vector_apply(_published([0]), vocab, "a", EditType.REVOKE)


@pytest.mark.parametrize(
    "narrow, wide", [(np.uint8, np.uint16), (np.uint16, np.uint32), (np.uint32, np.uint64)]
)
def test_an_add_past_the_dtype_maximum_widens_once_and_no_revoke_narrows(narrow, wide):
    vocab = Vocabulary.fit([["a", "b"]])
    top = int(np.iinfo(narrow).max)
    vec = _published([top, 7], narrow)
    widened = vector_apply(vec, vocab, "a", EditType.ADD)
    assert widened.dtype == wide and widened.tolist() == [top + 1, 7]
    assert not widened.flags.writeable and vec.tolist() == [top, 7]
    assert vector_apply(vec, vocab, "b", EditType.ADD).dtype == narrow
    back = vector_apply(widened, vocab, "a", EditType.REVOKE)
    assert back.dtype == wide and back.tolist() == [top, 7]


def test_random_edit_stream_matches_recount_oracle():
    """After every edit the incrementally maintained vector must equal a
    from-scratch recount of the surviving words."""
    rng = random.Random(118)
    vocab = Vocabulary.fit([["w%d" % i for i in range(12)]])
    words = list(vocab.index) + ["oov1", "oov2"]
    vec = _published(np.zeros(len(vocab)))
    stack = []
    for _ in range(800):
        if stack and rng.random() < 0.45:
            word = stack.pop()
            vec = vector_apply(vec, vocab, word, EditType.REVOKE)
        else:
            word = rng.choice(words)
            stack.append(word)
            vec = vector_apply(vec, vocab, word, EditType.ADD)
        assert np.array_equal(vec, count_vector(vocab, stack))


class TestWhitespaceTokenizer:
    @pytest.mark.parametrize("lowercase", [True, False])
    def test_training_leaves_each_examples_tokens_and_bio_tags(self, lowercase):
        """The tokens every later component trains from, made by the
        tokenizer's own flag, with the tags of the entity spans on them."""
        ds = TrainingDataset([make_example("Weather in New York", "GetWeather", [("New York", "city")])])
        ctx = TrainingContext(dataset=ds, seed=0)
        WhitespaceTokenizer({"lowercase": lowercase}).train(ds, ctx)
        words = "Weather in New York".split()
        assert ctx.tokens == [[w.lower() for w in words] if lowercase else words]
        assert ctx.tags == [["O", "O", "B-city", "I-city"]]
        assert ctx.lowercase is lowercase

    def test_add_revoke_and_refresh(self):
        comp = WhitespaceTokenizer()
        board = Blackboard()
        board.begin_cycle()
        board.apply_edit(EditType.ADD, "Play")
        comp.process(board, EditType.ADD, "Play")
        board.apply_edit(EditType.ADD, "Jazz")
        comp.process(board, EditType.ADD, "Jazz")
        assert board.annotations[TOKENS] == ("play", "jazz")
        unit = board.apply_edit(EditType.REVOKE, None)
        comp.process(board, EditType.REVOKE, unit.word)
        assert board.annotations[TOKENS] == ("play",)
        # edit=None re-publishes the current tokens without consuming an edit
        comp.process(board)
        assert board.annotations[TOKENS] == ("play",)

    def test_revoke_with_no_tokens_is_a_caller_bug(self):
        comp = WhitespaceTokenizer()
        board = Blackboard()
        board.begin_cycle()
        with pytest.raises(ConsistencyError):
            comp.process(board, EditType.REVOKE, "ghost")

    def test_new_utterance_forgets_tokens(self):
        comp = WhitespaceTokenizer()
        board = Blackboard()
        board.begin_cycle()
        comp.process(board, EditType.ADD, "word")
        comp.new_utterance()
        board.clear()
        board.begin_cycle()
        comp.process(board)
        assert board.annotations[TOKENS] == ()


class TestCountVectorsFeaturizer:
    def _trained(self, toy_dataset):
        tok = WhitespaceTokenizer()
        feat = CountVectorsFeaturizer()
        ctx = TrainingContext(dataset=toy_dataset, seed=0)
        tok.train(toy_dataset, ctx)
        feat.train(toy_dataset, ctx)
        return feat

    def test_incremental_vector_matches_batch(self, toy_dataset):
        feat = self._trained(toy_dataset)
        vocab = feat.vocabulary
        board = Blackboard()
        board.begin_cycle()
        for word in ["book", "a", "table"]:
            board.apply_edit(EditType.ADD, word)
            feat.process(board, EditType.ADD, word)
        got = board.annotations[COUNT_VECTOR]
        assert np.array_equal(got, count_vector(vocab, ["book", "a", "table"]))
        unit = board.apply_edit(EditType.REVOKE, None)
        feat.process(board, EditType.REVOKE, unit.word)
        assert np.array_equal(
            board.annotations[COUNT_VECTOR], count_vector(vocab, ["book", "a"])
        )

    def test_a_count_widens_on_its_256th_add_and_stays_wide(self, toy_dataset):
        """The featurizer publishes uint8 up to a count of 255, uint16 from
        the 256th ADD of a word on, with every other count as before, and
        uint16 after a REVOKE back to 255. A REVOKE below zero is refused
        with the same message at any width. An out-of-vocabulary ADD or
        REVOKE, and a republish, share the last published array."""
        feat = self._trained(toy_dataset)
        vocab = feat.vocabulary
        board = Blackboard()
        board.begin_cycle()
        feat.process(board)
        assert board.annotations[COUNT_VECTOR].dtype == np.uint8
        stack = []

        def edit(kind, word):
            if kind is EditType.ADD:
                stack.append(word)
            else:
                stack.remove(word)
            board.begin_cycle()
            feat.process(board, kind, word)
            return board.annotations[COUNT_VECTOR]

        edit(EditType.ADD, "play")
        for _ in range(255):
            vec = edit(EditType.ADD, "jazz")
        assert vec.dtype == np.uint8 and vec[vocab.index_of("jazz")] == 255
        assert np.array_equal(vec, count_vector(vocab, stack))
        vec = edit(EditType.ADD, "jazz")
        assert vec.dtype == np.uint16 and vec[vocab.index_of("jazz")] == 256
        assert np.array_equal(vec, count_vector(vocab, stack))
        vec = edit(EditType.REVOKE, "jazz")
        assert vec.dtype == np.uint16 and not vec.flags.writeable
        assert np.array_equal(vec, count_vector(vocab, stack))
        with pytest.raises(
            ConsistencyError, match="^revoke of 'book' would drive its count below zero$"
        ):
            feat.process(board, EditType.REVOKE, "book")
        for kind in EditType.ADD, EditType.REVOKE:
            board.begin_cycle()
            feat.process(board, kind, "quasar")
            assert board.annotations[COUNT_VECTOR] is vec
        board.begin_cycle()
        feat.process(board)
        assert board.annotations[COUNT_VECTOR] is vec

    def test_untrained_featurizer_refuses_to_run(self):
        feat = CountVectorsFeaturizer()
        board = Blackboard()
        board.begin_cycle()
        with pytest.raises(ConsistencyError):
            feat.process(board, EditType.ADD, "word")

    def test_persist_and_load_keep_the_vocabulary(self, toy_dataset, tmp_path):
        feat = self._trained(toy_dataset)
        feat.persist(tmp_path)
        loaded = CountVectorsFeaturizer.load(model_files(tmp_path), {})
        assert loaded.vocabulary.index == feat.vocabulary.index
        assert loaded.params == feat.params
