import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from incnlu import BufferUnderflowError, InvalidPayloadError
from incnlu.iu import Blackboard, EditType, IuBuffer


def _words(buf):
    return [unit.word for unit in buf.units]


class TestIuBuffer:
    def test_add_assigns_sequential_ids(self):
        buf = IuBuffer()
        units = [buf.add(w) for w in ["play", "some", "jazz"]]
        assert [u.id for u in units] == [0, 1, 2]
        assert buf.units == units
        assert _words(buf) == ["play", "some", "jazz"]

    def test_revoke_removes_most_recent_word(self):
        buf = IuBuffer()
        for w in ["play", "some", "jazz"]:
            buf.add(w)
        revoked = buf.revoke()
        assert revoked == (2, "jazz")
        assert revoked not in buf.units
        assert _words(buf) == ["play", "some"]

    def test_revoke_on_empty_buffer_raises(self):
        buf = IuBuffer()
        with pytest.raises(BufferUnderflowError):
            buf.revoke()

    def test_add_rejects_bad_payloads(self):
        buf = IuBuffer()
        for bad in ["", "two words", "tab\tsep", "new\nline"]:
            with pytest.raises(InvalidPayloadError):
                buf.add(bad)

    def test_every_unicode_space_is_refused_and_a_zero_width_space_is_not(self):
        # No-break, em, ideographic, file-separator and next-line characters
        # are all str.isspace(); the zero-width space U+200B is not.
        buf = IuBuffer()
        for bad in ["a\u00a0b", "a\u2003b", "a\u3000b", "a\x1cb", "a\x85b", "\u3000"]:
            with pytest.raises(InvalidPayloadError):
                buf.add(bad)
        assert buf.add("a\u200bb").word == "a\u200bb"
        assert _words(buf) == ["a\u200bb"]

    @given(st.lists(st.one_of(st.none(), st.sampled_from(["a", "b", "c"])), max_size=40))
    def test_edit_log_replays_to_the_live_units(self, script):
        # The edit log is the only history: replaying it onto an empty stack
        # gives the buffer's units. None in the script is a REVOKE.
        board = Blackboard()
        applied = []
        for word in script:
            edit = EditType.ADD if word else EditType.REVOKE
            if word is None and not board.buffer.units:
                # An underflow is refused and leaves no trace in the log.
                with pytest.raises(BufferUnderflowError):
                    board.apply_edit(edit, None)
                continue
            board.apply_edit(edit, word)
            applied.append(edit)
        assert [edit for _, edit, _ in board.edit_log] == applied
        stack = []
        added_ids = []
        for unit_id, edit, word in board.edit_log:
            if edit is EditType.ADD:
                stack.append((unit_id, word))
                added_ids.append(unit_id)
            else:
                assert stack.pop() == (unit_id, word)
        assert board.buffer.units == stack
        assert len(set(added_ids)) == len(added_ids)

    def test_randomized_edits_match_reference_stack(self):
        rng = random.Random(4021)
        words = ["alpha", "bravo", "charlie", "delta", "echo"]
        buf = IuBuffer()
        stack = []
        for _ in range(2000):
            if stack and rng.random() < 0.4:
                unit = buf.revoke()
                assert unit.word == stack.pop()
            else:
                w = rng.choice(words)
                buf.add(w)
                stack.append(w)
            assert _words(buf) == stack


class TestBlackboard:
    def test_apply_edit_tracks_buffer_and_log(self):
        board = Blackboard()
        board.apply_edit(EditType.ADD, "hello")
        board.apply_edit(EditType.ADD, "there")
        unit = board.apply_edit(EditType.REVOKE, None)
        assert unit.word == "there"
        assert _words(board.buffer) == ["hello"]
        assert board.edit_log == [
            (0, EditType.ADD, "hello"),
            (1, EditType.ADD, "there"),
            (1, EditType.REVOKE, "there"),
        ]

    def test_add_requires_word_and_revoke_forbids_it(self):
        board = Blackboard()
        with pytest.raises(InvalidPayloadError):
            board.apply_edit(EditType.ADD, None)
        board.apply_edit(EditType.ADD, "hello")
        with pytest.raises(InvalidPayloadError):
            board.apply_edit(EditType.REVOKE, "hello")

    def test_component_views_are_kept_separately(self):
        board = Blackboard({"intent": "b"})
        board.begin_cycle()
        board.write("a", "intent", "PlayMusic")
        board.write("b", "intent", "GetWeather")
        assert board.published("a", "intent") == "PlayMusic"
        assert board.published("b", "intent") == "GetWeather"
        # The owner's value is the pipeline-level one, under the bare key,
        # and each value is stored once.
        assert board.annotations == {"intent": "GetWeather", ("a", "intent"): "PlayMusic"}

    def test_non_owner_write_does_not_touch_pipeline_level(self):
        board = Blackboard({"intent": "b"})
        board.begin_cycle()
        board.write("a", "intent", "PlayMusic")
        assert "intent" not in board.annotations
        assert board.published("b", "intent", ()) == ()

    def test_begin_cycle_drops_views_from_the_copies_only(self):
        board = Blackboard({"intent": "b", "tokens": "b"})
        board.write("a", "intent", ("PlayMusic",))
        board.write("b", "intent", ("GetWeather",))
        board.write("b", "tokens", ("play",))
        record = board.annotations
        kept = dict(record)
        board.begin_cycle((("a", "intent"), ("c", "absent")))
        assert board.annotations is not record
        assert board.published("a", "intent") is None
        assert board.annotations == {"intent": ("GetWeather",), "tokens": ("play",)}
        board.write("b", "intent", ("BookRestaurant",))
        board.write("a", "tokens", ("x",))
        assert record == kept
        board.republish(record)
        assert board.annotations is record
        assert board.published("a", "intent") == ("PlayMusic",)

    def test_same_writer_may_rewrite_within_a_cycle(self):
        board = Blackboard()
        board.begin_cycle()
        board.write("a", "tokens", ["x"])
        board.write("a", "tokens", ["x", "y"])
        assert board.annotations["tokens"] == ["x", "y"]

    def test_clear_resets_state_but_keeps_owners(self):
        board = Blackboard({"tokens": "a"})
        board.apply_edit(EditType.ADD, "hello")
        board.begin_cycle()
        board.write("a", "tokens", ["hello"])
        board.write("b", "tokens", ["HELLO"])
        board.clear()
        assert _words(board.buffer) == []
        assert board.annotations == {}
        assert board.edit_log == []
        board.begin_cycle()
        board.write("b", "tokens", ["again"])
        assert "tokens" not in board.annotations
        assert board.published("b", "tokens") == ["again"]
