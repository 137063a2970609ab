"""Incremental units, the add/revoke buffer, and the blackboard message bus.

A word entering the system becomes an :class:`IncrementalUnit`. The
:class:`IuBuffer` is a stack of the surviving units: an ADD pushes one and
a REVOKE pops the newest. The :class:`Blackboard` carries that stack, the
utterance's edit log (its only record of every ADD and REVOKE; replayed
onto an empty stack it gives the buffer), and one map of named
annotations (tokens, count vector, the tagger's lattice record, entities,
intent distribution) through which components communicate. That map holds each
published value once, and it is also the record of a publication, which
the interpreter keeps to give a board back.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, NamedTuple

from .errors import BufferUnderflowError, InvalidPayloadError

# Annotation keys components agree on. Each key has exactly one owner per
# pipeline (config.key_owners), and only the owner's value is published
# under the bare key; see Blackboard._slot.
TOKENS = "tokens"
COUNT_VECTOR = "count_vector"
LATTICE = "lattice"
ENTITIES = "entities"
INTENT_DISTRIBUTION = "intent_distribution"


class EditType(Enum):
    ADD = "ADD"
    REVOKE = "REVOKE"


# The members as module globals: a global is read faster than an Enum
# class attribute, and the per-edit paths test every edit against them.
ADD = EditType.ADD
REVOKE = EditType.REVOKE


class IncrementalUnit(NamedTuple):
    """One word; ``id`` is unique within its utterance."""

    id: int
    word: str


def _check_word(word: Any) -> str:
    if not isinstance(word, str) or not word:
        raise InvalidPayloadError("unit payload must be a non-empty string")
    if word.split() != [word]:  # str.split() splits at exactly the str.isspace() characters
        raise InvalidPayloadError(f"unit payload may not contain whitespace: {word!r}")
    return word


class IuBuffer:
    """Stack of the surviving units, oldest first."""

    def __init__(self) -> None:
        self.units: list[IncrementalUnit] = []
        self._next_id = 0

    def add(self, word: str) -> IncrementalUnit:
        unit = IncrementalUnit(self._next_id, _check_word(word))
        self._next_id += 1
        self.units.append(unit)
        return unit

    def revoke(self) -> IncrementalUnit:
        """Pop the most recently added surviving unit and return it."""
        if not self.units:
            raise BufferUnderflowError("revoke on an empty hypothesis")
        return self.units.pop()


class Blackboard:
    """Shared per-utterance state bus.

    Annotations live in one map. A key's owner publishes its value under
    the bare key, the pipeline-level value; any other writer publishes
    under ``(component, key)``, and a key with no owner belongs to its
    writer (:meth:`_slot`). So each published value is stored once. The
    owners are fixed at construction, so a value's slot never moves within
    a session.

    The map is the record of what the pipeline published. Published
    values are immutable (tuples, and arrays that are not writeable), and
    results hand them on as they are, never a copy. :meth:`begin_cycle`
    starts each publication on a copy of the map alone, so the map it
    replaces stays the record of the last one, and :meth:`republish` gives a
    record back.
    """

    def __init__(self, owners: dict[str, str] | None = None) -> None:
        self.buffer = IuBuffer()
        self.annotations: dict[str | tuple[str, str], Any] = {}
        self.edit_log: list[tuple[int, EditType, str]] = []  # (unit id, edit, word)
        self._owners: dict[str, str] = dict(owners or {})

    def _slot(self, component: str, key: str) -> str | tuple[str, str]:
        """Where ``component``'s value of ``key`` lives: the bare key if it
        owns ``key`` or no owner of ``key`` is configured, else
        ``(component, key)``."""
        return key if self._owners.get(key, component) == component else (component, key)

    def apply_edit(self, edit: EditType, word: str | None) -> IncrementalUnit:
        """Apply one edit to the buffer and append it to the edit log."""
        if edit is ADD:
            if word is None:
                raise InvalidPayloadError("ADD requires a word")
            unit = self.buffer.add(word)
        elif edit is REVOKE:
            if word is not None:
                raise InvalidPayloadError("REVOKE does not take a word")
            unit = self.buffer.revoke()
        else:
            raise InvalidPayloadError(f"unknown edit type {edit!r}")
        self.edit_log.append((unit.id, edit, unit.word))
        return unit

    def begin_cycle(self, drop: tuple[tuple[str, str], ...] = ()) -> None:
        """Start the next publication on a shallow copy of the map, the
        ``(component, key)`` slots in ``drop`` left out of the copy. The map
        replaced is left as it is."""
        notes = self.annotations = dict(self.annotations)
        for slot in drop:
            notes.pop(slot, None)

    def write(self, component: str, key: str, value: Any) -> None:
        """Publish a component's value of ``key`` in its slot."""
        self.annotations[self._slot(component, key)] = value

    def published(self, component: str, key: str, default: Any = None) -> Any:
        """``component``'s value of ``key`` on the board, else ``default``."""
        return self.annotations.get(self._slot(component, key), default)

    def republish(self, kept: dict[str | tuple[str, str], Any]) -> None:
        """Make a record, the map a publication replaced, the board's own
        again."""
        self.annotations = kept

    def clear(self) -> None:
        """Reset all per-utterance state; the owners are kept."""
        self.buffer = IuBuffer()
        self.annotations = {}
        self.edit_log = []
