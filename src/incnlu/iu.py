"""Incremental units, the add/revoke buffer, and the blackboard message bus.

A word entering the system becomes an :class:`IncrementalUnit`. The
:class:`IuBuffer` is a stack of the surviving units: an ADD pushes one and
a REVOKE pops the newest. The :class:`Blackboard` carries that stack, the
utterance's edit log (its only record of every ADD and REVOKE; replayed
onto an empty stack it gives the buffer), and named annotations (tokens,
count vector, BIO tags, entities, intent distribution) through which
components communicate.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, NamedTuple

from .errors import BufferUnderflowError, InvalidPayloadError

# Annotation keys components agree on. Each key has exactly one owner per
# pipeline (config.key_owners), and only the owner's value reaches the
# pipeline-level map; see Blackboard.write.
TOKENS = "tokens"
COUNT_VECTOR = "count_vector"
TAGS = "tags"
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

    Annotations live in two layers: ``component_annotations`` keeps every
    component's output under ``(component, key)``, while ``annotations``
    holds the pipeline-level value for each key, written only by that key's
    owning component. Ownership is configured once per pipeline via
    :meth:`set_owners`; a key with no owner configured takes every writer's
    value.

    The two maps are the record of what the pipeline published. Published
    values are immutable (tuples, and arrays that are not writeable), and
    results hand them on as they are, never a copy. :meth:`begin_cycle`
    starts each publication on copies of the maps alone, so the maps it
    replaces stay the record of the last one, and :meth:`republish` gives a
    record back.
    """

    def __init__(self) -> None:
        self.buffer = IuBuffer()
        self.annotations: dict[str, Any] = {}
        self.component_annotations: dict[tuple[str, str], Any] = {}
        self.edit_log: list[tuple[int, EditType, str]] = []  # (unit id, edit, word)
        self._owners: dict[str, str] = {}

    def set_owners(self, owners: dict[str, str]) -> None:
        self._owners = dict(owners)

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
        else:  # pragma: no cover - enum is closed
            raise InvalidPayloadError(f"unknown edit type {edit!r}")
        self.edit_log.append((unit.id, edit, unit.word))
        return unit

    def begin_cycle(self, drop: tuple[tuple[str, str], ...] = ()) -> None:
        """Start the next publication on shallow copies of both maps, the
        ``(component, key)`` views in ``drop`` left out of the copy. The maps
        replaced are left as they are."""
        self.annotations = dict(self.annotations)
        notes = self.component_annotations = dict(self.component_annotations)
        for key in drop:
            notes.pop(key, None)

    def write(self, component: str, key: str, value: Any) -> None:
        """Store a component's annotation.

        The value is always recorded under ``(component, key)``. It is
        mirrored to the pipeline-level map only when ``component`` owns
        ``key``, or no owner of ``key`` is configured.
        """
        self.component_annotations[(component, key)] = value
        if self._owners.get(key, component) == component:
            self.annotations[key] = value

    def republish(self, kept: tuple[dict[str, Any], dict[tuple[str, str], Any]]) -> None:
        """Make a record, the two maps a publication replaced, the board's
        own again."""
        self.annotations, self.component_annotations = kept

    def component_view(self, component: str) -> dict[str, Any]:
        """All annotations a single component has written this utterance."""
        return {
            key: value
            for (name, key), value in self.component_annotations.items()
            if name == component
        }

    def clear(self) -> None:
        """Reset all per-utterance state; configured owners are kept."""
        self.buffer = IuBuffer()
        self.annotations = {}
        self.component_annotations = {}
        self.edit_log = []
