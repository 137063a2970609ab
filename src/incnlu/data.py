"""Training data: file formats, validation, splitting.

Two interchangeable on-disk formats are supported. The JSON form nests
examples under ``rasa_nlu_data.common_examples`` with character-offset
entity spans; the markdown form groups utterances under ``## intent:<label>``
headings and marks entities inline as ``[value](type)``.
"""

from __future__ import annotations

import json
import logging
import random
import re
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DataError

log = logging.getLogger(__name__)

NO_ENTITY = "__none__"

_MD_HEADING_RE = re.compile(r"^##\s*intent:\s*(\S.*?)\s*$")
_MD_ENTITY_RE = re.compile(r"\[([^\]]+)\]\(([^)]+)\)")


@dataclass
class EntityAnnotation:
    """One labelled character span inside an utterance."""

    start: int
    end: int
    value: str
    type: str


@dataclass
class TrainingExample:
    text: str
    intent: str
    entities: list[EntityAnnotation] = field(default_factory=list)


@dataclass
class TrainingDataset:
    examples: list[TrainingExample]

    @property
    def intents(self) -> list[str]:
        return sorted({ex.intent for ex in self.examples})

    @property
    def entity_types(self) -> list[str]:
        return sorted({ann.type for ex in self.examples for ann in ex.entities})

    def __len__(self) -> int:
        return len(self.examples)


def _check_utf8(value: str, kind: str, where: str) -> None:
    """Refuse a string with a lone surrogate, which a JSON escape such as
    ``\\ud800`` gives: the bundle's UTF-8 files cannot hold it."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise DataError(
            f"{where}: {kind} {value!r} holds a lone surrogate, which UTF-8 cannot encode"
        ) from None


def _check_label(label: str, kind: str, where: str) -> None:
    """Refuse a label that the bundle's one-a-line names files, or the
    tab-separated ``stream`` output, cannot hold."""
    _check_utf8(label, kind, where)
    if "\t" in label or label.splitlines() != [label]:
        raise DataError(f"{where}: {kind} {label!r} holds a tab or a line break")


def _validate_example(text: str, intent: str, entities: list[EntityAnnotation], where: str) -> None:
    if not isinstance(text, str) or not text.strip():
        raise DataError(f"{where}: utterance text is empty")
    if not isinstance(intent, str) or not intent:
        raise DataError(f"{where}: missing intent label")
    _check_utf8(text, "utterance text", where)
    _check_label(intent, "intent", where)
    for ann in entities:
        _check_label(ann.type, "entity type", where)
        if ann.type == NO_ENTITY:
            raise DataError(
                f"{where}: entity type {NO_ENTITY!r} is reserved for words outside every entity"
            )
        if not (0 <= ann.start < ann.end <= len(text)):
            raise DataError(
                f"{where}: entity span [{ann.start}, {ann.end}) out of range for text of length {len(text)}"
            )
    ordered = sorted(entities, key=lambda a: a.start)
    for left, right in zip(ordered, ordered[1:]):
        if right.start < left.end:
            raise DataError(
                f"{where}: overlapping entity spans [{left.start}, {left.end}) and [{right.start}, {right.end})"
            )


def _read_text(path: Path) -> str:
    if not path.exists():
        raise DataError(f"training file not found: {path}")
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 ({exc})") from None


def load_json(path: str | Path) -> TrainingDataset:
    """Read the JSON training format, validating spans against the text."""
    path = Path(path)
    try:
        payload = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON ({exc})") from exc
    try:
        raw_examples = payload["rasa_nlu_data"]["common_examples"]
    except (TypeError, KeyError):
        raise DataError(f"{path}: expected rasa_nlu_data.common_examples") from None
    if not isinstance(raw_examples, list):
        raise DataError(f"{path}: rasa_nlu_data.common_examples is not a list")
    examples = []
    for i, raw in enumerate(raw_examples):
        where = f"{path} example {i}"
        if not isinstance(raw, dict):
            raise DataError(f"{where}: not an object")
        text = raw.get("text")
        intent = raw.get("intent")
        raw_entities = raw.get("entities", [])
        if not isinstance(raw_entities, list):
            raise DataError(f"{where}: entities is not a list")
        entities = []
        for raw_ann in raw_entities:
            try:
                ann = EntityAnnotation(raw_ann["start"], raw_ann["end"], raw_ann["value"], raw_ann["entity"])
            except (TypeError, KeyError):
                raise DataError(f"{where}: malformed entity annotation {raw_ann!r}") from None
            # A JSON integer, not a bool or a float that would load as one.
            if type(ann.start) is not int or type(ann.end) is not int:
                raise DataError(f"{where}: entity offsets are not integers in {raw_ann!r}")
            if not isinstance(ann.type, str) or not ann.type:
                raise DataError(f"{where}: entity type is not a non-empty string in {raw_ann!r}")
            entities.append(ann)
        if text is None or intent is None:
            raise DataError(f"{where}: missing text or intent")
        _validate_example(text, intent, entities, where)
        # Offsets are authoritative: a value that disagrees with its slice is
        # repaired, not rejected.
        for ann in entities:
            slice_value = text[ann.start:ann.end]
            if ann.value != slice_value:
                log.warning(
                    "%s: entity value %r replaced by text slice %r", where, ann.value, slice_value
                )
                ann.value = slice_value
        examples.append(TrainingExample(text=text, intent=intent, entities=entities))
    if not examples:
        raise DataError(f"{path}: no training examples")
    return TrainingDataset(examples)


def _parse_md_item(line: str) -> tuple[str, list[EntityAnnotation]]:
    """Strip inline entity markup, tracking the plain-text offsets."""
    out = []
    entities = []
    cursor = 0
    plain_len = 0
    for match in _MD_ENTITY_RE.finditer(line):
        before = line[cursor:match.start()]
        out.append(before)
        plain_len += len(before)
        value, etype = match.group(1), match.group(2)
        entities.append(
            EntityAnnotation(start=plain_len, end=plain_len + len(value), value=value, type=etype)
        )
        out.append(value)
        plain_len += len(value)
        cursor = match.end()
    out.append(line[cursor:])
    return "".join(out), entities


def load_markdown(path: str | Path) -> TrainingDataset:
    """Read the markdown training format, reporting errors by line number."""
    path = Path(path)
    examples = []
    intent = None
    for lineno, raw_line in enumerate(_read_text(path).splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("<!--"):
            continue
        heading = _MD_HEADING_RE.match(line)
        if heading:
            intent = heading.group(1)
            continue
        if line.startswith("##"):
            raise DataError(f"{path}:{lineno}: unrecognized heading {line!r}")
        if line.startswith("- "):
            if intent is None:
                raise DataError(f"{path}:{lineno}: utterance before any intent heading")
            text, entities = _parse_md_item(line[2:].strip())
            if "[" in text or "]" in text:
                raise DataError(f"{path}:{lineno}: unbalanced entity brackets in {line!r}")
            _validate_example(text, intent, entities, f"{path}:{lineno}")
            examples.append(TrainingExample(text=text, intent=intent, entities=entities))
            continue
        raise DataError(f"{path}:{lineno}: expected a '- ' utterance line, got {line!r}")
    if not examples:
        raise DataError(f"{path}: no training examples")
    return TrainingDataset(examples)


def load_dataset(path: str | Path) -> TrainingDataset:
    """Dispatch on file suffix: .json or .md."""
    suffix = Path(path).suffix.lower()
    if suffix == ".json":
        return load_json(path)
    if suffix == ".md":
        return load_markdown(path)
    raise DataError(f"unsupported training data suffix {suffix!r} (expected .json or .md)")


def save_json(dataset: TrainingDataset, path: str | Path) -> None:
    payload = {
        "rasa_nlu_data": {
            "common_examples": [
                {
                    "text": ex.text,
                    "intent": ex.intent,
                    "entities": [
                        {"start": a.start, "end": a.end, "value": a.value, "entity": a.type}
                        for a in ex.entities
                    ],
                }
                for ex in dataset.examples
            ]
        }
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def stratified_split(
    dataset: TrainingDataset, test_fraction: float = 0.2, seed: int = 0
) -> tuple[TrainingDataset, TrainingDataset]:
    """Shuffle within each intent and split, preserving label proportions.

    Every intent must appear at least twice so both halves see every label.
    """
    if not 0.0 < test_fraction < 1.0:
        raise DataError(f"test_fraction must be in (0, 1), got {test_fraction}")
    by_intent: dict[str, list[TrainingExample]] = defaultdict(list)
    for ex in dataset.examples:
        by_intent[ex.intent].append(ex)
    for intent, group in by_intent.items():
        if len(group) < 2:
            raise DataError(
                f"intent {intent!r} has only {len(group)} example(s); need at least 2 to split"
            )
    rng = random.Random(seed)
    train, test = [], []
    for intent in sorted(by_intent):
        group = list(by_intent[intent])
        rng.shuffle(group)
        n_test = round(test_fraction * len(group))
        n_test = max(1, min(len(group) - 1, n_test))
        test.extend(group[:n_test])
        train.extend(group[n_test:])
    return TrainingDataset(train), TrainingDataset(test)
