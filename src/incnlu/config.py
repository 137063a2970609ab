"""Pipeline configuration: a small YAML-shaped text format, read by hand.

The accepted grammar is deliberately tiny:

    language: "en"
    pipeline:
    - name: "tokenizer_whitespace"
    - name: "intent_sium"
      entity_threshold: 0.6

Top-level scalar keys, one ``pipeline:`` list whose items each start with a
``- name:`` line, and indented ``key: value`` parameter lines under an item.
Values are quoted strings, booleans, integers, or floats. Blank lines and
``#`` comments are ignored. A top-level key or a parameter of one item
given twice is an error, as a later line would otherwise silently win or
extend the first. Anything else is an error with a line number; a full
YAML parser would accept far more than this format means.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from .components import Component
from .errors import ConfigError
from .iu import TOKENS
from .registry import create

_ITEM_RE = re.compile(r"^(\s*)-\s+name:\s*(.+?)\s*$")
_KV_RE = re.compile(r"^(\s*)([A-Za-z_][A-Za-z0-9_]*):\s*(.*?)\s*$")


@dataclass
class ComponentSpec:
    name: str
    params: dict = field(default_factory=dict)


@dataclass
class PipelineConfig:
    language: str = "en"
    components: list[ComponentSpec] = field(default_factory=list)


def _parse_scalar(raw: str, lineno: int) -> object:
    if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in "\"'":
        return raw[1:-1]
    if raw and (raw[0] in "\"'" or raw[-1] in "\"'"):
        # Quoted at one end only: also what a "#" inside quotes leaves, as
        # comments are cut before values are read.
        raise ConfigError(f"line {lineno}: unbalanced quotes in value {raw!r}")
    if raw == "true":
        return True
    if raw == "false":
        return False
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    if raw and not any(c in raw for c in ":#{}[]"):
        return raw
    raise ConfigError(f"line {lineno}: cannot parse value {raw!r}")


def parse_config(text: str) -> PipelineConfig:
    language = None
    top_level: set[str] = set()  # the top-level keys read so far
    components: list[ComponentSpec] = []
    in_pipeline = False
    item_indent = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        stripped = raw_line.split("#", 1)[0].rstrip()
        if not stripped.strip():
            continue
        item = _ITEM_RE.match(stripped)
        if item:
            if not in_pipeline:
                raise ConfigError(f"line {lineno}: component entry outside pipeline section")
            name = _parse_scalar(item.group(2), lineno)
            if not isinstance(name, str):
                raise ConfigError(f"line {lineno}: component name must be a string")
            components.append(ComponentSpec(name=name))
            item_indent = len(item.group(1))
            continue
        kv = _KV_RE.match(stripped)
        if not kv:
            raise ConfigError(f"line {lineno}: cannot parse {stripped.strip()!r}")
        indent, key, raw_value = len(kv.group(1)), kv.group(2), kv.group(3)
        if indent == 0:
            in_pipeline = False
            item_indent = None
            if key in top_level:
                raise ConfigError(f"line {lineno}: top-level key {key!r} given twice")
            top_level.add(key)
            if key == "pipeline":
                if raw_value:
                    raise ConfigError(f"line {lineno}: pipeline takes a list, not a value")
                in_pipeline = True
            elif key == "language":
                value = _parse_scalar(raw_value, lineno)
                if not isinstance(value, str):
                    raise ConfigError(f"line {lineno}: language must be a string")
                language = value
            else:
                raise ConfigError(f"line {lineno}: unknown top-level key {key!r}")
            continue
        # Indented line: a parameter of the current component entry.
        if not in_pipeline or not components or item_indent is None or indent <= item_indent:
            raise ConfigError(f"line {lineno}: parameter line with no component entry")
        params = components[-1].params
        if key in params:
            raise ConfigError(f"line {lineno}: parameter {key!r} of {components[-1].name!r} given twice")
        params[key] = _parse_scalar(raw_value, lineno)
    if language is None:
        raise ConfigError("missing required key 'language'")
    if not components:
        raise ConfigError("pipeline section is missing or empty")
    return PipelineConfig(language=language, components=components)


def load_config(path: str | Path) -> PipelineConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return read_config(path.read_bytes(), path)


def read_config(data: bytes, path: str | Path) -> PipelineConfig:
    """The config the bytes ``data`` of the file ``path`` hold; a
    ConfigError, naming ``path``, if they are not UTF-8 or not a config."""
    try:
        return parse_config(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 ({exc})") from None
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def config_text(config: PipelineConfig) -> str:
    """Render a config back to the accepted grammar (used for bundle snapshots)."""
    lines = [f'language: "{config.language}"', "pipeline:"]
    for spec in config.components:
        lines.append(f'- name: "{spec.name}"')
        for key, value in spec.params.items():
            if isinstance(value, bool):
                rendered = "true" if value else "false"
            elif isinstance(value, str):
                rendered = f'"{value}"'
            else:
                rendered = repr(value)
            lines.append(f"  {key}: {rendered}")
    return "\n".join(lines) + "\n"


def build_components(config: PipelineConfig) -> list[Component]:
    """Instantiate the configured components and :func:`check_pipeline`
    them; instantiation itself rejects unknown parameters."""
    components = [create(spec.name, spec.params) for spec in config.components]
    check_pipeline(components)
    return components


def check_pipeline(components: list[Component]) -> None:
    """Refuse, with a ConfigError naming the component, a pipeline that
    lists a component twice, puts one ahead of what provides its inputs, or
    has one whose ``lowercase`` differs from the tokenizer's: the tokenizer
    alone decides what a token is, so every other flag must agree with it.
    """
    provided: set[str] = set()
    seen: set[str] = set()
    lowercase = None  # the flag of the component that provides TOKENS
    for comp in components:
        if comp.name in seen:
            raise ConfigError(f"component {comp.name!r} listed twice")
        seen.add(comp.name)
        for key in comp.requires:
            if key not in provided:
                raise ConfigError(
                    f"component {comp.name!r} requires annotation {key!r}, "
                    f"which nothing earlier in the pipeline provides"
                )
        provided.update(comp.provides)
        if TOKENS in comp.provides:
            lowercase = comp.params.get("lowercase")
        elif comp.params.get("lowercase", lowercase) != lowercase:
            raise ConfigError(
                f"component {comp.name!r} has lowercase {comp.params['lowercase']}, "
                f"but the tokenizer has {lowercase}: every lowercase must equal the tokenizer's"
            )


def key_owners(components: list[Component]) -> dict[str, str]:
    """Canonical writer per annotation key: the last provider in order."""
    owners: dict[str, str] = {}
    for comp in components:
        for key in comp.provides:
            owners[key] = comp.name
    return owners


def default_config() -> PipelineConfig:
    """The shipped five-component pipeline, both intent strategies active."""
    return PipelineConfig(
        language="en",
        components=[
            ComponentSpec("tokenizer_whitespace"),
            ComponentSpec("featurizer_count_vectors"),
            ComponentSpec("intent_sium"),
            ComponentSpec("entity_tagger_sequence"),
            ComponentSpec("intent_classifier_bow"),
        ],
    )
