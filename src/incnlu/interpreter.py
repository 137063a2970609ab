"""The incremental interpreter: train, stream edits, persist, reload.

One interpreter is one utterance session over a trained component chain.
Its board always holds what the components publish for the board's
prefix: a new utterance publishes the empty prefix, and every edit is
pushed through the eager components in pipeline order before the next
edit is accepted, so downstream components always see upstream
annotations for the current hypothesis, never a stale one. A component
that declares keys and owns none of them, as SIUM beside the BoW
classifier and the tagger in the default pipeline, is shadowed: no caller
of ``parse_incremental`` sees its outputs, so it runs when its view is
read (:meth:`IncrementalInterpreter.component_result`), not on every edit.
Its state follows the buffer at any lag, and each processed edit drops its
view from the board, so a board holds a shadowed view only for its own
prefix, bit-equal to a lock-step run's.

Revoking a unit also revokes the output it grounded (Schlangen & Skantze,
EACL 2009), so a REVOKE right after an ADD gives back what was published
before that ADD, the empty prefix's publication too. The annotation map
an edit replaces is its record. An ADD keeps its record one ADD deep,
and a REVOKE of its unit restores it without calling any component.
Incremental ASR also often revokes a word only to put the same word back
(Baumann, Atterer & Schlangen, NAACL-HLT 2009), so each REVOKE parks its
record, with its word, on a redo stack at most REDO_DEPTH deep. An ADD of
the top record's word republishes that record, again calling no
component; any other ADD, and a new utterance, clear the stack. Every
output is a function of the surviving words, and a record is reachable
only while every word below it is unchanged, so both give back exactly
what the components would publish, a shadowed view too if the board held
one. The tagger publishes the lattice columns its next edit resumes
from, so a board given back hands them back too. Only SIUM, shadowed in the default
pipeline, still lags the board, in either direction: it follows the
buffer at any lag, and its next ``process`` call brings it in line.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path

from .components import Component, TrainingContext
from .config import (
    ComponentSpec, PipelineConfig, build_components, check_pipeline, config_text, key_owners, read_config,
)
from .data import TrainingDataset
from .errors import BundleError, ConfigError, DataError
from .features import tokenize
from .iu import ADD, ENTITIES, INTENT_DISTRIBUTION, Blackboard, EditType, IncrementalUnit
from .registry import REGISTRY
from .results import NluResult

SCHEMA_VERSION = 9
MANIFEST_NAME = "manifest.json"
CONFIG_NAME = "config.yml"
# Records the redo stack keeps; a deeper REVOKE run drops the oldest, and
# the ADDs that reach past them run the components.
REDO_DEPTH = 4


def _result(ranking: tuple, entities: tuple) -> NluResult:
    """An NluResult holding the published ranking and entities themselves."""
    return NluResult(ranking[0][0] if ranking else "", ranking, entities)


def _bundle_files(directory: str, parts: tuple[str, ...] = ()):
    """(relative path parts, path) of every file below ``directory`` but the
    manifest at its root, unsorted. A symbolic link to a directory is not
    followed."""
    with os.scandir(directory) as entries:
        for entry in entries:
            if entry.is_dir():
                if not entry.is_symlink():
                    yield from _bundle_files(entry.path, (*parts, entry.name))
            elif parts or entry.name != MANIFEST_NAME:
                yield (*parts, entry.name), entry.path


def _read_bundle(root: Path) -> dict[tuple[str, ...], bytes]:
    """The bytes of every file below ``root`` but the manifest at its root,
    by relative path parts; each file is opened once."""
    files = {}
    for parts, path in _bundle_files(root):
        with open(path, "rb") as f:
            files[parts] = f.read()
    return files


def _bundle_checksum(files: dict[tuple[str, ...], bytes]) -> str:
    """Digest over the bytes of :func:`_read_bundle`, in the order of their
    relative paths' parts."""
    digest = hashlib.sha256()
    for parts in sorted(files):
        digest.update(os.path.join(*parts).encode("utf-8"))
        digest.update(b"\0")
        digest.update(files[parts])
        digest.update(b"\0")
    return digest.hexdigest()


class IncrementalInterpreter:
    """Lock-step pipeline runner over a blackboard; shadowed components run
    when their view is read."""

    def __init__(self, config: PipelineConfig, components: list[Component] | None = None) -> None:
        self.config = config
        # Components given are trained (loaded or copied); built ones are not.
        self.is_trained = components is not None
        if self.is_trained:
            check_pipeline(components)
        else:
            components = build_components(config)
        self.components = components
        owners = key_owners(self.components)
        self.board = Blackboard(owners)
        # A component that declares keys and owns none of them is shadowed:
        # it runs when its view is read. The others run on every edit.
        shadowed = [
            c for c in self.components
            if c.provides and all(owners[key] != c.name for key in c.provides)
        ]
        self._eager = tuple(c for c in self.components if c not in shadowed)
        # Each shadowed component with its first key, and all their keys.
        self._shadowed = tuple((c, (c.name, c.provides[0])) for c in shadowed)
        self._shadowed_keys = tuple((c.name, key) for c in shadowed for key in c.provides)
        # (unit, record) of the last edit if it was an ADD of that unit.
        self._before_add: tuple[IncrementalUnit, dict] | None = None
        # (word, record) of each REVOKE since the last ADD that was no redo,
        # the newest last and at most REDO_DEPTH.
        self._redo: list[tuple[str, dict]] = []
        self.training_timings: list[tuple[str, float]] = []
        self.training_info: dict = {}
        if self.is_trained:
            self.refresh()

    # -- training ------------------------------------------------------

    def train(self, dataset: TrainingDataset, seed: int = 13) -> None:
        """Train every component in order, then start a new utterance, as
        training drops the components' session state. ``seed`` is only
        recorded, as the manifest's ``training.seed``; components read their
        own ``seed`` param."""
        if not dataset.examples:
            raise DataError("cannot train on an empty dataset")
        ctx = TrainingContext(dataset=dataset, seed=seed)
        self.training_timings = []
        for comp in self.components:
            started = time.perf_counter()
            comp.train(dataset, ctx)
            self.training_timings.append((comp.name, time.perf_counter() - started))
        self.is_trained = True
        self.training_info = {
            "examples": len(dataset.examples),
            "intents": dataset.intents,
            "seed": seed,
        }
        self.new_utterance()

    # -- parsing -------------------------------------------------------

    def parse_incremental(self, edit: EditType, word: str | None = None) -> NluResult:
        """Apply one edit, run every eager component on it, return the result.

        The edit drops the shadowed components' views from the board, and
        none of them runs. A REVOKE of the unit the last edit added restores
        that ADD's record instead, and an ADD of the word the last parked
        REVOKE took back republishes that REVOKE's record; neither calls a
        component. An edit the board refuses keeps every record.
        """
        board, redo = self.board, self._redo
        unit = board.apply_edit(edit, word)
        # The map this edit replaces: its record.
        record = board.annotations
        kept, self._before_add = self._before_add, None
        if edit is ADD and redo and redo[-1][0] == word:  # a redo
            board.republish(redo.pop()[1])
        elif kept is not None and kept[0] is unit:  # a REVOKE of the unit just added
            board.republish(kept[1])
        else:
            if edit is ADD:
                redo.clear()
            board.begin_cycle(self._shadowed_keys)
            try:
                for comp in self._eager:
                    # On REVOKE the affected word is the revoked unit's, not
                    # the caller's (REVOKE takes no payload).
                    comp.process(board, edit, unit.word)
            except BaseException:
                # The words below each record have changed.
                redo.clear()
                raise
        if edit is ADD:
            self._before_add = unit, record
        else:
            if len(redo) == REDO_DEPTH:
                del redo[0]
            redo.append((unit.word, record))
        return self.current_result()

    def new_utterance(self) -> None:
        """Drop the utterance and publish the empty prefix."""
        self._before_add = None
        self._redo.clear()
        self.board.clear()
        for comp in self.components:
            comp.new_utterance()
        self.refresh()

    def parse_full(self, utterance: str) -> NluResult:
        """Stream every word of ``utterance`` into a new utterance, as
        ``parse_incremental`` ADDs, and return the result."""
        self.new_utterance()
        for word in tokenize(utterance, lowercase=False):
            self.parse_incremental(ADD, word)
        return self.current_result()

    def refresh(self) -> NluResult:
        """Re-publish every eager component's current annotations, consuming
        no edit, and drop the shadowed ones' views, as an edit does.

        The board already holds its prefix's publication, so this repeats
        the last result.
        """
        self.board.begin_cycle(self._shadowed_keys)
        for comp in self._eager:
            comp.process(self.board)
        return self.current_result()

    def current_result(self) -> NluResult:
        notes = self.board.annotations
        return _result(notes.get(INTENT_DISTRIBUTION, ()), notes.get(ENTITIES, ()))

    def component_result(self, name: str) -> NluResult:
        """One component's own view, regardless of annotation ownership.

        A shadowed component first runs on the board if that holds no view
        of it yet. The view is then the one a lock-step run publishes for
        the board's prefix, bit for bit, the empty prefix's too. A name
        outside the pipeline is a ConfigError.
        """
        if all(comp.name != name for comp in self.components):
            raise ConfigError(f"no component {name!r} in the pipeline")
        board = self.board
        for comp, key in self._shadowed:
            # A component writes its keys together, and an edit drops them so.
            if comp.name == name and key not in board.annotations:
                comp.process(board)
        return _result(board.published(name, INTENT_DISTRIBUTION, ()), board.published(name, ENTITIES, ()))

    def fresh_copy(self) -> "IncrementalInterpreter":
        """New session over the same trained models, no shared mutable state."""
        clone = IncrementalInterpreter(self.config, [c.fresh() for c in self.components])
        clone.training_info = dict(self.training_info)
        return clone

    # -- persistence ---------------------------------------------------

    def persist(self, path: str | Path) -> Path:
        if not self.is_trained:
            raise BundleError("refusing to persist an untrained pipeline")
        root = Path(path)
        # A file left in the directory would be inside the new bundle, checksummed.
        if root.exists() and (not root.is_dir() or any(root.iterdir())):
            raise BundleError(f"refusing to persist into {root}: it exists and is not an empty directory")
        root.mkdir(parents=True, exist_ok=True)
        # Every parameter, defaults included: the bundle keeps them nowhere else.
        resolved = PipelineConfig(
            self.config.language,
            [ComponentSpec(comp.name, dict(comp.params)) for comp in self.components],
        )
        (root / CONFIG_NAME).write_text(config_text(resolved), encoding="utf-8")
        for comp in self.components:
            sub = root / comp.name
            sub.mkdir(exist_ok=True)
            comp.persist(sub)
        manifest = {
            "schema_version": SCHEMA_VERSION,
            "language": self.config.language,
            "components": [comp.name for comp in self.components],
            "training": self.training_info,
            "checksum": _bundle_checksum(_read_bundle(root)),
        }
        (root / MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        return root


def load(path: str | Path) -> IncrementalInterpreter:
    """Load a persisted bundle, verifying schema version and file integrity.

    The load reads every file of the bundle once, verifies the manifest's
    checksum over those bytes, and builds the config and every component
    from them: each component gets the verified bytes of its directory by
    file name, and opens no file. So a file rewritten during the load
    cannot reach the model unverified. A table file holds only its values,
    so a component takes their count from its names files, and a file of
    any other size is a BundleError naming the component, as is a bundle
    of another schema, such as a schema-8 one of ``.npy`` files. The loaded
    components then pass the pipeline check that ``train`` runs on its
    config (:func:`check_pipeline`).
    """
    root = Path(path)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.exists():
        raise BundleError(f"no {MANIFEST_NAME} in {root}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not JSON, or not UTF-8
        raise BundleError(f"{manifest_path}: not valid JSON ({exc})") from exc
    if not isinstance(manifest, dict):
        raise BundleError(f"{manifest_path}: not a JSON object")
    training = manifest.get("training", {})
    if not isinstance(training, dict):
        raise BundleError(f"{manifest_path}: its 'training' is not a JSON object")
    version = manifest.get("schema_version")
    if version != SCHEMA_VERSION:
        raise BundleError(
            f"bundle schema version {version!r}, expected {SCHEMA_VERSION}"
        )
    files = _read_bundle(root)
    if manifest.get("checksum") != _bundle_checksum(files):
        raise BundleError(f"bundle files do not match manifest checksum in {root}")

    config_path = root / CONFIG_NAME
    config_data = files.get((CONFIG_NAME,))
    if config_data is None:
        raise ConfigError(f"config file not found: {config_path}")
    config = read_config(config_data, config_path)
    # Each component directory's files, by name.
    model_files: dict[str, dict[str, bytes]] = {}
    for parts, data in files.items():
        if len(parts) == 2:
            model_files.setdefault(parts[0], {})[parts[1]] = data
    names = [spec.name for spec in config.components]
    if names != manifest.get("components"):
        raise BundleError("manifest component list does not match bundle config")
    components = []
    for spec in config.components:
        if spec.name not in REGISTRY:
            raise BundleError(f"bundle config names unknown component {spec.name!r}")
        try:
            comp = REGISTRY[spec.name].load(model_files.get(spec.name, {}), spec.params)
            comp.check_loaded(components)
        except (ValueError, KeyError, IndexError, OSError, DataError) as exc:
            raise BundleError(
                f"bundle component {spec.name!r}: unreadable model file ({type(exc).__name__}: {exc})"
            ) from exc
        components.append(comp)
    interp = IncrementalInterpreter(config, components)
    interp.training_info = dict(training)
    return interp


def train_pipeline(config: PipelineConfig, dataset: TrainingDataset, seed: int = 13) -> IncrementalInterpreter:
    """Build and train a pipeline on a copy of ``config`` in which every
    component that takes a ``seed`` and whose spec pins none takes
    ``seed``; the manifest records it as ``training.seed``. ``config``
    itself is left as it is."""
    specs = [ComponentSpec(spec.name, dict(spec.params)) for spec in config.components]
    for spec in specs:
        cls = REGISTRY.get(spec.name)
        if cls is not None and "seed" in cls.defaults:
            spec.params.setdefault("seed", seed)
    interp = IncrementalInterpreter(PipelineConfig(config.language, specs))
    interp.train(dataset, seed=seed)
    return interp
