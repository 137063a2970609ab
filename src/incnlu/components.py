"""Base contract every pipeline component implements.

Components are trained once, sequentially, each seeing what earlier
components derived from the training data (via :class:`TrainingContext`).
At parse time they run in lock-step: each edit is pushed through every
eager component, in pipeline order, before the next edit enters the
pipeline. A component that declares keys and owns none of them is
shadowed: it runs when its view is read, and its view is then the one a
lock-step run publishes, bit for bit. Every component publishes to the
board's one annotation map, and the map a publication replaced is the
record the interpreter gives back.

Every model file of a bundle takes one of two forms, each written and read
here: a names file, one entry a line, and a sparse integer table of three
``.npy`` files.
"""

from __future__ import annotations

import copy
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from .errors import BundleError, ConfigError, ParameterError
from .iu import Blackboard, EditType

if TYPE_CHECKING:  # pragma: no cover
    from .data import TrainingDataset
    from .features import Vocabulary


@dataclass
class TrainingContext:
    """Carries one component's training output forward to the next.

    The tokenizer fills ``tokens``, one token list per training example;
    the featurizer fills ``vocabulary``. No component reads ``seed``, which
    the manifest records; each reads its own ``seed`` parameter instead.
    """

    dataset: "TrainingDataset"
    seed: int
    tokens: list[list[str]] | None = None
    vocabulary: "Vocabulary | None" = None


class Component:
    """One stage of the incremental pipeline.

    Subclasses set ``name`` (the registry key), ``provides`` (annotation
    keys they write), ``requires`` (annotation keys that must be written by
    an earlier component), and ``defaults`` (parameter defaults). Parameters
    given at construction are validated against ``defaults``: each must be
    known and have its default's type (or be an int where a float is due),
    and a float must be finite.

    ``process`` is called once per edit with the edit type and the raw word
    involved (the added word, or the word just revoked). The lock-step
    pipeline hands every edit to every eager component: one that declares
    no key, or owns at least one of those it declares (the last provider
    of a key owns it). A shadowed component, whose every key a later one
    provides, is instead called with ``edit=None`` when its view is read,
    on a board it may lag by any number of edits. A call with
    ``edit=None`` consumes no edit: the component publishes the
    annotations of the board's prefix. The interpreter also calls every
    eager component so when an utterance starts, to publish its empty
    prefix.

    A component publishes only immutable values: tuples, and arrays that
    are not writeable, inside a tuple too. The board is then the record of
    what it published, and a component computes its next output from the
    board, reading its own last publication with
    ``board.published(self.name, key)``. The interpreter gives back boards
    without calling any component: a REVOKE right after an ADD restores
    the board from before that ADD, and an ADD of the word a REVOKE just
    took back republishes the board that REVOKE took. ``process`` must
    still handle such edits, as a caller that runs every edit through it
    may call it. A component that publishes what its next edit resumes
    from gets it back with the board: the tagger publishes the last
    columns of its newest positions with its path, and its back-pointer
    rows and checkpoints hold for every board the interpreter can give
    back. Only SIUM, shadowed in the default pipeline, still lags the
    board: its state may hold words the board took back, or lack words a
    redo put back, and its next ``process`` call drops the ones the buffer
    no longer holds and adds those it lacks, as it follows the buffer by
    unit identity at any lag.

    After ``new_utterance`` a component must behave exactly like a freshly
    loaded instance.
    """

    name: str = ""
    provides: tuple[str, ...] = ()
    requires: tuple[str, ...] = ()
    defaults: dict[str, Any] = {}

    def __init__(self, params: dict[str, Any] | None = None) -> None:
        params = dict(params or {})
        unknown = set(params) - set(self.defaults)
        if unknown:
            raise ConfigError(
                f"component {self.name!r} does not accept parameter(s): "
                + ", ".join(sorted(unknown))
            )
        for key, value in params.items():
            if not _same_kind(value, self.defaults[key]):
                raise ConfigError(
                    f"component {self.name!r} parameter {key!r} must be "
                    f"{type(self.defaults[key]).__name__}, got {value!r}"
                )
            if isinstance(value, float) and not math.isfinite(value):
                raise ParameterError(
                    f"component {self.name!r} parameter {key!r} must be finite, got {value!r}"
                )
        self.params: dict[str, Any] = {**self.defaults, **params}

    def train(self, dataset: "TrainingDataset", ctx: TrainingContext) -> None:
        pass

    def process(
        self, board: Blackboard, edit: EditType | None = None, word: str | None = None
    ) -> None:
        raise NotImplementedError

    def new_utterance(self) -> None:
        pass

    def persist(self, directory: Path) -> None:
        """Write the trained model files; parameters live in the bundle config."""

    @classmethod
    def load(cls, directory: Path, params: dict[str, Any]) -> "Component":
        """Rebuild from ``params`` and the model files ``persist`` wrote."""
        return cls(params)

    def check_loaded(self, upstream: list["Component"]) -> None:
        """Raise ValueError if the loaded model cannot read what the
        components ahead of it in the bundle publish."""

    def fresh(self) -> "Component":
        """A state-free copy sharing this component's trained model."""
        clone = copy.copy(self)
        clone.new_utterance()
        return clone


def _same_kind(value: Any, default: Any) -> bool:
    if isinstance(value, bool) != isinstance(default, bool):
        return False
    return isinstance(value, (int, float) if isinstance(default, float) else type(default))


def write_npy(path: Path, array: np.ndarray, dtype: str | np.dtype) -> None:
    """Write ``array`` as ``dtype``, C-ordered, to a version 1.0 ``.npy`` file."""
    with path.open("wb") as f:
        np.lib.format.write_array(
            f, np.ascontiguousarray(array, dtype=dtype), version=(1, 0), allow_pickle=False
        )


def read_npy(path: Path, dtype: str | np.dtype, ndim: int) -> np.ndarray:
    """The array of a version 1.0 ``.npy`` file that holds one ``ndim``-D
    array of exactly ``dtype`` and nothing else, or a ValueError.

    The header's shape is checked against the bytes the file holds before
    any array is allocated, so a crafted header cannot ask for more memory
    than the file's own size. Nothing is unpickled.
    """
    dtype = np.dtype(dtype)
    with path.open("rb") as f:
        # A ValueError for an empty file, an .npz or any other non-.npy.
        version = np.lib.format.read_magic(f)
        if version != (1, 0):
            raise ValueError(f"{path.name} is .npy format version {version}, not (1, 0)")
        shape, fortran_order, found = np.lib.format.read_array_header_1_0(f)
        if found != dtype or len(shape) != ndim or any(side < 0 for side in shape):
            raise ValueError(
                f"{path.name} holds a {found.str} array of shape {shape}, "
                f"not a {ndim}-D {dtype.str} one"
            )
        count = math.prod(shape)
        needed = count * dtype.itemsize
        held = os.fstat(f.fileno()).st_size - f.tell()
        if held != needed:
            raise ValueError(
                f"{path.name}'s shape {shape} needs {needed} bytes of values, not the {held} it holds"
            )
        values = np.fromfile(f, dtype=dtype, count=count)
    return values.reshape(shape, order="F" if fortran_order else "C")


def _distinct(names: list[str]) -> bool:
    return "" not in names and len(set(names)) == len(names)


def write_names(path: Path, names: list[str]) -> None:
    """Write ``names`` one a line, or raise a BundleError if they would not
    read back as they are: non-empty, distinct and free of line breaks."""
    text = "".join(f"{name}\n" for name in names)
    if text.splitlines() != names or not _distinct(names):
        raise BundleError(f"{path.name} cannot hold these names one a line: {names!r}")
    path.write_text(text, encoding="utf-8")


def read_names(path: Path) -> list[str]:
    """The names of a file ``write_names`` wrote, or a ValueError if one is
    empty or named twice."""
    names = path.read_text(encoding="utf-8").splitlines()
    if not _distinct(names):
        raise ValueError(f"{path.name} names an entry twice, or an empty one")
    return names


def _index_dtype(n_cols: int) -> np.dtype:
    """The smallest unsigned type that holds ``n_cols``: one byte up to 255."""
    return np.min_scalar_type(n_cols).newbyteorder("<")


def write_rows(directory: Path, table: np.ndarray) -> None:
    """Write the nonzero cells of the 2-D integer ``table``, row by row, to
    three ``.npy`` files: ``widths.npy`` the count of each row's cells,
    ``index.npy`` each cell's column, ascending within its row, both in the
    smallest unsigned type that holds the column count, and ``values.npy``
    the values as little-endian int32. A value outside int32 is a
    BundleError."""
    if table.size and not -2**31 <= table.min() <= table.max() < 2**31:
        raise BundleError(f"{directory.name}: a value is outside int32")
    rows, index = np.nonzero(table)  # row by row, so each row's columns ascend
    dtype = _index_dtype(table.shape[1])
    write_npy(directory / "widths.npy", np.count_nonzero(table, axis=1), dtype)
    write_npy(directory / "index.npy", index, dtype)
    write_npy(directory / "values.npy", table[rows, index], "<i4")


def read_rows(directory: Path, shape: tuple[int, int]) -> np.ndarray:
    """The int64 table of ``shape`` whose nonzero cells ``write_rows`` wrote
    to ``directory``, or a ValueError if the files do not hold exactly one
    such table."""
    n_rows, n_cols = shape
    dtype = _index_dtype(n_cols)
    widths = read_npy(directory / "widths.npy", dtype, 1)
    index = read_npy(directory / "index.npy", dtype, 1)
    values = read_npy(directory / "values.npy", "<i4", 1)
    if widths.size != n_rows:
        raise ValueError(f"widths.npy has {widths.size} widths for {n_rows} rows")
    n_cells = int(widths.sum(dtype=np.int64))
    if not n_cells == index.size == values.size:
        raise ValueError(f"the widths sum to {n_cells}, against {index.size} column indices "
                         f"and {values.size} values")
    if index.size and index.max() >= n_cols:
        raise ValueError(f"a column index is outside 0..{n_cols - 1}")
    if not values.all():
        raise ValueError("a value is zero")
    # Each value goes to its (row, column) cell. A row's cells lie below the
    # next row's, so the cells ascend exactly when every row's columns do.
    cells = np.repeat(np.arange(n_rows) * n_cols, widths) + index
    if (np.diff(cells) <= 0).any():
        raise ValueError("a row's column indices do not ascend")
    table = np.zeros(shape, dtype=np.int64)
    table.ravel()[cells] = values
    return table
