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
here: a names file, one entry a line, and a table file, which holds only
its values, little-endian in C order, and is named for their type
(``weights.f8``). Its shape is the bundle's to say: the names files fix
it, and a sparse integer table is three such files. A component writes
its files to a directory, and is built
again from their bytes: :func:`incnlu.load` reads each bundle file once,
verifies the checksum over those bytes and hands every component the
verified bytes of its directory, so no component opens a file.
"""

from __future__ import annotations

import copy
import math
import os
from collections.abc import Mapping
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

    The tokenizer fills ``tokens``, one token list per training example,
    ``tags``, their BIO tags, and ``lowercase``, its own flag, by which
    they were made; every later component trains from those, and tokenizes
    no text. The featurizer fills ``vocabulary``. No component reads
    ``seed``, which the manifest records; each reads its own ``seed``
    parameter instead.
    """

    dataset: "TrainingDataset"
    seed: int
    tokens: list[list[str]] | None = None
    tags: list[list[str]] | None = None
    lowercase: bool | None = None
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
    def load(cls, files: Mapping[str, bytes] | str | os.PathLike, params: dict[str, Any]) -> "Component":
        """Rebuild from ``params`` and the model files ``persist`` wrote.

        ``files`` maps the name of each file in the component's directory to
        its bytes, as :func:`incnlu.load` hands over the bytes the bundle
        checksum verified; the component builds itself from those and opens
        no file. A file it needs and ``files`` lacks is a KeyError. Given a
        directory instead, it reads that directory's files first.
        """
        comp = cls(params)
        if not isinstance(files, Mapping):
            files = {entry.name: Path(entry.path).read_bytes() for entry in os.scandir(files) if entry.is_file()}
        comp.restore(files)
        return comp

    def restore(self, files: Mapping[str, bytes]) -> None:
        """Take the trained model from the bytes of the files ``persist``
        wrote, by file name; raise a ValueError or KeyError if they do not
        hold one."""

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


def write_values(directory: Path, stem: str, values: np.ndarray, dtype: str | np.dtype) -> None:
    """Write ``values`` as little-endian ``dtype``, in C order, and nothing
    else, to the file ``stem`` named for its type: ``values.i4``,
    ``weights.f8``, ``index.u1``."""
    dtype = np.dtype(dtype).newbyteorder("<")
    (directory / f"{stem}.{dtype.str[1:]}").write_bytes(np.asarray(values, dtype).tobytes())


def read_values(files: Mapping[str, bytes], stem: str, dtype: str | np.dtype, shape: tuple[int, ...]) -> np.ndarray:
    """The values ``write_values`` wrote to ``stem`` as ``dtype``, as a
    read-only view of ``shape`` over the file's bytes, or a ValueError if
    the file holds any other number of bytes. A first side of -1 takes any
    whole number of rows.

    The file's size is checked before the view is made, so no count is
    taken from the file itself.
    """
    dtype = np.dtype(dtype).newbyteorder("<")
    name = f"{stem}.{dtype.str[1:]}"
    data = files[name]
    row = math.prod(shape[1:]) * dtype.itemsize
    if shape[0] == -1 and row:
        shape = (len(data) // row, *shape[1:])
    if len(data) != shape[0] * row:
        raise ValueError(f"{name} holds {len(data)} bytes, not {shape[0]} × {row}")
    return np.frombuffer(data, dtype).reshape(shape)


def _distinct(names: list[str]) -> bool:
    return "" not in names and len(set(names)) == len(names)


def write_names(path: Path, names: list[str]) -> None:
    """Write ``names`` one a line, or raise a BundleError if they would not
    read back as they are: non-empty, distinct and free of line breaks."""
    text = "".join(f"{name}\n" for name in names)
    if text.splitlines() != names or not _distinct(names):
        raise BundleError(f"{path.name} cannot hold these names one a line: {names!r}")
    path.write_text(text, encoding="utf-8")


def read_names(files: Mapping[str, bytes], name: str) -> list[str]:
    """The names of the file ``files[name]`` that ``write_names`` wrote, or
    a ValueError if it is not UTF-8 or names an entry twice or an empty
    one."""
    names = files[name].decode("utf-8").splitlines()
    if not _distinct(names):
        raise ValueError(f"{name} names an entry twice, or an empty one")
    return names


def write_rows(directory: Path, table: np.ndarray) -> None:
    """Write the nonzero cells of the 2-D integer ``table``, row by row, to
    three files: ``widths`` the count of each row's cells, ``index`` each
    cell's column, ascending within its row, both in the smallest unsigned
    type that holds the column count, and ``values.i4`` the values as
    int32. A value outside int32 is a BundleError."""
    if table.size and not -2**31 <= table.min() <= table.max() < 2**31:
        raise BundleError(f"{directory.name}: a value is outside int32")
    rows, index = np.nonzero(table)  # row by row, so each row's columns ascend
    dtype = np.min_scalar_type(table.shape[1])  # one byte up to 255 columns
    write_values(directory, "widths", np.count_nonzero(table, axis=1), dtype)
    write_values(directory, "index", index, dtype)
    write_values(directory, "values", table[rows, index], "i4")


def read_rows(files: Mapping[str, bytes], shape: tuple[int, int]) -> np.ndarray:
    """The int64 table of ``shape`` whose nonzero cells ``write_rows`` wrote
    to the three files of ``files``, or a ValueError if they do not hold
    exactly one such table: a width for each row, then as many column
    indices and values as the widths sum to."""
    n_rows, n_cols = shape
    dtype = np.min_scalar_type(n_cols)
    widths = read_values(files, "widths", dtype, (n_rows,))
    n_cells = int(widths.sum(dtype=np.int64))
    index = read_values(files, "index", dtype, (n_cells,))
    values = read_values(files, "values", "i4", (n_cells,))
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
