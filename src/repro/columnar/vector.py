"""Typed column vectors with explicit null masks.

A vector is ``count`` SQL values stored as a NumPy array plus an
explicit null mask (``None``, or a bool array that is True where the row
is NULL) replacing the ``None``-in-object-list convention. Strings are
dictionary-encoded: an int64 codes array plus the block's value
dictionary, with code ``-1`` marking NULL, so equality, LIKE and IN can
run over the (small) dictionary instead of every row.

The contract every consumer relies on:

* ``vec[i]``, ``iter(vec)`` and ``vec.tolist()`` yield **Python**
  scalars (``int``/``float``/``str``/``bool``/``None``) — never NumPy
  scalars. Row hashing (``hash_values`` reprs values) and the row/batch
  differential tests depend on exact Python types.
* Vectors are read-only by convention: kernels build new vectors, they
  never mutate inputs (a projection may alias an input column).

A vector exists only where NumPy does, and NumPy is imported only when
the first vector is built. Importing this module imports nothing heavy:
the constructors (``int_vector``, ``float_vector``, ``bool_vector``,
``numeric_from_bytes``, ``numeric_from_packed``, ``dict_vector``,
``dict_vector_at``) call
:func:`numpy_module`, which imports NumPy on its first call. Only a CO
or Parquet read or write calls them; an AO block decodes to plain lists
and never asks, so a process that reads only AO tables never loads
NumPy. Without NumPy (not installed, ``REPRO_NO_NUMPY=1``, or
``_np = None`` monkeypatched in a test) a constructor returns the plain
list of the same Python values, ``None`` for NULL — what an AO block's
columns are on every platform, and what every consumer of a column
already takes.
"""

from __future__ import annotations

import importlib.util
import os
import struct
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator, List, Optional, Sequence

#: Whether this platform has the typed backend: NumPy is installed and
#: ``REPRO_NO_NUMPY`` is unset. Reading it imports nothing.
NUMPY_AVAILABLE = (
    not os.environ.get("REPRO_NO_NUMPY")
    and importlib.util.find_spec("numpy") is not None
)

_UNLOADED = object()
#: ``_UNLOADED`` until :func:`numpy_module` first runs, then the NumPy
#: module, or ``None`` on a platform without it.
_np = _UNLOADED


def numpy_module():
    """The NumPy module, imported on the first call, or None on a
    platform without it.

    Every vector constructor calls it, so NumPy loads with the first
    typed column and never before. A kernel calls it only once an
    operand is a :class:`Vector`, when it is loaded already. Tests
    monkeypatch ``vector._np = None`` to stand the NumPy-less platform
    up: constructors hand out lists and every kernel takes its generic
    arm.
    """
    global _np
    if _np is _UNLOADED:
        _np = None
        if NUMPY_AVAILABLE:
            import numpy

            _np = numpy
    return _np


class Vector:
    """Base class: ndarray + optional null mask + cached tolist."""

    __slots__ = ("data", "mask", "_values")

    def __init__(self, data, mask=None):
        self.data = data
        #: None (no NULLs) or a bool ndarray, True where the row is NULL.
        self.mask = mask
        self._values: Optional[list] = None

    # --------------------------------------------------- sequence protocol
    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, i):
        mask = self.mask
        if mask is not None and mask[i]:
            return None
        return self.data[i].item()

    def __iter__(self) -> Iterator[object]:
        return iter(self.tolist())

    def tolist(self) -> list:
        """Materialize (and cache) the Python-value view of the vector."""
        values = self._values
        if values is None:
            values = self._materialize()
            self._values = values
        return values

    # ------------------------------------------------------------ helpers
    @property
    def has_nulls(self) -> bool:
        mask = self.mask
        return mask is not None and bool(mask.any())

    def take(self, sel: Sequence[int]) -> "Vector":
        """New same-typed vector of the rows selected by ``sel``."""
        idx = _np.asarray(sel, dtype=_np.intp)
        mask = self.mask
        return type(self)(self.data[idx], None if mask is None else mask[idx])

    def gather(self, sel: Sequence[int]) -> list:
        """Python values of the selected rows (late materialization)."""
        values = self._values
        if values is not None:
            return [values[i] for i in sel]
        return self.take(sel).tolist()

    def _materialize(self) -> list:
        values = self.data.tolist()
        mask = self.mask
        if mask is not None:
            values = [
                None if null else value
                for value, null in zip(values, mask.tolist())
            ]
        return values


class IntVector(Vector):
    """int64 values (INT4/INT8 columns and integer kernel results)."""


class FloatVector(Vector):
    """float64 values (FLOAT8/DECIMAL columns and float kernel results)."""


class BoolVector(Vector):
    """Three-valued booleans: data is the truth value, mask marks NULL.

    The representation of predicate results on the fast path; iterating
    yields exactly ``True``/``False``/``None``.
    """


class DictVector(Vector):
    """Dictionary-encoded strings: codes + per-block value dictionary.

    ``data`` holds int64 codes (``-1`` is NULL — no separate mask), and
    ``dictionary[code]`` the decoded string. The dictionary's str
    objects are shared by every materialized row, so flowing a dict
    column through filter/group/join costs no per-row decoding.
    """

    __slots__ = ("dictionary",)

    def __init__(self, codes, dictionary: List[str]):
        super().__init__(codes, None)
        self.dictionary = dictionary

    def __getitem__(self, i):
        code = self.data[i]
        if code < 0:
            return None
        return self.dictionary[code]

    def _materialize(self) -> list:
        dictionary = self.dictionary
        return [None if c < 0 else dictionary[c] for c in self.data.tolist()]

    @property
    def has_nulls(self) -> bool:
        return bool((self.data < 0).any())

    def take(self, sel: Sequence[int]) -> "DictVector":
        idx = _np.asarray(sel, dtype=_np.intp)
        return DictVector(self.data[idx], self.dictionary)


class ConstVector:
    """A constant repeated ``n`` times without materializing a list.

    Compiled constants (literals, InitPlan params, undecoded-column NULL
    placeholders) return this; kernels can recognize it to specialize
    vector-vs-scalar operations.
    """

    __slots__ = ("value", "n")

    def __init__(self, value, n: int):
        self.value = value
        self.n = n

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i):
        return self.value

    def __iter__(self) -> Iterator[object]:
        value = self.value
        for _ in range(self.n):
            yield value

    def tolist(self) -> list:
        return [self.value] * self.n

    def take(self, sel: Sequence[int]) -> "ConstVector":
        return ConstVector(self.value, len(sel))

    def gather(self, sel: Sequence[int]) -> list:
        return [self.value] * len(sel)


# ------------------------------------------------------------- constructors
def _column(kind, dtype: str, values: Sequence[object], mask):
    """A ``kind`` vector over ``values`` — without NumPy, the list of
    the same values with ``None`` wherever ``mask`` says NULL."""
    np = numpy_module()
    if np is None:
        if mask is None:
            return list(values)
        return [None if null else value for value, null in zip(values, mask)]
    return kind(
        np.array(values, dtype=dtype),
        None if mask is None else np.asarray(mask, dtype=bool),
    )


def int_vector(values: Sequence[int], mask=None):
    """IntVector from Python ints (all in int64 range)."""
    return _column(IntVector, "int64", values, mask)


def float_vector(values: Sequence[float], mask=None):
    return _column(FloatVector, "float64", values, mask)


def bool_vector(values: Sequence[bool], mask=None):
    return _column(BoolVector, "bool", values, mask)


def numeric_from_bytes(buf, is_float: bool, count: int):
    """Column over exactly ``count`` packed little-endian 8-byte values
    with no NULLs — the zero-copy storage decode fast path."""
    np = numpy_module()
    if np is None:
        return list(struct.unpack(f"<{count}{'d' if is_float else 'q'}", buf))
    data = np.frombuffer(buf, dtype="<f8" if is_float else "<i8", count=count)
    return FloatVector(data) if is_float else IntVector(data)


def numeric_from_packed(buf, is_float: bool, count: int, null_flags):
    """Column where ``buf`` packs only the non-NULL values and
    ``null_flags`` (len ``count``) says which rows are NULL."""
    packed = numeric_from_bytes(buf, is_float, count - sum(null_flags))
    np = numpy_module()
    if np is None:
        present = iter(packed)
        return [None if null else next(present) for null in null_flags]
    mask = np.array(null_flags, dtype=bool)
    data = np.zeros(count, dtype=packed.data.dtype)
    data[~mask] = packed.data
    return type(packed)(data, mask)


def dict_vector(codes: Sequence[int], dictionary: List[str]):
    np = numpy_module()
    if np is None:
        return [None if c < 0 else dictionary[c] for c in codes]
    return DictVector(np.array(codes, dtype=np.int64), dictionary)


def dict_vector_at(
    count: int, rows: Sequence[int], codes: Sequence[int], dictionary: List[str]
):
    """:func:`dict_vector` of a ``count``-row column that holds ``codes``
    at ``rows`` and NULL at every other row."""
    np = numpy_module()
    if np is None:
        return placed(count, rows, map(dictionary.__getitem__, codes))
    data = np.full(count, -1, dtype=np.int64)
    data[np.array(rows, dtype=np.intp)] = np.array(codes, dtype=np.int64)
    return DictVector(data, dictionary)


def placed(count: int, rows: Sequence[int], values: Iterable[object]) -> list:
    """A ``count``-row list holding ``values`` at ``rows`` and None at
    every other row."""
    column = [None] * count
    for row, value in zip(rows, values):
        column[row] = value
    return column


# ------------------------------------------------------------ materializers
def as_list(col) -> list:
    """Plain Python-value list view of any column representation."""
    if isinstance(col, (Vector, ConstVector)):
        return col.tolist()
    return col


def fresh_list(col) -> list:
    """:func:`as_list` for a single pass over a block: a vector builds
    the list without keeping it (its cached ``tolist`` would stay on the
    block cache's vectors long after the one reader is done)."""
    if isinstance(col, Vector):
        return col._materialize()
    return as_list(col)


def gather(col, sel: Sequence[int]) -> list:
    """Python values of ``col`` at the selected row indices."""
    if isinstance(col, (Vector, ConstVector)):
        return col.gather(sel)
    return [col[i] for i in sel]


def take(col, sel: Sequence[int]):
    """``col`` at the selected row indices, in the column's own
    representation: typed vectors stay typed (late materialization keeps
    the fast kernels engaged downstream), plain lists stay lists."""
    if isinstance(col, (Vector, ConstVector)):
        return col.take(sel)
    return [col[i] for i in sel]


def take_columns(columns: Sequence[object], sel: Sequence[int]) -> list:
    """:func:`take` over several columns with one shared index vector:
    converted to an index array once when any column is a typed vector,
    and to one ``itemgetter`` that every plain-list column shares when
    two or more rows are taken (one of one index returns the value, not
    a tuple, so shorter selections take the list path of :func:`take`)."""
    idx = (
        _np.asarray(sel, dtype=_np.intp)
        if any(isinstance(c, Vector) for c in columns)
        else None
    )
    pick = (
        itemgetter(*sel)
        if len(sel) > 1
        and not all(isinstance(c, (Vector, ConstVector)) for c in columns)
        else None
    )
    return [
        c.take(idx) if isinstance(c, Vector)
        else c.take(sel) if isinstance(c, ConstVector)
        else list(pick(c)) if pick is not None
        else [c[i] for i in sel]
        for c in columns
    ]


def concat(chunks: Sequence[object]):
    """One column holding the chunks' values back to back.

    Same-typed vectors concatenate buffer-wise and stay typed
    (dictionary vectors only when they share one dictionary object, i.e.
    slices of one block); anything else — mixed representations,
    per-block dictionaries — lands in a plain list of Python values."""
    if len(chunks) == 1:
        return chunks[0]
    first = chunks[0]
    kind = type(first)
    if kind is list and all(type(c) is list for c in chunks):
        return list(chain.from_iterable(chunks))
    if isinstance(first, Vector) and all(type(c) is kind for c in chunks):
        data = _np.concatenate([c.data for c in chunks])
        if kind is DictVector:
            if all(c.dictionary is first.dictionary for c in chunks):
                return DictVector(data, first.dictionary)
        elif all(c.mask is None for c in chunks):
            return kind(data)
        else:
            return kind(data, _np.concatenate([
                _np.zeros(len(c.data), dtype=bool) if c.mask is None else c.mask
                for c in chunks
            ]))
    out: list = []
    for chunk in chunks:
        out.extend(as_list(chunk))
    return out


def true_selection(mask, n: int, sel: Optional[List[int]]) -> List[int]:
    """Row indices where a predicate result is exactly TRUE.

    ``mask`` is aligned with ``sel`` (or with ``range(n)`` when ``sel``
    is None); the returned indices are in the *input's* row space, in
    ascending order — always a plain list of Python ints.
    """
    if isinstance(mask, BoolVector):
        hits = mask.data if mask.mask is None else mask.data & ~mask.mask
        idx = _np.nonzero(hits)[0]
        if sel is None:
            return idx.tolist()
        return [sel[j] for j in idx.tolist()]
    indices = range(n) if sel is None else sel
    return [i for i, m in zip(indices, mask) if m is True]
