"""Typed column vectors with explicit null masks.

A vector is ``count`` SQL values stored as a typed buffer — a NumPy
array when NumPy is importable, a pure-python :mod:`array` otherwise —
plus an explicit null mask replacing the old ``None``-in-object-list
convention. Strings are dictionary-encoded: a codes vector plus the
block's value dictionary, with code ``-1`` marking NULL, so equality,
LIKE and IN can run over the (small) dictionary instead of every row.

The contract every consumer relies on:

* ``vec[i]``, ``iter(vec)`` and ``vec.tolist()`` yield **Python**
  scalars (``int``/``float``/``str``/``bool``/``None``) — never NumPy
  scalars. Row hashing (``hash_values`` reprs values) and the row/batch
  differential tests depend on exact Python types.
* Vectors are read-only by convention: kernels build new vectors, they
  never mutate inputs (a projection may alias an input column).

Backend selection happens per construction call by reading the module
global ``_np``; setting ``REPRO_NO_NUMPY=1`` (or monkeypatching
``_np = None`` in tests) forces the pure-python fallback, which must
stay behaviorally identical.
"""

from __future__ import annotations

import os
from array import array
from itertools import chain
from typing import Iterator, List, Optional, Sequence

try:  # pragma: no cover - exercised via REPRO_NO_NUMPY in CI
    if os.environ.get("REPRO_NO_NUMPY"):
        _np = None
    else:
        import numpy as _np
except ImportError:  # pragma: no cover - image always has numpy
    _np = None

#: Whether the NumPy backend was importable (and not disabled) at load.
NUMPY_AVAILABLE = _np is not None


def numpy_module():
    """The active NumPy module, or None under the pure-python fallback.

    Read dynamically so tests can monkeypatch ``vector._np`` and force
    both construction and kernel dispatch onto the fallback path.
    """
    return _np


def _is_np_array(data) -> bool:
    return _np is not None and isinstance(data, _np.ndarray)


class Vector:
    """Base class: typed buffer + optional null mask + cached tolist."""

    __slots__ = ("data", "mask", "_values")

    def __init__(self, data, mask=None):
        self.data = data
        #: None (no NULLs) or a bool sequence, True where the row is NULL.
        self.mask = mask
        self._values: Optional[list] = None

    # --------------------------------------------------- sequence protocol
    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, i):
        mask = self.mask
        if mask is not None and mask[i]:
            return None
        return self._scalar(self.data[i])

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
        if mask is None:
            return False
        if _is_np_array(mask):
            return bool(mask.any())
        return any(mask)

    def is_numpy(self) -> bool:
        """True when this vector's buffer is on the active NumPy backend."""
        return _is_np_array(self.data)

    def take(self, sel: Sequence[int]) -> "Vector":
        """New same-typed vector of the rows selected by ``sel``."""
        data, mask = self.data, self.mask
        if _is_np_array(data):
            idx = _np.asarray(sel, dtype=_np.intp)
            return type(self)(
                data[idx], None if mask is None else _np.asarray(mask)[idx]
            )
        taken = array(data.typecode, [data[i] for i in sel]) if isinstance(
            data, array
        ) else [data[i] for i in sel]
        if mask is None:
            return type(self)(taken, None)
        return type(self)(taken, [mask[i] for i in sel])

    def gather(self, sel: Sequence[int]) -> list:
        """Python values of the selected rows (late materialization)."""
        values = self._values
        if values is not None:
            return [values[i] for i in sel]
        if _is_np_array(self.data):
            return self.take(sel).tolist()
        return [self[i] for i in sel]

    # ---------------------------------------------------------- subclass
    @staticmethod
    def _scalar(raw):  # pragma: no cover - overridden
        raise NotImplementedError

    def _materialize(self) -> list:  # pragma: no cover - overridden
        raise NotImplementedError

    def _plain_list(self) -> list:
        """data as Python scalars ignoring the mask."""
        data = self.data
        if _is_np_array(data):
            return data.tolist()
        if isinstance(data, array):
            return data.tolist()
        return list(data)

    def _masked_list(self) -> list:
        values = self._plain_list()
        mask = self.mask
        if mask is not None:
            if _is_np_array(mask):
                mask = mask.tolist()
            values = [
                None if null else value for value, null in zip(values, mask)
            ]
        return values


class IntVector(Vector):
    """int64 values (INT4/INT8 columns and integer kernel results)."""

    @staticmethod
    def _scalar(raw) -> int:
        return int(raw)

    def _materialize(self) -> list:
        return self._masked_list()


class FloatVector(Vector):
    """float64 values (FLOAT8/DECIMAL columns and float kernel results)."""

    @staticmethod
    def _scalar(raw) -> float:
        return float(raw)

    def _materialize(self) -> list:
        return self._masked_list()


class BoolVector(Vector):
    """Three-valued booleans: data is the truth value, mask marks NULL.

    The representation of predicate results on the fast path; iterating
    yields exactly ``True``/``False``/``None``.
    """

    @staticmethod
    def _scalar(raw) -> bool:
        return bool(raw)

    def _materialize(self) -> list:
        return self._masked_list()


class DictVector(Vector):
    """Dictionary-encoded strings: codes + per-block value dictionary.

    ``data`` holds int codes (``-1`` is NULL — no separate mask), and
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
        codes = self.data
        if _is_np_array(codes) or isinstance(codes, array):
            codes = codes.tolist()
        return [None if c < 0 else dictionary[c] for c in codes]

    @property
    def has_nulls(self) -> bool:
        data = self.data
        if _is_np_array(data):
            return bool((data < 0).any())
        return any(c < 0 for c in data)

    def take(self, sel: Sequence[int]) -> "DictVector":
        data = self.data
        if _is_np_array(data):
            idx = _np.asarray(sel, dtype=_np.intp)
            return DictVector(data[idx], self.dictionary)
        return DictVector(
            array("q", [data[i] for i in sel]), self.dictionary
        )

    def code_lut(self, fn) -> list:
        """Apply ``fn`` once per dictionary entry; returns a list indexed
        by code (the heart of dict-encoded LIKE/IN/comparison)."""
        return [fn(value) for value in self.dictionary]


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
def int_vector(values: Sequence[int], mask=None) -> IntVector:
    """IntVector from Python ints (all in int64 range)."""
    if _np is not None:
        return IntVector(_np.array(values, dtype=_np.int64), mask)
    return IntVector(array("q", values), mask)


def float_vector(values: Sequence[float], mask=None) -> FloatVector:
    if _np is not None:
        return FloatVector(_np.array(values, dtype=_np.float64), mask)
    return FloatVector(array("d", values), mask)


def bool_vector(values: Sequence[bool], mask=None) -> BoolVector:
    if _np is not None:
        return BoolVector(_np.array(values, dtype=bool), mask)
    return BoolVector(list(values), mask)


def numeric_from_bytes(buf, is_float: bool, count: int):
    """Vector over ``count`` packed little-endian 8-byte values with no
    NULLs — the zero-copy storage decode fast path."""
    if _np is not None:
        data = _np.frombuffer(buf, dtype="<f8" if is_float else "<i8",
                              count=count)
        return FloatVector(data) if is_float else IntVector(data)
    data = array("d" if is_float else "q")
    data.frombytes(bytes(buf))
    return FloatVector(data) if is_float else IntVector(data)


def numeric_from_packed(buf, is_float: bool, count: int, null_flags):
    """Vector where ``buf`` packs only the non-NULL values and
    ``null_flags`` (len ``count``) says which rows are NULL."""
    packed = numeric_from_bytes(buf, is_float, count - sum(null_flags))
    if _np is not None:
        mask = _np.array(null_flags, dtype=bool)
        data = _np.zeros(count, dtype=packed.data.dtype)
        data[~mask] = packed.data
        return FloatVector(data, mask) if is_float else IntVector(data, mask)
    data = array("d" if is_float else "q", bytes(8 * count))
    j = 0
    for i, null in enumerate(null_flags):
        if not null:
            data[i] = packed.data[j]
            j += 1
    return (FloatVector if is_float else IntVector)(data, list(null_flags))


def dict_vector(codes: Sequence[int], dictionary: List[str]) -> DictVector:
    if _np is not None:
        return DictVector(_np.array(codes, dtype=_np.int64), dictionary)
    return DictVector(array("q", codes), dictionary)


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
    """:func:`take` over several columns with one shared index vector
    (converted to an index array once when any column is NumPy-backed,
    not once per column)."""
    if _np is not None and any(
        isinstance(c, Vector) and _is_np_array(c.data) for c in columns
    ):
        idx = _np.asarray(sel, dtype=_np.intp)
        return [
            c.take(idx) if isinstance(c, Vector)
            else c.take(sel) if isinstance(c, ConstVector)
            else [c[i] for i in sel]
            for c in columns
        ]
    return [take(c, sel) for c in columns]


def concat(chunks: Sequence[object]):
    """One column holding the chunks' values back to back.

    Same-typed NumPy vectors concatenate buffer-wise and stay typed
    (dictionary vectors only when they share one dictionary object, i.e.
    slices of one block); anything else — mixed representations,
    per-block dictionaries, the pure-python backend — lands in a plain
    list of Python values."""
    if len(chunks) == 1:
        return chunks[0]
    first = chunks[0]
    kind = type(first)
    if kind is list and all(type(c) is list for c in chunks):
        return list(chain.from_iterable(chunks))
    if (
        _np is not None
        and isinstance(first, Vector)
        and all(type(c) is kind and _is_np_array(c.data) for c in chunks)
    ):
        data = _np.concatenate([c.data for c in chunks])
        if kind is DictVector:
            if all(c.dictionary is first.dictionary for c in chunks):
                return DictVector(data, first.dictionary)
        elif all(c.mask is None for c in chunks):
            return kind(data)
        else:
            return kind(data, _np.concatenate([
                _np.zeros(len(c.data), dtype=bool) if c.mask is None
                else _np.asarray(c.mask, dtype=bool)
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
    if isinstance(mask, BoolVector) and _is_np_array(mask.data):
        hits = mask.data if mask.mask is None else mask.data & ~_np.asarray(
            mask.mask
        )
        idx = _np.nonzero(hits)[0]
        if sel is None:
            return idx.tolist()
        return [sel[j] for j in idx.tolist()]
    indices = range(n) if sel is None else sel
    return [i for i, m in zip(indices, mask) if m is True]
