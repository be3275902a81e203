"""Vectorized kernel fast paths over typed column vectors.

Every helper here returns a vector result when the operand
representations support an exact vectorized evaluation, or ``None`` to
make the caller fall back to the generic per-value path. "Exact" is
load-bearing: the row/batch differential contract requires *identical*
values, so a fast path is only taken when it provably reproduces Python
semantics —

* int comparisons/remainder stay in int64 (storage packs ``<q``, so
  inputs always fit; remainder of in-range ints cannot overflow);
* int operands only meet float64 when they are compile-time constants
  with ``|c| <= 2**53`` (exactly representable), never via a lossy
  runtime int64→float64 cast;
* int ``+``/``-``/``*`` are **not** fast-pathed at all — Python ints
  are arbitrary precision and int64 would silently wrap;
* float ``+``/``-``/``*`` are elementwise (one operation per row), so
  IEEE results match the scalar path bit for bit;
* dictionary-encoded strings evaluate the predicate once per dictionary
  entry and map codes through the resulting lookup table.

NULLs use Kleene semantics throughout: value arrays may hold garbage at
NULL positions because the mask wins.

Every helper decides from its operands' types alone, before it touches
NumPy: a NumPy arm runs only when an operand is a typed
:class:`~repro.columnar.vector.Vector`, which exists only once NumPy is
loaded, and an arm over ``ConstVector`` operands needs no NumPy. So
plain-list and ``ConstVector`` operands take the same arm whether or not
some earlier CO read has loaded NumPy, and an AO-only process never
loads it here.
"""

from __future__ import annotations

from typing import Optional

from repro.columnar.vector import (
    BoolVector,
    ConstVector,
    DictVector,
    FloatVector,
    IntVector,
    Vector,
    numpy_module,
)

#: Largest magnitude at which every int is exactly representable in
#: float64; int constants beyond it never take a mixed int/float path.
_EXACT_FLOAT_INT = 2**53


def _null_array(np, mask, n):
    """Null mask as a bool ndarray (all-False when ``mask`` is None)."""
    return np.zeros(n, dtype=bool) if mask is None else mask


def _merge_masks(np, a: Vector, b: Vector):
    if a.mask is None and b.mask is None:
        return None
    return _null_array(np, a.mask, len(a)) | _null_array(np, b.mask, len(b))


def _numeric_pair_ok(vec, const) -> bool:
    """May ``vec <op> const`` run on the typed buffer without widening?"""
    if isinstance(vec, IntVector):
        return type(const) is int
    if isinstance(vec, FloatVector):
        if type(const) is float:
            return True
        return type(const) is int and abs(const) <= _EXACT_FLOAT_INT
    return False


def _lut_apply(np, codes_vec: DictVector, lut):
    """Map a per-dictionary-entry bool LUT over the codes; NULL codes
    (< 0) become NULL in the result."""
    codes = codes_vec.data
    null = codes < 0
    if lut:
        table = np.asarray(lut, dtype=bool)
        data = table[np.where(null, 0, codes)]
    else:  # all-NULL column: empty dictionary
        data = np.zeros(len(codes), dtype=bool)
    data = data & ~null
    return BoolVector(data, null if null.any() else None)


# ------------------------------------------------------------- comparisons
def cmp_fast(py_op, l, r) -> Optional[object]:
    """Vectorized SQL comparison (NULL-propagating), or None."""
    l_const = isinstance(l, ConstVector)
    r_const = isinstance(r, ConstVector)
    if l_const and r_const:
        a, b = l.value, r.value
        out = None if a is None or b is None else py_op(a, b)
        return ConstVector(out, len(l))
    if l_const or r_const:
        vec, const, flipped = (r, l.value, True) if l_const else (l, r.value, False)
        if const is None:
            return ConstVector(None, len(vec))
        if isinstance(vec, DictVector) and type(const) is str:
            if flipped:
                lut = [py_op(const, s) for s in vec.dictionary]
            else:
                lut = [py_op(s, const) for s in vec.dictionary]
            return _lut_apply(numpy_module(), vec, lut)
        if _numeric_pair_ok(vec, const):
            data = py_op(const, vec.data) if flipped else py_op(vec.data, const)
            return BoolVector(data, vec.mask)
        return None
    if type(l) is type(r) and isinstance(l, (IntVector, FloatVector)):
        return BoolVector(py_op(l.data, r.data), _merge_masks(numpy_module(), l, r))
    return None


# -------------------------------------------------------------- arithmetic
def arith_fast(op: str, l, r) -> Optional[Vector]:
    """Vectorized ``+``/``-``/``*`` (floats) and ``%`` (int by nonzero
    int constant), or None."""
    if op == "%":
        if (
            isinstance(l, IntVector)
            and isinstance(r, ConstVector)
            and type(r.value) is int
            and r.value != 0
        ):
            return IntVector(numpy_module().fmod(l.data, r.value), l.mask)
        return None
    if op not in ("+", "-", "*") or not (
        isinstance(l, FloatVector) or isinstance(r, FloatVector)
    ):
        return None
    np = numpy_module()
    py_op = {"+": np.add, "-": np.subtract, "*": np.multiply}[op]
    if isinstance(l, FloatVector) and isinstance(r, FloatVector):
        return FloatVector(py_op(l.data, r.data), _merge_masks(np, l, r))
    for vec, other, flipped in ((l, r, False), (r, l, True)):
        if isinstance(vec, FloatVector) and isinstance(other, ConstVector):
            const = other.value
            if const is None:
                return ConstVector(None, len(vec))
            if not _numeric_pair_ok(vec, const):
                return None
            data = py_op(const, vec.data) if flipped else py_op(vec.data, const)
            return FloatVector(data, vec.mask)
    return None


# ---------------------------------------------------------- Kleene logic
def _bool_parts(np, v):
    """(truth, null) bool arrays of a predicate result, or None."""
    if isinstance(v, BoolVector):
        return v.data, _null_array(np, v.mask, len(v))
    if isinstance(v, ConstVector) and (
        v.value is None or isinstance(v.value, bool)
    ):
        n = len(v)
        if v.value is None:
            return np.zeros(n, dtype=bool), np.ones(n, dtype=bool)
        return np.full(n, v.value, dtype=bool), np.zeros(n, dtype=bool)
    return None


def kleene_and(l, r) -> Optional[BoolVector]:
    if not (isinstance(l, BoolVector) or isinstance(r, BoolVector)):
        return None
    np = numpy_module()
    pl, pr = _bool_parts(np, l), _bool_parts(np, r)
    if pl is None or pr is None:
        return None
    ld, ln = pl
    rd, rn = pr
    false = (~ln & ~ld) | (~rn & ~rd)
    null = ~false & (ln | rn)
    return BoolVector(~false & ~null, null if null.any() else None)


def kleene_or(l, r) -> Optional[BoolVector]:
    if not (isinstance(l, BoolVector) or isinstance(r, BoolVector)):
        return None
    np = numpy_module()
    pl, pr = _bool_parts(np, l), _bool_parts(np, r)
    if pl is None or pr is None:
        return None
    ld, ln = pl
    rd, rn = pr
    true = (~ln & ld) | (~rn & rd)
    null = ~true & (ln | rn)
    return BoolVector(true, null if null.any() else None)


def not_fast(v) -> Optional[object]:
    if isinstance(v, ConstVector):
        return ConstVector(None if v.value is None else not v.value, len(v))
    if isinstance(v, BoolVector):
        return BoolVector(~v.data, v.mask)
    return None


# ------------------------------------------------------- null tests / LIKE
def isnull_fast(v, negated: bool) -> Optional[object]:
    if isinstance(v, ConstVector):
        is_null = v.value is None
        return ConstVector((not is_null) if negated else is_null, len(v))
    if not isinstance(v, Vector):
        return None
    if isinstance(v, DictVector):
        null = v.data < 0
    else:
        null = _null_array(numpy_module(), v.mask, len(v))
    return BoolVector(~null if negated else null.copy(), None)


def like_fast(v, match, negated: bool) -> Optional[object]:
    """``match`` is the compiled pattern's ``.match``; LUT over the
    dictionary, then code mapping."""
    if isinstance(v, ConstVector):
        if v.value is None:
            return ConstVector(None, len(v))
        hit = match(v.value) is not None
        return ConstVector((not hit) if negated else hit, len(v))
    if not isinstance(v, DictVector):
        return None
    if negated:
        lut = [match(s) is None for s in v.dictionary]
    else:
        lut = [match(s) is not None for s in v.dictionary]
    return _lut_apply(numpy_module(), v, lut)


def in_const_fast(v, items: tuple, negated: bool) -> Optional[object]:
    """``x IN (consts)``: dictionary LUT for strings, ``np.isin`` for
    int vectors against all-int item lists."""
    if isinstance(v, ConstVector):
        if v.value is None:
            return ConstVector(None, len(v))
        found = v.value in items
        return ConstVector((not found) if negated else found, len(v))
    if not isinstance(v, Vector):
        return None
    np = numpy_module()
    if isinstance(v, DictVector):
        lut = [((s in items) != negated) for s in v.dictionary]
        return _lut_apply(np, v, lut)
    if isinstance(v, IntVector) and all(type(i) is int for i in items):
        found = np.isin(v.data, np.array(items, dtype=np.int64))
        return BoolVector(~found if negated else found, v.mask)
    return None


def str_map_fast(v, fn) -> Optional[DictVector]:
    """Apply a string→string function through the dictionary (upper/
    lower): same codes, transformed dictionary — no per-row work."""
    if isinstance(v, DictVector):
        return DictVector(v.data, [fn(s) for s in v.dictionary])
    return None
