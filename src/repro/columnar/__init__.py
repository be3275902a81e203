"""Typed column vectors for the vectorized executor.

This package is the representation layer underneath
:mod:`repro.executor.batch`: storage decoders produce these vectors,
batch kernels consume them, and every vector duck-types as a read-only
sequence of *Python* values (``vec[i]``/``iter(vec)``/``vec.tolist()``
never leak NumPy scalars), so any operator that treats a column as a
plain list keeps working unchanged.
"""

from repro.columnar.vector import (
    NUMPY_AVAILABLE,
    BoolVector,
    ConstVector,
    DictVector,
    FloatVector,
    IntVector,
    Vector,
    as_list,
    concat,
    fresh_list,
    gather,
    numpy_module,
    take,
    take_columns,
)

__all__ = [
    "NUMPY_AVAILABLE",
    "BoolVector",
    "ConstVector",
    "DictVector",
    "FloatVector",
    "IntVector",
    "Vector",
    "as_list",
    "concat",
    "fresh_list",
    "gather",
    "numpy_module",
    "take",
    "take_columns",
]
