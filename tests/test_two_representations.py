"""A column is a typed vector or a plain list — nothing in between.

(a) *The invariant.* Every ``Vector`` a CO / Parquet scan, a typed kernel
or a column copy hands out sits on NumPy arrays: ``data`` an ``ndarray``,
``mask`` ``None`` or a bool ``ndarray``. No kernel re-converts a mask or
asks which buffer a vector holds, so a list slipping into one would
surface as a wrong answer far from its cause; here it fails by name.

(b) *Without NumPy, CO reads like AO.* The vector constructors and
``ColumnCodec.decode`` return the plain list of the same values
(``None`` for NULL), and TPC-H on CO tables returns the rows and the
simulated seconds it returns on typed vectors.

(c) *NumPy loads with the first typed column.* An AO-only process never
imports it, and its statements answer and charge the same once a CO
scan has loaded it.
"""

import datetime
import json
import operator
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.catalog.schema import Column, DataType, TypeKind
from repro.columnar import concat, kernels, take_columns, vector
from repro.columnar.vector import (
    ConstVector,
    DictVector,
    FloatVector,
    IntVector,
    Vector,
    bool_vector,
    dict_vector,
    float_vector,
    int_vector,
    numeric_from_bytes,
    numeric_from_packed,
)
from repro.executor.batch import ColumnBatch
from repro.storage import table as table_files
from repro.storage.base import ColumnCodec
from repro.tpch import QUERIES, generate, load_tpch
from repro.tpch.schema import TABLE_NAMES

needs_numpy = pytest.mark.skipif(
    not vector.NUMPY_AVAILABLE, reason="no typed vectors without NumPy"
)


@pytest.fixture(scope="module")
def tpch_data():
    return generate(0.001, seed=5)


def _tpch_session(data, storage):
    session = repro.Engine(num_segment_hosts=2, segments_per_host=2).connect()
    load_tpch(session, storage_format=storage, data=data)
    return session


def assert_invariant(col, seen=None):
    """``col`` keeps the vector invariant (a list or a ConstVector has
    none to keep); ``seen`` collects the vector kinds that came by."""
    if not isinstance(col, Vector):
        assert isinstance(col, (list, ConstVector)), type(col)
        return
    np = vector.numpy_module()
    assert type(col.data) is np.ndarray, type(col.data)
    mask = col.mask
    assert mask is None or (type(mask) is np.ndarray and mask.dtype == bool), mask
    if isinstance(col, DictVector):
        assert col.data.dtype == np.int64 and mask is None
    if seen is not None:
        seen.add(type(col))


# ------------------------------------------------------- (a) the invariant
@needs_numpy
@pytest.mark.parametrize("storage", ["co", "parquet"])
def test_every_scanned_vector_sits_on_ndarrays(storage, tpch_data):
    session = _tpch_session(tpch_data, storage)
    orientation = "column" if storage == "co" else "parquet"
    session.execute(
        "CREATE TABLE sparse (a INT NOT NULL, b INT, f FLOAT, t TEXT, z TEXT) "
        f"WITH (appendonly=true, orientation={orientation}) DISTRIBUTED BY (a)"
    )
    session.load_rows("sparse", [
        (i, None if i % 4 else i, None, None if i % 3 else f"s{i % 5}", None)
        for i in range(2100)
    ])
    session.execute(
        "CREATE TABLE hollow (a INT, t TEXT) "
        f"WITH (appendonly=true, orientation={orientation}) DISTRIBUTED BY (a)"
    )
    seen, masked = set(), 0
    with session.engine.txns.run() as txn:
        snapshot = txn.statement_snapshot()
        for name in (*TABLE_NAMES, "sparse", "hollow"):
            relation = session.engine.catalog.lookup_relation(name, snapshot)
            blocks = table_files.read(session.engine, relation, snapshot)
            for _row_count, columns in blocks:
                for col in columns.values():
                    assert_invariant(col, seen)
                    masked += isinstance(col, Vector) and col.mask is not None
    assert seen == {IntVector, FloatVector, DictVector} and masked


@needs_numpy
def test_every_kernel_and_copy_hands_out_ndarrays():
    # List masks in: what the constructors are handed by every caller.
    ints = int_vector([5, 0, -3, 7], [False, True, False, False])
    dense = int_vector([1, 2, 3, 4])
    floats = float_vector([0.5, 0.0, -1.5, 2.0], [False, False, True, False])
    texts = dict_vector([0, -1, 1, 0], ["ab", "cd"])
    nulls = dict_vector([-1, -1, -1, -1], [])
    p = bool_vector([True, False, True, False], [False, False, True, False])
    q = bool_vector([True, True, False, False])
    inputs = [ints, dense, floats, texts, nulls, p, q]
    const = lambda value: ConstVector(value, 4)  # noqa: E731
    results = [
        kernels.cmp_fast(operator.lt, ints, const(6)),
        kernels.cmp_fast(operator.ge, const(0.5), floats),
        kernels.cmp_fast(operator.eq, ints, dense),
        kernels.cmp_fast(operator.eq, texts, const("ab")),
        kernels.cmp_fast(operator.ne, nulls, const("ab")),
        kernels.arith_fast("%", ints, const(3)),
        kernels.arith_fast("+", floats, floats),
        kernels.arith_fast("*", const(2), floats),
        kernels.kleene_and(p, q),
        kernels.kleene_and(p, const(None)),
        kernels.kleene_or(p, q),
        kernels.kleene_or(q, const(False)),
        kernels.not_fast(p),
        kernels.isnull_fast(ints, False),
        kernels.isnull_fast(dense, True),
        kernels.isnull_fast(texts, False),
        kernels.like_fast(texts, re.compile("a.*").match, False),
        kernels.like_fast(nulls, re.compile("a.*").match, True),
        kernels.in_const_fast(texts, ("cd", "zz"), False),
        kernels.in_const_fast(ints, (5, 7), True),
        kernels.str_map_fast(texts, str.upper),
    ]
    assert all(isinstance(r, Vector) for r in results)  # each took its typed arm
    batch = ColumnBatch([ints, floats, texts, p, ["w", "x", "y", "z"], const(1)], 4)
    copies = [
        ints.take([3, 1]), texts.take([]), p.take([2, 2, 0]),
        *take_columns(batch.columns, [1, 3]),
        concat([ints, dense]), concat([dense, dense]), concat([p, q]),
        concat([texts.take([0]), texts.take([1, 2])]),
        *(c for part in batch.partition([[0, 2], [], [1]]) for c in part.columns),
    ]
    for col in inputs + results + copies:
        assert_invariant(col)
    assert type(concat([ints, dense])) is IntVector
    assert type(concat([texts.take([0]), texts.take([1, 2])])) is DictVector


# ------------------------------------- (b) without NumPy, CO reads like AO
_SAMPLES = {
    TypeKind.INT4: [7, -1],
    TypeKind.INT8: [2**40, 0],
    TypeKind.FLOAT8: [0.5, -0.0],
    TypeKind.DECIMAL: [12.25, 3.0],
    TypeKind.BOOL: [True, False],
    TypeKind.DATE: [datetime.date(1998, 12, 1), datetime.date(1970, 1, 1)],
    TypeKind.CHAR: ["ab", "c"],
    TypeKind.VARCHAR: ["naïve", ""],
    TypeKind.TEXT: ["x", "x"],
    TypeKind.BYTEA: [b"\x00\xff", b""],
}
assert set(_SAMPLES) == set(TypeKind)


@pytest.mark.parametrize("kind", sorted(TypeKind, key=lambda k: k.value))
def test_without_numpy_every_kind_decodes_to_a_list(kind, monkeypatch):
    monkeypatch.setattr(vector, "_np", None)
    codec = ColumnCodec(Column("c", DataType(kind)))
    a, b = _SAMPLES[kind]
    for values in ([a, b, a], [a, None, b, None], [None, None], []):
        decoded = codec.decode(codec.encode(values), len(values))
        assert type(decoded) is list
        assert decoded == values
        assert [type(v) for v in decoded] == [type(v) for v in values]


def test_without_numpy_the_constructors_return_lists(monkeypatch):
    monkeypatch.setattr(vector, "_np", None)
    null_at_1 = [False, True, False]
    packed_ints = (5).to_bytes(8, "little") + (9).to_bytes(8, "little", signed=True)
    for built, values in [
        (int_vector([5, 0, 9], null_at_1), [5, None, 9]),
        (int_vector((5, 9)), [5, 9]),
        (float_vector([0.5, 0.0, -0.0], null_at_1), [0.5, None, -0.0]),
        (bool_vector([True, False, False], null_at_1), [True, None, False]),
        (dict_vector([1, -1, 0], ["a", "b"]), ["b", None, "a"]),
        (numeric_from_bytes(packed_ints, False, 2), [5, 9]),
        (numeric_from_packed(packed_ints, False, 3, null_at_1), [5, None, 9]),
        (numeric_from_packed(b"", True, 2, [True, True]), [None, None]),
    ]:
        assert type(built) is list
        assert built == values and list(map(type, built)) == list(map(type, values))


@needs_numpy
def test_tpch_on_co_tables_reads_the_same_without_numpy(tpch_data, monkeypatch):
    def run():
        session = _tpch_session(tpch_data, "co")
        return [
            (result.rows, result.cost.seconds)
            for number in sorted(QUERIES)
            for result in map(session.execute, QUERIES[number])
        ]

    typed = run()
    monkeypatch.setattr(vector, "_np", None)
    assert run() == typed


# ------------------------------- (c) NumPy loads with the first typed column
#: Run in a fresh interpreter: an AO-only session, then one CO scan, then
#: the AO statements again. Prints what it saw as JSON.
_AO_THEN_CO = r"""
import json
import sys

import repro
from repro.tpch import QUERIES, generate, load_tpch

session = repro.Engine(num_segment_hosts=2, segments_per_host=2).connect()
load_tpch(session, storage_format="ao", data=generate(0.001, seed=5))
session.execute(
    "CREATE TABLE t (a INT NOT NULL, b FLOAT, s TEXT) "
    "WITH (appendonly=true, orientation=row) DISTRIBUTED BY (a)"
)
session.load_rows("t", [
    (i, None if i % 5 == 0 else i * 0.5, None if i % 7 == 0 else f"s{i % 4}")
    for i in range(400)
])
session.execute("ANALYZE t")
statements = [sql for number in (1, 3, 6, 11, 13, 19) for sql in QUERIES[number]] + [
    "SELECT a, b * 2.0 + 1.0, a % 3 FROM t WHERE b > 10.0 AND s LIKE 's1%' ORDER BY a",
    "SELECT count(*) FROM t WHERE s IS NULL OR a IN (1, 2, 3) OR b = NULL",
    "SELECT s, count(*), sum(b) FROM t WHERE 1 = 1 AND NOT (a < 5) GROUP BY s ORDER BY s",
]
def run():
    return [(r.rows, r.cost.seconds) for r in map(session.execute, statements)]
before = run()
session.execute("EXPLAIN (ANALYZE) " + QUERIES[6][0])
session.execute("SELECT * FROM pg_stat_statements")
ao_only = "numpy" in sys.modules
session.execute(
    "CREATE TABLE c (a INT NOT NULL, b FLOAT) "
    "WITH (appendonly=true, orientation=column) DISTRIBUTED BY (a)"
)
session.load_rows("c", [(i, i * 0.25) for i in range(100)])
session.engine.block_cache.clear()
session.execute("SELECT sum(b) FROM c WHERE a > 10")
after_co = "numpy" in sys.modules
print(json.dumps({"ao_only": ao_only, "after_co": after_co, "same": run() == before}))
"""


def test_numpy_loads_with_the_first_typed_column():
    """A process that reads only AO tables never imports NumPy — through
    DDL, load, ANALYZE, TPC-H statements, EXPLAIN (ANALYZE) and a system
    view. The first CO scan loads it, and the AO statements run again
    after that return the same rows and simulated seconds: a kernel's arm
    is chosen by its operands, not by whether NumPy is loaded."""
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", _AO_THEN_CO],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen == {
        "ao_only": False, "after_co": vector.NUMPY_AVAILABLE, "same": True
    }
