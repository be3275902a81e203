"""The DISPATCH wire encoder (``planner/wire.py``): identity-free,
deterministic, complete, and each table's schema once.

The corpus is the payload canary's: the ten ``short_*`` templates, Q7 /
Q21, a partitioned table, views and an external table, on its fixed
engine — plus all 22 TPC-H queries.
"""

import copy
import dataclasses
import datetime
import enum
from decimal import Decimal

import pytest

from repro.catalog.schema import Column, DataType
from repro.planner.physical import ExternalScan, SeqScan
from repro.planner import wire
from repro.planner.wire import encode, encode_dispatch
from repro.tpch import QUERIES
from repro.bench.statements import build_session, dispatched, statements

#: Statements that read one table more than once, or many tables' worth
#: of equal schemas: where sharing used to move the size.
SHARING = ("view_self_join", "tpch_q7", "tpch_q21", "partition_all", "external_join")


def payload(session, sql):
    """The ``(plan, metadata)`` a SELECT would dispatch."""
    sdp = dispatched(session, sql)
    return sdp.plan, sdp.metadata


def scans(plan):
    """Every table-reading node of a plan, init plans included."""
    pending = [plan_slice.root for plan_slice in plan.slices]
    for init in plan.init_plans:
        yield from scans(init)
    while pending:
        node = pending.pop()
        if isinstance(node, (SeqScan, ExternalScan)):
            yield node
        pending.extend(node.children)


@pytest.fixture(scope="module")
def env():
    session, data = build_session()
    return session, statements(data)


class TestIdentityFree:
    @pytest.mark.parametrize("label", SHARING)
    def test_a_deep_copy_encodes_the_same(self, env, label):
        session, sqls = env
        built = payload(session, sqls[label])
        assert encode(copy.deepcopy(built)) == encode(built)

    @pytest.mark.parametrize("label", SHARING)
    def test_sharing_a_schema_or_copying_it_encodes_the_same(self, env, label):
        """As built, every reference to a table shares the catalog's one
        schema object; giving each reference a private copy instead (what
        the two deleted ``deepcopy`` calls did) must not move a byte."""
        session, sqls = env
        plan, metadata = payload(session, sqls[label])
        shared = encode((plan, metadata))
        for node in scans(plan):
            if isinstance(node, SeqScan) and node.partitions is None:
                assert node.table.schema is metadata[node.table.table_name].schema
            node.table = dataclasses.replace(
                node.table,
                schema=copy.deepcopy(node.table.schema),
                pxf=copy.deepcopy(node.table.pxf),
            )
        for name, meta in metadata.items():
            metadata[name] = dataclasses.replace(
                meta, schema=copy.deepcopy(meta.schema)
            )
        assert encode((plan, metadata)) == shared

    def test_repeating_a_statement_repeats_its_bytes(self, env):
        session, sqls = env
        for label in ("short4", "view_self_join"):
            assert encode(payload(session, sqls[label])) == encode(
                payload(session, sqls[label])
            )


def test_two_fresh_engines_give_identical_bytes(env):
    session, sqls = env
    twin, _ = build_session()
    for label in ("short3", "short4", "tpch_q21", "partition_eliminated",
                  "view_self_join", "external_join"):
        assert encode(payload(twin, sqls[label])) == encode(
            payload(session, sqls[label])
        )


class TestComplete:
    def test_every_plan_of_the_corpus_encodes(self, env):
        session, sqls = env
        corpus = list(sqls.values()) + [
            sql for q in sorted(QUERIES) for sql in QUERIES[q]
        ]
        selects = 0
        for sql in corpus:
            if sql.lstrip().lower().startswith("select"):
                selects += 1
                assert encode(payload(session, sql))
            else:
                session.execute(sql)  # Q15's CREATE VIEW / DROP VIEW
        assert selects == 18 + 22

    def test_an_unknown_type_raises(self, env):
        session, sqls = env
        plan, metadata = payload(session, sqls["short0"])

        class Opaque:
            pass

        for value in (Opaque(), 1 + 2j, datetime.datetime(2026, 1, 1), [Opaque()]):
            with pytest.raises(TypeError, match="no wire encoding"):
                encode(value)
        next(scans(plan)).pruned_partitions.append(Opaque())
        with pytest.raises(TypeError, match="no wire encoding"):
            encode((plan, metadata))

    def test_scalars_and_containers(self):
        class Colour(enum.Enum):
            RED = "red"

        @dataclasses.dataclass
        class Point:
            x: int
            y: float = 0.5

        values = [
            None, True, False, 0, 1, -1, 127, 128, -(2 ** 70), 0.5, -0.0, "", "a",
            "é", b"a", datetime.date(1995, 3, 15), Decimal("1.50"), Decimal("1.5"),
            [], (), {}, set(), [1], (1,), {1: 2}, {1}, [[1]], [(1,)], Colour.RED,
            Point(1), Point(1, 1.5), {"a": 1, "b": 2}, {"b": 2, "a": 1},
        ]
        encoded = [encode(value) for value in values]
        assert len(set(encoded)) == len(values)  # no two values collide
        assert encode({3, 1, 2}) == encode({2, 3, 1}) == encode(frozenset({1, 2, 3}))
        assert encode(Point(1)) == b"@s\x05Pointi\x02f" + bytes(6) + b"\xe0\x3f"

    @pytest.mark.parametrize("size", [0, 1, 127, 128, 300])
    def test_a_message_framed_around_encoded_items_is_the_pair(self, size):
        plan = ("plan", [1, 2.5, None])
        metadata = {f"t{i}": {"rows": i} for i in range(size)}
        items = [encode(name) + encode(meta) for name, meta in metadata.items()]
        assert encode_dispatch(plan, items) == encode((plan, metadata))

    @pytest.mark.parametrize(
        "changed",
        [
            # one literal, one filter, one projected column list
            "SELECT c_custkey, c_name FROM customer WHERE c_custkey = 6",
            "SELECT c_custkey, c_name FROM customer WHERE c_custkey = 5 AND c_acctbal > 0",
            "SELECT c_custkey, c_phone FROM customer WHERE c_custkey = 5",
        ],
    )
    def test_a_changed_statement_changes_the_bytes(self, env, changed):
        session, _ = env
        base = "SELECT c_custkey, c_name FROM customer WHERE c_custkey = 5"
        assert encode(payload(session, changed)) != encode(payload(session, base))

    def test_changed_metadata_changes_the_bytes(self, env):
        session, sqls = env
        plan, metadata = payload(session, sqls["short0"])
        before = encode((plan, metadata))
        meta = metadata["customer"]

        lane = next(iter(meta.segfiles.values()))[0]
        path = next(iter(lane.paths))
        lane.paths[path] += 1  # one segfile's visible length
        longer = encode((plan, metadata))
        assert longer != before
        lane.paths[path] -= 1
        assert encode((plan, metadata)) == before

        columns = list(meta.schema.columns)
        assert columns[0].type == DataType.parse("int")
        columns[0] = Column(columns[0].name, DataType.parse("bigint"))
        metadata["customer"] = dataclasses.replace(
            meta, schema=dataclasses.replace(meta.schema, columns=columns)
        )
        assert encode((plan, metadata)) not in (before, longer)


@dataclasses.dataclass
class _Bare:
    pass


@dataclasses.dataclass
class _One:
    value: object


@dataclasses.dataclass
class _Two:
    first: object
    second: object


#: Each side of every inline test: an int just inside and outside
#: ``range(64)``, bools (not ints), strs either side of 128 characters
#: and past ASCII, None, and values that always take the generic path.
BOUNDARY = [
    -1, 0, 63, 64, 2 ** 63, True, False, "a" * 127, "a" * 128, "é", "a" * 126 + "é",
    "", None, 0.5, [], (63,),
]


def _generic(value) -> bytes:
    """``value`` through its type's encoder, never inline."""
    out = bytearray()
    wire._ENCODERS[type(value)](value, out)
    return bytes(out)


class TestInlineValues:
    """Lists, tuples and dataclass fields write None, small ints and
    short ASCII strs inline: the bytes must be the generic encoders'."""

    @pytest.mark.parametrize("value", BOUNDARY, ids=lambda v: repr(v)[:12])
    def test_in_a_list_and_a_tuple(self, value):
        generic = _generic(value)
        assert encode([value]) == b"[\x01" + generic
        assert encode((value, value)) == b"(\x02" + generic * 2

    @pytest.mark.parametrize("value", BOUNDARY, ids=lambda v: repr(v)[:12])
    def test_as_a_dataclass_field(self, value):
        generic = _generic(value)
        assert encode(_One(value)) == b"@" + encode("_One") + generic
        assert encode(_Two(value, 1)) == b"@" + encode("_Two") + generic + b"i\x02"
        assert encode(_Two(1, value)) == b"@" + encode("_Two") + b"i\x02" + generic
        assert encode(_Bare()) == b"@" + encode("_Bare")

    def test_the_boundary_bytes(self):
        assert encode([63, 64, -1]) == b"[\x03i\x7ei\x80\x01i\x01"
        assert encode([True, False, None]) == b"[\x03TFN"
        assert encode(["a" * 127]) == b"[\x01s\x7f" + b"a" * 127
        assert encode(["a" * 128]) == b"[\x01s\x80\x01" + b"a" * 128
        assert encode(["é"]) == b"[\x01s\x02" + "é".encode()
        assert encode([2 ** 63]) == b"[\x01i" + bytes([0x80] * 9) + b"\x02"

    def test_a_long_list_counts_in_a_varint(self):
        for count, varint in ((127, b"\x7f"), (128, b"\x80\x01"), (300, b"\xac\x02")):
            assert encode([None] * count) == b"[" + varint + b"N" * count


class TestSchemaOncePerTable:
    @pytest.mark.parametrize(
        "label, table, references",
        [
            ("view_self_join", "orders", 2),
            ("tpch_q7", "nation", 2),
            ("tpch_q21", "lineitem", 3),
        ],
    )
    def test_a_self_join_carries_the_schema_once(self, env, label, table, references):
        session, sqls = env
        plan, metadata = payload(session, sqls[label])
        named = [n for n in scans(plan) if n.table.table_name == table]
        assert len(named) == references
        schema_bytes = encode(metadata[table].schema)
        assert len(schema_bytes) > 100
        assert encode((plan, metadata)).count(schema_bytes) == 1

    def test_an_external_table_carries_its_schema_and_options_inline(self, env):
        session, sqls = env
        plan, metadata = payload(session, sqls["external"])
        (scan,) = scans(plan)
        assert "ext" not in metadata
        raw = encode((plan, metadata))
        assert raw.count(encode(scan.table.schema)) == 1
        assert encode(scan.table.pxf) in raw

    def test_schema_bytes_are_kept_on_the_version_not_in_its_value(self, env):
        session, sqls = env
        _, metadata = payload(session, sqls["short0"])
        schema = metadata["customer"].schema
        assert encode(schema) in schema.__dict__["_memo"].values()
        assert list(schema.__getstate__()) == [
            f.name for f in dataclasses.fields(schema)
        ]
        twin = copy.deepcopy(schema)
        assert "_memo" not in twin.__dict__  # a copy starts without caches
        assert twin == schema and encode(twin) == encode(schema)
