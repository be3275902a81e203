"""The five workloads: what is loaded, and the ops of one round.

An **op** is what one client waits for: one statement (or one
``load_rows`` chunk) on a ``Session``, or one ``ConcurrentRunner.run()``
batch. Every op has a fixed identity and runs once per round. Sizes are
constants (never time-based), so every count repeats; ``--seed`` drives
the dbgen seed and every parameter draw, and nothing else does.

Each workload gives the harness:

``generate(seed, quick)``  the inputs (untimed; reported as datagen)
``setup(inputs, step)``    engine + DDL + load + ANALYZE, every step run
                           through ``step`` so it is timed and bracketed
``ops(state, round_no)``   the ops of one round
``check(state)``           extra verification on the fresh twin engine,
                           returning ``(attempted, failed)``
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from repro.engine import Engine
from repro.executor.concurrent import ConcurrentRunner
from repro.executor.expr import estimate_row_bytes
from repro.tpch import QUERIES, TABLE_NAMES, create_table_sql, generate

#: 8 segment hosts x 1 segment, batch executor, everything else default.
CLUSTER = {"num_segment_hosts": 8, "segments_per_host": 1}
#: Load in chunks this small so every step is bracketed by kernel samples.
LOAD_CHUNK_ROWS = 4000
#: ``--quick`` (tests): one round at this scale.
QUICK_SCALE = 0.0005


@dataclass
class Inputs:
    """Everything a run is made from: the seed and what it generated."""

    seed: int
    quick: bool
    data: object

    def rng(self, name: str) -> random.Random:
        return random.Random(f"{name}:{self.seed}")


@dataclass
class Outcome:
    """What an op returned: the answer that is checked, and the
    simulated seconds it was charged."""

    rows: object
    sim_s: float


@dataclass
class Op:
    id: str
    fn: Callable[[], Outcome]


@dataclass
class State:
    engine: Engine
    session: object
    #: Tables whose HDFS bytes count for ``stored_bytes_per_user_byte``,
    #: and the rows loaded into them.
    tables: Dict[str, Sequence[tuple]] = field(default_factory=dict)


def statement(session, sql: str) -> Callable[[], Outcome]:
    def run() -> Outcome:
        result = session.execute(sql)
        return Outcome(result.rows, result.cost.seconds)

    return run


def load_chunk(session, table: str, rows: Sequence[tuple]) -> Callable[[], Outcome]:
    return lambda: Outcome(session.load_rows(table, rows), 0.0)


def create_and_load(state: State, step, table: str, ddl: str, rows) -> None:
    step(statement(state.session, ddl))
    for start in range(0, len(rows), LOAD_CHUNK_ROWS):
        step(load_chunk(state.session, table, rows[start:start + LOAD_CHUNK_ROWS]))
    state.tables[table] = rows


def renamed_ddl(table: str, name: str, storage: str, compression: str) -> str:
    return create_table_sql(table, storage, compression).replace(
        f"CREATE TABLE {table} ", f"CREATE TABLE {name} ", 1
    )


def space(state: State) -> Tuple[int, int]:
    """(HDFS bytes of the workload's tables by their catalog segfile
    path lengths, ``estimate_row_bytes`` of the rows loaded)."""
    engine = state.engine
    with engine.txns.run() as txn:
        snapshot = txn.statement_snapshot()
        stored = sum(
            length
            for table in state.tables
            for segfile in engine.catalog.segfiles(table, snapshot)
            for length in segfile["paths"].values()
        )
    user = sum(
        estimate_row_bytes(row) for rows in state.tables.values() for row in rows
    )
    return stored, user


class Workload:
    name = ""
    #: Rounds measured at the default ``--seconds``.
    rounds = 5
    scale = 0.002
    #: Engine keyword arguments beyond ``CLUSTER``.
    engine_options: Dict[str, object] = {}

    def generate(self, seed: int, quick: bool) -> Inputs:
        scale = QUICK_SCALE if quick else self.scale
        return Inputs(seed, quick, generate(scale, seed=seed))

    def setup(self, inputs: Inputs, step) -> State:
        engine = step(lambda: Engine(**CLUSTER, **self.engine_options))
        state = State(engine, engine.connect())
        self.load(state, inputs.data, step)
        step(statement(state.session, "ANALYZE"))
        self.prepare(state, inputs)
        return state

    def load(self, state: State, data, step) -> None:
        for table in TABLE_NAMES:
            create_and_load(
                state, step, table, create_table_sql(table), getattr(data, table)
            )

    def prepare(self, state: State, inputs: Inputs) -> None:
        """Untimed: draw the round's parameters from the inputs."""

    def ops(self, state: State, round_no: int) -> List[Op]:
        raise NotImplementedError

    def check(self, state: State) -> Tuple[int, int]:
        return 0, 0


class TpchPower(Workload):
    name = "tpch_power"
    rounds = 10
    scale = 0.002

    def ops(self, state, round_no):
        return [
            Op(f"q{number:02d}.{part}", statement(state.session, sql))
            for number in sorted(QUERIES)
            for part, sql in enumerate(QUERIES[number])
        ]


class ScanCold(Workload):
    name = "scan_cold"
    rounds = 10
    scale = 0.001
    #: 128 KiB of block cache is less than a tenth of the decoded working
    #: set: the hit ratio must read below 0.05.
    engine_options = {"block_cache_bytes": 128 * 1024}
    FORMATS = (("ao", "zlib1"), ("co", "zlib5"), ("parquet", "snappy"))
    SHAPES = (
        ("q6_filter_sum",
         "SELECT sum(l_extendedprice * l_discount) FROM {t} "
         "WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01' "
         "AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24"),
        ("q1_group_agg",
         "SELECT l_returnflag, l_linestatus, sum(l_quantity), sum(l_extendedprice), "
         "avg(l_discount), count(*) FROM {t} WHERE l_shipdate <= DATE '1998-09-02' "
         "GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus"),
        ("count_one_column", "SELECT count(l_orderkey) FROM {t}"),
        ("wide_selective",
         "SELECT * FROM {t} WHERE l_quantity = 1 AND l_discount = 0.1 "
         "ORDER BY l_orderkey, l_linenumber"),
    )

    def load(self, state, data, step):
        for storage, compression in self.FORMATS:
            name = f"lineitem_{storage}"
            create_and_load(
                state, step, name,
                renamed_ddl("lineitem", name, storage, compression), data.lineitem,
            )

    def ops(self, state, round_no):
        return [
            Op(f"{storage}.{shape}", statement(state.session, sql.format(t=f"lineitem_{storage}")))
            for storage, _ in self.FORMATS
            for shape, sql in self.SHAPES
        ]


#: The ten short-statement templates: (table whose key is drawn, index of
#: the key column in that table's rows, SQL with ``{k}``).
SHORT_TEMPLATES = (
    ("customer", 0, "SELECT c_custkey, c_name, c_acctbal FROM customer WHERE c_custkey = {k}"),
    ("orders", 0, "SELECT o_orderkey, o_orderstatus, o_totalprice FROM orders WHERE o_orderkey = {k}"),
    ("part", 0, "SELECT p_partkey, p_name, p_retailprice FROM part WHERE p_partkey = {k}"),
    ("lineitem", 0,
     "SELECT l_linenumber, l_quantity, l_extendedprice FROM lineitem "
     "WHERE l_orderkey = {k} ORDER BY l_linenumber"),
    ("customer", 0,
     "SELECT c_name, n_name FROM customer, nation "
     "WHERE c_nationkey = n_nationkey AND c_custkey = {k}"),
    ("supplier", 0,
     "SELECT s_name, n_name FROM supplier, nation "
     "WHERE s_nationkey = n_nationkey AND s_suppkey = {k}"),
    ("orders", 1, "SELECT count(*), sum(o_totalprice) FROM orders WHERE o_custkey = {k}"),
    ("lineitem", 0, "SELECT count(*), max(l_shipdate) FROM lineitem WHERE l_orderkey = {k}"),
    ("orders", 1,
     "SELECT o_orderkey, o_totalprice FROM orders WHERE o_custkey = {k} "
     "ORDER BY o_totalprice DESC, o_orderkey LIMIT 3"),
    ("partsupp", 0,
     "SELECT ps_suppkey, ps_supplycost FROM partsupp WHERE ps_partkey = {k} "
     "ORDER BY ps_supplycost, ps_suppkey LIMIT 2"),
)


def draw_short_statements(data, rng: random.Random, per_template: int) -> List[str]:
    """``per_template`` statements of every template, keys drawn from the
    data and the order shuffled: the mix is fixed, only keys and order
    follow the seed, so every seed costs about the same."""
    out = []
    for table, column, sql in SHORT_TEMPLATES:
        rows = getattr(data, table)
        for _ in range(per_template):
            out.append(sql.format(k=rows[rng.randrange(len(rows))][column]))
    rng.shuffle(out)
    return out


class ShortSerial(Workload):
    name = "short_serial"
    rounds = 7
    scale = 0.001
    #: x 10 templates = 400 statements a round.
    PER_TEMPLATE = 40

    def prepare(self, state, inputs):
        state.statements = draw_short_statements(
            inputs.data, inputs.rng(self.name), 4 if inputs.quick else self.PER_TEMPLATE
        )

    def ops(self, state, round_no):
        return [
            Op(f"s{index:03d}", statement(state.session, sql))
            for index, sql in enumerate(state.statements)
        ]


class ShortStreams(Workload):
    name = "short_streams"
    rounds = 8
    scale = 0.001
    #: Each batch is 2 statements of every template dealt round-robin to
    #: 8 closed-loop streams (2-3 statements each).
    BATCHES, STREAMS, PER_TEMPLATE = 16, 8, 2

    def prepare(self, state, inputs):
        rng = inputs.rng(self.name)
        state.batches = []
        for _ in range(2 if inputs.quick else self.BATCHES):
            statements = draw_short_statements(inputs.data, rng, self.PER_TEMPLATE)
            state.batches.append(
                [statements[i::self.STREAMS] for i in range(self.STREAMS)]
            )

    @staticmethod
    def _batch(engine, streams) -> Callable[[], Outcome]:
        def run() -> Outcome:
            batch = ConcurrentRunner(engine, streams).run()
            rows = sorted(
                (o.stream, o.index, o.rows if o.ok else repr(o.error))
                for o in batch.outcomes
            )
            return Outcome(rows, batch.makespan)

        return run

    def ops(self, state, round_no):
        return [
            Op(f"b{index:02d}", self._batch(state.engine, streams))
            for index, streams in enumerate(state.batches)
        ]

    def check(self, state):
        """Every stream outcome against its serial twin."""
        failed = attempted = 0
        for op, streams in zip(self.ops(state, 0), state.batches):
            for stream, index, rows in op.fn().rows:
                attempted += 1
                failed += rows != state.session.execute(streams[stream][index]).rows
        return attempted, failed


class LoadWrite(Workload):
    name = "load_write"
    rounds = 7
    scale = 0.006
    FORMATS = (("ao", "none"), ("co", "zlib5"), ("parquet", "snappy"))
    CHUNKS = 4
    INSERTS = 10
    READ_BACKS = (
        ("count_sum", "SELECT count(*), sum(o_totalprice) FROM {t}"),
        ("by_priority",
         "SELECT o_orderpriority, count(*) FROM {t} "
         "GROUP BY o_orderpriority ORDER BY o_orderpriority"),
    )

    def load(self, state, data, step):
        """Nothing is preloaded: each round creates what it reads."""

    def prepare(self, state, inputs):
        state.orders = inputs.data.orders

    def _table_ops(self, state, name: str, storage: str, compression: str) -> List[Op]:
        session, rows = state.session, state.orders
        ops = [Op(f"{storage}.create",
                  statement(session, renamed_ddl("orders", name, storage, compression)))]
        size = -(-len(rows) // self.CHUNKS)
        for chunk in range(self.CHUNKS):
            ops.append(Op(f"{storage}.load{chunk}",
                          load_chunk(session, name, rows[chunk * size:(chunk + 1) * size])))
        custkey = rows[0][1]
        for i in range(self.INSERTS):
            ops.append(Op(
                f"{storage}.insert{i}",
                statement(
                    session,
                    f"INSERT INTO {name} VALUES ({90000000 + i}, {custkey}, 'O', "
                    f"{1000 + i}.25, '1995-06-17', '1-URGENT', 'Clerk#000000001', 0, "
                    f"'bench row {i}')",
                ),
            ))
        ops.append(Op(f"{storage}.analyze", statement(session, f"ANALYZE {name}")))
        for label, sql in self.READ_BACKS:
            ops.append(Op(f"{storage}.{label}", statement(session, sql.format(t=name))))
        return ops

    def ops(self, state, round_no, keep: bool = False):
        # DROP TABLE leaves the table's HDFS files, so a later CREATE +
        # load under the same name raises FileAlreadyExists: every round
        # gets its own names (fixed width, so plan sizes do not change).
        names = {storage: f"orders_{storage}_r{round_no:03d}" for storage, _ in self.FORMATS}
        ops: List[Op] = []
        for storage, compression in self.FORMATS:
            ops += self._table_ops(state, names[storage], storage, compression)
        session = state.session
        ops.append(Op(
            "insert_select",
            statement(session,
                      f"INSERT INTO {names['co']} SELECT * FROM {names['ao']} "
                      f"WHERE o_orderkey >= 90000000"),
        ))
        ops.append(Op("co.count_after",
                      statement(session, self.READ_BACKS[0][1].format(t=names["co"]))))
        ops.append(Op("vacuum", statement(session, "VACUUM")))
        if not keep:
            for storage, _ in self.FORMATS:
                ops.append(Op(f"{storage}.truncate",
                              statement(session, f"TRUNCATE TABLE {names[storage]}")))
                ops.append(Op(f"{storage}.drop",
                              statement(session, f"DROP TABLE {names[storage]}")))
        return ops

    def check(self, state):
        """Read-back counts against the rows generated, then fail the
        master over and re-read every committed table: acknowledged
        writes must survive."""
        attempted = failed = 0
        for op in self.ops(state, 999, keep=True):
            op.fn()
        loaded = len(state.orders) + self.INSERTS
        expected = {"ao": loaded, "parquet": loaded, "co": loaded + self.INSERTS}
        names = {storage: f"orders_{storage}_r999" for storage, _ in self.FORMATS}
        for storage, name in names.items():
            state.tables[name] = state.orders
            attempted += 1
            count = state.session.execute(f"SELECT count(*) FROM {name}").rows
            failed += count != [(expected[storage],)]
        before = {
            name: state.session.execute(self.READ_BACKS[1][1].format(t=name)).rows
            for name in names.values()
        }
        state.engine.crash_master()
        session = state.engine.connect()
        for name, rows in before.items():
            attempted += 1
            failed += session.execute(self.READ_BACKS[1][1].format(t=name)).rows != rows
        return attempted, failed


WORKLOADS = {
    workload.name: workload
    for workload in (TpchPower(), ScanCold(), ShortSerial(), ShortStreams(), LoadWrite())
}
