"""The HAWQ engine facade: master, sessions, and the full SQL surface.

``Engine`` stands up a whole simulated cluster — HDFS DataNodes,
stateless segments, the unified catalog service on the master, a warm
standby fed by log shipping, and a fault detector — and ``Session``
(from :meth:`Engine.connect`) is the libpq-equivalent: it parses,
analyzes, plans, dispatches self-described plans and returns results
with their simulated cost. DDL, ANALYZE and the security verbs are
:mod:`repro.ddl`'s; every statement reaches a relation through the one
access step, :meth:`Session.access_relation`.

Typical use::

    from repro import Engine

    engine = Engine(num_segment_hosts=4, segments_per_host=2)
    session = engine.connect()
    session.execute("CREATE TABLE t (a INT, b TEXT) DISTRIBUTED BY (a)")
    session.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
    result = session.execute("SELECT a, count(*) FROM t GROUP BY a")
    print(result.rows, result.cost.seconds)
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro import ddl
from repro.catalog import master_relations
from repro.catalog.schema import TableSchema
from repro.catalog.security import PermissionDenied, SecurityManager
from repro.catalog.service import CatalogService
from repro.catalog.stats import TableStats
from repro.cluster.fault import FaultDetector
from repro.cluster.segment import Segment
from repro.cluster.standby import StandbyMaster
from repro.cluster.worker import SegmentWorker, WorkerServices
from repro.errors import (
    CatalogError,
    DuplicateObject,
    MasterUnavailable,
    ReproError,
    SemanticError,
    SqlError,
    TransactionError,
    UndefinedObject,
)
from repro.executor.concurrent import run_statement
from repro.executor.runner import (
    DistributedRuntime,
    ExecutionContext,
    QueryResult,
)
from repro.hdfs import Hdfs
from repro.obs.activity import ClusterTelemetry
from repro.obs.explain import render_analyze
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceCollector
from repro.planner.analyzer import Analyzer
from repro.planner.dispatch import QD_SEGMENT, build_self_described_plan
from repro.planner.logical import LogicalQuery
from repro.planner.planner import Planner, PlannerOptions
from repro.pxf.registry import PxfRegistry
from repro.simtime import CostAccumulator, CostModel, QueryCost
from repro.sql import ast
from repro.sql.parser import parse_sql
from repro.storage import table as table_files
from repro.storage.base import rows_from_blocks
from repro.storage.cache import (
    DEFAULT_CAPACITY_BYTES as DEFAULT_CACHE_BYTES,
    BlockDecodeCache,
)
from repro.txn.locks import LockMode
from repro.txn.manager import IsolationLevel, Transaction, TransactionManager
from repro.txn.mvcc import Snapshot


class Engine:
    """One simulated HAWQ cluster."""

    #: The HDFS directory that holds every table's files.
    data_path = "/hawq"

    def __init__(
        self,
        num_segment_hosts: int = 4,
        segments_per_host: int = 2,
        cost_model: Optional[CostModel] = None,
        seed: int = 0,
        replication: int = 3,
        block_size: int = 256 * 1024,
        interconnect: str = "udp",
        planner_options: Optional[PlannerOptions] = None,
        metadata_dispatch: bool = True,
        pipelined: bool = True,
        work_mem: float = 1.5e9,
        executor_mode: str = "batch",
        block_cache_bytes: int = DEFAULT_CACHE_BYTES,
        max_query_retries: int = 3,
    ):
        self.cost_model = cost_model or CostModel()
        self.interconnect = interconnect
        self.metadata_dispatch = metadata_dispatch
        self.pipelined = pipelined
        self.work_mem = work_mem
        self.planner_options = planner_options or PlannerOptions()
        self.seed = seed
        if executor_mode not in ("row", "batch"):
            raise ReproError(f"unknown executor_mode {executor_mode!r}")
        #: 'batch' (default) runs every operator on column batches; 'row'
        #: is the reference executor, the oracle of the differential tests
        #: and the perf harness. Results and simulated costs are identical.
        self.executor_mode = executor_mode
        #: Segment-local LRU cache of decoded storage blocks; 0 disables.
        #: Cache hits replay their original simulated charges, so figures
        #: are unchanged by it.
        self.block_cache = (
            BlockDecodeCache(block_cache_bytes) if block_cache_bytes else None
        )
        #: Bounded query-restart policy (paper §2.6: restarting a query
        #: against failover assignments beats heavyweight recovery).
        self.max_query_retries = max_query_retries
        #: Optional chaos fault injector (see :mod:`repro.chaos`). The
        #: engine reports scan progress to it and it fires scheduled
        #: faults on the simulated clock, possibly mid-query.
        self.chaos = None
        #: Engine-wide observability counters (see :mod:`repro.obs`);
        #: sessions diff its levels per statement onto
        #: ``QueryResult.metrics``. Purely passive — never charged.
        self.metrics = MetricsRegistry()
        #: The live statement loops (:class:`repro.executor.concurrent.
        #: StatementLoop`), innermost last: a batch, a lone statement, or
        #: a lone statement nested in a batch (``INSERT … SELECT`` in a
        #: stream). A loop is on the stack while it runs; a cancel
        #: request is offered to each, and the system views read them.
        self._loops: list = []
        #: Query ids with a pending cancellation request: workers refuse
        #: new slices and scan lanes for a cancelled id, and the loop
        #: that runs the statement settles it and consumes the request.
        self._cancel_requests: set = set()

        self.hdfs = Hdfs(block_size=block_size, replication=replication, seed=seed)
        self.hosts = [f"host{i}" for i in range(num_segment_hosts)]
        for host in self.hosts:
            self.hdfs.add_datanode(host, num_disks=12)
        self.segments = [
            Segment(segment_id=i, host=self.hosts[i % num_segment_hosts])
            for i in range(num_segment_hosts * segments_per_host)
        ]
        self.num_segments = len(self.segments)

        self.txns = TransactionManager(
            delete_files=lambda paths: table_files.delete(self, paths)
        )
        self.catalog = CatalogService(
            on_change=self._on_catalog_change, aborted=self.txns.xids.aborted
        )
        #: Each dispatched table's metadata and wire bytes, under the
        #: catalog versions they were built from (see
        #: :func:`~repro.planner.dispatch.build_self_described_plan`).
        self.dispatch_memo: dict = {}
        #: The warm standby master; None once a crash consumed it.
        self.standby = StandbyMaster(self.txns.wal)
        self.fault_detector = FaultDetector(self.segments, seed=seed)
        self.pxf = PxfRegistry()
        self.pxf.attach_hdfs(self.hdfs)
        self.security = SecurityManager()
        #: Passive cluster telemetry behind the pg_stat_* system views
        #: (:mod:`repro.catalog.master_relations`): it reads live
        #: statement / queue / segment state off the running loops, and
        #: every settled statement lands in its workload repository.
        #: Reads only — lint R6 keeps the views passive.
        self.telemetry = ClusterTelemetry(
            segments=self.segments,
            loops=self._loops,
            is_cancelled=self.is_cancelled,
        )
        self.load_rng = itertools.count()  # round-robin for random dist
        #: Engine-wide statement id allocator: every dispatched query
        #: gets a unique id so RPCs and traces from concurrent sessions
        #: stay attributable (and selectable) per statement.
        self._query_ids = itertools.count(1)

        with self.txns.run() as txn:
            for segment in self.segments:
                self.catalog.register_segment(segment.segment_id, segment.host, txn.xid)

        #: The engine's one QD/QE process group: every statement loop runs
        #: on it, in dispatch order on its one in-order queue.
        self.runtime = DistributedRuntime(self.metrics, self.interconnect)
        #: What every worker borrows, a revived one too.
        self._worker_services = WorkerServices(
            hdfs=self.hdfs,
            block_cache=self.block_cache,
            pxf=self.pxf,
            segments=self.segments,
            master_rows=functools.partial(master_relations.rows, self),
            chaos_point=self.chaos_point,
            chaos_progress=self.chaos_progress,
            num_segments=self.num_segments,
            metrics=self.metrics,
            is_cancelled=self.is_cancelled,
        )
        for segment in self.segments:
            self.spawn_worker(segment.segment_id)
        self.spawn_worker(QD_SEGMENT)

    # --------------------------------------------------------------- plumbing
    def _on_catalog_change(self, table: str, op: str, row: dict, xid: int) -> None:
        self.txns.wal.append(xid, "change", table=table, op=op, row=row)

    def connect(self, role: str = "gpadmin") -> "Session":
        """Open a session (the JDBC/ODBC/libpq stand-in) as ``role``."""
        self.security.role(role)  # must exist
        return Session(self, role=role)

    # --------------------------------------------------------- fault handling
    def run_fault_detection(self) -> List[int]:
        """Master-side fault detector pass: mark dead segments down in the
        catalog (paper Section 2.6)."""
        down = self.fault_detector.check()
        if down:
            with self.txns.run() as txn:
                snapshot = txn.statement_snapshot()
                for segment_id in down:
                    self.catalog.set_segment_status(
                        segment_id, "down", txn.xid, snapshot
                    )
        return down

    def fail_segment(self, segment_id: int) -> None:
        self.fault_detector.fail_segment(segment_id)
        self.run_fault_detection()

    def drop_worker_channel(self, segment_id: int) -> None:
        """Kill a segment's QE process: its RPC channel closes, so the
        master can no longer dispatch to it and the (dead) worker's own
        reports fail with ``SegmentDown``, which the statement loop's
        bounded restart turns into a query restart. Inside a statement or
        between two, the next attempt to start revives it."""
        self.runtime.bus.drop(f"seg{segment_id}")

    # ----------------------------------------------------------- cancellation
    def cancel_query(self, query_id: int) -> None:
        """Request cancellation of an in-flight statement by id.

        Segment workers refuse further slices and scan lanes tagged
        with the id, and the loop running the statement is told at
        once, so the cancellation lands at the current simulated time.
        Cancelling an unknown or finished id is a silent no-op (the
        pg_cancel_backend contract).
        """
        self._cancel_requests.add(query_id)
        for loop in list(self._loops):
            loop.cancel(query_id)

    def is_cancelled(self, query_id: int) -> bool:
        """True when ``query_id`` has a pending cancellation request."""
        return query_id in self._cancel_requests

    def recover_segment(self, segment_id: int) -> None:
        self.fault_detector.recover_segment(segment_id)
        with self.txns.run() as txn:
            self.catalog.set_segment_status(
                segment_id, "up", txn.xid, txn.statement_snapshot()
            )

    def promote_standby(self) -> None:
        """Fail the master over to the warm standby."""
        if self.standby is None:
            raise ReproError("no standby master remains to promote")
        self.catalog = self.standby.promote()
        # The promoted catalog starts logging to the (new) WAL so a
        # future standby could be attached, and reads xid fates from
        # this master's transaction manager.
        self.catalog._on_change = self._on_catalog_change
        for table in self.catalog.tables.values():
            table._on_change = self._on_catalog_change
            table._aborted = self.txns.xids.aborted

    def crash_master(self) -> List[int]:
        """Simulate a primary-master crash and fail over to the standby.

        In-flight transactions die with the master: they are aborted
        (running truncate-on-abort, the stand-in for post-crash garbage
        collection) so committed data survives intact and uncommitted
        appends leave no bytes behind. The warm standby is promoted and
        becomes the authoritative catalog; the consumed standby slot is
        cleared. Returns the aborted xids.
        """
        if self.standby is None:
            raise MasterUnavailable(
                "primary master crashed and no standby remains to promote"
            )
        aborted = self.txns.abort_all_active()
        self.promote_standby()
        self.standby = None
        return aborted

    # ----------------------------------------------------------- chaos hooks
    def attach_chaos(self, injector) -> None:
        """Install a :class:`repro.chaos.FaultInjector` on this engine."""
        if self.chaos is not None:
            self.chaos.detach()
        self.chaos = injector

    def chaos_point(self, segment_id: Optional[int] = None) -> None:
        """Instrumented execution point: fire any due fault events."""
        if self.chaos is not None:
            self.chaos.tick(segment_id=segment_id, in_query=True)

    def chaos_progress(
        self, seconds: float, segment_id: Optional[int] = None
    ) -> None:
        """Advance the chaos clock by completed simulated work."""
        if self.chaos is not None:
            self.chaos.pulse(seconds, segment_id=segment_id, in_query=True)

    # ------------------------------------------------------------- processes
    def spawn_worker(self, segment_id: int) -> None:
        """Start a QE process for ``segment_id`` on the engine's runtime:
        once per segment, and for the master's own loopback worker, as
        the engine is built; and for a killed worker, whose replacement
        (segments are stateless) revives the name on a channel of its own."""
        runtime = self.runtime
        SegmentWorker(
            segment_id, runtime.bus, runtime.exchange, self._worker_services
        )
        self.metrics.counter("workers_spawned").inc()


class Session:
    """One client session: query dispatcher (QD) state lives here."""

    def __init__(self, engine: Engine, role: str = "gpadmin"):
        self.engine = engine
        self.role = role
        self._txn: Optional[Transaction] = None
        self.default_isolation = IsolationLevel.READ_COMMITTED
        self.last_plan = None
        #: ``SET trace = on`` records a :class:`repro.obs.trace.
        #: QueryTrace` per dispatched statement on :attr:`tracer`.
        self.trace_enabled = False
        self.tracer = TraceCollector(engine.num_segments)
        #: ``SET resource_queue = name`` routes this session's queries
        #: through a specific queue instead of the role's default.
        self._queue_override: Optional[str] = None
        #: ``SET statement_timeout = <simulated seconds>``: a SELECT not
        #: settled that long after it was submitted (queue wait
        #: included) is cancelled with
        #: :class:`~repro.errors.QueryCanceled`. 0.0 disables.
        self.statement_timeout = 0.0

    # ------------------------------------------------------------ public api
    def execute(self, sql: str, params: Sequence[object] = ()) -> QueryResult:
        """Execute a statement (or several, returning the last result)."""
        statements = parse_sql(sql)
        if not statements:
            raise SqlError("empty statement")
        result: Optional[QueryResult] = None
        for stmt in statements:
            result = self._execute_statement(stmt, sql)
        return result

    def query(self, sql: str) -> List[tuple]:
        """Convenience: execute and return rows only."""
        return self.execute(sql).rows

    def cancel(self, query_id: int) -> None:
        """Cancel an in-flight statement by its engine-wide query id
        (the pg_cancel_backend stand-in — any session may cancel any
        statement). No-op for unknown or already-finished ids."""
        self.engine.cancel_query(query_id)

    @property
    def in_transaction(self) -> bool:
        return self._txn is not None and self._txn.state == "active"

    # ------------------------------------------------------------- dispatch
    def _execute_statement(self, stmt: ast.Statement, sql: str) -> QueryResult:
        if isinstance(stmt, ast.SelectStmt):
            return run_statement(self._prepare_statement(stmt, sql))
        session_verb = _SESSION_VERBS.get(type(stmt))
        if session_verb is not None:
            # It manages the session itself: no transaction of its own,
            # no metrics attribution.
            result = session_verb(self, stmt)
            self.engine.telemetry.record_statement(sql, result)
            return result
        verb = _VERBS.get(type(stmt))
        if verb is None:
            raise SqlError(f"unsupported statement {type(stmt).__name__}")
        statement = self._open_statement(sql)
        try:
            result = verb(self, stmt, statement.txn)
        except Exception:
            statement.fail()
            raise
        statement.finish(result)
        return result

    def _open_statement(self, sql: str) -> "_StatementBracket":
        """Open the per-statement bracket: the session's explicit
        transaction when one is open, an implicit one otherwise."""
        engine = self.engine
        metrics_before = engine.metrics.levels()
        wal_before = len(engine.txns.wal)
        implicit = not self.in_transaction
        txn = engine.txns.begin(self.default_isolation) if implicit else self._txn
        return _StatementBracket(
            self, sql, txn, implicit, metrics_before, wal_before
        )

    # ------------------------------------------------------------- txn verbs
    def _begin(self, stmt: ast.BeginStmt) -> QueryResult:
        if self.in_transaction:
            raise TransactionError("already in a transaction")
        isolation = (
            IsolationLevel.parse(stmt.isolation)
            if stmt.isolation
            else self.default_isolation
        )
        self._txn = self.engine.txns.begin(isolation)
        return ddl.ok("BEGIN")

    def _commit(self, stmt: ast.CommitStmt) -> QueryResult:
        if not self.in_transaction:
            raise TransactionError("no transaction in progress")
        self.engine.txns.commit(self._txn)
        self._txn = None
        return ddl.ok("COMMIT")

    def _rollback(self, stmt: ast.RollbackStmt) -> QueryResult:
        if not self.in_transaction:
            raise TransactionError("no transaction in progress")
        self.engine.txns.abort(self._txn)
        self._txn = None
        return ddl.ok("ROLLBACK")

    def _set(self, stmt: ast.SetStmt) -> QueryResult:
        """A session GUC; one this session does not keep is accepted and
        ignored."""
        value = str(stmt.value).lower()
        if stmt.name == "transaction_isolation":
            self.default_isolation = IsolationLevel.parse(stmt.value)
        elif stmt.name == "role":
            self.engine.security.role(value)  # must exist
            self.role = value
        elif stmt.name == "trace":
            self.trace_enabled = value in ("on", "true", "1", "yes")
        elif stmt.name == "resource_queue":
            queue = None if value in ("default", "") else value
            if queue is not None and queue not in self.engine.security.queues:
                raise CatalogError(f"resource queue {value!r} does not exist")
            self._queue_override = queue
        elif stmt.name == "statement_timeout":
            try:
                seconds = 0.0 if value in ("off", "") else float(value)
            except ValueError:
                raise SqlError(
                    f"invalid statement_timeout value {stmt.value!r}"
                ) from None
            if seconds < 0:
                raise SqlError("statement_timeout may not be negative")
            self.statement_timeout = seconds
        return ddl.ok("SET")

    # ------------------------------------------------------- relation access
    def require_superuser(self, action: str) -> None:
        if not self.engine.security.role(self.role).superuser:
            raise PermissionDenied(f"{action} requires a superuser role")

    def access_relation(
        self,
        txn: Transaction,
        snapshot: Snapshot,
        name: str,
        mode: LockMode,
        privilege: Optional[str] = None,
        relation: Optional[dict] = None,
        if_exists: bool = False,
    ) -> Optional[dict]:
        """The one step by which a statement reaches a relation, in
        PostgreSQL's order: look up its visible ``pg_class`` row (unless
        the caller resolved it under ``snapshot`` already), check
        ``privilege`` — the owner and a superuser always hold it — and
        only then lock it, so an unprivileged role never holds or waits
        on a lock. The lock does not wait: a conflicting holder fails the
        statement with :class:`~repro.errors.LockTimeout`. A statement
        that writes fails to serialize, once it holds the lock, if a
        transaction its snapshot cannot see changed ``name``'s catalog
        rows. Without a ``privilege`` the statement creates ``name``: it
        locks it and fails if its snapshot sees one. Returns the row; None
        for a missing one under ``if_exists``."""
        name = name.lower()
        engine = self.engine
        if privilege is not None:
            if relation is None:
                relation = engine.catalog.lookup_relation(name, snapshot)
                if relation is None:
                    if if_exists:
                        return None
                    raise UndefinedObject(f"relation {name!r} does not exist")
            if relation["owner"] != self.role:
                engine.security.check(self.role, privilege, name)
        txn.lock(f"rel:{name}", mode, wait=False)
        if privilege is None and engine.catalog.lookup_relation(name, snapshot):
            raise DuplicateObject(f"relation {name!r} already exists")
        xids = engine.txns.xids
        if mode > LockMode.ACCESS_SHARE and xids.committed_since(snapshot):
            names = [name, *table_files.leaves(relation)] if relation else [name]
            if engine.catalog.written_since(snapshot, names, xids.committed):
                raise TransactionError(
                    f"could not serialize access to {name}: a transaction "
                    f"this snapshot cannot see changed it"
                )
        return relation

    # ---------------------------------------------------------------- SELECT
    def prepare_select(self, sql: str) -> Optional["PreparedSelect"]:
        """Front half of one SELECT, for a caller that drives the back
        half itself (:class:`~repro.executor.concurrent.ConcurrentRunner`
        feeds it to its shared statement loop): parse, analyze, lock,
        plan, and allocate the query id and trace — without dispatching
        anything.

        The statement's bracket stays open — its transaction, the
        session's explicit one when there is one — until the loop calls
        :meth:`PreparedSelect.finish` (or :meth:`~PreparedSelect.fail`).
        Non-SELECT statements (and multi-statement strings) return None
        — the runner executes those synchronously through
        :meth:`execute`.
        """
        statements = parse_sql(sql)
        if len(statements) != 1 or not isinstance(statements[0], ast.SelectStmt):
            return None
        return self._prepare_statement(statements[0], sql)

    def _prepare_statement(self, stmt: ast.SelectStmt, sql: str) -> "PreparedSelect":
        """A top-level SELECT: open its bracket, prepare inside it."""
        statement = self._open_statement(sql)
        try:
            return self._prepare(stmt, statement.txn, statement=statement)
        except Exception:
            statement.fail()
            raise

    def _prepare(
        self,
        stmt: ast.SelectStmt,
        txn: Transaction,
        statement: Optional["_StatementBracket"] = None,
        force_trace: bool = False,
    ) -> "PreparedSelect":
        """The one front half: everything a SELECT needs before it can
        be offered to a resource queue, under ``txn``'s snapshot."""
        engine = self.engine
        snapshot = txn.statement_snapshot()
        plan = self._plan_select(stmt, txn, snapshot)
        queue = self._resource_queue()
        memory = min(engine.work_mem, queue.memory_limit)
        query_id = next(engine._query_ids)
        trace = (
            self.tracer.begin_query(query_id=query_id)
            if (self.trace_enabled or force_trace)
            else None
        )
        return PreparedSelect(
            session=self,
            plan=plan,
            sdp=build_self_described_plan(
                plan, engine.catalog, snapshot, engine.dispatch_memo
            ),
            ctx=ExecutionContext(
                num_segments=engine.num_segments,
                cost_model=engine.cost_model,
                interconnect=engine.interconnect,
                pipelined=engine.pipelined,
                work_mem=memory,
                executor_mode=engine.executor_mode,
                metadata_dispatch=engine.metadata_dispatch,
                trace=trace,
                query_id=query_id,
            ),
            query_id=query_id,
            trace=trace,
            queue_name=queue.name,
            memory=memory,
            statement_timeout=self.statement_timeout,
            statement=statement,
        )

    def _plan_select(self, stmt: ast.SelectStmt, txn: Transaction, snapshot: Snapshot):
        """Analyze, reach every table read with ACCESS SHARE and SELECT,
        plan. Plain EXPLAIN stops here: no slot, nothing dispatched."""
        adapter = ddl.CatalogAdapter(self.engine.catalog, snapshot)
        query = Analyzer(adapter).analyze(stmt)
        names = query.tables(subplans=True)
        for name in names:
            if not master_relations.is_master_only(name):
                self.access_relation(
                    txn, snapshot, name, LockMode.ACCESS_SHARE, "select",
                    relation=adapter.rows[name],
                )
        return self._plan(query, snapshot, names)

    def _plan(self, query: LogicalQuery, snapshot: Snapshot, names: List[str]):
        """Plan ``query``; ``names`` is ``query.tables(subplans=True)``,
        every table it reads, subqueries included."""
        engine = self.engine
        stats: Dict[str, TableStats] = {}
        for name in query.tables():
            table_stats = engine.catalog.get_stats(name, snapshot)
            if table_stats is not None:
                stats[name] = table_stats
        planner = Planner(
            num_segments=engine.num_segments,
            stats=stats,
            options=engine.planner_options,
            partition_children=self._partition_children(names, snapshot),
        )
        return planner.plan(query)

    def _resource_queue(self):
        """The session's admission queue: the ``SET resource_queue``
        override when present, else the role's assigned queue."""
        if self._queue_override is not None:
            return self.engine.security.queues[self._queue_override]
        return self.engine.security.queue_for(self.role)

    def _partition_children(
        self, names: List[str], snapshot: Snapshot
    ) -> Dict[str, List]:
        """Children of the partitioned tables among ``names``, the tables
        a statement reads — the planner asks about no other relation."""
        return {
            relation["name"]: relation["children"]
            for relation in self.engine.catalog.relations(snapshot, names)
            if relation["children"]
        }

    # ---------------------------------------------------------------- INSERT
    def _insert(self, stmt: ast.InsertStmt, txn: Transaction) -> QueryResult:
        engine = self.engine
        snapshot = txn.statement_snapshot()
        relation = self.access_relation(
            txn, snapshot, stmt.table, LockMode.ROW_EXCLUSIVE, "insert"
        )
        schema = relation["schema"]

        if stmt.select is not None:
            # in this statement's transaction, under its bracket
            raw_rows = run_statement(self._prepare(stmt.select, txn)).rows
        else:
            raw_rows = [
                tuple(map(ddl.compile_expr_value, row)) for row in stmt.rows
            ]
        rows = self._shape_rows(schema, stmt.columns, raw_rows)

        if relation["kind"] == "external":
            # WRITABLE external tables export through PXF (Section 6).
            pxf_info = relation["pxf"]
            if not pxf_info.get("writable"):
                raise SemanticError(
                    f"cannot insert into READABLE external table {schema.name!r}"
                )
            acc = CostAccumulator(engine.cost_model)
            count = engine.pxf.write(
                pxf_info, schema, schema.row_codec().coerce_rows(rows), acc
            )
            result = ddl.ok(f"INSERT 0 {count}")
            result.cost.seconds += acc.seconds
            return result
        if relation["kind"] == "view":
            raise SemanticError("cannot insert into a view")

        acc = CostAccumulator(engine.cost_model)
        count = self.load_rows(
            schema.name, rows, txn=txn, snapshot=snapshot, acc=acc
        )
        result = ddl.ok(f"INSERT 0 {count}")
        result.cost = QueryCost.from_accumulator(acc)
        return result

    def _shape_rows(
        self,
        schema: TableSchema,
        columns: Optional[List[str]],
        rows: Sequence[Sequence[object]],
    ) -> Sequence[Sequence[object]]:
        """INSERT's rows in table shape (unnamed columns NULL); whoever
        writes them coerces them."""
        if columns is None:
            return rows
        positions = [schema.column_index(name) for name in columns]
        shaped = []
        for row in rows:
            if len(positions) != len(row):
                raise SemanticError("INSERT column/value count mismatch")
            full: List[object] = [None] * len(schema.columns)
            for position, value in zip(positions, row):
                full[position] = value
            shaped.append(full)
        return shaped

    def load_rows(
        self,
        table: str,
        rows: Iterable[Sequence[object]],
        txn: Optional[Transaction] = None,
        snapshot: Optional[Snapshot] = None,
        acc: Optional[CostAccumulator] = None,
    ) -> int:
        """Bulk-load ``rows`` (the ETL / COPY / INSERT path) in ``txn``,
        which holds the table for the write, or in a transaction of its own,
        which takes INSERT's lock. INSERT and COPY pass an ``acc`` to
        charge the written bytes to; a bare ETL load is setup, uncharged."""
        if txn is not None:
            return table_files.load(self.engine, table, rows, txn, snapshot, acc)
        with self.engine.txns.run(self.default_isolation) as txn:
            snapshot = txn.statement_snapshot()
            self.access_relation(txn, snapshot, table, LockMode.ROW_EXCLUSIVE, "insert")
            return table_files.load(self.engine, table, rows, txn, snapshot, acc)

    def _vacuum(self, stmt: ast.VacuumStmt, txn: Transaction) -> QueryResult:
        """Reclaim physical garbage: truncate segment files back to their
        committed logical lengths (aborted appends) and drop catalog row
        versions no live snapshot can see."""
        engine = self.engine
        if self.in_transaction:
            raise TransactionError("VACUUM cannot run inside a transaction block")
        snapshot = txn.statement_snapshot()
        if stmt.table is not None:
            relations = [
                self.access_relation(
                    txn, snapshot, stmt.table, LockMode.ACCESS_SHARE, "all"
                )
            ]
        else:
            self.require_superuser("VACUUM of every table and the catalog")
            relations = [  # the leaves: a partitioned parent has no files
                r
                for r in engine.catalog.relations(snapshot)
                if r["kind"] == "table" and not r["children"]
            ]
        reclaimed = table_files.vacuum(engine, relations, snapshot, txn.xid)
        dead = 0
        if stmt.table is None:
            horizon = engine.txns.horizon()
            for catalog_table in engine.catalog.tables.values():
                dead += catalog_table.vacuum(horizon)
        return ddl.ok(
            f"VACUUM (reclaimed {reclaimed} bytes, {dead} dead catalog rows)"
        )

    def _copy(self, stmt: ast.CopyStmt, txn: Transaction) -> QueryResult:
        """COPY: bulk load from / unload to delimited text on HDFS —
        the ETL path of paper Section 2.1's interface story."""
        from repro.pxf.files import TextResolver, TextWriter

        engine = self.engine
        snapshot = txn.statement_snapshot()
        copy_in = stmt.direction == "from"
        mode, privilege = (
            (LockMode.ROW_EXCLUSIVE, "insert")
            if copy_in
            else (LockMode.ACCESS_SHARE, "select")
        )
        relation = self.access_relation(txn, snapshot, stmt.table, mode, privilege)
        schema = relation["schema"]
        path = stmt.path if stmt.path.startswith("/") else "/" + stmt.path
        if copy_in:
            resolver = TextResolver(stmt.delimiter)
            acc = CostAccumulator(engine.cost_model)
            raw = engine.hdfs.client().read_file(path).decode("utf-8")
            acc.disk_read(len(raw))
            # Text fields: load_rows parses them as it coerces.
            rows = [
                resolver.fields(line, schema)
                for line in raw.splitlines()
                if line
            ]
            count = self.load_rows(
                schema.name, rows, txn=txn, snapshot=snapshot, acc=acc
            )
            result = ddl.ok(f"COPY {count}")
            result.cost = QueryCost.from_accumulator(acc)
            return result
        rows = list(
            rows_from_blocks(
                table_files.read(engine, relation, snapshot),
                len(schema.columns),
            )
        )
        writer = TextWriter(engine.hdfs, stmt.delimiter)
        acc = CostAccumulator(engine.cost_model)
        unloaded = writer.write(path, rows, schema)
        acc.disk_write(unloaded, replicated=True)
        acc.cpu_tuples(len(rows), ncolumns=len(schema.columns))
        result = ddl.ok(f"COPY {len(rows)}")
        result.cost = QueryCost.from_accumulator(acc)
        return result

    # --------------------------------------------------------------- EXPLAIN
    def _explain(self, stmt: ast.ExplainStmt, txn: Transaction) -> QueryResult:
        if not isinstance(stmt.statement, ast.SelectStmt):
            raise SqlError("EXPLAIN supports SELECT only")
        if not stmt.analyze:
            plan = self._plan_select(
                stmt.statement, txn, txn.statement_snapshot()
            )
            self.last_plan = plan
            return QueryResult(
                rows=[(line,) for line in plan.explain().splitlines()],
                column_names=["QUERY PLAN"],
                cost=QueryCost(seconds=self.engine.cost_model.query_setup),
                plan=plan,
            )
        # EXPLAIN ANALYZE: actually run the statement — locks, privileges,
        # queue slot and all — with a trace (tracing is passive), and
        # render it from that trace.
        result = run_statement(self._prepare(stmt.statement, txn, force_trace=True))
        return QueryResult(
            rows=[(line,) for line in render_analyze(result, stmt.verbose)],
            column_names=["QUERY PLAN"],
            cost=result.cost,
            plan=result.plan,
        )


#: Statements that manage the session itself, by type.
_SESSION_VERBS = {
    ast.BeginStmt: Session._begin,
    ast.CommitStmt: Session._commit,
    ast.RollbackStmt: Session._rollback,
    ast.SetStmt: Session._set,
}

#: Every other statement but SELECT, by type: ``verb(session, stmt, txn)``.
_VERBS = {
    ast.InsertStmt: Session._insert,
    ast.ExplainStmt: Session._explain,
    ast.CopyStmt: Session._copy,
    ast.VacuumStmt: Session._vacuum,
    **ddl.VERBS,
}


@dataclass
class _StatementBracket:
    """What every statement but a transaction verb or SET runs inside:
    its transaction — the session's explicit one, or an implicit one the
    bracket commits or aborts itself — and the before-images its
    metrics and WAL attribution are diffed against."""

    session: "Session"
    #: Original statement text (pg_stat_statements fingerprinting).
    sql: str
    txn: Transaction
    implicit: bool
    #: ``engine.metrics.levels()`` when the statement opened.
    metrics_before: List[object]
    wal_before: int

    def finish(self, result: QueryResult) -> None:
        """Commit an implicit transaction; attribute by snapshot diff
        everything the cluster counted while the statement ran
        (including its WAL records and commit) to the result, and land
        it in the workload repository."""
        engine = self.session.engine
        if self.implicit:
            engine.txns.commit(self.txn)
        engine.metrics.counter("statements").inc()
        wal_delta = len(engine.txns.wal) - self.wal_before
        if wal_delta:
            engine.metrics.counter("wal_records").inc(wal_delta)
        result.metrics = engine.metrics.since(self.metrics_before)
        engine.telemetry.record_statement(self.sql, result)

    def fail(self) -> None:
        """Abort the transaction; an explicit one is over for the
        session too."""
        self.session.engine.txns.abort(self.txn)
        if not self.implicit:
            self.session._txn = None


@dataclass
class PreparedSelect:
    """One SELECT's front half, ready for a statement loop.

    Produced by :meth:`Session._prepare`: the locks are held, the plan
    is cut and described, the query id and trace are allocated. The
    loop owns the back half — wave dispatch on its runtime as scheduler
    events — and must settle the statement through exactly one of
    :meth:`finish` or :meth:`fail`.
    """

    session: "Session"
    plan: object
    sdp: object
    ctx: ExecutionContext
    query_id: int
    trace: Optional[object]
    queue_name: str
    #: Admission memory ask: the session's work_mem clamped to the
    #: queue's limit (what ResourceQueueManager charges the slot).
    memory: float
    #: The session's ``statement_timeout`` at prepare time (0 = off).
    statement_timeout: float
    #: The statement's own bracket; None for a SELECT inside another
    #: statement, which closes the bracket they share.
    statement: Optional[_StatementBracket]
    settled: bool = False

    def finish(self, result: QueryResult) -> None:
        """Finalize the trace and close the statement's bracket."""
        if self.settled:
            return
        self.settled = True
        if self.trace is not None:
            self.trace.finalize(result)
            result.trace = self.trace
        self.session.last_plan = result.plan
        if self.statement is not None:
            self.statement.finish(result)
        # A pending cancel is consumed with the statement — a later
        # query must never inherit it.
        self.session.engine._cancel_requests.discard(self.query_id)

    def fail(self) -> None:
        """Error or cancellation: fail the statement's bracket."""
        if self.settled:
            return
        self.settled = True
        if self.statement is not None:
            self.statement.fail()
        self.session.engine._cancel_requests.discard(self.query_id)
