"""The HAWQ engine facade: master, sessions, and the full SQL surface.

``Engine`` stands up a whole simulated cluster — HDFS DataNodes,
stateless segments, the unified catalog service on the master, a warm
standby fed by log shipping, and a fault detector — and ``Session``
(from :meth:`Engine.connect`) is the libpq-equivalent: it parses,
analyzes, plans, dispatches self-described plans and returns results
with their simulated cost.

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

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.catalog.schema import (
    Column,
    DataType,
    Distribution,
    Partition,
    PartitionSpec,
    TableSchema,
)
from repro.catalog.security import PermissionDenied, SecurityManager
from repro.catalog.service import (
    CATALOG_RELATION_COLUMNS,
    CatalogService,
    catalog_relation_rows,
    catalog_relation_schema,
)
from repro.catalog.stats import TableStats
from repro.cluster.fault import FaultDetector
from repro.cluster.rpc import RpcBus
from repro.cluster.segment import Segment
from repro.cluster.standby import StandbyMaster
from repro.cluster.worker import SegmentWorker, WorkerServices
from repro.errors import (
    CatalogError,
    ClusterError,
    MasterUnavailable,
    ReproError,
    SemanticError,
    SqlError,
    TransactionError,
    UndefinedObject,
)
from repro.executor.concurrent import run_statement
from repro.executor.expr import _Interval, add_interval, compile_expr
from repro.executor.runner import (
    DistributedRuntime,
    ExecutionContext,
    QueryResult,
)
from repro.hdfs import Hdfs
from repro.interconnect.exchange import ExchangeFabric
from repro.network.simnet import NetworkConditions, SimNetwork
from repro.obs.activity import ClusterTelemetry
from repro.obs.explain import render_analyze
from repro.obs.metrics import MetricsRegistry
from repro.obs.sysviews import (
    SYSTEM_VIEW_COLUMNS,
    system_view_rows,
    system_view_schema,
)
from repro.obs.trace import TraceCollector
from repro.planner import exprs as ex
from repro.planner.analyzer import Analyzer, RelationInfo
from repro.planner.dispatch import QD_SEGMENT, build_self_described_plan
from repro.planner.logical import DerivedSource, LogicalQuery
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
        data_path: str = "/hawq",
        executor_mode: str = "batch",
        block_cache_bytes: int = DEFAULT_CACHE_BYTES,
        max_query_retries: int = 3,
    ):
        self.cost_model = cost_model or CostModel()
        self.interconnect = interconnect
        self.metadata_dispatch = metadata_dispatch
        self.pipelined = pipelined
        self.work_mem = work_mem
        self.data_path = data_path
        self.planner_options = planner_options or PlannerOptions()
        self.seed = seed
        if executor_mode not in ("row", "batch"):
            raise ReproError(f"unknown executor_mode {executor_mode!r}")
        #: 'batch' (default) vectorizes SeqScan→Filter→Project pipelines
        #: and key/aggregate extraction; 'row' is the differential-test
        #: fallback. Results and simulated costs are identical.
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
        #: sessions snapshot-diff it per statement onto
        #: ``QueryResult.metrics``. Purely passive — never charged.
        self.metrics = MetricsRegistry()
        #: The live statement loops (:class:`repro.executor.concurrent.
        #: StatementLoop`), innermost last: a batch, a lone statement, or
        #: a lone statement nested in a batch (``INSERT … SELECT`` in a
        #: stream). A loop is on the stack while it runs; chaos kills
        #: reach workers through the innermost one's runtime, a cancel
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
        self.catalog = CatalogService(on_change=self._on_catalog_change)
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
        #: (:mod:`repro.obs.sysviews`): it reads live statement / queue /
        #: segment state off the running loops, and every settled
        #: statement lands in its workload repository. Reads only — lint
        #: R6 keeps the views passive.
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
        """Kill a segment's QE process in the running process group: its
        RPC channel closes, so the master can no longer dispatch to it
        and the (dead) worker's own reports fail with ``SegmentDown`` —
        which the statement loop's bounded restart turns into a query
        restart on a revived worker. A no-op outside query execution
        (there is no process to kill; the next statement spawns fresh
        workers against failover hosts)."""
        if self._loops:
            self._loops[-1].runtime.bus.drop(f"seg{segment_id}")

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

    def master_rows(self, name: str, snapshot: Snapshot) -> List[tuple]:
        """Rows of a master-only relation: a system view's live state,
        or a catalog table's rows visible to ``snapshot``."""
        if name in SYSTEM_VIEW_COLUMNS:
            return system_view_rows(self.telemetry, name)
        return catalog_relation_rows(self.catalog, name, snapshot)

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
        # future standby could be attached.
        self.catalog._on_change = self._on_catalog_change
        for table in self.catalog.tables.values():
            table._on_change = self._on_catalog_change

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
    def build_runtime(self) -> DistributedRuntime:
        """Stand up a fresh QD/QE process group for one statement loop.

        Everything message-borne rides one :class:`SimNetwork` whose
        conditions mirror the cost model (same latency, zero jitter so
        same-sized dispatches deliver FIFO in segment order — execution
        order, and therefore the chaos clock, stays deterministic). One
        :class:`SegmentWorker` per segment, plus the master's own
        loopback worker for gang "1" slices. Segments are stateless, so
        a restart simply revives a dead worker against fresh failover
        assignments.
        """
        conditions = NetworkConditions(
            latency=self.cost_model.net_latency,
            jitter=0.0,
            bandwidth=self.cost_model.net_bw,
        )
        net = SimNetwork(conditions, seed=self.seed)
        bus = RpcBus(net)
        exchange = ExchangeFabric(net)
        runtime = DistributedRuntime(net, bus, exchange)
        services = WorkerServices(
            hdfs=self.hdfs,
            block_cache=self.block_cache,
            pxf=self.pxf,
            segments=self.segments,
            master_rows=self.master_rows,
            chaos_point=self.chaos_point,
            chaos_progress=self.chaos_progress,
            num_segments=self.num_segments,
            metrics=self.metrics,
            is_cancelled=self.is_cancelled,
        )
        bus.metrics = self.metrics
        exchange.metrics = self.metrics
        for segment in self.segments:
            SegmentWorker(segment.segment_id, bus, exchange, services)
        SegmentWorker(QD_SEGMENT, bus, exchange, services)
        # The statement loop revives killed workers (chaos retries) by
        # re-instantiating them against the same services.
        runtime.services = services
        self.metrics.counter("workers_spawned").inc(self.num_segments + 1)
        return runtime


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
        result = self._session_verb(stmt)
        if result is not None:
            self.engine.telemetry.record_statement(sql, result)
            return result
        statement = self._open_statement(sql)
        try:
            result = self._run_in_txn(stmt, statement.txn)
        except Exception:
            statement.fail()
            raise
        statement.finish(result)
        return result

    def _open_statement(self, sql: str) -> "_StatementBracket":
        """Open the per-statement bracket: the session's explicit
        transaction when one is open, an implicit one otherwise."""
        engine = self.engine
        metrics_before = engine.metrics.snapshot()
        wal_before = len(engine.txns.wal)
        implicit = not self.in_transaction
        txn = engine.txns.begin(self.default_isolation) if implicit else self._txn
        return _StatementBracket(
            self, sql, txn, implicit, metrics_before, wal_before
        )

    def _session_verb(self, stmt: ast.Statement) -> Optional[QueryResult]:
        """Statements that manage the session itself — no transaction of
        their own, no metrics attribution; None for any other."""
        if isinstance(stmt, ast.BeginStmt):
            return self._begin(stmt)
        if isinstance(stmt, ast.CommitStmt):
            return self._commit()
        if isinstance(stmt, ast.RollbackStmt):
            return self._rollback()
        if isinstance(stmt, ast.SetStmt):
            return self._set(stmt)
        return None

    def _run_in_txn(self, stmt: ast.Statement, txn: Transaction) -> QueryResult:
        if isinstance(stmt, ast.InsertStmt):
            return self._insert(stmt, txn)
        if isinstance(stmt, ast.CreateTableStmt):
            return self._create_table(stmt, txn)
        if isinstance(stmt, ast.CreateViewStmt):
            return self._create_view(stmt, txn)
        if isinstance(stmt, ast.CreateExternalTableStmt):
            return self._create_external_table(stmt, txn)
        if isinstance(stmt, ast.DropStmt):
            return self._drop(stmt, txn)
        if isinstance(stmt, ast.AnalyzeStmt):
            return self._analyze(stmt, txn)
        if isinstance(stmt, ast.ExplainStmt):
            return self._explain(stmt, txn)
        if isinstance(stmt, ast.TruncateStmt):
            return self._truncate(stmt, txn)
        if isinstance(stmt, ast.CopyStmt):
            return self._copy(stmt, txn)
        if isinstance(stmt, ast.VacuumStmt):
            return self._vacuum(stmt, txn)
        if isinstance(stmt, ast.AlterTableStmt):
            return self._alter_table(stmt, txn)
        if isinstance(stmt, ast.CreateRoleStmt):
            self._require_superuser("CREATE ROLE")
            self.engine.security.create_role(
                stmt.name, superuser=stmt.superuser,
                resource_queue=stmt.resource_queue,
            )
            return _ok("CREATE ROLE")
        if isinstance(stmt, ast.DropRoleStmt):
            self._require_superuser("DROP ROLE")
            self.engine.security.drop_role(stmt.name)
            return _ok("DROP ROLE")
        if isinstance(stmt, ast.AlterRoleStmt):
            self._require_superuser("ALTER ROLE")
            if stmt.resource_queue:
                self.engine.security.set_role_queue(stmt.name, stmt.resource_queue)
            return _ok("ALTER ROLE")
        if isinstance(stmt, ast.CreateResourceQueueStmt):
            self._require_superuser("CREATE RESOURCE QUEUE")
            options = {k.lower(): v for k, v in stmt.options.items()}
            self.engine.security.create_queue(
                stmt.name,
                active_statements=int(options.get("active_statements", 20)),
                memory_limit=float(options.get("memory_limit", 8e9)),
                priority=int(options.get("priority", 0)),
            )
            return _ok("CREATE RESOURCE QUEUE")
        if isinstance(stmt, ast.DropResourceQueueStmt):
            self._require_superuser("DROP RESOURCE QUEUE")
            self.engine.security.drop_queue(stmt.name)
            return _ok("DROP RESOURCE QUEUE")
        if isinstance(stmt, ast.GrantStmt):
            self._check_privilege("all", stmt.relation, txn)
            if stmt.revoke:
                self.engine.security.revoke(stmt.privilege, stmt.relation, stmt.role)
                return _ok("REVOKE")
            self.engine.security.grant(stmt.privilege, stmt.relation, stmt.role)
            return _ok("GRANT")
        raise SqlError(f"unsupported statement {type(stmt).__name__}")

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
        return _ok("BEGIN")

    def _commit(self) -> QueryResult:
        if not self.in_transaction:
            raise TransactionError("no transaction in progress")
        self.engine.txns.commit(self._txn)
        self._txn = None
        return _ok("COMMIT")

    def _rollback(self) -> QueryResult:
        if not self.in_transaction:
            raise TransactionError("no transaction in progress")
        self.engine.txns.abort(self._txn)
        self._txn = None
        return _ok("ROLLBACK")

    def _set(self, stmt: ast.SetStmt) -> QueryResult:
        if stmt.name == "transaction_isolation":
            self.default_isolation = IsolationLevel.parse(stmt.value)
            return _ok("SET")
        if stmt.name == "role":
            self.engine.security.role(stmt.value)  # must exist
            self.role = stmt.value.lower()
            return _ok("SET")
        if stmt.name == "trace":
            self.trace_enabled = str(stmt.value).lower() in (
                "on", "true", "1", "yes",
            )
            return _ok("SET")
        if stmt.name == "resource_queue":
            value = str(stmt.value).lower()
            if value in ("default", ""):
                self._queue_override = None
                return _ok("SET")
            if value not in self.engine.security.queues:
                raise CatalogError(
                    f"resource queue {value!r} does not exist"
                )
            self._queue_override = value
            return _ok("SET")
        if stmt.name == "statement_timeout":
            value = str(stmt.value).lower()
            if value in ("off", "0", ""):
                self.statement_timeout = 0.0
                return _ok("SET")
            try:
                seconds = float(value)
            except ValueError:
                raise SqlError(
                    f"invalid statement_timeout value {stmt.value!r}"
                ) from None
            if seconds < 0:
                raise SqlError("statement_timeout may not be negative")
            self.statement_timeout = seconds
            return _ok("SET")
        return _ok("SET")  # other GUCs are accepted and ignored

    # ------------------------------------------------------------- security
    def _require_superuser(self, action: str) -> None:
        if not self.engine.security.role(self.role).superuser:
            raise PermissionDenied(f"{action} requires a superuser role")

    def _check_privilege(self, privilege: str, relation: str, txn) -> None:
        """Owner and superuser are always allowed; else consult grants."""
        security = self.engine.security
        if security.role(self.role).superuser:
            return
        snapshot = txn.statement_snapshot()
        rel = self.engine.catalog.lookup_relation(relation, snapshot)
        if rel is not None and rel.get("owner") == self.role:
            return
        security.check(self.role, privilege, relation)

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

    def _select(
        self, stmt: ast.SelectStmt, txn: Transaction, force_trace: bool = False
    ) -> QueryResult:
        """A SELECT inside another statement (``INSERT … SELECT``,
        ``EXPLAIN ANALYZE``): it runs in that statement's transaction
        and under its bracket."""
        return run_statement(self._prepare(stmt, txn, force_trace=force_trace))

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
        """Analyze, take ACCESS SHARE locks, check SELECT privileges,
        plan. Plain EXPLAIN stops here: no slot, nothing dispatched."""
        engine = self.engine
        query = Analyzer(_CatalogAdapter(engine.catalog, snapshot)).analyze(stmt)
        for name in _tables_of(query, subplans=True):
            if name in CATALOG_RELATION_COLUMNS or name in SYSTEM_VIEW_COLUMNS:
                continue  # catalog/system-view reads are unlocked
            txn.lock(f"rel:{name}", LockMode.ACCESS_SHARE)
            self._check_privilege("select", name, txn)
        return self._plan(query, snapshot)

    def _plan(self, query: LogicalQuery, snapshot: Snapshot):
        engine = self.engine
        stats: Dict[str, TableStats] = {}
        for name in _tables_of(query):
            table_stats = engine.catalog.get_stats(name, snapshot)
            if table_stats is not None:
                stats[name] = table_stats
        planner = Planner(
            num_segments=engine.num_segments,
            stats=stats,
            options=engine.planner_options,
            partition_children=self._partition_children(query, snapshot),
        )
        return planner.plan(query)

    def _relation(self, name: str, snapshot: Snapshot) -> dict:
        """The visible ``pg_class`` row of ``name``."""
        relation = self.engine.catalog.lookup_relation(name, snapshot)
        if relation is None:
            raise UndefinedObject(f"relation {name!r} does not exist")
        return relation

    def _resource_queue(self):
        """The session's admission queue: the ``SET resource_queue``
        override when present, else the role's assigned queue."""
        if self._queue_override is not None:
            return self.engine.security.queues[self._queue_override]
        return self.engine.security.queue_for(self.role)

    def _partition_children(
        self, query: LogicalQuery, snapshot: Snapshot
    ) -> Dict[str, List]:
        """Children of the partitioned tables ``query`` scans — the
        planner asks about no other relation."""
        names = _tables_of(query, subplans=True)
        return {
            relation["name"]: relation["children"]
            for relation in self.engine.catalog.relations(snapshot, names)
            if relation["children"]
        }

    # ---------------------------------------------------------------- INSERT
    def _insert(self, stmt: ast.InsertStmt, txn: Transaction) -> QueryResult:
        engine = self.engine
        snapshot = txn.statement_snapshot()
        relation = self._relation(stmt.table, snapshot)
        schema = relation["schema"]
        txn.lock(f"rel:{schema.name}", LockMode.ROW_EXCLUSIVE)
        self._check_privilege("insert", schema.name, txn)

        if stmt.select is not None:
            inner = self._select(stmt.select, txn)
            raw_rows = inner.rows
        else:
            raw_rows = [
                tuple(compile_expr_value(expr) for expr in row) for row in stmt.rows
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
            result = _ok(f"INSERT 0 {count}")
            result.cost.seconds += acc.seconds
            return result
        if relation["kind"] == "view":
            raise SemanticError("cannot insert into a view")

        acc = CostAccumulator(engine.cost_model)
        count = self.load_rows(
            schema.name, rows, txn=txn, snapshot=snapshot, acc=acc
        )
        result = _ok(f"INSERT 0 {count}")
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
        """Bulk-load ``rows`` (the ETL / COPY / INSERT path) in ``txn`` or
        in a transaction of its own. INSERT and COPY pass an ``acc`` to
        charge the written bytes to; a bare ETL load is setup, uncharged."""
        if txn is not None:
            return table_files.load(self.engine, table, rows, txn, snapshot, acc)
        with self.engine.txns.run(self.default_isolation) as txn:
            return table_files.load(
                self.engine, table, rows, txn, txn.statement_snapshot(), acc
            )

    def _vacuum(self, stmt: ast.VacuumStmt, txn: Transaction) -> QueryResult:
        """Reclaim physical garbage: truncate segment files back to their
        committed logical lengths (aborted appends) and drop catalog row
        versions no live snapshot can see."""
        engine = self.engine
        snapshot = txn.statement_snapshot()
        if stmt.table is not None:
            relations = [self._relation(stmt.table, snapshot)]
            self._check_privilege("all", stmt.table, txn)
        else:
            self._require_superuser("VACUUM of every table and the catalog")
            relations = [  # the leaves: a partitioned parent has no files
                r
                for r in engine.catalog.relations(snapshot)
                if r["kind"] == "table" and not r["children"]
            ]
        reclaimed = table_files.vacuum(engine, relations, snapshot)
        dead = 0
        if stmt.table is None:
            horizon = engine.txns.xids.snapshot(txn.xid)
            for catalog_table in engine.catalog.tables.values():
                dead += catalog_table.vacuum(horizon)
        return _ok(f"VACUUM (reclaimed {reclaimed} bytes, {dead} dead catalog rows)")

    def _copy(self, stmt: ast.CopyStmt, txn: Transaction) -> QueryResult:
        """COPY: bulk load from / unload to delimited text on HDFS —
        the ETL path of paper Section 2.1's interface story."""
        from repro.pxf.files import TextResolver, TextWriter

        engine = self.engine
        snapshot = txn.statement_snapshot()
        relation = self._relation(stmt.table, snapshot)
        schema = relation["schema"]
        path = stmt.path if stmt.path.startswith("/") else "/" + stmt.path
        if stmt.direction == "from":
            self._check_privilege("insert", schema.name, txn)
            txn.lock(f"rel:{schema.name}", LockMode.ROW_EXCLUSIVE)
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
            result = _ok(f"COPY {count}")
            result.cost = QueryCost.from_accumulator(acc)
            return result
        self._check_privilege("select", schema.name, txn)
        txn.lock(f"rel:{schema.name}", LockMode.ACCESS_SHARE)
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
        result = _ok(f"COPY {len(rows)}")
        result.cost = QueryCost.from_accumulator(acc)
        return result

    # ------------------------------------------------------------------- DDL
    def _create_table(self, stmt: ast.CreateTableStmt, txn: Transaction) -> QueryResult:
        schema = _schema_from_ast(stmt)
        snapshot = txn.statement_snapshot()
        txn.lock(f"rel:{schema.name}", LockMode.ACCESS_EXCLUSIVE)
        children: List[Tuple[str, Partition]] = []
        if schema.partition_spec is not None:
            for partition in schema.partition_spec.partitions:
                child = schema.child_schema(partition)
                self.engine.catalog.create_table(
                    child, txn.xid, snapshot, owner=self.role
                )
                self.engine.catalog.add_dependency(child.name, schema.name, txn.xid)
                children.append((child.name, partition))
        self.engine.catalog.create_table(
            schema, txn.xid, snapshot, children=children, owner=self.role
        )
        return _ok("CREATE TABLE")

    def _create_view(self, stmt: ast.CreateViewStmt, txn: Transaction) -> QueryResult:
        snapshot = txn.statement_snapshot()
        analyzer = Analyzer(_CatalogAdapter(self.engine.catalog, snapshot))
        analyzed = analyzer.analyze(stmt.query)  # validates now
        schema = TableSchema(
            name=stmt.name,
            columns=[
                Column(name or f"column{i}", DataType.parse("text"))
                for i, name in enumerate(analyzed.output_names)
            ],
            distribution=Distribution.random(),
        )
        self.engine.catalog.create_table(
            schema, txn.xid, snapshot, kind="view", view_def=stmt.query,
            owner=self.role,
        )
        for name in _tables_of(analyzed, subplans=True):
            self.engine.catalog.add_dependency(stmt.name, name, txn.xid)
        return _ok("CREATE VIEW")

    def _create_external_table(
        self, stmt: ast.CreateExternalTableStmt, txn: Transaction
    ) -> QueryResult:
        snapshot = txn.statement_snapshot()
        schema = TableSchema(
            name=stmt.name,
            columns=[
                Column(c.name, DataType.parse(c.type_name), c.not_null)
                for c in stmt.columns
            ],
            distribution=Distribution.random(),
        )
        pxf_info = self.engine.pxf.parse_location(
            stmt.location, stmt.format_name, stmt.format_options
        )
        pxf_info["writable"] = stmt.writable
        self.engine.catalog.create_table(
            schema, txn.xid, snapshot, kind="external", pxf=pxf_info,
            owner=self.role,
        )
        return _ok("CREATE EXTERNAL TABLE")

    def _drop(self, stmt: ast.DropStmt, txn: Transaction) -> QueryResult:
        engine = self.engine
        snapshot = txn.statement_snapshot()
        name = stmt.name.lower()
        relation = engine.catalog.lookup_relation(name, snapshot)
        if relation is None:
            if stmt.if_exists:
                return _ok(f"DROP (skipped, {name} does not exist)")
            raise UndefinedObject(f"relation {name!r} does not exist")
        txn.lock(f"rel:{name}", LockMode.ACCESS_EXCLUSIVE)
        self._check_privilege("all", name, txn)
        dependents = engine.catalog.dependents_of(name, snapshot)
        child_names = [c for c, _ in relation["children"]]
        blocking = [d for d in dependents if d not in child_names]
        if blocking:
            raise SemanticError(
                f"cannot drop {name}: {', '.join(sorted(blocking))} depend on it"
            )
        table_files.retire(engine, relation, txn, snapshot)
        for child_name in child_names:
            engine.catalog.drop_table(child_name, txn.xid, snapshot)
            engine.txns.segfiles.drop_table(child_name)
        engine.catalog.drop_table(name, txn.xid, snapshot)
        engine.txns.segfiles.drop_table(name)
        return _ok(f"DROP {stmt.object_kind.upper()}")

    def _truncate(self, stmt: ast.TruncateStmt, txn: Transaction) -> QueryResult:
        snapshot = txn.statement_snapshot()
        relation = self._relation(stmt.table, snapshot)
        txn.lock(f"rel:{relation['name']}", LockMode.ACCESS_EXCLUSIVE)
        self._check_privilege("all", relation["name"], txn)
        table_files.truncate(self.engine, relation, txn, snapshot)
        return _ok("TRUNCATE TABLE")

    def _alter_table(self, stmt: ast.AlterTableStmt, txn: Transaction) -> QueryResult:
        """ALTER TABLE ... SET WITH (orientation=..., compresstype=...):
        online storage-model transformation — the feature the paper lists
        as "in product roadmap" (Section 2.5). Each leaf is rewritten in
        new files (:func:`repro.storage.table.rewrite`); the old files
        are deleted after commit (once no older snapshot is live), the
        new ones on abort."""
        engine = self.engine
        snapshot = txn.statement_snapshot()
        name = stmt.name.lower()
        relation = self._relation(name, snapshot)
        if relation["kind"] != "table":
            raise SemanticError("ALTER TABLE SET WITH applies to tables only")
        txn.lock(f"rel:{name}", LockMode.ACCESS_EXCLUSIVE)
        self._check_privilege("all", name, txn)

        options = {k.lower(): str(v).lower() for k, v in stmt.options.items()}
        acc = CostAccumulator(engine.cost_model)
        for leaf in table_files.leaves(relation):
            leaf_rel = engine.catalog.lookup_relation(leaf, snapshot)
            new_schema = _apply_storage_options(leaf_rel["schema"], options)
            table_files.rewrite(engine, leaf_rel, new_schema, txn, snapshot, acc)
        if relation["children"]:
            parent = _apply_storage_options(relation["schema"], options)
            engine.catalog.table("pg_class").update(
                snapshot, lambda r: r["name"] == name, {"schema": parent}, txn.xid
            )
        result = _ok("ALTER TABLE")
        result.cost = QueryCost.from_accumulator(acc)
        return result

    # --------------------------------------------------------------- ANALYZE
    def _analyze(self, stmt: ast.AnalyzeStmt, txn: Transaction) -> QueryResult:
        snapshot = txn.statement_snapshot()
        if stmt.table is not None:
            self._check_privilege("all", stmt.table, txn)
            names = [stmt.table.lower()]
        else:
            self._require_superuser("ANALYZE of every table")
            names = [
                r["name"]
                for r in self.engine.catalog.relations(snapshot)
                if r["kind"] == "table"
            ]
        for name in names:
            self.analyze_table(name, txn, snapshot)
        return _ok("ANALYZE")

    def analyze_table(
        self, name: str, txn: Transaction, snapshot: Snapshot
    ) -> TableStats:
        engine = self.engine
        relation = self._relation(name, snapshot)
        if relation["kind"] == "external":
            stats = engine.pxf.analyze(relation["pxf"], relation["schema"])
            engine.catalog.set_stats(name, stats, txn.xid, snapshot)
            return stats
        stats = TableStats.from_blocks(
            table_files.read(engine, relation, snapshot),
            relation["schema"].column_names,
        )
        engine.catalog.set_stats(name, stats, txn.xid, snapshot)
        return stats

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
        result = self._select(stmt.statement, txn, force_trace=True)
        return QueryResult(
            rows=[(line,) for line in render_analyze(result, stmt.verbose)],
            column_names=["QUERY PLAN"],
            cost=result.cost,
            plan=result.plan,
        )


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
    metrics_before: object
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
        result.metrics = engine.metrics.snapshot().diff(self.metrics_before)
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


# ----------------------------------------------------------------- adapters
class _CatalogAdapter:
    """Analyzer-facing view of the catalog under one snapshot."""

    def __init__(self, catalog: CatalogService, snapshot: Snapshot):
        self.catalog = catalog
        self.snapshot = snapshot

    def resolve(self, name: str) -> RelationInfo:
        if name.lower() in CATALOG_RELATION_COLUMNS:
            # Standard SQL over the system catalog (paper Section 2.2).
            return RelationInfo(
                kind="table", schema=catalog_relation_schema(name.lower())
            )
        if name.lower() in SYSTEM_VIEW_COLUMNS:
            # System views: master-only telemetry relations, queryable
            # with ordinary SQL just like the catalog projections.
            return RelationInfo(
                kind="table", schema=system_view_schema(name.lower())
            )
        relation = self.catalog.lookup_relation(name, self.snapshot)
        if relation is None:
            raise SemanticError(f"relation {name!r} does not exist")
        if relation["kind"] == "view":
            return RelationInfo(kind="view", view_query=relation["view_def"])
        if relation["kind"] == "external":
            return RelationInfo(
                kind="external", schema=relation["schema"], pxf=relation["pxf"]
            )
        return RelationInfo(kind="table", schema=relation["schema"])


def _tables_of(query: LogicalQuery, subplans: bool = False) -> List[str]:
    """All base-table names referenced by a logical query (recursively).

    Before decorrelation IN / EXISTS / scalar subqueries still sit inside
    expressions; ``subplans`` includes their tables too."""
    names = set()
    pending = [query]
    while pending:
        q = pending.pop()
        for rel in q.rels:
            if isinstance(rel.source, DerivedSource):
                pending.append(rel.source.query)
            else:
                names.add(rel.source.table_name)
        pending.extend(q.init_plans)
        if subplans:
            pending.extend(
                node.query
                for expr in q.expressions()
                for node in ex.walk(expr)
                if isinstance(node, ex.BSubPlan)
            )
    return sorted(names)


def compile_expr_value(expr: ast.Expr) -> object:
    """Evaluate a constant AST expression (INSERT ... VALUES)."""
    bound = Analyzer(_EmptyCatalog())._expr(expr, [], allow_aggregates=False)
    return compile_expr(bound, [])(())


class _EmptyCatalog:
    def resolve(self, name: str):  # pragma: no cover - constants only
        raise SemanticError(f"relation {name!r} does not exist")


def _ok(message: str) -> QueryResult:
    return QueryResult(
        rows=[], column_names=[], cost=QueryCost(seconds=0.0), message=message
    )


# --------------------------------------------------------------- DDL helpers
def _apply_storage_options(schema: TableSchema, options: dict) -> TableSchema:
    """New TableSchema with WITH-clause storage options applied."""
    storage_format = schema.storage_format
    compression = schema.compression
    if "orientation" in options:
        mapping = {"row": "ao", "column": "co", "parquet": "parquet"}
        if options["orientation"] not in mapping:
            raise SemanticError(f"unknown orientation {options['orientation']!r}")
        storage_format = mapping[options["orientation"]]
    if "compresstype" in options:
        compresstype = options["compresstype"]
        level = options.get("compresslevel")
        if compresstype in ("zlib", "gzip"):
            compression = f"{compresstype}{level or 1}"
        else:
            compression = compresstype
    elif "compresslevel" in options and compression[:-1] in ("zlib", "gzip"):
        compression = f"{compression[:-1]}{options['compresslevel']}"
    return dataclasses.replace(
        schema, storage_format=storage_format, compression=compression
    )


def _schema_from_ast(stmt: ast.CreateTableStmt) -> TableSchema:
    columns = [
        Column(c.name, DataType.parse(c.type_name), c.not_null) for c in stmt.columns
    ]
    if stmt.distributed_by:
        distribution = Distribution.hash(*stmt.distributed_by)
    elif stmt.distributed_randomly:
        distribution = Distribution.random()
    else:
        # HAWQ/Greenplum default: hash on the first column.
        distribution = Distribution.hash(columns[0].name)

    partition_spec = (
        _partition_spec(stmt.partition_by, columns) if stmt.partition_by else None
    )
    return _apply_storage_options(
        TableSchema(stmt.name, columns, distribution, partition_spec),
        {k.lower(): str(v).lower() for k, v in stmt.options.items()},
    )


def _partition_spec(clause: ast.PartitionByClause, columns) -> PartitionSpec:
    if clause.kind == "list":
        partitions = tuple(
            Partition(
                name=name,
                in_values=tuple(compile_expr_value(v) for v in values),
            )
            for name, values in clause.list_parts
        )
        return PartitionSpec(column=clause.column, kind="list", partitions=partitions)

    start = compile_expr_value(clause.start)
    end = compile_expr_value(clause.end)
    if clause.every is None:
        partitions = (Partition(name="1", lower=start, upper=end),)
        return PartitionSpec(
            column=clause.column, kind="range", partitions=partitions
        )
    every = compile_expr_value(clause.every)
    parts: List[Partition] = []
    lower = start
    index = 1
    while lower < end:
        if isinstance(every, _Interval):
            upper = add_interval(lower, every.quantity, every.unit)
        else:
            upper = lower + every
        if upper > end:
            upper = end
        parts.append(Partition(name=str(index), lower=lower, upper=upper))
        lower = upper
        index += 1
        if index > 10000:
            raise SemanticError("EVERY produced too many partitions")
    return PartitionSpec(
        column=clause.column, kind="range", partitions=tuple(parts)
    )
