"""The segment-side query executor process (QE).

A :class:`SegmentWorker` owns everything segment-local: its HDFS client
(via the segment's placement), scan providers over dispatched
self-described plans, the shared block decode cache, and the chaos
hooks. It receives :class:`~repro.planner.dispatch.SliceTask`s as
DISPATCH messages on the :class:`~repro.cluster.rpc.RpcBus`, executes
exactly one task at a time with a :class:`~repro.executor.slice_runner.
SliceExecutor`, and reports back with an ACK (task accepted) and a
COMPLETE carrying the :class:`~repro.cluster.rpc.TaskReport`.

The master runs one extra worker for itself (``segment_id == -1``,
gang "1" slices). Its control messages travel the same code path but
are *loopback*: they charge no network time.

Death is a dropped RPC channel, not an exception reached into engine
internals: a killed worker keeps executing until it next needs its
channel (the COMPLETE send), at which point :class:`~repro.errors.
SegmentDown` surfaces and the statement loop's bounded restart takes over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.catalog.master_relations import is_master_only
from repro.cluster.rpc import (
    ACK,
    ACK_BYTES,
    COMPLETE,
    COMPLETE_BYTES,
    DISPATCH,
    MASTER,
    RpcBus,
    RpcMessage,
    TaskReport,
    charge_control,
)
from repro.errors import QueryCanceled, SegmentDown
from repro.executor.slice_runner import SliceExecutor, SliceProviders
from repro.interconnect.exchange import ExchangeFabric
from repro.planner.dispatch import QD_SEGMENT, SelfDescribedPlan
from repro.simtime import CostAccumulator
from repro.storage import get_codec, get_format
from repro.storage.base import ScanStats


@dataclass
class WorkerServices:
    """Cluster facilities a worker borrows from the engine.

    Everything here is *shared infrastructure* (HDFS namespace, block
    cache, segment placement, chaos clock) of the engine's one set of
    workers — a worker holds no query's state between tasks, which is
    what makes segments stateless and query restart cheap (paper §2.6).
    """

    hdfs: object
    block_cache: object
    pxf: object
    #: The engine's segment list (indexed by segment id).
    segments: List
    #: ``(relation_name, snapshot) -> rows`` of a master-only relation:
    #: a catalog table at the snapshot, or a system view's live state.
    master_rows: Callable[[str, object], List[tuple]]
    chaos_point: Callable
    chaos_progress: Callable
    num_segments: int
    #: The engine's :class:`repro.obs.metrics.MetricsRegistry` — passive.
    metrics: object
    #: ``query_id -> bool``: pending-cancellation probe (the engine's
    #: :meth:`~repro.engine.Engine.is_cancelled`). Workers refuse new
    #: slices and scan lanes for a cancelled query.
    is_cancelled: Callable[[int], bool]


class SegmentWorker:
    """One QE process: executes dispatched slice tasks, one at a time.
    It lives as long as the engine (or until killed), and keeps nothing
    of a task once the task is done."""

    def __init__(
        self,
        segment_id: int,
        bus: RpcBus,
        exchange: ExchangeFabric,
        services: WorkerServices,
    ):
        self.segment_id = segment_id
        self.name = f"seg{segment_id}"
        self.bus = bus
        self.exchange = exchange
        self.services = services
        self.channel = bus.register(self.name, self._on_message)
        #: Loopback: the master's own worker pays no wire time.
        self.is_loopback = segment_id == QD_SEGMENT
        #: Paired open/close counters: equal totals prove no charged scan
        #: iterator leaked, even across cancels (the cancel sweep asserts
        #: opened == closed).
        self._scans_opened = services.metrics.counter("charged_scans_opened")
        self._scans_closed = services.metrics.counter("charged_scans_closed")
        #: ``(metric, format, segment_id)`` -> a scan lane's series.
        self._lane_series: Dict[tuple, object] = {}

    def _lane_counter(
        self, name: str, segment_id: Optional[int], format: Optional[str] = None
    ):
        """The counter ``name{[format=...,]node=seg<segment_id>}`` a
        scan lane counts into: looked up in the registry, and its label
        formatted, once per worker."""
        series = self._lane_series
        counter = series.get((name, format, segment_id))
        if counter is None:
            labels = {} if format is None else {"format": format}
            labels["node"] = f"seg{segment_id}"
            counter = self.services.metrics.counter(name, **labels)
            series[name, format, segment_id] = counter
        return counter

    # --------------------------------------------------------------- messages
    def _on_message(self, message: RpcMessage) -> None:
        if message.kind != DISPATCH:
            # An ABORT finds nothing here: a task runs to completion
            # within one delivery. Other kinds are ignored, UDP-style.
            return
        task, root, sdp, ctx = message.payload
        if self.services.is_cancelled(ctx.query_id):
            # Refuse the slice outright: the master's abort broadcast and
            # this dispatch can cross on the wire, and a cancelled query
            # must not start new work it would only throw away.
            raise QueryCanceled(
                f"query {ctx.query_id} cancelled; "
                f"slice {task.slice_id} refused by {self.name}"
            )
        acc = CostAccumulator(ctx.cost_model)
        charged = None if self.is_loopback else acc
        self.bus.send(
            self.name,
            MASTER,
            RpcMessage(
                kind=ACK,
                sender=self.name,
                payload=(task.slice_id, task.segment),
                size=ACK_BYTES,
                query_id=ctx.query_id,
            ),
            acc=charged,
            queued=False,  # the master reads no ACK
        )
        providers = SliceProviders(
            scan=self._scan_provider(sdp, task, ctx),
            external=self._external_provider(),
        )
        executor = SliceExecutor(root, task, ctx, providers, self.exchange, acc)
        rows = executor.run()
        if charged is not None:
            # The completion report is part of the task's own timeline
            # (it must be pre-charged: the report carries acc.seconds).
            charge_control(acc, COMPLETE_BYTES)
        report = TaskReport(
            slice_id=task.slice_id,
            segment=task.segment,
            seconds=acc.seconds,
            rows_out=executor.rows_out,
            bytes_out=executor.bytes_out,
            disk_read_bytes=acc.disk_read_bytes,
            disk_write_bytes=acc.disk_write_bytes,
            net_bytes=acc.net_bytes,
            tuples=acc.tuples,
            result_rows=rows if task.is_top else None,
        )
        self.bus.send(
            self.name,
            MASTER,
            RpcMessage(
                kind=COMPLETE,
                sender=self.name,
                payload=report,
                size=COMPLETE_BYTES,
                query_id=ctx.query_id,
            ),
        )

    # -------------------------------------------------------------- providers
    def _scan_provider(self, sdp: SelfDescribedPlan, task, ctx):
        """The one source of every ``SeqScan``, for both executors: an
        iterator of ``(row_count, {column_index: values})`` blocks, the
        ``late`` columns of a CO or Parquet table as the format hands
        them out. The task and context ride in the closure, for scan
        instrumentation."""
        services = self.services

        def provider(table_source, partitions, segment_id, columns, acc, late=()):
            if is_master_only(table_source.table_name):
                # Master-only data (the catalog, live telemetry): one QE
                # serves it at no charge and the rest see an empty scan.
                # One row per block, so a streaming LIMIT above pulls
                # exactly the rows the row executor pulls.
                if segment_id == 0:
                    for row in services.master_rows(
                        table_source.table_name, sdp.snapshot
                    ):
                        yield 1, {i: [value] for i, value in enumerate(row)}
                return
            names = (
                partitions if partitions is not None else [table_source.table_name]
            )
            segment = services.segments[segment_id]
            self._check_segment_up(segment)
            client = segment.client(services.hdfs)
            for name in names:
                meta = sdp.metadata[name]
                for lane in meta.segfiles.get(segment_id, []):
                    yield from self._charged_scan(
                        client,
                        lane.paths,
                        meta,
                        columns,
                        acc,
                        task,
                        ctx,
                        segment_id=segment_id,
                        name=name,
                        late=late,
                    )

        return provider

    @staticmethod
    def _check_segment_up(segment) -> None:
        """A scan may only run on an alive segment or an acting host."""
        if not segment.alive and segment.acting_host is None:
            raise SegmentDown(
                f"segment {segment.segment_id} is down with no acting host"
            )

    def _charged_scan(
        self,
        client,
        paths,
        meta,
        columns,
        acc,
        task,
        ctx,
        segment_id=None,
        name=None,
        late=(),
    ):
        """Run one segfile-lane scan (the format's ``scan_blocks``),
        charging the cost model: disk for compressed bytes, CPU for
        decompression + decode, and network for remote-replica reads —
        including charges the decode cache *replays* on hits
        (``ScanStats.remote_bytes``). Charging happens in ``finally`` so
        an abandoned scan (LIMIT) still pays for the blocks it decoded.

        Chaos instrumentation: the lane is an execution point (due fault
        events fire before the scan starts) and, on normal completion,
        the lane's charged simulated seconds advance the chaos clock —
        so a seeded fault schedule can land *inside* a running query.
        Abandoned scans (LIMIT) skip the progress pulse: firing faults
        while a generator is being closed would corrupt the unwind."""
        services = self.services
        services.chaos_point(segment_id=segment_id)
        if services.is_cancelled(ctx.query_id):
            # Cancellation point between lanes: a long multi-segfile scan
            # observes the cancel request without finishing every lane.
            raise QueryCanceled(f"query {ctx.query_id} cancelled mid-scan")
        model = acc.model
        codec = get_codec(meta.compression)
        io_factor = (
            model.parquet_io_amplification
            if meta.storage_format == "parquet"
            else 1.0
        )
        cpu_factor = (
            model.parquet_cpu_factor
            if meta.storage_format == "parquet"
            else 1.0
        )
        stats = ScanStats()
        remote_before = client.remote_bytes_read
        seconds_before = acc.seconds
        cache = services.block_cache
        hits_before = cache.hits if cache is not None else 0
        misses_before = cache.misses if cache is not None else 0
        written_before = cache.written if cache is not None else 0
        self._scans_opened.inc()
        try:
            # Each lane's own format takes ``late``: a partition's leaf
            # may be stored in a format other than its parent's.
            yield from get_format(meta.storage_format).scan_blocks(
                client,
                paths,
                meta.schema,
                meta.compression,
                columns=columns,
                stats=stats,
                cache=services.block_cache,
                late=late,
            )
        finally:
            self._scans_closed.inc()
            acc.disk_read(int(stats.compressed_bytes * io_factor))
            acc.cpu_bytes(
                stats.uncompressed_bytes,
                (codec.decompress_cost + model.cpu_format_byte) * cpu_factor,
            )
            remote = (
                client.remote_bytes_read - remote_before + stats.remote_bytes
            )
            if remote:
                acc.network(remote)
            hit_delta = (cache.hits - hits_before) if cache is not None else 0
            miss_delta = (
                (cache.misses - misses_before) if cache is not None else 0
            )
            self._lane_counter("bytes_read", segment_id, meta.storage_format).inc(
                int(stats.compressed_bytes)
            )
            if hit_delta:
                self._lane_counter("cache_hits", segment_id).inc(hit_delta)
            if miss_delta:
                self._lane_counter("cache_misses", segment_id).inc(miss_delta)
                # The misses whose decode the writer's values replaced.
                written_delta = cache.written - written_before
                if written_delta:
                    self._lane_counter("cache_written", segment_id).inc(written_delta)
            if remote:
                self._lane_counter("remote_read_bytes", segment_id).inc(remote)
            trace = ctx.trace
            if trace is not None:
                trace.op_mark(
                    task.slice_id,
                    task.segment,
                    f"scan:{name}" if name else "scan",
                    seconds_before,
                    acc.seconds,
                    cat="storage",
                    table=name,
                    read_bytes=int(stats.compressed_bytes),
                    remote_bytes=remote,
                    cache_hits=hit_delta,
                    cache_misses=miss_delta,
                    rows=stats.rows,
                )
        services.chaos_progress(
            acc.seconds - seconds_before, segment_id=segment_id
        )

    def _external_provider(self):
        services = self.services

        def provider(table_source, segment_id, columns, pushed, acc):
            yield from services.pxf.scan(
                table_source.pxf,
                table_source.schema,
                segment_id,
                services.num_segments,
                pushed,
                acc,
                segment_hosts={
                    s.segment_id: s.effective_host() for s in services.segments
                },
            )

        return provider
