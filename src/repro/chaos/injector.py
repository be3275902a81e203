"""The fault injector: applies a :class:`FaultPlan` to a live engine.

The injector owns the *chaos clock* — a simulated-seconds counter the
engine advances through two hooks threaded into the execution path:

* ``Engine.chaos_point`` (→ :meth:`FaultInjector.tick`) marks an
  interruptible point, e.g. the start of a segment scan lane.
* ``Engine.chaos_progress`` (→ :meth:`FaultInjector.pulse`) reports
  completed simulated work, e.g. the charged seconds of a finished
  scan lane, advancing the clock.

Whenever the clock passes a scheduled event the injector applies it to
the engine. Events applied *inside* a query (``in_query=True``) also
raise the matching :class:`~repro.errors.ClusterError` so the query
fails the way a real fault would — then the dispatcher's bounded
restart loop takes over (restart over recover, paper §2.6).

WAL-offset triggers ride the write-ahead log instead of the clock: the
injector subscribes to the WAL and aborts the transaction that writes
the Nth catalog change after attach, reproducing "transaction aborted
at a chosen WAL point".
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.chaos.plan import FaultEvent, FaultPlan
from repro.errors import (
    MasterUnavailable,
    ReproError,
    TransactionAbortedByFault,
)
from repro.network.simnet import NetworkConditions


class FaultInjector:
    """Applies one :class:`FaultPlan` to one engine, deterministically."""

    def __init__(self, engine, plan: FaultPlan):
        self.engine = engine
        self.plan = plan
        self.clock = 0.0
        #: (clock, description) log of everything that actually fired.
        self.fired: List[Tuple[float, str]] = []
        #: NetworkConditions requested by the latest net_degrade event,
        #: consumed by the interconnect drill (the SQL executor charges
        #: interconnect cost via the cost model, not a live fabric).
        self.net_conditions: Optional[NetworkConditions] = None
        self._pending: List[FaultEvent] = list(plan.events)  # sorted by .at
        # Resolve WAL offsets to absolute lsns relative to attach time.
        self._lsn_targets: List[int] = [
            self.engine.txns.wal.last_lsn + offset
            for offset in plan.abort_at_lsn_offsets
        ]
        self._wal_subscribed = False
        if self._lsn_targets:
            self.engine.txns.wal.subscribe(self._on_wal)
            self._wal_subscribed = True

    # ---------------------------------------------------------------- clock
    def tick(self, segment_id: Optional[int] = None, in_query: bool = False) -> None:
        """An interruptible point: fire everything already due."""
        self._fire_due(in_query=in_query)

    def pulse(
        self,
        seconds: float,
        segment_id: Optional[int] = None,
        in_query: bool = False,
    ) -> None:
        """Advance the chaos clock by completed simulated work."""
        if seconds > 0:
            self.clock += seconds
        self._fire_due(in_query=in_query)

    def drain(self) -> int:
        """Fire every remaining clock event, outside any query.

        Used at end of run so the heal/invariant phase sees the plan's
        full final fault state even when queries finished early.
        """
        remaining = len(self._pending)
        if remaining:
            self.clock = max(self.clock, self._pending[-1].at)
            self._fire_due(in_query=False)
        return remaining

    def detach(self) -> None:
        """Stop injecting (unsubscribe the WAL trigger)."""
        if self._wal_subscribed:
            self.engine.txns.wal.unsubscribe(self._on_wal)
            self._wal_subscribed = False

    # ------------------------------------------------------------- internals
    def _fire_due(self, in_query: bool) -> None:
        while self._pending and self._pending[0].at <= self.clock:
            event = self._pending.pop(0)
            self._apply(event, in_query=in_query)

    def _log(self, event: FaultEvent, note: str = "") -> None:
        text = event.kind
        if event.target is not None:
            text += f"({event.target})"
        if note:
            text += f" {note}"
        self.fired.append((self.clock, text))

    def _apply(self, event: FaultEvent, in_query: bool) -> None:
        engine = self.engine
        kind = event.kind
        if kind == "kill_segment":
            segment = engine.segments[int(event.target) % len(engine.segments)]
            if not segment.alive:
                self._log(event, "already down")
                return
            self._log(event)
            engine.fail_segment(segment.segment_id)
            # Kill the QE *process*, not the query: the worker's RPC
            # channel drops, so the query fails (as SegmentDown, into
            # the statement loop's restart) only when that channel is
            # actually needed — the dead worker reporting COMPLETE, or
            # the master dispatching a later wave to it.
            engine.drop_worker_channel(segment.segment_id)
        elif kind == "revive_segment":
            segment = engine.segments[int(event.target) % len(engine.segments)]
            if segment.alive:
                self._log(event, "already up")
                return
            self._log(event)
            engine.recover_segment(segment.segment_id)
        elif kind == "fail_disk":
            host = str(event.target)
            if host not in engine.hdfs.datanodes:
                self._log(event, "no such host")
                return
            lost = engine.hdfs.fail_disk(host, int(event.args.get("disk", 0)))
            self._log(event, f"lost {len(lost)} replicas")
        elif kind == "fail_datanode":
            host = str(event.target)
            node = engine.hdfs.datanodes.get(host)
            if node is None or not node.alive:
                self._log(event, "already down")
                return
            self._log(event)
            engine.hdfs.fail_datanode(host)
        elif kind == "revive_datanode":
            host = str(event.target)
            node = engine.hdfs.datanodes.get(host)
            if node is None or node.alive:
                self._log(event, "already up")
                return
            self._log(event)
            engine.hdfs.restore_datanode(host)
        elif kind == "check_replication":
            copied = engine.hdfs.check_replication()
            self._log(event, f"created {copied} replicas")
        elif kind == "crash_master":
            if engine.standby is None:
                self._log(event, "no standby; skipped")
                return
            aborted = engine.crash_master()
            self._log(event, f"promoted standby, aborted xids {aborted}")
            if in_query:
                raise MasterUnavailable(
                    "chaos: primary master crashed mid-query; standby promoted"
                )
        elif kind == "abort_txn":
            if in_query:
                self._log(event)
                raise TransactionAbortedByFault(
                    "chaos: running transaction aborted by fault plan"
                )
            self._log(event, "no query in flight")
        elif kind == "net_degrade":
            overrides = {str(k): v for k, v in event.args.items()}
            self.net_conditions = NetworkConditions(**overrides)
            self._log(event, str(event.args))
        else:  # pragma: no cover - FaultEvent validates kinds
            raise ReproError(f"unknown fault event kind {kind!r}")

    def _on_wal(self, record) -> None:
        """WAL subscriber: abort the txn writing the targeted record."""
        if record.kind != "change" or not self._lsn_targets:
            return
        if record.lsn >= self._lsn_targets[0]:
            target = self._lsn_targets.pop(0)
            self.fired.append(
                (self.clock, f"abort_at_lsn({target}) hit at lsn {record.lsn}")
            )
            raise TransactionAbortedByFault(
                f"chaos: transaction {record.xid} aborted at WAL lsn "
                f"{record.lsn} (trigger {target})"
            )
