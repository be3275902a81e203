"""Seeded fault schedules: *what* breaks *when* on the simulated clock.

A :class:`FaultPlan` is a deterministic schedule of :class:`FaultEvent`s.
Event times are simulated seconds on the chaos clock — the clock a
:class:`~repro.chaos.injector.FaultInjector` advances as the engine
reports completed simulated work — so a plan generated from a seed
always breaks the same things at the same points of the same workload.

Two trigger families exist:

* **Clock events** (``events``) fire when the chaos clock passes their
  ``at`` timestamp: segment kills/revivals, DataNode and disk failures,
  interconnect degradation, NameNode re-replication passes, master
  crashes, and mid-query transaction aborts.
* **WAL triggers** (``abort_at_lsn_offsets``) fire when the write-ahead
  log grows past an offset measured from injector attach time, aborting
  whichever transaction wrote that record — the paper's "transaction
  aborted at a chosen WAL point" failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import ReproError
from repro.util import DeterministicRng

#: Every fault kind the injector knows how to apply.
EVENT_KINDS = frozenset(
    {
        "kill_segment",  # target: segment id
        "revive_segment",  # target: segment id
        "fail_disk",  # target: host, args: {"disk": index}
        "fail_datanode",  # target: host
        "revive_datanode",  # target: host
        "check_replication",  # NameNode background re-replication pass
        "crash_master",  # promote the warm standby
        "abort_txn",  # abort the running transaction (mid-query only)
        "net_degrade",  # args: NetworkConditions overrides for the drill
    }
)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault on the chaos clock."""

    at: float
    kind: str
    target: Optional[object] = None
    args: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ReproError(f"unknown fault event kind {self.kind!r}")
        if self.at < 0:
            raise ReproError("fault events cannot be scheduled before t=0")


@dataclass
class FaultPlan:
    """A deterministic schedule of faults for one chaos run."""

    events: List[FaultEvent] = field(default_factory=list)
    #: One-shot WAL triggers, as offsets from the log length at injector
    #: attach time; each aborts the transaction writing that record.
    abort_at_lsn_offsets: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.events = sorted(self.events, key=lambda e: e.at)
        self.abort_at_lsn_offsets = sorted(self.abort_at_lsn_offsets)

    def __len__(self) -> int:
        return len(self.events) + len(self.abort_at_lsn_offsets)


def random_plan(
    seed: int,
    horizon: float,
    *,
    hosts: Sequence[str],
    num_segments: int,
    replication: int = 3,
    disks_per_host: int = 12,
    with_master_crash: bool = True,
) -> FaultPlan:
    """Draw a seeded fault schedule for a run of roughly ``horizon``
    chaos-clock seconds.

    The draw is bounded so that a schedule is always *survivable after
    heal*: at most ``replication - 1`` disk failures (each destroys at
    most one replica of any block, and replicas live on distinct hosts),
    at most one DataNode down at a time (node death hides replicas but
    does not destroy them), and at most one master crash (there is one
    standby). Within those bounds anything goes — including killing
    every segment, which merely makes queries fail cleanly until the
    segments are recovered.
    """
    if horizon <= 0:
        raise ReproError("random_plan needs a positive horizon")
    rng = DeterministicRng(seed, "fault-plan")
    events: List[FaultEvent] = []

    def when() -> float:
        return rng.uniform(0.0, horizon)

    # --- stateless-segment kills (the paper's bread and butter) -----------
    for _ in range(rng.randint(1, 3)):
        segment_id = rng.randrange(num_segments)
        killed_at = when()
        events.append(FaultEvent(killed_at, "kill_segment", segment_id))
        if rng.chance(0.5):
            events.append(
                FaultEvent(
                    rng.uniform(killed_at, horizon), "revive_segment", segment_id
                )
            )

    # --- two-level disk fault tolerance -----------------------------------
    disk_hosts = list(hosts)
    rng.shuffle(disk_hosts)
    for host in disk_hosts[: rng.randint(0, replication - 1)]:
        events.append(
            FaultEvent(
                when(), "fail_disk", host, {"disk": rng.randrange(disks_per_host)}
            )
        )

    # --- whole-DataNode failure (always revived within the plan) ----------
    if rng.chance(0.4):
        host = rng.choice(list(hosts))
        down_at = when()
        events.append(FaultEvent(down_at, "fail_datanode", host))
        events.append(
            FaultEvent(rng.uniform(down_at, horizon), "revive_datanode", host)
        )

    # --- NameNode background healing runs on the same clock ---------------
    for _ in range(rng.randint(1, 2)):
        events.append(FaultEvent(when(), "check_replication"))

    # --- master crash: warm standby promotion -----------------------------
    if with_master_crash and rng.chance(0.3):
        events.append(FaultEvent(when(), "crash_master"))

    # --- transaction aborts ------------------------------------------------
    if rng.chance(0.3):
        events.append(FaultEvent(when(), "abort_txn"))
    offsets = [rng.randint(2, 40) for _ in range(rng.randint(0, 2))]

    # --- interconnect degradation beyond simnet's baseline ----------------
    if rng.chance(0.5):
        events.append(
            FaultEvent(
                when(),
                "net_degrade",
                None,
                {
                    "loss_rate": rng.uniform(0.05, 0.2),
                    "dup_rate": rng.uniform(0.0, 0.1),
                    "corrupt_rate": rng.uniform(0.0, 0.08),
                    "latency": rng.uniform(1e-4, 8e-4),
                },
            )
        )

    return FaultPlan(events=events, abort_at_lsn_offsets=offsets)
