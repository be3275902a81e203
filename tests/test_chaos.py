"""Chaos suite: seeded fault schedules must never corrupt an answer.

The property tests run the TPC-H chaos script under 50 randomized-but-
seeded fault schedules (segment kills, disk/DataNode failures, master
crashes, transaction aborts, interconnect degradation) and assert the
three chaos properties: answers bit-identical to the fault-free twin,
failures always clean ClusterErrors, and recovery invariants after heal
(replication restored, catalog correct on the serving master, committed
data exact, no orphaned segfiles). The targeted tests pin each recovery
path individually.
"""

import pytest

from repro.chaos import (
    FaultEvent,
    FaultInjector,
    FaultPlan,
    build_engine,
    fault_free_baseline,
    generate_data,
    orphaned_files,
    random_plan,
    run_drill,
    run_schedule,
    run_smoke,
)
from repro.engine import Engine
from repro.errors import (
    ClusterError,
    MasterUnavailable,
    QueryRetriesExhausted,
    SegmentDown,
    TransactionAbortedByFault,
)
from repro.network import NetworkConditions

N_SCHEDULES = 50


@pytest.fixture(scope="module")
def data():
    return generate_data()


@pytest.fixture(scope="module")
def baseline(data):
    return fault_free_baseline(data)


# ---------------------------------------------------------------------------
# The property suite: 50 seeded schedules.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(N_SCHEDULES))
def test_chaos_schedule_properties_hold(seed, data, baseline, runtime_residue):
    report = run_schedule(seed, data, baseline)
    assert report.violations == []
    # However each statement settled, it left the engine's runtime empty
    # of it: nothing queued, in flight, in an inbox or on a worker.
    assert runtime_residue.settled > 0 and runtime_residue.left == []


def test_smoke(data):
    """The ``python -m repro.chaos --smoke`` sweep, tier-1 sized."""
    summary = run_smoke(schedules=3, data=data)
    assert summary["ok"], summary["violations"]
    assert summary["faults_fired"] > 0


def test_schedules_fire_diverse_faults(data, baseline):
    """Across the seeds the sweep must actually exercise every recovery
    path: restarts, promotions and clean failures all occur somewhere."""
    reports = [run_schedule(seed, data, baseline) for seed in (3, 7, 11, 19)]
    fired = [note for report in reports for _, note in report.fired]
    assert any("kill_segment" in note for note in fired)
    assert len(fired) > 0


# ---------------------------------------------------------------------------
# Targeted recovery paths.
# ---------------------------------------------------------------------------


def _small_table(session, rows=4000):
    session.execute("CREATE TABLE t (a INTEGER, b INTEGER) DISTRIBUTED BY (a)")
    session.load_rows("t", [(i, i * 2) for i in range(rows)])


SQL = "SELECT count(*), sum(b), min(a), max(b) FROM t"


def test_mid_query_segment_kill_is_restarted():
    """Acceptance: killing one segment mid-query yields a *successful*
    query — restarted against a failover assignment — with the same rows
    as a fault-free run, and the result records that a restart happened."""
    engine = build_engine()
    session = engine.connect()
    _small_table(session)
    expected = session.query(SQL)

    injector = FaultInjector(
        engine, FaultPlan([FaultEvent(1e-9, "kill_segment", 1)])
    )
    engine.attach_chaos(injector)
    result = session.execute(SQL)

    assert result.retries >= 1  # the dispatcher really did restart
    assert result.rows == expected
    # The statement spawned one process, seg1's replacement; the engine's
    # gang was spawned once, with the engine.
    assert result.metrics.total("workers_spawned") == 1
    assert engine.metrics.counter("workers_spawned").value == (
        engine.num_segments + 1 + 1
    )
    killed = engine.segments[1]
    assert not killed.alive
    assert killed.acting_host is not None  # failover host took over
    assert killed.acting_host != killed.host
    assert any("kill_segment" in note for _, note in injector.fired)


def test_retry_backoff_charges_simulated_time():
    engine = build_engine()
    session = engine.connect()
    _small_table(session)
    fault_free = session.execute(SQL)

    engine.attach_chaos(
        FaultInjector(engine, FaultPlan([FaultEvent(1e-9, "kill_segment", 0)]))
    )
    result = session.execute(SQL)
    assert result.retries >= 1
    assert result.cost.seconds > fault_free.cost.seconds


def test_retries_exhausted_is_a_clean_error():
    engine = Engine(
        num_segment_hosts=3,
        segments_per_host=2,
        seed=0,
        replication=3,
        block_size=16 * 1024,
        max_query_retries=0,
    )
    session = engine.connect()
    _small_table(session, rows=500)
    engine.attach_chaos(
        FaultInjector(engine, FaultPlan([FaultEvent(1e-9, "kill_segment", 0)]))
    )
    with pytest.raises(QueryRetriesExhausted):
        session.execute(SQL)


def test_reads_fall_back_to_surviving_replicas():
    """A dead DataNode is masked by HDFS replica fallback: the query
    succeeds without even a restart."""
    engine = build_engine()
    session = engine.connect()
    _small_table(session)
    expected = session.query(SQL)

    engine.hdfs.fail_datanode("host1")
    result = session.execute(SQL)
    assert result.rows == expected
    assert result.retries == 0


def test_master_crash_mid_query_promotes_standby():
    engine = build_engine()
    session = engine.connect()
    _small_table(session)
    expected = session.query(SQL)

    engine.attach_chaos(
        FaultInjector(engine, FaultPlan([FaultEvent(1e-9, "crash_master")]))
    )
    with pytest.raises(MasterUnavailable):
        session.execute(SQL)

    # The promoted standby now serves: committed data intact, same rows.
    assert engine.standby is None
    assert session.query(SQL) == expected


def test_wal_point_abort_rolls_back_and_leaves_no_orphans():
    engine = build_engine()
    session = engine.connect()
    session.execute("CREATE TABLE t2 (a INTEGER) DISTRIBUTED BY (a)")
    injector = FaultInjector(engine, FaultPlan(abort_at_lsn_offsets=[1]))
    engine.attach_chaos(injector)

    with pytest.raises(TransactionAbortedByFault):
        session.execute("INSERT INTO t2 VALUES (1)")
    injector.detach()
    engine.chaos = None

    assert session.query("SELECT count(*) FROM t2") == [(0,)]
    assert orphaned_files(engine) == []  # truncate-on-abort reclaimed all


def test_abort_txn_event_only_fires_in_query():
    engine = build_engine()
    session = engine.connect()
    _small_table(session, rows=500)
    injector = FaultInjector(
        engine, FaultPlan([FaultEvent(1e-9, "abort_txn")])
    )
    engine.attach_chaos(injector)
    with pytest.raises(TransactionAbortedByFault):
        session.execute(SQL)
    # Consumed: the next query runs clean.
    assert session.execute(SQL).retries == 0


def test_all_segments_down_fails_clean():
    engine = build_engine()
    session = engine.connect()
    _small_table(session, rows=500)
    for segment in engine.segments:
        engine.fail_segment(segment.segment_id)
    with pytest.raises(ClusterError):
        session.execute(SQL)


# ---------------------------------------------------------------------------
# Plans and determinism.
# ---------------------------------------------------------------------------


HOSTS = ["host0", "host1", "host2"]


def test_random_plan_is_deterministic():
    a = random_plan(7, 1.0, hosts=HOSTS, num_segments=6)
    b = random_plan(7, 1.0, hosts=HOSTS, num_segments=6)
    assert a == b


def test_random_plan_respects_survivability_bounds():
    for seed in range(200):
        plan = random_plan(seed, 1.0, hosts=HOSTS, num_segments=6, replication=3)
        kinds = [event.kind for event in plan.events]
        assert kinds.count("fail_disk") <= 2  # replication - 1
        assert kinds.count("crash_master") <= 1  # one standby
        assert kinds.count("fail_datanode") == kinds.count("revive_datanode")
        assert all(0.0 <= event.at <= 1.0 for event in plan.events)
        # fail_disk events never target the same host twice.
        disk_hosts = [e.target for e in plan.events if e.kind == "fail_disk"]
        assert len(disk_hosts) == len(set(disk_hosts))


def test_unknown_event_kind_rejected():
    from repro.errors import ReproError

    with pytest.raises(ReproError):
        FaultEvent(0.0, "set_fire_to_rack")


def test_schedule_reports_are_reproducible(data, baseline):
    a = run_schedule(13, data, baseline)
    b = run_schedule(13, data, baseline)
    assert a.fired == b.fired
    assert a.clean_failures == b.clean_failures
    assert a.retries == b.retries


# ---------------------------------------------------------------------------
# Interconnect drill: packet chaos.
# ---------------------------------------------------------------------------


def test_drill_survives_degraded_fabric():
    report = run_drill(3)
    assert report.ok
    assert report.retransmits > 0  # the loss actually bit


def test_drill_drops_corrupted_packets_and_still_delivers():
    report = run_drill(
        5, conditions=NetworkConditions(corrupt_rate=0.2), messages=120
    )
    assert report.ok
    assert report.corrupt_dropped > 0


def test_drill_is_deterministic():
    assert run_drill(11) == run_drill(11)
