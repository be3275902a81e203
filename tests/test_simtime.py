"""Tests for the simulated clock, the event network, the cost
accumulator's scaled/fixed cost split, and the event-driven scheduler."""

import random

import pytest

from repro.errors import InterconnectError, ReproError
from repro.network import NetworkConditions, SimNetwork
from repro.simtime import CostAccumulator, CostModel, QueryCost
from repro.simtime.scheduler import EventScheduler, TaskGraph


class TestCostAccumulator:
    def test_fixed_costs_ignore_scale(self):
        model = CostModel()
        model.scale = 1000.0
        acc = CostAccumulator(model)
        acc.fixed(2.0)
        assert acc.seconds == 2.0

    def test_scaled_disk_read(self):
        model = CostModel()
        model.scale = 10.0
        acc = CostAccumulator(model)
        acc.disk_read(int(model.disk_seq_bw))  # 1 second of data
        assert acc.seconds == pytest.approx(10.0)
        assert acc.disk_read_bytes == int(model.disk_seq_bw)

    def test_cached_reads_free(self):
        model = CostModel()
        model.io_cached = True
        acc = CostAccumulator(model)
        acc.disk_read(10**9)
        assert acc.seconds == 0.0
        assert acc.disk_read_bytes == 10**9  # still counted

    def test_replicated_write_costs_more(self):
        model = CostModel()
        plain = CostAccumulator(model)
        replicated = CostAccumulator(model)
        plain.disk_write(10**6)
        replicated.disk_write(10**6, replicated=True)
        assert replicated.seconds == pytest.approx(
            plain.seconds * model.hdfs_replication
        )

    def test_cpu_tuples(self):
        model = CostModel()
        acc = CostAccumulator(model)
        acc.cpu_tuples(1000, ncolumns=4)
        expected = 1000 * (model.cpu_tuple + 4 * model.cpu_column)
        assert acc.seconds == pytest.approx(expected)
        assert acc.tuples == 1000

    def test_network_includes_latency(self):
        model = CostModel()
        acc = CostAccumulator(model)
        acc.network(0)
        assert acc.seconds == pytest.approx(model.net_latency)

    def test_network_latency_is_per_message(self):
        model = CostModel()
        batched, fragmented = CostAccumulator(model), CostAccumulator(model)
        # One logical payload: three fragments batched into one charged
        # send pay one latency; three separate messages pay three.
        batched.network(3000, messages=1)
        fragmented.network(3000, messages=3)
        assert fragmented.seconds - batched.seconds == pytest.approx(
            2 * model.net_latency
        )
        assert batched.net_bytes == fragmented.net_bytes == 3000

    def test_network_continuation_pays_no_latency(self):
        model = CostModel()
        acc = CostAccumulator(model)
        acc.network(9000, messages=0)
        assert acc.seconds == pytest.approx(model.scaled(9000 / model.net_bw))
        assert acc.net_bytes == 9000

    def test_model_copy_is_independent(self):
        model = CostModel()
        clone = model.copy()
        clone.scale = 99.0
        assert model.scale != clone.scale

    def test_query_cost_from_accumulator(self):
        acc = CostAccumulator(CostModel())
        acc.fixed(1.5)
        acc.disk_read(100)
        cost = QueryCost.from_accumulator(acc)
        assert cost.seconds == acc.seconds
        assert cost.disk_read_bytes == 100


class TestSimNetwork:
    def test_timer_ordering(self):
        net = SimNetwork()
        fired = []
        net.schedule(0.3, lambda: fired.append("late"))
        net.schedule(0.1, lambda: fired.append("early"))
        net.run()
        assert fired == ["early", "late"]

    def test_timer_cancellation(self):
        net = SimNetwork()
        fired = []
        handle = net.schedule(0.1, lambda: fired.append("x"))
        handle.cancel()
        net.run()
        assert fired == []

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            SimNetwork().schedule(-1, lambda: None)

    def test_datagram_delivery(self):
        net = SimNetwork()
        got = []
        net.register(("b", 1), lambda d: got.append(d.payload))
        net.send(("a", 1), ("b", 1), "hello", size=10)
        net.run()
        assert got == ["hello"]

    def test_unbound_port_drops_silently(self):
        net = SimNetwork()
        net.send(("a", 1), ("nowhere", 1), "x", size=5)
        net.run()  # no error

    def test_loss_accounting_deterministic(self):
        results = []
        for _ in range(2):
            net = SimNetwork(NetworkConditions(loss_rate=0.5), seed=42)
            net.register(("b", 1), lambda d: None)
            for i in range(100):
                net.send(("a", 1), ("b", 1), i, size=10)
            net.run()
            results.append((net.dropped, net.delivered))
        assert results[0] == results[1]
        assert results[0][0] > 0

    def test_duplicate_bound(self):
        net = SimNetwork(NetworkConditions(dup_rate=1.0), seed=1)
        got = []
        net.register(("b", 1), lambda d: got.append(d.payload))
        net.send(("a", 1), ("b", 1), "x", size=10)
        net.run()
        assert len(got) == 2

    def test_max_time_exceeded(self):
        net = SimNetwork()

        def reschedule():
            net.schedule(10.0, reschedule)

        net.schedule(10.0, reschedule)
        with pytest.raises(InterconnectError):
            net.run(until=lambda: False, max_time=25.0)

    def test_until_predicate_stops_early(self):
        net = SimNetwork()
        fired = []
        net.schedule(0.1, lambda: fired.append(1))
        net.schedule(0.2, lambda: fired.append(2))
        net.run(until=lambda: len(fired) >= 1)
        assert fired == [1]

    def test_double_register_rejected(self):
        net = SimNetwork()
        net.register(("a", 1), lambda d: None)
        with pytest.raises(InterconnectError):
            net.register(("a", 1), lambda d: None)

    def test_lossless_link_delivers_after_latency_and_serialization(self):
        conditions = NetworkConditions(latency=2e-4, jitter=0.0, bandwidth=1e6)
        net = SimNetwork(conditions, seed=3)
        got = []
        net.register(("b", 1), lambda d: got.append((d.payload, net.now, d.corrupted)))
        sends = [(0, 1500), (1, 10), (2, 1500), (3, 700)]
        expected = []
        for payload, size in sends:
            net.send(("a", 1), ("b", 1), payload, size=size)
            expected.append((payload, 0.0 + 2e-4 + size / 1e6, False))
        net.schedule(0.01, lambda: net.send(("a", 1), ("b", 1), 4, size=64))
        expected.append((4, 0.01 + (2e-4 + 64 / 1e6), False))
        net.run()
        expected.sort(key=lambda arrival: arrival[1])  # the heap's order
        assert got == expected  # exact floats; ties keep send order
        assert [p for p, _, _ in got[:2]] == [1, 3]
        assert net.delivered == 5 and net.dropped == net.duplicated == 0

    def test_lossy_link_draws_as_before(self):
        """Counts and arrivals of a lossy net at a fixed seed, pinned
        from the commit before lossless links stopped drawing."""
        conditions = NetworkConditions(
            loss_rate=0.2, dup_rate=0.1, corrupt_rate=0.1, jitter=50e-6
        )
        net = SimNetwork(conditions, seed=7)
        got = []
        net.register(("b", 1), lambda d: got.append((d.payload, d.corrupted, net.now)))
        for i in range(200):
            net.send(("a", 1), ("b", 1), i, size=100 + i)
        net.run()
        assert (net.delivered, net.dropped, net.duplicated, net.corrupted) == (
            168, 43, 11, 10,
        )
        assert net.bytes_sent == 39900
        assert net.now == 0.0001495017172595844
        assert got[:3] == [
            (77, False, 0.0001004278957787132),
            (27, False, 0.00010045422173781673),
            (46, False, 0.0001004990282435181),
        ]


class TestEventScheduler:
    def test_empty_schedule(self):
        schedule = EventScheduler().run()
        assert schedule.makespan == 0.0
        assert schedule.critical_path == []

    def test_chain_sums_durations_and_delays(self):
        sched = EventScheduler()
        sched.add_task((0, 0), 1.0)
        sched.add_task((1, 0), 2.0)
        sched.add_task((2, 0), 3.0)
        sched.add_edge((0, 0), (1, 0), delay=0.5)
        sched.add_edge((1, 0), (2, 0), delay=0.5)
        schedule = sched.run()
        assert schedule.makespan == pytest.approx(7.0)
        assert schedule.critical_path == [(0, 0), (1, 0), (2, 0)]

    def test_fan_in_takes_max_not_sum(self):
        # Two independent children feeding one parent: the bushy shape
        # the old per-slice max-then-sum fold over-charged.
        sched = EventScheduler()
        sched.add_task((0, 0), 5.0)
        sched.add_task((1, 0), 2.0)
        sched.add_task((2, 0), 1.0)
        sched.add_edge((0, 0), (2, 0))
        sched.add_edge((1, 0), (2, 0))
        schedule = sched.run()
        assert schedule.makespan == pytest.approx(6.0)
        assert schedule.critical_path == [(0, 0), (2, 0)]

    def test_parallel_edges_later_arrival_wins(self):
        sched = EventScheduler()
        sched.add_task((0, 0), 1.0)
        sched.add_task((1, 0), 1.0)
        sched.add_edge((0, 0), (1, 0), delay=0.1)
        sched.add_edge((0, 0), (1, 0), delay=2.0)
        schedule = sched.run()
        assert schedule.makespan == pytest.approx(4.0)

    def test_release_delays_start(self):
        sched = EventScheduler()
        sched.add_task((0, 0), 1.0, release=3.0)
        schedule = sched.run()
        assert schedule.start[(0, 0)] == pytest.approx(3.0)
        assert schedule.makespan == pytest.approx(4.0)

    def test_cycle_detected(self):
        sched = EventScheduler()
        sched.add_task((0, 0), 1.0)
        sched.add_task((1, 0), 1.0)
        sched.add_edge((0, 0), (1, 0))
        sched.add_edge((1, 0), (0, 0))
        with pytest.raises(ReproError, match="deadlock"):
            sched.run()

    def test_duplicate_task_rejected(self):
        sched = EventScheduler()
        sched.add_task((0, 0), 1.0)
        with pytest.raises(ReproError):
            sched.add_task((0, 0), 2.0)

    def test_edge_to_unknown_task_rejected(self):
        sched = EventScheduler()
        sched.add_task((0, 0), 1.0)
        with pytest.raises(ReproError):
            sched.add_edge((0, 0), (9, 9))

    def test_negative_times_rejected(self):
        sched = EventScheduler()
        with pytest.raises(ReproError):
            sched.add_task((0, 0), -1.0)
        sched.add_task((1, 0), 1.0)
        sched.add_task((2, 0), 1.0)
        with pytest.raises(ReproError):
            sched.add_edge((1, 0), (2, 0), delay=-0.1)


# ------------------------------------------ one-pass replay of a task graph
def _random_waves(seed):
    """A seeded wave-structured DAG as the runtime composes one, wave by
    wave: ``(tasks, constraints)`` per wave, its motions first, then its
    same-segment edges as one-to-one constraints.

    Gangs hold 1-8 segments or the QD's one; a wave drains 1-3 child
    slices (or none: a leaf); a task runs after the last earlier task on
    its segment, which skips the waves whose gang missed the segment.
    Durations and delays come from small sets, so gangs, arrivals and
    zero-length tasks tie."""
    rng = random.Random(seed)
    parts = []
    orphans = []  # earlier slices no wave has drained yet
    last_on_segment = {}
    for slice_id in range(rng.randint(1, 9)):
        if rng.random() < 0.2:
            gang = [-1]
        else:
            gang = sorted(rng.sample(range(8), rng.randint(1, 8)))
        keys = [(slice_id, seg) for seg in gang]
        duration = rng.choice([0.0, 0.5, 1.0, 1.0, 2.0, rng.random()])
        children = []
        if orphans and rng.random() < 0.8:
            children = rng.sample(orphans, rng.randint(1, min(3, len(orphans))))
            for child in children:
                orphans.remove(child)
        constraints = [
            (senders, keys, rng.choice([0.0, 0.1, 0.1, 0.25]))
            for senders in children
        ]
        for key in keys:
            if key[1] in last_on_segment:
                constraints.append(([last_on_segment[key[1]]], [key], 0.0))
            last_on_segment[key[1]] = key
        parts.append(([(key, duration) for key in keys], constraints))
        orphans.append(keys)
    return parts


def _replay_and_reference(parts):
    """The one-pass replay, and an event clock fed the same graph with
    every constraint expanded to its sender-major pair edges, in order."""
    graph = TaskGraph(
        tasks=[task for part in parts for task in part[0]],
        constraints=[c for part in parts for c in part[1]],
    )
    reference = EventScheduler()
    for key, duration in graph.tasks:
        reference.add_task(key, duration)
    for senders, consumers, delay in graph.constraints:
        for src in senders:
            for dst in consumers:
                reference.add_edge(src, dst, delay=delay)
    return graph.replay(), reference.run()


def _same_schedule(got, want):
    assert got.start == want.start
    assert got.finish == want.finish
    assert got.makespan == want.makespan
    assert got.critical_path == want.critical_path


class TestTaskGraphReplay:
    """``TaskGraph.replay`` is the event clock's schedule of the same
    graph with every barrier expanded to its pair edges, float for
    float, critical path included."""

    @pytest.mark.parametrize("block", range(8))
    def test_random_wave_graphs_replay_as_the_event_clock(self, block):
        for seed in range(block * 50, block * 50 + 50):
            got, want = _replay_and_reference(_random_waves(seed))
            _same_schedule(got, want)

    def test_barrier_defers_to_its_first_processed_sender(self):
        """Senders ``s1`` and ``s2`` and the edge source ``x`` all finish
        at 1.0, processed in the order s1, x, s2 (``s2`` waits for a
        zero-length task). Every arrival at ``c`` ties, so the first one
        processed, ``s1``, decides it — not the barrier's last sender,
        nor ``x``, which arrived before the barrier resolved."""
        s1, s2, x, c = (1, 0), (1, 2), (2, 1), (3, 1)
        parts = [
            ([((0, 2), 0.0)], []),
            ([(s1, 1.0), (s2, 1.0)], [([(0, 2)], [s2], 0.0)]),
            ([(x, 1.0)], []),
            ([(c, 1.0)], [([s1, s2], [c], 0.0), ([x], [c], 0.0)]),
        ]
        got, want = _replay_and_reference(parts)
        _same_schedule(got, want)
        assert got.critical_path == [s1, c]
        assert got.makespan == 2.0

    def test_constraints_take_effect_wave_by_wave(self):
        """``x`` feeds ``y`` by an edge and ``p`` by a motion. The edge
        belongs to an earlier wave, so it comes first in the list and
        ``x``'s finish releases ``y`` before ``p``; both then finish at
        2.0, and ``y``, processed first, decides ``q``. Listing every
        motion before every edge would release ``p`` first and let it
        decide instead."""
        x, y, p, q = (0, -1), (1, -1), (2, 0), (3, -1)
        parts = [
            ([(x, 1.0)], []),
            ([(y, 1.0)], [([x], [y], 0.0)]),
            ([(p, 1.0)], [([x], [p], 0.0)]),
            ([(q, 1.0)], [([p], [q], 0.0), ([y], [q], 0.0)]),
        ]
        got, want = _replay_and_reference(parts)
        _same_schedule(got, want)
        assert got.critical_path == [x, y, q]

    def test_empty_graph(self):
        schedule = TaskGraph(tasks=[]).replay()
        assert schedule.makespan == 0.0 and schedule.critical_path == []

    def test_unknown_task_and_cycle_rejected(self):
        with pytest.raises(ReproError):
            TaskGraph(
                tasks=[((0, 0), 1.0)], constraints=[([(9, 9)], [(0, 0)], 0.0)]
            ).replay()
        cycle = TaskGraph(
            tasks=[((0, 0), 1.0), ((1, 0), 1.0)],
            constraints=[([(0, 0)], [(1, 0)], 0.0), ([(1, 0)], [(0, 0)], 0.0)],
        )
        with pytest.raises(ReproError, match="deadlock"):
            cycle.replay()

    def test_live_barrier_picks_the_first_sender_at_the_latest_arrival(self):
        """Added mid-run after its senders finished, a barrier leaves
        each consumer the first listed sender that reaches the latest
        arrival, as its pair edges would."""
        sched = EventScheduler()
        senders = [(0, 0), (0, 1), (0, 2)]
        for key, duration in zip(senders, [1.0, 2.0, 2.0]):
            sched.add_task(key, duration)

        def wire(_now):
            for seg in range(2):
                sched.add_task((1, seg), 1.0)
            sched.add_barrier(senders, [(1, 0), (1, 1)], delay=0.5)

        sched.watch(senders, wire)
        schedule = sched.run()
        assert schedule.start[(1, 0)] == schedule.start[(1, 1)] == 2.5
        assert schedule.critical_path == [(0, 1), (1, 1)]

    def test_barrier_needs_a_running_clock_and_finished_senders(self):
        sched = EventScheduler()
        for key in [(0, 0), (0, 1), (1, 0)]:
            sched.add_task(key, 1.0)
        with pytest.raises(ReproError, match="outside run"):
            sched.add_barrier([(0, 0)], [(1, 0)])
        refused = []

        def wire(_now):
            with pytest.raises(ReproError, match="not finished"):
                sched.add_barrier([(0, 0), (0, 1)], [(1, 0)])
            refused.append(True)

        sched.watch([(0, 0)], wire)
        sched.run()
        assert refused == [True]
