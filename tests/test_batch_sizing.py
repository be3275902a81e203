"""A batch is sized once, and every size is the row sizer's.

``ColumnBatch.nbytes()`` keeps its answer on the batch; ``dense``,
``concat`` and ``partition`` pass known sizes on (``4·rows + Σ column
bytes`` is additive over rows); a motion ships the batch it charged for
and the join build or sort that consumes the stream reads the size off
it. Whatever route a size took — computed, remembered, summed, or split
per receiver from one census — it is
``sum(RowSizer()(row) for row in batch.to_rows())``: the motion bytes
and spill charges of the simulated clock do not move.
"""

import datetime

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.rpc import MessageQueue
from repro.executor.batch import ColumnBatch
from repro.executor.expr import RowSizer, fixed_width
from repro.executor.runner import ExecutionContext
from repro.executor.slice_runner import SliceExecutor, SliceProviders
from repro.interconnect.exchange import ExchangeFabric
from repro.planner import exprs as ex
from repro.planner.dispatch import SliceTask
from repro.planner.logical import SortKey
from repro.planner.physical import Filter, HashJoin, Motion, MotionRecv, Sort
from repro.simtime import CostAccumulator, CostModel
from tests.test_batch_differential import (
    JOIN_SHAPES,
    MOTION_ROWS,
    _column_vector,
    _execute,
    _FakeTables,
    _scan,
    _var,
)


def _row_bytes(rows):
    sizer = RowSizer()
    return sum(sizer(row) for row in rows)


def _sized_like_its_rows(batch):
    assert batch.nbytes() == _row_bytes(batch.to_rows())
    assert batch.nbytes() == _row_bytes(batch.to_rows())  # and the second time


# ------------------------------------------------------------- the batch
#: Per column: ints with NULLs, int / float mixed, strings with
#: multi-byte characters, dates, booleans, floats, all NULL.
VALUES = (
    st.one_of(st.none(), st.integers(-5, 5)),
    st.one_of(st.integers(-5, 5), st.sampled_from([0.5, -1.25])),
    st.one_of(st.none(), st.sampled_from(["", "k", "naïve", "日本語", "žluťoučký"])),
    st.one_of(st.none(), st.dates(datetime.date(1995, 1, 1), datetime.date(1995, 3, 1))),
    st.one_of(st.none(), st.booleans()),
    st.sampled_from([0.0, 1.5, -2.25]),
    st.none(),
)


@st.composite
def batches(draw, min_rows=0):
    """A dense batch, each column typed or plain as a scan would hold it."""
    rows = draw(st.lists(st.tuples(*VALUES), min_size=min_rows, max_size=12))
    columns = [
        _column_vector(list(col)) if draw(st.booleans()) else list(col)
        for col in zip(*rows)
    ] if rows else [[] for _ in VALUES]
    return ColumnBatch(columns, len(rows))


SETTINGS = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@SETTINGS
@given(batch=batches(), data=st.data())
def test_a_selection_of_a_sized_batch_is_sized_afresh(backend, batch, data):
    _sized_like_its_rows(batch)
    picks = data.draw(st.lists(st.integers(0, batch.nrows - 1))) if batch.nrows else []
    narrower = batch.select(picks)  # fewer (or repeated) rows: no stale size
    _sized_like_its_rows(narrower)
    _sized_like_its_rows(narrower.dense())  # the known size rides along
    _sized_like_its_rows(narrower.select(range(len(picks) // 2)).dense())


@SETTINGS
@given(parts=st.lists(batches(), min_size=1, max_size=4), sized=st.data())
def test_concat_sums_known_sizes_and_computes_unknown_ones(backend, parts, sized):
    for part in parts:
        if sized.draw(st.booleans()):
            part.nbytes()
    whole = ColumnBatch.concat(parts)
    assert list(whole.to_rows()) == [row for p in parts for row in p.to_rows()]
    _sized_like_its_rows(whole)


@SETTINGS
@given(batch=batches(min_rows=1), data=st.data())
def test_partition_sizes_every_part_from_one_census(backend, batch, data):
    places = data.draw(st.lists(st.integers(0, 3), min_size=batch.nrows,
                                max_size=batch.nrows))
    picks = [[row for row, place in enumerate(places) if place == target]
             for target in range(4)]
    parts = batch.partition(picks)
    for rows, part in zip(picks, parts):
        assert list(part.to_rows()) == list(batch.select(rows).to_rows())
        assert part._nbytes == _row_bytes(part.to_rows())  # set, not computed later


def test_a_width_is_claimed_only_for_one_fixed_size_type(backend):
    day = datetime.date(1995, 1, 1)
    assert fixed_width([1, 2, 3]) == 8
    assert fixed_width([day, day]) == 4
    assert fixed_width([True, False]) == 1
    assert fixed_width([None, None]) == 1
    assert fixed_width(_column_vector([1, 2])) == 8
    assert fixed_width(_column_vector([0.5, 1.5])) == 8
    for walked in ([1, None], [1, 2.5, True], ["a", "b"], [], [(1, 2)],
                   _column_vector([1, None]), _column_vector(["a", "b"])):
        assert fixed_width(walked) is None


# --------------------------------------------------------- the operators
SIZING_ROWS = MOTION_ROWS + [
    (7, "naïve", None, 1, True),  # an int among the floats of column 3
    (None, "日本語", datetime.date(1995, 1, 2), 2.5, None),
    (3, "", datetime.date(1995, 1, 3), 7.25, False),
]


@pytest.mark.parametrize("rows", [SIZING_ROWS, SIZING_ROWS[:1]], ids=["many", "one"])
@pytest.mark.parametrize("kind,keys", [
    ("gather", []), ("broadcast", []),
    ("redistribute", [0]), ("redistribute", [1]), ("redistribute", [2, 3]),
    ("redistribute", [4, 0, 1]), ("redistribute", []),
])
def test_every_stream_is_charged_at_its_rows_sizes(backend, kind, keys, rows):
    """The filter below the motion leaves a selection, so the stream is
    sized through ``dense`` / ``partition``, never as the scan's block."""
    child = Filter(child=_scan(0, "t", 5), cond=ex.BOp("<>", _var(0, 3), ex.BConst(1.0)))
    motion = Motion(kind=kind, child=child, hash_exprs=[_var(0, c) for c in keys])
    _rows, charged, sent, (rows_out, bytes_out) = _execute(
        motion, "batch", {"t": rows}, is_top=False, receivers=[0, 1, 2, 3]
    )
    assert sent
    for payload, nbytes in sent.values():
        assert nbytes == _row_bytes(payload)
    total = sum(nbytes for _payload, nbytes in sent.values())
    assert bytes_out == total
    assert rows_out == sum(len(payload) for payload, _nbytes in sent.values())


def _two_slices(sender_root, receiver_root, tables, monkeypatch):
    """Slice 0 sends to slice 1 on one fabric, both on segment 0; returns
    the receiver's rows and every byte count handed to ``_charge_spill``."""
    spilled = []
    real = SliceExecutor._charge_spill

    def recording(self, acc, actual_bytes):
        spilled.append(actual_bytes)
        return real(self, acc, actual_bytes)

    monkeypatch.setattr(SliceExecutor, "_charge_spill", recording)
    queue = MessageQueue()
    fabric = ExchangeFabric(queue)
    ctx = ExecutionContext(
        num_segments=4, cost_model=CostModel(), executor_mode="batch", query_id=1
    )
    fake = _FakeTables(tables)
    providers = SliceProviders(scan=fake.scan, external=None)
    rows = None
    for slice_id, root in enumerate((sender_root, receiver_root)):
        task = SliceTask(
            slice_id=slice_id, segment=0, gang="N", is_top=bool(slice_id),
            receivers=[] if slice_id else [0], num_plan_slices=2,
        )
        rows = SliceExecutor(
            root, task, ctx, providers, fabric, CostAccumulator(ctx.cost_model)
        ).run()
        queue.deliver()
    return rows, spilled


def _shipped(name, ncols, kind="gather"):
    """(the sending slice's root, the receiving slice's leaf)."""
    scan = _scan(0, name, ncols)
    sender = Motion(
        kind=kind, child=Filter(child=scan, cond=ex.BIsNull(_var(0, ncols - 1), True))
    )
    return sender, MotionRecv(slice_id=0, kind=kind, source_layout=list(scan.layout))


def test_a_sort_charges_the_size_its_stream_was_shipped_at(backend, monkeypatch):
    sender, recv = _shipped("t", 5)
    sort = Sort(child=recv, keys=[SortKey(_var(0, 0), ascending=True)])
    rows, spilled = _two_slices(sender, sort, {"t": SIZING_ROWS}, monkeypatch)
    kept = [row for row in SIZING_ROWS if row[4] is not None]
    assert sorted(map(repr, rows)) == sorted(map(repr, kept))
    assert spilled == [_row_bytes(kept)]


@pytest.mark.parametrize("shape", sorted(JOIN_SHAPES))
@pytest.mark.parametrize("shipped_build", [False, True], ids=["scanned", "shipped"])
def test_a_join_build_charges_its_rows_sizes(backend, monkeypatch, shape, shipped_build):
    """The build side is the rows whose key holds no NULL — taken out of
    a received stream with ``select``, which must not keep the stream's
    size — whether they were shipped (sized by the sender) or scanned."""
    probe, build = JOIN_SHAPES[shape]
    sender, recv = _shipped("build", 3)
    right = recv if shipped_build else sender.child
    join = HashJoin(
        join_type="inner", left=_scan(1, "probe", 3), right=right,
        left_keys=[_var(1, 0)], right_keys=[_var(0, 0)],
    )
    _rows, spilled = _two_slices(
        sender, join, {"probe": probe, "build": build}, monkeypatch
    )
    kept = [row for row in build if row[2] is not None and row[0] is not None]
    assert spilled == [_row_bytes(kept)]
