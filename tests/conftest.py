"""Fixtures shared by the test modules."""

from types import SimpleNamespace

import pytest

from repro.columnar import vector


@pytest.fixture(params=["numpy", "fallback"])
def backend(request, monkeypatch):
    """Run the test on each column representation a scan can hand out.

    ``"numpy"`` loads NumPy, so constructors build typed vectors and the
    kernels' NumPy arms run, whichever test ran before this one; it
    skips only on a platform without NumPy (not installed, or
    ``REPRO_NO_NUMPY`` set). ``"fallback"`` patches NumPy away for the
    test: constructors hand out plain lists and every kernel takes its
    generic arm.
    """
    if request.param == "fallback":
        monkeypatch.setattr(vector, "_np", None)
    elif vector.numpy_module() is None:
        pytest.skip("no NumPy on this platform (missing, or REPRO_NO_NUMPY set)")
    return request.param


def runtime_holds(runtime, query_id=None):
    """What the engine's runtime still holds — of ``query_id``, or of
    any statement: queued messages and streams, in-flight dispatches,
    exchange inboxes, routed traces, and anything a worker keeps that is
    tagged with a query id."""
    def mine(qid):
        return query_id is None or qid == query_id

    held = []
    for _endpoint, payload in runtime.queue._entries:
        qid = payload[0] if isinstance(payload, tuple) else payload.query_id
        if mine(qid):
            held.append(("queued", qid))
    held += [("in flight", q) for q in runtime._inflight if mine(q)]
    held += [("inbox", key) for key in runtime.exchange._inbox if mine(key[0])]
    held += [("trace", q) for q in runtime.router._traces if mine(q)]
    for name, channel in sorted(runtime.bus.channels.items()):
        worker = getattr(channel.handler, "__self__", None)
        if name == "master" or worker is None:
            continue
        for attr, value in vars(worker).items():
            qid = getattr(value, "query_id", None)
            if qid is not None and mine(qid):
                held.append((f"{name}.{attr}", qid))
    return held


@pytest.fixture
def runtime_residue(monkeypatch):
    """Check the runtime every time a statement settles while the test
    runs — ok, SQL error, cancel, timeout or retries exhausted — and
    collect what it still holds of that statement: ``left`` is empty
    when every one of the ``settled`` statements left nothing behind."""
    from repro.executor.concurrent import StatementLoop

    residue = SimpleNamespace(settled=0, left=[])
    settle = StatementLoop._settle

    def checked(loop, state, finish_time):
        settle(loop, state, finish_time)
        residue.settled += 1
        residue.left += runtime_holds(loop.runtime, state.outcome.query_id)

    monkeypatch.setattr(StatementLoop, "_settle", checked)
    return residue
