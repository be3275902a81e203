"""Wrappers install and uninstall cleanly; spans nest."""

import importlib
import json

import pytest

import tracing
from repro.engine import Engine


def _owner(target):
    module = importlib.import_module(target.module)
    return getattr(module, target.owner) if target.owner else module


@pytest.fixture(scope="module")
def traced():
    """A tiny engine driven once with the wrappers on."""
    originals = [vars(_owner(t))[t.attr] for t in tracing.TARGETS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = [vars(_owner(t))[t.attr] for t in tracing.TARGETS]
        engine = Engine(num_segment_hosts=2, segments_per_host=1)
        session = engine.connect()
        ops = []
        for sql in (
            "CREATE TABLE t (a INT NOT NULL, b FLOAT, c TEXT) "
            "WITH (appendonly=true, orientation=column) DISTRIBUTED BY (a)",
            "INSERT INTO t VALUES (1, 1.5, 'x'), (2, 2.5, 'y'), (3, 3.5, 'x')",
            "SELECT c, count(*), sum(b) FROM t GROUP BY c ORDER BY c",
            "SELECT a FROM t ORDER BY a LIMIT 1",  # abandons its scan
        ):
            first = len(tracer.spans)
            session.execute(sql)
            ops.append((sql[:6], first, len(tracer.spans)))
    finally:
        tracer.uninstall()
    restored = [vars(_owner(t))[t.attr] for t in tracing.TARGETS]
    return tracer, ops, originals, patched, restored


def test_every_target_exists_and_is_wrapped_then_restored_by_identity(traced):
    _tracer, _ops, originals, patched, restored = traced
    assert all(original is not None for original in originals)
    assert all(p is not o for p, o in zip(patched, originals))
    assert all(r is o for r, o in zip(restored, originals))
    assert not any(cb.__name__ == "_on_gc" for cb in __import__("gc").callbacks)


def test_spans_cover_the_layers_and_close(traced):
    tracer, ops, *_ = traced
    names = {span[0] for span in tracer.spans}
    assert {"engine.session", "sql.parse", "planner.plan", "catalog", "txn",
            "cluster.rpc", "network.simnet", "executor.slice", "storage.scan",
            "storage.write", "hdfs.write", "obs"} <= names
    assert all(span[2] >= span[1] > 0 for span in tracer.spans)
    assert tracer.counts["storage.write.bytes"] > 0
    assert tracer.counts["storage.scan.calls"] > 0


def test_self_times_add_up_to_the_root_span(traced):
    tracer, ops, *_ = traced
    for _label, first, end in ops:
        own = tracing.self_times(tracer.spans, first, end)
        roots = [
            span[2] - span[1]
            for span in tracer.spans[first:end]
            if span[3] < first
        ]
        assert all(value >= -1e-9 for value in own)
        assert sum(own) == pytest.approx(sum(roots))


def test_trace_json_loads_and_every_parent_encloses_its_child(traced, tmp_path):
    tracer, ops, *_ = traced
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(tracing.chrome_trace(tracer.spans, ops)))
    events = json.loads(path.read_text())["traceEvents"]
    # Spans outside any op (building the engine) are not exported.
    assert len(events) == sum(end - first for _label, first, end in ops)
    by_id = {event["args"]["id"]: event for event in events}
    children = [event for event in events if event["args"]["parent"] >= 0]
    assert children
    for event in children:
        parent = by_id[event["args"]["parent"]]
        assert parent["args"]["op"] == event["args"]["op"]
        assert parent["ts"] <= event["ts"] + 1e-6
        assert event["ts"] + event["dur"] <= parent["ts"] + parent["dur"] + 1e-6


def test_a_retired_entry_point_is_skipped_not_fatal(capsys):
    gone = tracing.Target("catalog", "repro.catalog.service", "CatalogService", "no_such")
    tracer = tracing.Tracer()
    tracer.install((gone,))
    tracer.uninstall()
    assert "no_such" in capsys.readouterr().err
