"""``repro.obs``: deterministic observability for the simulated cluster.

Two instruments, one contract:

* :mod:`repro.obs.trace` — structured spans for the full query
  lifecycle (dispatch, per-task slice execution, operators, storage
  scans, motion streams, RPC protocol events), timestamped on the
  *simulated* clock and assembled from the event scheduler's timelines.
* :mod:`repro.obs.metrics` — per-node labeled counters/gauges/
  histograms, snapshot-diffed per query onto ``QueryResult.metrics``.

:mod:`repro.obs.explain` renders ``EXPLAIN ANALYZE`` from a statement's
trace.

The contract: observability is *passive*. Recording never charges a
cost accumulator, never reads the wall clock, and never perturbs a
simulated figure — with tracing enabled, answers and ``cost.seconds``
are bit-identical to tracing disabled (lint R6 + the differential test
enforce this).

CLI: ``python -m repro.obs --query 3 --export trace.json`` traces a
TPC-H query and writes Chrome trace_event JSON for Perfetto.
"""

from repro.obs.activity import ClusterTelemetry, StatementStats, fingerprint, render_top
from repro.obs.export import (
    prometheus_violations,
    render_prometheus,
    render_summary,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
)
from repro.obs.trace import (
    Instant,
    QueryTrace,
    RpcEvent,
    Span,
    TraceCollector,
    rpc_closure_violations,
)

__all__ = [
    "ClusterTelemetry",
    "Counter",
    "Gauge",
    "Histogram",
    "Instant",
    "MetricsRegistry",
    "MetricsSnapshot",
    "QueryTrace",
    "RpcEvent",
    "Span",
    "StatementStats",
    "TraceCollector",
    "fingerprint",
    "prometheus_violations",
    "render_prometheus",
    "render_summary",
    "render_top",
    "rpc_closure_violations",
    "to_chrome_trace",
    "validate_chrome_trace",
]
