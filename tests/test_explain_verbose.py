"""Golden tests for ``EXPLAIN (ANALYZE, VERBOSE)`` on TPC-H Q1/Q3/Q6,
and for plain ``EXPLAIN ANALYZE`` on Q11, whose InitPlan runs first.

The goldens pin the *structural* plan tree (slice headers and operator
lines with estimates and annotations stripped), which must stay stable
across cost model tweaks; separate assertions check the estimates and
the verbose annotations —
per-operator ``(actual rows=... calls=... time=... q_err=...)`` and per-scan
``(read=... remote=... cache hits=...)`` — are present and internally
consistent with the query's own timing.
"""

import re

import pytest

from repro.engine import Engine
from repro.tpch import QUERIES, load_tpch

SCALE = 0.001


@pytest.fixture(scope="module")
def session():
    engine = Engine(num_segment_hosts=2, segments_per_host=2, seed=7)
    session = engine.connect()
    load_tpch(session, scale=SCALE)
    return session


def _explain(session, number, options="ANALYZE, VERBOSE"):
    return _explain_sql(session, QUERIES[number][0], options)


def _explain_sql(session, stmt, options="ANALYZE, VERBOSE"):
    result = session.execute(f"EXPLAIN ({options}) {stmt}")
    return [row[0] for row in result.rows]


def _structure(lines):
    """Operator tree with estimates, annotations (``q_err`` among them)
    and timing lines stripped."""
    out = []
    for line in lines:
        if line.lstrip().startswith("->") or line.startswith("Slice"):
            out.append(line.split("  est_rows=")[0].split("  (actual")[0].rstrip())
    return out


GOLDEN_Q1 = [
    "Slice 2 (QD):",
    "  -> Sort",
    "    -> MotionRecv(slice 1, gather)",
    "Slice 1 (gang of N):",
    "  -> Motion(gather)",
    "    -> Sort",
    "      -> Project",
    "        -> HashAgg(final, 2 keys, 8 aggs)",
    "          -> MotionRecv(slice 0, redistribute)",
    "Slice 0 (gang of N):",
    "  -> Motion(redistribute)",
    "    -> HashAgg(partial, 2 keys, 8 aggs)",
    "      -> SeqScan(lineitem, filter)",
]

GOLDEN_Q3 = [
    "Slice 2 (QD):",
    "  -> Limit",
    "    -> Sort",
    "      -> MotionRecv(slice 1, gather)",
    "Slice 1 (gang of N):",
    "  -> Motion(gather)",
    "    -> Limit",
    "      -> Sort",
    "        -> Project",
    "          -> HashAgg(single, 3 keys, 1 aggs)",
    "            -> HashJoin(inner, 1 keys)",
    "              -> SeqScan(lineitem, filter)",
    "              -> HashJoin(inner, 1 keys)",
    "                -> SeqScan(orders, filter)",
    "                -> MotionRecv(slice 0, broadcast)",
    "Slice 0 (gang of N):",
    "  -> Motion(broadcast)",
    "    -> SeqScan(customer, filter)",
]

GOLDEN_Q6 = [
    "Slice 1 (QD):",
    "  -> Project",
    "    -> HashAgg(final, 0 keys, 1 aggs)",
    "      -> MotionRecv(slice 0, gather)",
    "Slice 0 (gang of N):",
    "  -> Motion(gather)",
    "    -> HashAgg(partial, 0 keys, 1 aggs)",
    "      -> SeqScan(lineitem, filter)",
]

GOLDENS = {1: GOLDEN_Q1, 3: GOLDEN_Q3, 6: GOLDEN_Q6}


class TestGoldenStructure:
    @pytest.mark.parametrize("number", sorted(GOLDENS))
    def test_plan_tree_matches_golden(self, session, number):
        lines = _explain(session, number)
        assert _structure(lines) == GOLDENS[number]


class TestEstimates:
    @pytest.mark.parametrize("number", sorted(GOLDENS))
    def test_every_form_prints_each_operators_estimate_once(self, session, number):
        """``est_rows=<int>`` follows each operator, the planner's own
        estimate rounded, the same in EXPLAIN and both ANALYZE forms."""
        stmt = QUERIES[number][0]
        estimates = []
        for sql in (
            f"EXPLAIN {stmt}",
            f"EXPLAIN (ANALYZE) {stmt}",
            f"EXPLAIN (ANALYZE, VERBOSE) {stmt}",
        ):
            lines = [r[0] for r in session.execute(sql).rows]
            ops = [l for l in lines if l.lstrip().startswith("->")]
            assert all(l.count("est_rows=") == 1 for l in ops)
            estimates.append(
                [int(re.search(r"  est_rows=(\d+)", l).group(1)) for l in ops]
            )
        plan = session.last_plan
        planned = []

        def walk(node):
            planned.append(round(node.est_rows))
            for child in node.children:
                walk(child)

        for plan_slice in reversed(plan.slices):
            walk(plan_slice.root)
        assert estimates == [planned] * 3


class TestVerboseAnnotations:
    @pytest.mark.parametrize("number", sorted(GOLDENS))
    def test_every_operator_line_has_actuals(self, session, number):
        lines = _explain(session, number)
        op_lines = [l for l in lines if l.lstrip().startswith("->")]
        assert op_lines
        for line in op_lines:
            assert re.search(
                r"\(actual rows=\d+ calls=\d+ time=\d+\.\d+s q_err=\d+\.\d\)", line
            ), line

    @pytest.mark.parametrize("number", sorted(GOLDENS))
    def test_q_err_is_estimate_against_actual_rows(self, session, number):
        """``q_err`` = max / min of the printed estimate and the actual
        rows, each clamped to at least 1."""
        pattern = re.compile(r"est_rows=(\d+)  \(actual rows=(\d+) .* q_err=([\d.]+)\)")
        for line in _explain(session, number):
            if line.lstrip().startswith("->"):
                found = pattern.search(line)
                est, act = (max(1, int(v)) for v in found.group(1, 2))
                assert found.group(3) == f"{max(est, act) / min(est, act):.1f}"

    def test_q3_limit_shows_its_default_estimate_as_q_error(self, session):
        """Q3's ``LIMIT 10`` keeps ``PlanNode``'s default ``est_rows=1000``,
        so the limit that yields its 10 rows is 100x off."""
        lines = _explain(session, 3)
        top_limit = next(l for l in lines if l.lstrip().startswith("-> Limit"))
        assert "est_rows=1000  (actual rows=10 " in top_limit
        assert top_limit.endswith("q_err=100.0)")

    @pytest.mark.parametrize("number", sorted(GOLDENS))
    def test_scan_lines_annotate_storage(self, session, number):
        lines = _explain(session, number)
        scans = [l for l in lines if "SeqScan(" in l]
        assert scans
        for line in scans:
            assert re.search(
                r"\(read=\d+B remote=\d+B cache hits=\d+/\d+\)", line
            ), line

    def test_q3_scan_reads_positive_bytes(self, session):
        lines = _explain(session, 3)
        scan = next(l for l in lines if "SeqScan(lineitem" in l)
        read = int(re.search(r"read=(\d+)B", scan).group(1))
        assert read > 0

    @pytest.mark.parametrize("number", sorted(GOLDENS))
    def test_slice_times_bounded_by_critical_path(self, session, number):
        lines = _explain(session, number)
        slice_times = [
            float(m.group(1))
            for l in lines
            for m in [re.search(r"\(actual time=(\d+\.\d+)s,", l)]
            if m
        ]
        assert slice_times
        total = next(l for l in lines if l.startswith("Total:"))
        path = float(
            re.search(r"critical path (\d+\.\d+)s", total).group(1)
        )
        # Slice finish times print at 4 decimals; allow that rounding.
        assert all(t <= path + 1e-4 for t in slice_times)


class TestOptionForms:
    def test_paren_and_legacy_forms_agree(self, session):
        stmt = QUERIES[6][0]
        paren = [
            r[0]
            for r in session.execute(
                f"EXPLAIN (ANALYZE, VERBOSE) {stmt}"
            ).rows
        ]
        legacy = [
            r[0]
            for r in session.execute(
                f"EXPLAIN ANALYZE VERBOSE {stmt}"
            ).rows
        ]
        assert _structure(paren) == _structure(legacy)

    def test_analyze_without_verbose_has_no_operator_actuals(self, session):
        lines = _explain(session, 6, options="ANALYZE")
        assert not any("actual rows=" in l for l in lines)
        assert not any("cache hits=" in l for l in lines)
        # ...but the per-slice timing EXPLAIN ANALYZE always had stays.
        assert any("actual time=" in l for l in lines)

    def test_plain_explain_has_no_actuals(self, session):
        stmt = QUERIES[6][0]
        lines = [r[0] for r in session.execute(f"EXPLAIN {stmt}").rows]
        assert not any("actual" in l for l in lines)

    def test_unknown_option_is_rejected(self, session):
        stmt = QUERIES[6][0]
        with pytest.raises(Exception, match="(?i)unknown EXPLAIN option"):
            session.execute(f"EXPLAIN (TURBO) {stmt}")

    def test_verbose_does_not_perturb_totals(self, session):
        """Observability passivity at the EXPLAIN level: the simulated
        Total line is identical with and without VERBOSE."""
        stmt = QUERIES[1][0]
        plain = [
            r[0]
            for r in session.execute(f"EXPLAIN (ANALYZE) {stmt}").rows
        ]
        verbose = [
            r[0]
            for r in session.execute(
                f"EXPLAIN (ANALYZE, VERBOSE) {stmt}"
            ).rows
        ]
        total_plain = next(l for l in plain if l.startswith("Total:"))
        total_verbose = next(l for l in verbose if l.startswith("Total:"))
        assert total_plain == total_verbose


class TestRowExecutorParity:
    """Every line of the verbose output — actual rows, calls and time of
    each operator, bytes and cache hits of each scan, the slice and
    total times — is what the row executor reports: the filters below
    narrow a selection (Q6's five conjuncts, Q3's scan filters, Q19's
    OR of ANDs as a join residual) instead of building a TRUE / FALSE /
    NULL column, and the trace cannot tell."""

    NUMBERS = (3, 6, 19)

    @pytest.fixture(scope="class")
    def outputs(self):
        out = {}
        for mode in ("row", "batch"):
            engine = Engine(
                num_segment_hosts=2, segments_per_host=2, seed=7, executor_mode=mode
            )
            session = engine.connect()
            load_tpch(session, scale=SCALE)
            # Same statements in the same order on both: cache hits count.
            out[mode] = {n: _explain(session, n) for n in self.NUMBERS}
        return out

    @pytest.mark.parametrize("number", NUMBERS)
    def test_verbose_output_is_line_identical(self, outputs, number):
        assert outputs["batch"][number] == outputs["row"][number]
        assert any("(actual rows=" in line for line in outputs["batch"][number])


class TestMotionActuals:
    def test_no_motion_reads_zero_rows_above_a_non_empty_input(self, session):
        """A Motion's actual rows are the rows it took from its child (a
        broadcast row once), not the zero rows it yields to a parent."""
        motions = 0
        for number in sorted(QUERIES):
            lines = []
            for stmt in QUERIES[number]:  # Q15 wraps its SELECT in a view
                if not stmt.lstrip().upper().startswith("SELECT"):
                    session.execute(stmt)
                    continue
                lines += _explain_sql(session, stmt)
            for line, child in zip(lines, lines[1:]):
                if not line.lstrip().startswith("-> Motion("):
                    continue
                motions += 1
                sent = int(re.search(r"actual rows=(\d+)", line).group(1))
                taken = int(re.search(r"actual rows=(\d+)", child).group(1))
                assert sent == taken, f"Q{number}: {line.strip()}"
        assert motions > 22


# Captured before EXPLAIN ANALYZE read its timings from the trace: the
# InitPlan's slices reuse the statement's slice ids and assemble first
# on the same trace, and must not leak into the statement's lines.
GOLDEN_Q11_ANALYZE = [
    "InitPlan:",
    "  Slice 3 (QD):",
    "    -> Project  est_rows=1",
    "      -> HashAgg(final, 0 keys, 1 aggs)  est_rows=1",
    "        -> MotionRecv(slice 2, gather)  est_rows=1",
    "  Slice 2 (gang of N):",
    "    -> Motion(gather)  est_rows=1",
    "      -> HashAgg(partial, 0 keys, 1 aggs)  est_rows=1",
    "        -> HashJoin(inner, 1 keys)  est_rows=1",
    "          -> HashJoin(inner, 1 keys)  est_rows=40",
    "            -> SeqScan(partsupp)  est_rows=800",
    "            -> MotionRecv(slice 0, broadcast)  est_rows=80",
    "          -> MotionRecv(slice 1, broadcast)  est_rows=8",
    "  Slice 1 (gang of N):",
    "    -> Motion(broadcast)  est_rows=8",
    "      -> SeqScan(nation, filter)  est_rows=1",
    "  Slice 0 (gang of N):",
    "    -> Motion(broadcast)  est_rows=80",
    "      -> SeqScan(supplier)  est_rows=10",
    "Slice 3 (QD):",
    "  (actual time=0.0016s, rows sent=154)",
    "    QD: 0.0001s, 154 rows, 0 bytes",
    "  -> Sort  est_rows=1",
    "    -> MotionRecv(slice 2, gather)  est_rows=1",
    "Slice 2 (gang of N):",
    "  (actual time=0.0013s, rows sent=154)",
    "    seg0: 0.0005s, 19 rows, 380 bytes",
    "    seg1: 0.0005s, 19 rows, 380 bytes",
    "    seg2: 0.0006s, 19 rows, 380 bytes",
    "    seg3: 0.0005s, 17 rows, 340 bytes",
    "    seg4: 0.0006s, 20 rows, 400 bytes",
    "    seg5: 0.0006s, 20 rows, 400 bytes",
    "    seg6: 0.0005s, 19 rows, 380 bytes",
    "    seg7: 0.0006s, 21 rows, 420 bytes",
    "  -> Motion(gather)  est_rows=1",
    "    -> Sort  est_rows=1",
    "      -> Project  est_rows=1",
    "        -> Filter  est_rows=1",
    "          -> HashAgg(single, 1 keys, 1 aggs)  est_rows=1",
    "            -> HashJoin(inner, 1 keys)  est_rows=1",
    "              -> HashJoin(inner, 1 keys)  est_rows=40",
    "                -> SeqScan(partsupp)  est_rows=800",
    "                -> MotionRecv(slice 0, broadcast)  est_rows=80",
    "              -> MotionRecv(slice 1, broadcast)  est_rows=8",
    "Slice 1 (gang of N):",
    "  (actual time=0.0007s, rows sent=8)",
    "    seg0: 0.0003s, 0 rows, 0 bytes",
    "    seg1: 0.0003s, 0 rows, 0 bytes",
    "    seg2: 0.0003s, 0 rows, 0 bytes",
    "    seg3: 0.0003s, 0 rows, 0 bytes",
    "    seg4: 0.0003s, 0 rows, 0 bytes",
    "    seg5: 0.0003s, 0 rows, 0 bytes",
    "    seg6: 0.0003s, 8 rows, 184 bytes",
    "    seg7: 0.0003s, 0 rows, 0 bytes",
    "  -> Motion(broadcast)  est_rows=8",
    "    -> SeqScan(nation, filter)  est_rows=1",
    "Slice 0 (gang of N):",
    "  (actual time=0.0003s, rows sent=80)",
    "    seg0: 0.0003s, 8 rows, 160 bytes",
    "    seg1: 0.0003s, 8 rows, 160 bytes",
    "    seg2: 0.0003s, 8 rows, 160 bytes",
    "    seg3: 0.0003s, 8 rows, 160 bytes",
    "    seg4: 0.0004s, 24 rows, 480 bytes",
    "    seg5: 0.0003s, 8 rows, 160 bytes",
    "    seg6: 0.0003s, 8 rows, 160 bytes",
    "    seg7: 0.0003s, 8 rows, 160 bytes",
    "  -> Motion(broadcast)  est_rows=80",
    "    -> SeqScan(supplier)  est_rows=10",
    "Total: 0.5086s simulated (critical path 0.0016s + overhead 0.5070s), "
    "154 rows, 7917 tuples processed, 93788 bytes moved",
]


class TestInitPlanTimings:
    @pytest.fixture(scope="class")
    def default_session(self):
        session = Engine(seed=7).connect()
        load_tpch(session, scale=SCALE)
        return session

    def test_q11_plain_analyze_matches_golden(self, default_session):
        (stmt,) = QUERIES[11]
        lines = [
            row[0]
            for row in default_session.execute(f"EXPLAIN ANALYZE {stmt}").rows
        ]
        assert lines == GOLDEN_Q11_ANALYZE

    def test_q11_trace_holds_both_assemblies(self, default_session):
        (stmt,) = QUERIES[11]
        default_session.execute(f"EXPLAIN ANALYZE {stmt}")
        trace = default_session.tracer.last
        tasks = trace.root_spans()
        own = trace.last_plan_tasks()
        assert len(tasks) == 50 and len(own) == 25
        assert sum(1 for span in trace.spans if span.cat == "master") == 2
        for slice_id in (0, 1, 2):
            in_own = sum(1 for span in own if span.slice_id == slice_id)
            assert in_own == 8
            assert sum(1 for span in tasks if span.slice_id == slice_id) == 16
