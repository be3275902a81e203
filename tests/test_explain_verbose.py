"""Golden tests for ``EXPLAIN (ANALYZE, VERBOSE)`` on TPC-H Q1/Q3/Q6.

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
    stmt = QUERIES[number][0]
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
