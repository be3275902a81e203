"""Tests for the cost-based parallel planner: motions, co-location,
aggregation phases, partition elimination, direct dispatch, slicing."""

import datetime

import pytest

from repro.catalog.schema import (
    Column,
    DataType,
    Distribution,
    Partition,
    PartitionSpec,
    TableSchema,
)
from repro.catalog.stats import ColumnStats, TableStats
from repro.planner import exprs as ex
from repro.planner.analyzer import Analyzer
from repro.planner.physical import (
    Filter,
    HashAgg,
    HashJoin,
    Motion,
    NestLoopJoin,
    SeqScan,
    Sort,
)
from repro.planner.planner import Planner, PlannerOptions
from repro.sql.parser import parse_statement
from tests.test_analyzer import DictCatalog


def table(name, cols, dist_col=None, rows=1000.0):
    schema = TableSchema(
        name=name,
        columns=[Column(c, DataType.parse("INT")) for c in cols],
        distribution=(
            Distribution.hash(dist_col) if dist_col else Distribution.random()
        ),
    )
    return schema


@pytest.fixture
def catalog():
    return DictCatalog(
        tables={
            "big": table("big", ["k", "v", "w"], dist_col="k"),
            "big2": table("big2", ["k", "m"], dist_col="k"),
            "dim": table("dim", ["id", "label"], dist_col="id"),
            "rnd": table("rnd", ["k", "v"]),
        }
    )


STATS = {
    "big": TableStats(row_count=100000, total_bytes=2_000_000),
    "big2": TableStats(row_count=80000, total_bytes=1_500_000),
    "dim": TableStats(row_count=50, total_bytes=2_000),
    "rnd": TableStats(row_count=100000, total_bytes=2_000_000),
}


def plan_sql(catalog, sql, stats=None, options=None, segments=8, partitions=None):
    query = Analyzer(catalog).analyze(parse_statement(sql))
    planner = Planner(
        num_segments=segments,
        stats=stats or STATS,
        options=options,
        partition_children=partitions,
    )
    return planner.plan(query)


def nodes_of(plan, node_type):
    found = []

    def visit(node):
        if isinstance(node, node_type):
            found.append(node)
        for child in node.children:
            visit(child)

    for plan_slice in plan.slices:
        visit(plan_slice.root)
    return found


def motions_of(plan):
    return [s.motion_kind for s in plan.slices if s.motion_kind]


class TestMotions:
    def test_colocated_join_no_redistribute(self, catalog):
        plan = plan_sql(catalog, "SELECT 1 FROM big, big2 WHERE big.k = big2.k")
        assert motions_of(plan) == ["gather"]

    def test_random_tables_need_motion(self, catalog):
        plan = plan_sql(catalog, "SELECT 1 FROM rnd r1, big WHERE r1.k = big.k")
        kinds = motions_of(plan)
        assert "redistribute" in kinds or "broadcast" in kinds

    def test_small_table_broadcast(self, catalog):
        plan = plan_sql(catalog, "SELECT 1 FROM big, dim WHERE big.v = dim.id")
        assert "broadcast" in motions_of(plan)

    def test_colocation_through_equivalence_class(self, catalog):
        """big.k = big2.k = rnd.k: after joining big/big2, joining rnd on
        the same class redistributes only rnd."""
        plan = plan_sql(
            catalog,
            "SELECT 1 FROM big, big2, rnd "
            "WHERE big.k = big2.k AND big2.k = rnd.k",
        )
        kinds = motions_of(plan)
        assert kinds.count("redistribute") == 1

    def test_cross_join_nestloop_broadcast(self, catalog):
        plan = plan_sql(catalog, "SELECT 1 FROM big, dim")
        assert nodes_of(plan, NestLoopJoin)
        assert "broadcast" in motions_of(plan)

    def test_single_segment_no_motion_needed(self, catalog):
        plan = plan_sql(
            catalog, "SELECT 1 FROM rnd r1, big WHERE r1.k = big.k", segments=1
        )
        assert motions_of(plan) == ["gather"]

    def test_build_side_is_smaller(self, catalog):
        plan = plan_sql(catalog, "SELECT 1 FROM dim, big WHERE big.v = dim.id")
        join = nodes_of(plan, HashJoin)[0]
        assert join.right.est_rows <= join.left.est_rows


class TestAggregation:
    def test_two_phase_by_default(self, catalog):
        plan = plan_sql(catalog, "SELECT v, count(*) FROM big GROUP BY v")
        aggs = nodes_of(plan, HashAgg)
        phases = sorted(a.phase for a in aggs)
        assert phases == ["final", "partial"]

    def test_single_phase_when_colocated(self, catalog):
        """Paper Figure 3(a): grouping by the distribution key happens
        locally with no redistribution."""
        plan = plan_sql(catalog, "SELECT k, count(*) FROM big GROUP BY k")
        aggs = nodes_of(plan, HashAgg)
        assert [a.phase for a in aggs] == ["single"]
        assert motions_of(plan) == ["gather"]

    def test_plain_aggregate_gathers(self, catalog):
        plan = plan_sql(catalog, "SELECT count(*) FROM big")
        aggs = nodes_of(plan, HashAgg)
        assert {a.phase for a in aggs} == {"partial", "final"}

    def test_distinct_aggregate_single_phase(self, catalog):
        plan = plan_sql(
            catalog, "SELECT v, count(distinct w) FROM big GROUP BY v"
        )
        aggs = nodes_of(plan, HashAgg)
        assert [a.phase for a in aggs] == ["single"]
        assert "redistribute" in motions_of(plan)

    def test_select_distinct(self, catalog):
        plan = plan_sql(catalog, "SELECT DISTINCT v FROM big")
        assert nodes_of(plan, HashAgg)


class TestOutputShape:
    def test_order_by_sorts_twice(self, catalog):
        plan = plan_sql(catalog, "SELECT v FROM big ORDER BY v")
        assert len(nodes_of(plan, Sort)) == 2  # local + final merge

    def test_limit_pushed_below_gather(self, catalog):
        plan = plan_sql(catalog, "SELECT v FROM big ORDER BY v LIMIT 5")
        from repro.planner.physical import Limit

        limits = nodes_of(plan, Limit)
        assert len(limits) >= 2

    def test_hidden_sort_column_trimmed(self, catalog):
        plan = plan_sql(catalog, "SELECT v FROM big ORDER BY w")
        assert plan.output_names == ["v"]
        top = plan.top_slice.root
        assert len(top.layout) == 1


class TestDirectDispatch:
    def test_pinned_distribution_key(self, catalog):
        plan = plan_sql(catalog, "SELECT * FROM big WHERE k = 42")
        assert plan.direct_dispatch_segment is not None
        assert 0 <= plan.direct_dispatch_segment < 8

    def test_range_predicate_not_direct(self, catalog):
        plan = plan_sql(catalog, "SELECT * FROM big WHERE k > 42")
        assert plan.direct_dispatch_segment is None

    def test_random_table_not_direct(self, catalog):
        plan = plan_sql(catalog, "SELECT * FROM rnd WHERE k = 42")
        assert plan.direct_dispatch_segment is None

    def test_disabled_by_option(self, catalog):
        plan = plan_sql(
            catalog,
            "SELECT * FROM big WHERE k = 42",
            options=PlannerOptions(enable_direct_dispatch=False),
        )
        assert plan.direct_dispatch_segment is None


class TestPartitionElimination:
    @pytest.fixture
    def part_catalog(self):
        spec = PartitionSpec(
            column="d",
            kind="range",
            partitions=tuple(
                Partition(str(i), lower=i * 10, upper=(i + 1) * 10)
                for i in range(5)
            ),
        )
        parent = TableSchema(
            name="pt",
            columns=[
                Column("id", DataType.parse("INT")),
                Column("d", DataType.parse("INT")),
            ],
            distribution=Distribution.hash("id"),
            partition_spec=spec,
        )
        children = [
            (f"pt_1_prt_{p.name}", p) for p in spec.partitions
        ]
        catalog = DictCatalog(tables={"pt": parent})
        return catalog, {"pt": children}

    def test_pruning(self, part_catalog):
        catalog, partitions = part_catalog
        plan = plan_sql(
            catalog,
            "SELECT * FROM pt WHERE d >= 20 AND d < 30",
            partitions=partitions,
        )
        scan = nodes_of(plan, SeqScan)[0]
        assert scan.partitions == ["pt_1_prt_2"]
        assert len(scan.pruned_partitions) == 4

    def test_equality_pruning(self, part_catalog):
        catalog, partitions = part_catalog
        plan = plan_sql(
            catalog, "SELECT * FROM pt WHERE d = 35", partitions=partitions
        )
        scan = nodes_of(plan, SeqScan)[0]
        assert scan.partitions == ["pt_1_prt_3"]

    def test_no_predicate_scans_all(self, part_catalog):
        catalog, partitions = part_catalog
        plan = plan_sql(catalog, "SELECT * FROM pt", partitions=partitions)
        scan = nodes_of(plan, SeqScan)[0]
        assert len(scan.partitions) == 5

    def test_disabled_by_option(self, part_catalog):
        catalog, partitions = part_catalog
        plan = plan_sql(
            catalog,
            "SELECT * FROM pt WHERE d = 35",
            partitions=partitions,
            options=PlannerOptions(enable_partition_elimination=False),
        )
        scan = nodes_of(plan, SeqScan)[0]
        assert len(scan.partitions) == 5


class TestSlicing:
    def test_figure3a_shape(self, catalog):
        """Co-located join + co-located group-by = two slices, like the
        paper's Figure 3(a)."""
        plan = plan_sql(
            catalog,
            "SELECT big.k, count(*) FROM big, big2 "
            "WHERE big.k = big2.k GROUP BY big.k",
        )
        assert plan.num_slices == 2

    def test_figure3b_shape(self, catalog):
        """With one side randomly distributed a redistribute slice
        appears, like Figure 3(b)."""
        plan = plan_sql(
            catalog,
            "SELECT big.k, count(*) FROM big, rnd "
            "WHERE big.k = rnd.k GROUP BY big.k",
        )
        assert plan.num_slices == 3
        assert motions_of(plan).count("redistribute") == 1

    def test_top_slice_is_qd(self, catalog):
        plan = plan_sql(catalog, "SELECT v FROM big")
        assert plan.top_slice.gang == "1"

    def test_scan_projection_columns(self, catalog):
        plan = plan_sql(catalog, "SELECT v FROM big WHERE w > 0")
        scan = nodes_of(plan, SeqScan)[0]
        assert scan.columns == [1, 2]  # v and w only, not k

    def test_explain_text(self, catalog):
        plan = plan_sql(catalog, "SELECT v, count(*) FROM big GROUP BY v")
        text = plan.explain()
        assert "HashAgg" in text and "Motion" in text and "Slice" in text


class TestOuterJoinReduction:
    """A WHERE qual that rejects NULL on a left join's nullable side
    turns the join inner (PostgreSQL's ``reduce_outer_joins``): the qual
    goes into that side's scan. One that does not stays above the join."""

    def left_join(self, catalog, where):
        plan = plan_sql(
            catalog,
            f"SELECT big.v FROM big LEFT JOIN dim ON big.v = dim.id WHERE {where}",
        )
        (join,) = nodes_of(plan, HashJoin)
        scan = next(s for s in nodes_of(plan, SeqScan) if s.table.table_name == "dim")
        return join, scan, nodes_of(plan, Filter)

    @pytest.mark.parametrize(
        "where",
        ["dim.label > 3", "dim.label + 1 = big.w", "dim.label IN (1, 2)",
         "dim.label > 3 AND dim.label IS NULL"],
    )
    def test_strict_qual_makes_the_join_inner(self, catalog, where):
        join, scan, filters = self.left_join(catalog, where)
        assert join.join_type == "inner"
        assert filters == []
        if "big" not in where:
            assert scan.filter is not None  # pushed into the nullable scan

    @pytest.mark.parametrize(
        "where",
        ["dim.label IS NULL", "dim.label > 3 OR dim.label IS NULL",
         "coalesce(dim.label, 0) = 0",
         "CASE WHEN dim.label IS NULL THEN 1 ELSE 0 END = 1"],
    )
    def test_non_strict_qual_stays_above_the_left_join(self, catalog, where):
        join, scan, filters = self.left_join(catalog, where)
        assert join.join_type == "left"
        assert scan.filter is None
        assert len(filters) == 1

    def test_is_strict_walk(self):
        label = ex.BVar(rel=1, col=1)
        other = ex.BVar(rel=0, col=1)
        three = ex.BConst(3)
        gt = ex.BOp(">", label, three)
        null = ex.BIsNull(label)
        cases = [
            (gt, True),
            (ex.BOp(">", ex.BOp("*", label, three), other), True),
            (ex.BLike(label, "a%"), True),
            (ex.BIn(label, (three,), negated=True), True),
            (ex.BNot(gt), True),
            (ex.BOp("and", null, gt), True),
            (ex.BOp("or", gt, ex.BOp("<", label, other)), True),
            (ex.BOp(">", other, three), False),
            (ex.BIn(other, (label,)), False),
            (null, False),
            (ex.BOp("or", gt, null), False),
            (ex.BNot(ex.BOp("and", gt, ex.BOp(">", other, three))), False),
            (ex.BOp(">", ex.BFunc("coalesce", (label, three)), three), False),
            (ex.BOp("=", ex.BCase(((null, three),), three), three), False),
        ]
        assert [ex.is_strict(expr, {1}) for expr, _ in cases] == [
            strict for _, strict in cases
        ]

