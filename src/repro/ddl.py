"""DDL, ANALYZE and the security verbs: the statements that change what
the catalog says exists, who may use it, and what the planner knows of
it.

Each verb is a function of the :class:`~repro.engine.Session` running
it, the statement and its transaction (:data:`VERBS`). A verb reaches
the relation it names only through the session's one access step,
:meth:`~repro.engine.Session.access_relation`, stating just its lock
mode and privilege (DESIGN.md has the table). The files behind a table
are :mod:`repro.storage.table`'s.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

from repro.catalog.master_relations import SCHEMAS, is_master_only
from repro.catalog.schema import (
    Column,
    DataType,
    Distribution,
    Partition,
    PartitionSpec,
    TableSchema,
)
from repro.catalog.service import CatalogService
from repro.catalog.stats import TableStats
from repro.errors import SemanticError
from repro.executor.expr import _Interval, add_interval, compile_expr
from repro.executor.runner import QueryResult
from repro.planner.analyzer import Analyzer, RelationInfo
from repro.simtime import CostAccumulator, QueryCost
from repro.sql import ast
from repro.storage import table as table_files
from repro.txn.locks import LockMode
from repro.txn.manager import Transaction
from repro.txn.mvcc import Snapshot


def ok(message: str) -> QueryResult:
    """The result of a statement that returns no rows."""
    return QueryResult(
        rows=[], column_names=[], cost=QueryCost(seconds=0.0), message=message
    )


class CatalogAdapter:
    """Analyzer-facing view of the catalog under one snapshot. ``rows``
    keeps the ``pg_class`` row of every relation it resolved, so the
    statement's access step need not look them up again."""

    def __init__(self, catalog: CatalogService, snapshot: Snapshot):
        self.catalog = catalog
        self.snapshot = snapshot
        self.rows: Dict[str, dict] = {}

    def resolve(self, name: str) -> RelationInfo:
        name = name.lower()
        if is_master_only(name):
            return RelationInfo(kind="table", schema=SCHEMAS[name])
        relation = self.catalog.lookup_relation(name, self.snapshot)
        if relation is None:
            raise SemanticError(f"relation {name!r} does not exist")
        self.rows[name] = relation
        if relation["kind"] == "view":
            return RelationInfo(kind="view", view_query=relation["view_def"])
        if relation["kind"] == "external":
            return RelationInfo(
                kind="external", schema=relation["schema"], pxf=relation["pxf"]
            )
        return RelationInfo(kind="table", schema=relation["schema"])


def compile_expr_value(expr: ast.Expr) -> object:
    """Evaluate a constant AST expression (INSERT ... VALUES)."""
    bound = Analyzer(_EmptyCatalog())._expr(expr, [], allow_aggregates=False)
    return compile_expr(bound, [])(())


class _EmptyCatalog:
    def resolve(self, name: str):  # pragma: no cover - constants only
        raise SemanticError(f"relation {name!r} does not exist")


# ---------------------------------------------------------------- CREATE
def create_table(session, stmt: ast.CreateTableStmt, txn: Transaction) -> QueryResult:
    schema = schema_from_ast(stmt)
    snapshot = txn.statement_snapshot()
    session.access_relation(txn, snapshot, schema.name, LockMode.ACCESS_EXCLUSIVE)
    catalog = session.engine.catalog
    children: List[Tuple[str, Partition]] = []
    if schema.partition_spec is not None:
        for partition in schema.partition_spec.partitions:
            child = schema.child_schema(partition)
            catalog.create_table(child, txn.xid, snapshot, owner=session.role)
            catalog.add_dependency(child.name, schema.name, txn.xid)
            children.append((child.name, partition))
    catalog.create_table(
        schema, txn.xid, snapshot, children=children, owner=session.role
    )
    return ok("CREATE TABLE")


def create_view(session, stmt: ast.CreateViewStmt, txn: Transaction) -> QueryResult:
    snapshot = txn.statement_snapshot()
    session.access_relation(txn, snapshot, stmt.name, LockMode.ACCESS_EXCLUSIVE)
    catalog = session.engine.catalog
    analyzed = Analyzer(CatalogAdapter(catalog, snapshot)).analyze(stmt.query)
    schema = TableSchema(
        name=stmt.name,
        columns=[
            Column(name or f"column{i}", DataType.parse("text"))
            for i, name in enumerate(analyzed.output_names)
        ],
        distribution=Distribution.random(),
    )
    catalog.create_table(
        schema, txn.xid, snapshot, kind="view", view_def=stmt.query,
        owner=session.role,
    )
    for name in analyzed.tables(subplans=True):
        catalog.add_dependency(stmt.name, name, txn.xid)
    return ok("CREATE VIEW")


def create_external_table(
    session, stmt: ast.CreateExternalTableStmt, txn: Transaction
) -> QueryResult:
    snapshot = txn.statement_snapshot()
    session.access_relation(txn, snapshot, stmt.name, LockMode.ACCESS_EXCLUSIVE)
    engine = session.engine
    schema = TableSchema(
        name=stmt.name,
        columns=[
            Column(c.name, DataType.parse(c.type_name), c.not_null)
            for c in stmt.columns
        ],
        distribution=Distribution.random(),
    )
    pxf_info = engine.pxf.parse_location(
        stmt.location, stmt.format_name, stmt.format_options
    )
    pxf_info["writable"] = stmt.writable
    engine.catalog.create_table(
        schema, txn.xid, snapshot, kind="external", pxf=pxf_info,
        owner=session.role,
    )
    return ok("CREATE EXTERNAL TABLE")


# ------------------------------------------------ DROP, TRUNCATE, ALTER
def drop(session, stmt: ast.DropStmt, txn: Transaction) -> QueryResult:
    engine = session.engine
    snapshot = txn.statement_snapshot()
    name = stmt.name.lower()
    relation = session.access_relation(
        txn, snapshot, name, LockMode.ACCESS_EXCLUSIVE, "all",
        if_exists=stmt.if_exists,
    )
    if relation is None:
        return ok(f"DROP (skipped, {name} does not exist)")
    dependents = engine.catalog.dependents_of(name, snapshot)
    child_names = [c for c, _ in relation["children"]]
    blocking = [d for d in dependents if d not in child_names]
    if blocking:
        raise SemanticError(
            f"cannot drop {name}: {', '.join(sorted(blocking))} depend on it"
        )
    table_files.retire(engine, relation, txn, snapshot)
    for dropped in child_names + [name]:
        engine.catalog.drop_table(dropped, txn.xid, snapshot)
        engine.txns.segfiles.drop_table(dropped)
    return ok(f"DROP {stmt.object_kind.upper()}")


def truncate(session, stmt: ast.TruncateStmt, txn: Transaction) -> QueryResult:
    snapshot = txn.statement_snapshot()
    relation = session.access_relation(
        txn, snapshot, stmt.table, LockMode.ACCESS_EXCLUSIVE, "all"
    )
    table_files.truncate(session.engine, relation, txn, snapshot)
    return ok("TRUNCATE TABLE")


def alter_table(session, stmt: ast.AlterTableStmt, txn: Transaction) -> QueryResult:
    """ALTER TABLE ... SET WITH (orientation=..., compresstype=...):
    online storage-model transformation — the feature the paper lists
    as "in product roadmap" (Section 2.5). Each leaf is rewritten in
    new files (:func:`repro.storage.table.rewrite`); the old files
    are deleted after commit (once no older snapshot is live), the
    new ones on abort."""
    engine = session.engine
    snapshot = txn.statement_snapshot()
    name = stmt.name.lower()
    relation = session.access_relation(
        txn, snapshot, name, LockMode.ACCESS_EXCLUSIVE, "all"
    )
    if relation["kind"] != "table":
        raise SemanticError("ALTER TABLE SET WITH applies to tables only")
    options = {k.lower(): str(v).lower() for k, v in stmt.options.items()}
    acc = CostAccumulator(engine.cost_model)
    for leaf in table_files.leaves(relation):
        leaf_rel = engine.catalog.lookup_relation(leaf, snapshot)
        new_schema = _apply_storage_options(leaf_rel["schema"], options)
        table_files.rewrite(engine, leaf_rel, new_schema, txn, snapshot, acc)
    if relation["children"]:
        parent = _apply_storage_options(relation["schema"], options)
        engine.catalog.table("pg_class").update(
            snapshot, lambda r: r["name"] == name, {"schema": parent}, txn.xid
        )
    result = ok("ALTER TABLE")
    result.cost = QueryCost.from_accumulator(acc)
    return result


# --------------------------------------------------------------- ANALYZE
def analyze(session, stmt: ast.AnalyzeStmt, txn: Transaction) -> QueryResult:
    engine = session.engine
    snapshot = txn.statement_snapshot()
    if stmt.table is not None:
        relations = [
            session.access_relation(
                txn, snapshot, stmt.table, LockMode.ACCESS_SHARE, "all"
            )
        ]
    else:
        session.require_superuser("ANALYZE of every table")
        relations = [
            r for r in engine.catalog.relations(snapshot) if r["kind"] == "table"
        ]
    for relation in relations:  # a PXF source's statistics come from PXF
        if relation["kind"] == "external":
            stats = engine.pxf.analyze(relation["pxf"], relation["schema"])
        else:
            stats = TableStats.from_blocks(
                table_files.read(engine, relation, snapshot),
                relation["schema"].column_names,
            )
        engine.catalog.set_stats(relation["name"], stats, txn.xid, snapshot)
    return ok("ANALYZE")


# ------------------------------------------------- roles, queues, grants
def grant(session, stmt: ast.GrantStmt, txn: Transaction) -> QueryResult:
    session.access_relation(
        txn, txn.statement_snapshot(), stmt.relation, LockMode.ACCESS_SHARE, "all"
    )
    security = session.engine.security
    if stmt.revoke:
        security.revoke(stmt.privilege, stmt.relation, stmt.role)
        return ok("REVOKE")
    security.grant(stmt.privilege, stmt.relation, stmt.role)
    return ok("GRANT")


def _superuser_verb(tag: str, apply):
    """A superuser-only verb on roles or resource queues: ``apply(security
    manager, statement)``."""

    def verb(session, stmt: ast.Statement, txn: Transaction) -> QueryResult:
        session.require_superuser(tag)
        apply(session.engine.security, stmt)
        return ok(tag)

    return verb


def _alter_role(security, stmt: ast.AlterRoleStmt) -> None:
    if stmt.resource_queue:
        security.set_role_queue(stmt.name, stmt.resource_queue)


def _create_queue(security, stmt: ast.CreateResourceQueueStmt) -> None:
    options = {k.lower(): v for k, v in stmt.options.items()}
    security.create_queue(
        stmt.name,
        active_statements=int(options.get("active_statements", 20)),
        memory_limit=float(options.get("memory_limit", 8e9)),
        priority=int(options.get("priority", 0)),
    )


#: Statement type -> the verb that runs it.
VERBS = {
    ast.CreateTableStmt: create_table,
    ast.CreateViewStmt: create_view,
    ast.CreateExternalTableStmt: create_external_table,
    ast.DropStmt: drop,
    ast.TruncateStmt: truncate,
    ast.AlterTableStmt: alter_table,
    ast.AnalyzeStmt: analyze,
    ast.GrantStmt: grant,
    ast.CreateRoleStmt: _superuser_verb(
        "CREATE ROLE",
        lambda security, stmt: security.create_role(
            stmt.name, superuser=stmt.superuser, resource_queue=stmt.resource_queue
        ),
    ),
    ast.DropRoleStmt: _superuser_verb(
        "DROP ROLE", lambda security, stmt: security.drop_role(stmt.name)
    ),
    ast.AlterRoleStmt: _superuser_verb("ALTER ROLE", _alter_role),
    ast.CreateResourceQueueStmt: _superuser_verb(
        "CREATE RESOURCE QUEUE", _create_queue
    ),
    ast.DropResourceQueueStmt: _superuser_verb(
        "DROP RESOURCE QUEUE", lambda security, stmt: security.drop_queue(stmt.name)
    ),
}


# --------------------------------------------------------------- helpers
def _apply_storage_options(schema: TableSchema, options: dict) -> TableSchema:
    """New TableSchema with WITH-clause storage options applied."""
    storage_format = schema.storage_format
    compression = schema.compression
    if "orientation" in options:
        mapping = {"row": "ao", "column": "co", "parquet": "parquet"}
        if options["orientation"] not in mapping:
            raise SemanticError(f"unknown orientation {options['orientation']!r}")
        storage_format = mapping[options["orientation"]]
    if "compresstype" in options:
        compresstype = options["compresstype"]
        level = options.get("compresslevel")
        if compresstype in ("zlib", "gzip"):
            compression = f"{compresstype}{level or 1}"
        else:
            compression = compresstype
    elif "compresslevel" in options and compression[:-1] in ("zlib", "gzip"):
        compression = f"{compression[:-1]}{options['compresslevel']}"
    return dataclasses.replace(
        schema, storage_format=storage_format, compression=compression
    )


def schema_from_ast(stmt: ast.CreateTableStmt) -> TableSchema:
    """The schema a CREATE TABLE statement describes."""
    columns = [
        Column(c.name, DataType.parse(c.type_name), c.not_null) for c in stmt.columns
    ]
    if stmt.distributed_by:
        distribution = Distribution.hash(*stmt.distributed_by)
    elif stmt.distributed_randomly:
        distribution = Distribution.random()
    else:
        # HAWQ/Greenplum default: hash on the first column.
        distribution = Distribution.hash(columns[0].name)

    partition_spec = (
        _partition_spec(stmt.partition_by, columns) if stmt.partition_by else None
    )
    return _apply_storage_options(
        TableSchema(stmt.name, columns, distribution, partition_spec),
        {k.lower(): str(v).lower() for k, v in stmt.options.items()},
    )


def _partition_spec(clause: ast.PartitionByClause, columns) -> PartitionSpec:
    if clause.kind == "list":
        partitions = tuple(
            Partition(
                name=name,
                in_values=tuple(compile_expr_value(v) for v in values),
            )
            for name, values in clause.list_parts
        )
        return PartitionSpec(column=clause.column, kind="list", partitions=partitions)

    start = compile_expr_value(clause.start)
    end = compile_expr_value(clause.end)
    if clause.every is None:
        partitions = (Partition(name="1", lower=start, upper=end),)
        return PartitionSpec(
            column=clause.column, kind="range", partitions=partitions
        )
    every = compile_expr_value(clause.every)
    parts: List[Partition] = []
    lower = start
    index = 1
    while lower < end:
        if isinstance(every, _Interval):
            upper = add_interval(lower, every.quantity, every.unit)
        else:
            upper = lower + every
        if upper > end:
            upper = end
        parts.append(Partition(name=str(index), lower=lower, upper=upper))
        lower = upper
        index += 1
        if index > 10000:
            raise SemanticError("EVERY produced too many partitions")
    return PartitionSpec(
        column=clause.column, kind="range", partitions=tuple(parts)
    )
