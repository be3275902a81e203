"""A table's files on HDFS: the one module that names, writes, reads,
truncates and deletes them.

A table is the HDFS files its catalog ``gp_segfile`` rows name, read up
to their transaction-visible logical lengths (paper Section 5). A
*leaf* holds rows: a partition, or a table that is not partitioned (a
partitioned parent has no files). A leaf has one segfile per segment
and writer lane (:mod:`repro.txn.swimlane`), its files starting at
``<data_path>/<table>[/g<N>]/seg<S>/f<lane>`` (CO adds ``.c<i>`` per
column). An existing segfile is appended at the paths its catalog row
lists; a new one goes to the first generation ``N`` (0 has no ``/g0``)
that has no file on HDFS, so a path follows the catalog's MVCC and
needs no state of its own.

Every step is bound to the writing transaction: :func:`write` appends
(first truncating what an aborted append left past the logical length;
the caller holds the table, under a snapshot that sees its latest
catalog rows); abort truncates a file back to its previous logical
length, or deletes it if the transaction created it; :func:`retire`
(TRUNCATE, DROP TABLE, ALTER TABLE's old generation) deletes the
segfile rows and has their files deleted after commit, once no
transaction that was live at the commit is;
:func:`vacuum` truncates past-logical bytes. :func:`delete` forgets the
files' block-cache entries too.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.catalog.schema import TableSchema, hash_columns
from repro.columnar import fresh_list, take_columns
from repro.errors import ExecutorError
from repro.simtime import CostAccumulator
from repro.storage import co
from repro.storage.base import WriteResult
from repro.storage.registry import get_format
from repro.txn.manager import AppendedFile, Transaction
from repro.txn.mvcc import Snapshot


def leaves(relation: dict) -> List[str]:
    """The relations holding ``relation``'s rows: its partitions, or it."""
    return [child for child, _ in relation["children"]] or [relation["name"]]


def segfiles(
    catalog, relation: dict, snapshot: Snapshot
) -> Iterator[Tuple[TableSchema, dict]]:
    """Every visible segfile row of ``relation``'s leaves, with its schema."""
    for leaf in leaves(relation):
        own = leaf == relation["name"]
        schema = relation["schema"] if own else catalog.get_schema(leaf, snapshot)
        for segfile in catalog.segfiles(leaf, snapshot):
            yield schema, segfile


def read(engine, relation: dict, snapshot: Snapshot) -> Iterator:
    """The ``(row_count, {column index: vector})`` blocks of every
    visible segfile of ``relation``, all columns, through the block
    cache."""
    for schema, segfile in segfiles(engine.catalog, relation, snapshot):
        client = engine.segments[segfile["segment_id"]].client(engine.hdfs)
        yield from get_format(schema.storage_format).scan_blocks(
            client,
            segfile["paths"],
            schema,
            schema.compression,
            cache=engine.block_cache,
        )


def load(
    engine,
    name: str,
    rows: Iterable[Sequence[object]],
    txn: Transaction,
    snapshot: Snapshot,
    acc: Optional[CostAccumulator] = None,
) -> int:
    """Append ``rows`` to table ``name`` in ``txn``, coerced — once,
    here, a column at a time — into its types and routed to the
    partitions that hold them. Returns the row count."""
    if not isinstance(rows, (list, tuple)):
        rows = list(rows)  # any iterable; the column passes re-read it
    schema = engine.catalog.get_schema(name, snapshot)
    columns = schema.row_codec().coerce_columns(rows)
    return sum(
        write(engine, leaf_schema, leaf_columns, txn, snapshot, acc)
        for leaf_schema, leaf_columns in _route_partitions(
            engine.catalog, schema, columns, snapshot
        )
    )


def _route_partitions(
    catalog,
    schema: TableSchema,
    columns: List[Sequence[object]],
    snapshot: Snapshot,
) -> List[Tuple[TableSchema, List[Sequence[object]]]]:
    """``columns`` (coerced) split between the child partitions that
    hold their rows; ``spec.route`` runs once per distinct value."""
    spec = schema.partition_spec
    if spec is None:
        return [(schema, columns)]
    children = {
        partition.name: child_name
        for child_name, partition in catalog.lookup_relation(
            schema.name, snapshot
        )["children"]
    }
    values = columns[schema.column_index(spec.column)]
    routes: Dict[object, str] = {}
    for value in dict.fromkeys(values):
        partition = spec.route(value)
        if partition is None:
            raise ExecutorError(f"no partition of {schema.name} holds {value!r}")
        routes[value] = partition.name
    buckets: Dict[str, List[int]] = {}
    for i, part_name in enumerate(map(routes.__getitem__, values)):
        buckets.setdefault(part_name, []).append(i)
    return [
        (catalog.get_schema(children[name], snapshot), take_columns(columns, picked))
        for name, picked in buckets.items()
    ]


def write(
    engine,
    schema: TableSchema,
    columns: List[Sequence[object]],
    txn: Transaction,
    snapshot: Snapshot,
    acc: Optional[CostAccumulator] = None,
) -> int:
    """Append the rows held column-wise in ``columns`` (coerced) to leaf
    ``schema`` in ``txn``'s lane: placed by column, handed to the
    format's writer as tuples, the segfile rows registered or updated."""
    num_segments = engine.num_segments
    rows = list(zip(*columns))
    if schema.distribution.is_hash:
        places = hash_columns(
            [
                columns[schema.column_index(name)]
                for name in schema.distribution.columns
            ],
            len(rows),
            num_segments,
        )
    else:
        start = next(engine.load_rng)
        places = [(start + i) % num_segments for i in range(len(rows))]
    buckets: Dict[int, List[tuple]] = {}
    for place, row in zip(places, rows):
        buckets.setdefault(place, []).append(row)

    catalog = engine.catalog
    lane = engine.txns.segfiles.acquire(schema.name, txn.xid)
    fmt = get_format(schema.storage_format)
    visible = _lane_segfiles(catalog, schema.name, lane, snapshot)
    for segment_id, segment_rows in sorted(buckets.items()):
        client = engine.segments[segment_id].client(engine.hdfs)
        existing = visible.get(segment_id)
        if existing is None:
            prev: Dict[str, int] = {}
            base_path = _new_base_path(engine, client, schema.name, segment_id, lane)
        else:
            prev = existing["paths"]
            reclaim(client, prev)
            # Every file of a segfile is its base path or that plus a suffix.
            head, _, leaf = next(iter(prev)).rpartition("/")
            base_path = f"{head}/{leaf.split('.')[0]}"
        result = fmt.write(
            client,
            base_path,
            segment_rows,
            schema,
            schema.compression,
            append=existing is not None,
            cache=engine.block_cache,
        )
        _charge_write(
            engine,
            acc,
            schema,
            result,
            sum(length - prev.get(path, 0) for path, length in result.paths.items()),
        )
        for path in result.paths:
            txn.record_append(
                AppendedFile(
                    table=schema.name,
                    segment_id=segment_id,
                    segfile_id=lane,
                    path=path,
                    previous_length=prev.get(path, 0),
                    truncate=lambda p, n, c=client: (
                        c.truncate(p, n) if c.exists(p) else None
                    ),
                    created=existing is None,
                )
            )
        if existing is None:
            catalog.register_segfile(
                schema.name,
                segment_id,
                lane,
                dict(result.paths),
                txn.xid,
                uncompressed_length=result.uncompressed_bytes,
                tupcount=result.tupcount,
            )
        else:
            catalog.update_segfile(
                snapshot,
                schema.name,
                segment_id,
                lane,
                {
                    "paths": dict(result.paths),
                    "uncompressed_length": existing["uncompressed_length"]
                    + result.uncompressed_bytes,
                    "tupcount": existing["tupcount"] + result.tupcount,
                },
                txn.xid,
            )
    return len(rows)


def _lane_segfiles(
    catalog, name: str, lane: int, snapshot: Snapshot
) -> Dict[int, dict]:
    """Leaf ``name``'s segfile rows of writer lane ``lane`` that
    ``snapshot`` sees, by segment."""
    return {
        f["segment_id"]: f
        for f in catalog.segfiles(name, snapshot)
        if f["segfile_id"] == lane
    }


def _new_base_path(engine, client, name: str, segment_id: int, lane: int) -> str:
    """A new segfile's base path, in the first generation holding none of
    its files: every format writes the base path or CO's first column."""
    for generation in itertools.count():
        directory = f"/g{generation}" if generation else ""
        base_path = f"{engine.data_path}/{name}{directory}/seg{segment_id}/f{lane}"
        if not any(map(client.exists, (base_path, co.column_path(base_path, 0)))):
            return base_path


def _charge_write(
    engine,
    acc: Optional[CostAccumulator],
    schema: TableSchema,
    result: WriteResult,
    written_bytes: int,
) -> None:
    """Charge one segfile write to the statement's accumulator:
    replicated disk bytes, per-byte encode CPU, per-tuple CPU.
    ``tests/test_byte_conservation.py`` holds the disk bytes to the
    bytes appended to HDFS."""
    if acc is None:
        return
    acc.disk_write(max(written_bytes, 0), replicated=True)
    acc.cpu_bytes(result.uncompressed_bytes, engine.cost_model.cpu_format_byte)
    acc.cpu_tuples(result.tupcount, ncolumns=len(schema.columns))
    engine.metrics.counter("bytes_written", format=schema.storage_format).inc(
        max(written_bytes, 0)
    )


def rewrite(
    engine,
    relation: dict,
    schema: TableSchema,
    txn: Transaction,
    snapshot: Snapshot,
    acc: Optional[CostAccumulator] = None,
) -> None:
    """ALTER TABLE … SET WITH on one leaf: read every visible row, retire
    its files and segfile rows, write the rows again under ``schema``."""
    name = relation["name"]
    blocks = list(read(engine, relation, snapshot))
    columns = [
        list(itertools.chain.from_iterable(fresh_list(b[i]) for _n, b in blocks))
        for i in range(len(schema.columns))
    ]
    retire(engine, relation, txn, snapshot)
    engine.catalog.table("pg_class").update(
        snapshot, lambda r: r["name"] == name, {"schema": schema}, txn.xid
    )
    if columns[0]:
        write(engine, schema, columns, txn, txn.statement_snapshot(), acc)


def reclaim(client, paths: Dict[str, int]) -> int:
    """Truncate every file of ``paths`` longer than its logical length
    back to it (bytes of an aborted append); returns the bytes freed."""
    reclaimed = 0
    for path, logical in paths.items():
        physical = client.file_status(path).length if client.exists(path) else 0
        if physical > logical:
            client.truncate(path, logical)
            reclaimed += physical - logical
    return reclaimed


def vacuum(engine, relations: Iterable[dict], snapshot: Snapshot, xid: int) -> int:
    """:func:`reclaim` every visible segfile of ``relations`` but those
    in a writer lane another live transaction holds: the bytes past
    their logical length are its appends, not an aborted one's."""
    lanes = engine.txns.segfiles
    return sum(
        reclaim(engine.segments[f["segment_id"]].client(engine.hdfs), f["paths"])
        for relation in relations
        for _schema, f in segfiles(engine.catalog, relation, snapshot)
        if lanes.holder(f["table"], f["segfile_id"]) in (None, xid)
    )


def retire(engine, relation: dict, txn: Transaction, snapshot: Snapshot) -> None:
    """Delete ``relation``'s visible segfile rows in ``txn`` and have
    their files deleted once it commits and no older snapshot is live;
    an abort keeps both (TRUNCATE, DROP TABLE, ALTER TABLE's old files)."""
    for _schema, segfile in segfiles(engine.catalog, relation, snapshot):
        for path in segfile["paths"]:
            txn.retire(path)
    for leaf in leaves(relation):
        engine.catalog.table("gp_segfile").delete(snapshot, None, txn.xid, key=leaf)


def delete(engine, paths: List[str]) -> None:
    """Delete ``paths`` from HDFS and their entries from the block cache
    (one pass over it)."""
    for path in paths:
        if engine.hdfs.exists(path):
            engine.hdfs.delete(path)
    if engine.block_cache is not None:
        engine.block_cache.discard(paths)
