"""The Unified Catalog Service (UCS, paper Section 2.2).

The catalog is the brain of the system: database objects, segment
configuration, statistics and the per-table segment-file registry that
transaction visibility of user data depends on (Section 5.4).

Catalog rows are MVCC-versioned: every version carries ``xmin``/``xmax``
stamps and scans are filtered through a :class:`~repro.txn.Snapshot`.
A version's payload is immutable and shared by reference: one
:class:`CatalogRow` serves every reader, the WAL change log and the standby.
All mutation goes through :class:`CatalogTable`'s insert/update/delete so
that WAL hooks and the standby's log shipping see every change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Collection, Dict, List, Optional, Sequence, Tuple

from repro.catalog.schema import TableSchema
from repro.catalog.stats import TableStats
from repro.errors import (
    CatalogError,
    ConcurrentUpdate,
    DuplicateObject,
    UndefinedObject,
)
from repro.txn.mvcc import Snapshot


class CatalogRow(dict):
    """The payload of one row version: a dict nobody may change. Its
    values (schema, stats, ``paths``, ``children``, a view's AST) belong
    to the version too — readers treat them as read-only."""

    __slots__ = ()

    def _immutable(self, *args, **kwargs):
        raise TypeError("catalog row versions are immutable; update() makes a new one")

    __setitem__ = __delitem__ = __ior__ = _immutable
    clear = pop = popitem = setdefault = update = _immutable

    def __reduce__(self):  # pickle and copy would refill it item by item
        return CatalogRow, (dict(self),)


@dataclass
class VersionedRow:
    """One MVCC version of a catalog row."""

    data: CatalogRow
    xmin: int
    xmax: Optional[int] = None


class CatalogTable:
    """A versioned heap of dict-rows with simple predicate scans.

    A table with a ``key_column`` also files each version under its
    value of that column, in heap order, so a read that names one key
    (``key=``) visits that key's versions instead of the whole heap. The
    answer is the same: a key's versions are exactly the heap's versions
    with that value, in the same order, through the same snapshot test.

    ``aborted`` is the live set of aborted xids (the transaction
    manager's): a version whose ``xmax`` is in it is live again, so a
    later delete or update may stamp it. Any other ``xmax`` belongs to a
    transaction that deleted the version first, and a second deleter
    fails with :class:`~repro.errors.ConcurrentUpdate` — first updater
    wins, as PostgreSQL's "tuple concurrently updated".
    """

    def __init__(
        self,
        name: str,
        on_change: Optional[Callable] = None,
        key_column: Optional[str] = None,
        aborted: Collection[int] = frozenset(),
    ):
        self.name = name
        self.key_column = key_column
        self._rows: List[VersionedRow] = []
        self._by_key: Dict[object, List[VersionedRow]] = {}
        self._on_change = on_change
        self._aborted = aborted

    def _log(self, op: str, data: CatalogRow, xid: int) -> None:
        if self._on_change is not None:
            self._on_change(self.name, op, data, xid)

    def _versions(self, key: object) -> Sequence[VersionedRow]:
        """The whole heap (``key`` None), or the versions filed under ``key``."""
        if key is None:
            return self._rows
        if self.key_column is None:
            raise CatalogError(f"catalog table {self.name!r} has no key column")
        return self._by_key.get(key, ())

    def _matching(
        self, snapshot: Snapshot, predicate: Optional[Callable], key: object = None
    ):
        """Versions visible to ``snapshot`` whose payload passes ``predicate``."""
        for version in self._versions(key):
            if snapshot.row_visible(version.xmin, version.xmax) and (
                predicate is None or predicate(version.data)
            ):
                yield version

    # ----------------------------------------------------------------- scans
    def scan(
        self,
        snapshot: Snapshot,
        predicate: Optional[Callable[[Dict], bool]] = None,
        key: object = None,
    ) -> List[CatalogRow]:
        """All visible rows matching the predicate (and, given ``key``,
        whose key column equals it) — the stored versions themselves,
        shared with every other reader."""
        return [version.data for version in self._matching(snapshot, predicate, key)]

    def count(
        self, snapshot: Snapshot, predicate: Optional[Callable[[Dict], bool]] = None
    ) -> int:
        return sum(1 for _ in self._matching(snapshot, predicate))

    # ------------------------------------------------------------- mutations
    def append_version(self, row: CatalogRow, xid: int) -> None:
        """Add ``row`` as a version created by ``xid``, unlogged: a new row,
        or the standby replaying one the primary logged."""
        version = VersionedRow(data=row, xmin=xid)
        self._rows.append(version)
        self._file(version)

    def _file(self, version: VersionedRow) -> None:
        if self.key_column is not None:
            key = version.data.get(self.key_column)
            self._by_key.setdefault(key, []).append(version)

    def expire_version(self, row: CatalogRow, xid: int) -> None:
        """Stamp ``xid`` as the deleter of the version whose payload is
        ``row`` itself — the standby's replay of a logged delete. Identity,
        not equality: a rolled-back twin can hold equal values."""
        key = None if self.key_column is None else row.get(self.key_column)
        for version in self._versions(key):
            if version.data is row:
                version.xmax = xid
                return

    def written_since(
        self, snapshot: Snapshot, key: object, committed: Collection[int]
    ) -> bool:
        """Has a transaction in ``committed`` that ``snapshot`` cannot see
        created or deleted a version filed under ``key``?"""
        return any(
            stamp is not None and stamp in committed and not snapshot.sees_xid(stamp)
            for version in self._versions(key)
            for stamp in (version.xmin, version.xmax)
        )

    def _claim(
        self,
        snapshot: Snapshot,
        predicate: Optional[Callable],
        key: object,
        xid: int,
    ) -> List[VersionedRow]:
        """The visible matches a delete or update by ``xid`` stamps —
        all or, when another transaction deleted one first, none."""
        matched = list(self._matching(snapshot, predicate, key))
        aborted = self._aborted
        for version in matched:
            xmax = version.xmax  # claimed: see the class docstring
            if xmax is not None and xmax not in aborted:
                raise ConcurrentUpdate(
                    f"{self.name} row concurrently updated: xid {version.xmax} "
                    f"deleted it before xid {xid}"
                )
        return matched

    def insert(self, data: Dict[str, object], xid: int) -> None:
        row = CatalogRow(data)
        self.append_version(row, xid)
        self._log("insert", row, xid)

    def delete(
        self,
        snapshot: Snapshot,
        predicate: Optional[Callable[[Dict], bool]],
        xid: int,
        key: object = None,
    ) -> int:
        """Mark matching visible versions deleted; returns rows deleted."""
        matched = self._claim(snapshot, predicate, key, xid)
        for version in matched:
            version.xmax = xid
            self._log("delete", version.data, xid)
        return len(matched)

    def update(
        self,
        snapshot: Snapshot,
        predicate: Optional[Callable[[Dict], bool]],
        changes: Dict[str, object],
        xid: int,
        key: object = None,
    ) -> int:
        """MVCC update: old version gets xmax, a new version is inserted."""
        matched = self._claim(snapshot, predicate, key, xid)
        for version in matched:
            version.xmax = xid
            # Logged as delete+insert so a standby can replay exactly.
            self._log("delete", version.data, xid)
            self.insert({**version.data, **changes}, xid)
        return len(matched)

    def vacuum(self, horizon_snapshot: Snapshot) -> int:
        """Drop versions invisible to everyone at/after the horizon."""
        before = len(self._rows)
        self._rows = [
            v
            for v in self._rows
            if v.xmax is None or not horizon_snapshot.sees_xid(v.xmax)
        ]
        self._by_key = {}
        for version in self._rows:
            self._file(version)
        return before - len(self._rows)


#: The built-in catalog tables (subset of HAWQ's, same roles), each with
#: the column its versions are filed under: the relation name every
#: statement looks its table, data files and statistics up by.
SYSTEM_TABLES: Dict[str, Optional[str]] = {
    "pg_class": "name",  # tables, views, external tables
    "gp_segment_configuration": None,  # segments and their status
    "gp_segfile": "table",  # per-table per-segment data files + logical lengths
    "pg_statistic": "table",  # ANALYZE output
    "pg_depend": None,  # object dependencies (views on tables)
}


class CatalogService:
    """The unified catalog service living on the master."""

    def __init__(
        self,
        on_change: Optional[Callable] = None,
        aborted: Collection[int] = frozenset(),
    ):
        """``on_change(table, op, row, xid)`` is the WAL/log-shipping hook;
        ``aborted`` the live set of aborted xids (see :class:`CatalogTable`)."""
        self._on_change = on_change
        self.tables: Dict[str, CatalogTable] = {
            name: CatalogTable(name, on_change, key_column, aborted)
            for name, key_column in SYSTEM_TABLES.items()
        }

    def table(self, name: str) -> CatalogTable:
        tbl = self.tables.get(name)
        if tbl is None:
            raise UndefinedObject(f"no catalog table {name!r}")
        return tbl

    # --------------------------------------------------------- object access
    def create_table(
        self,
        schema: TableSchema,
        xid: int,
        snapshot: Snapshot,
        kind: str = "table",
        view_def: Optional[object] = None,
        pxf: Optional[Dict[str, object]] = None,
        children: Optional[List] = None,
        owner: str = "gpadmin",
    ) -> None:
        """``children``: [(child_table_name, Partition)] for partitioned
        parents (the inheritance relationship from paper Section 2.3)."""
        if self.lookup_relation(schema.name, snapshot) is not None:
            raise DuplicateObject(f"relation {schema.name!r} already exists")
        self.table("pg_class").insert(
            {
                "name": schema.name,
                "kind": kind,
                "schema": schema,
                "view_def": view_def,
                "pxf": pxf,
                "children": list(children or ()),
                "owner": owner,
            },
            xid,
        )

    def drop_table(self, name: str, xid: int, snapshot: Snapshot) -> None:
        name = name.lower()
        if self.lookup_relation(name, snapshot) is None:
            raise UndefinedObject(f"relation {name!r} does not exist")
        self.table("pg_class").delete(snapshot, None, xid, key=name)
        self.table("gp_segfile").delete(snapshot, None, xid, key=name)
        self.table("pg_statistic").delete(snapshot, None, xid, key=name)
        # A dropped object's own dependencies disappear with it.
        self.table("pg_depend").delete(snapshot, lambda r: r["dependent"] == name, xid)

    def written_since(
        self, snapshot: Snapshot, names: Sequence[str], committed: Collection[int]
    ) -> bool:
        """Has a transaction in ``committed`` that ``snapshot`` cannot see
        written a ``pg_class``, ``gp_segfile`` or ``pg_statistic`` row of
        one of ``names``?"""
        return any(
            self.table(table).written_since(snapshot, name, committed)
            for table in ("pg_class", "gp_segfile", "pg_statistic")
            for name in names
        )

    def lookup_relation(
        self, name: str, snapshot: Snapshot
    ) -> Optional[Dict[str, object]]:
        name = name.lower()
        rows = self.table("pg_class").scan(snapshot, key=name)
        return rows[0] if rows else None

    def get_schema(self, name: str, snapshot: Snapshot) -> TableSchema:
        rel = self.lookup_relation(name, snapshot)
        if rel is None:
            raise UndefinedObject(f"relation {name!r} does not exist")
        return rel["schema"]

    def relations(
        self, snapshot: Snapshot, names: Optional[Collection[str]] = None
    ) -> List[Dict[str, object]]:
        """Visible ``pg_class`` rows: all of them, or only those named."""
        named = None if names is None else (lambda r: r["name"] in names)
        return self.table("pg_class").scan(snapshot, named)

    # ------------------------------------------------------------- segments
    def register_segment(self, segment_id: int, host: str, xid: int) -> None:
        self.table("gp_segment_configuration").insert(
            {"segment_id": segment_id, "host": host, "status": "up"}, xid
        )

    def set_segment_status(
        self, segment_id: int, status: str, xid: int, snapshot: Snapshot
    ) -> None:
        self.table("gp_segment_configuration").update(
            snapshot,
            lambda r: r["segment_id"] == segment_id,
            {"status": status},
            xid,
        )

    def segments(
        self, snapshot: Snapshot, status: Optional[str] = None
    ) -> List[Dict[str, object]]:
        return self.table("gp_segment_configuration").scan(
            snapshot,
            (lambda r: r["status"] == status) if status is not None else None,
        )

    # ------------------------------------------------------ segfile registry
    def register_segfile(
        self,
        table_name: str,
        segment_id: int,
        segfile_id: int,
        paths: Dict[str, int],
        xid: int,
        uncompressed_length: int = 0,
        tupcount: int = 0,
    ) -> None:
        """Record one data file (lane) of a table on one segment.

        ``paths`` maps each physical HDFS file of the lane (one for
        AO/Parquet, one per column for CO) to its **logical length** —
        the transaction-visible prefix. The physical file may be longer
        after an aborted append (Section 5.4) until truncate reclaims it.
        """
        self.table("gp_segfile").insert(
            {
                "table": table_name.lower(),
                "segment_id": segment_id,
                "segfile_id": segfile_id,
                "paths": dict(paths),
                "uncompressed_length": uncompressed_length,
                "tupcount": tupcount,
            },
            xid,
        )

    def update_segfile(
        self,
        snapshot: Snapshot,
        table_name: str,
        segment_id: int,
        segfile_id: int,
        changes: Dict[str, object],
        xid: int,
    ) -> int:
        table_name = table_name.lower()
        return self.table("gp_segfile").update(
            snapshot,
            lambda r: r["segment_id"] == segment_id and r["segfile_id"] == segfile_id,
            changes,
            xid,
            key=table_name,
        )

    def segfiles(
        self,
        table_name: str,
        snapshot: Snapshot,
        segment_id: Optional[int] = None,
    ) -> List[Dict[str, object]]:
        on_segment = (
            None if segment_id is None else (lambda r: r["segment_id"] == segment_id)
        )
        return self.table("gp_segfile").scan(
            snapshot, on_segment, key=table_name.lower()
        )

    # ------------------------------------------------------------ statistics
    def set_stats(
        self, table_name: str, stats: TableStats, xid: int, snapshot: Snapshot
    ) -> None:
        table_name = table_name.lower()
        self.table("pg_statistic").delete(snapshot, None, xid, key=table_name)
        self.table("pg_statistic").insert(
            {"table": table_name, "stats": stats}, xid
        )

    def get_stats(self, table_name: str, snapshot: Snapshot) -> Optional[TableStats]:
        table_name = table_name.lower()
        rows = self.table("pg_statistic").scan(snapshot, key=table_name)
        return rows[0]["stats"] if rows else None

    # ----------------------------------------------------------- dependencies
    def add_dependency(self, dependent: str, referenced: str, xid: int) -> None:
        self.table("pg_depend").insert(
            {"dependent": dependent.lower(), "referenced": referenced.lower()}, xid
        )

    def dependents_of(self, name: str, snapshot: Snapshot) -> List[str]:
        name = name.lower()
        rows = self.table("pg_depend").scan(
            snapshot, lambda r: r["referenced"] == name
        )
        return [r["dependent"] for r in rows]

