"""MapReduce Input/OutputFormats for HAWQ table files (paper Section 2.1).

"External systems can bypass HAWQ, and access directly the HAWQ table
files on HDFS. ... In addition, open MapReduce InputFormats and
OutputFormats for the underlying storage file formats are developed.
... For example, MapReduce can directly access table files on HDFS
instead of reading HAWQ data through SQL."

:class:`HawqTableInputFormat` turns a table's committed segment files
into MapReduce input splits (one per segfile lane, located at the
segment's host) and reads them with the real storage-format decoders —
honouring the catalog's logical lengths, so an external job sees exactly
the committed rows. :class:`HawqTableOutputFormat` is the loading path:
it writes rows through the table's storage format into a new segment
file per segment and commits them in the catalog, transactionally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.errors import UndefinedObject
from repro.storage import get_format
from repro.storage.table import segfiles


@dataclass(frozen=True)
class TableSplit:
    """One MapReduce input split over a HAWQ table."""

    table: str
    segment_id: int
    segfile_id: int
    paths: Tuple[Tuple[str, int], ...]  # (path, logical length)
    host: str


class HawqTableInputFormat:
    """Read a HAWQ table's files directly, without SQL."""

    def __init__(self, engine):
        self.engine = engine

    def get_splits(self, table: str) -> List[TableSplit]:
        """One split per committed segment file lane."""
        with self.engine.txns.run() as txn:
            return self._splits(table, txn.statement_snapshot())

    def _splits(self, table: str, snapshot) -> List[TableSplit]:
        engine = self.engine
        relation = engine.catalog.lookup_relation(table, snapshot)
        if relation is None:
            raise UndefinedObject(f"relation {table!r} does not exist")
        return [
            TableSplit(
                table=segfile["table"],
                segment_id=segfile["segment_id"],
                segfile_id=segfile["segfile_id"],
                paths=tuple(sorted(segfile["paths"].items())),
                host=engine.segments[segfile["segment_id"]].effective_host(),
            )
            for _schema, segfile in segfiles(engine.catalog, relation, snapshot)
        ]

    def read_split(
        self, split: TableSplit, columns: Optional[Sequence[int]] = None
    ) -> Iterator[tuple]:
        """Decode one split's rows with the table's storage format."""
        with self.engine.txns.run() as txn:
            yield from self._scan(split, txn.statement_snapshot(), columns)

    def _scan(
        self, split: TableSplit, snapshot, columns: Optional[Sequence[int]] = None
    ) -> Iterator[tuple]:
        engine = self.engine
        schema = engine.catalog.get_schema(split.table, snapshot)
        yield from get_format(schema.storage_format).scan(
            engine.hdfs.client(split.host),
            dict(split.paths),
            schema,
            schema.compression,
            columns=columns,
        )

    def read_table(self, table: str) -> Iterator[tuple]:
        """All committed rows, split by split, read inside the one
        transaction whose snapshot produced the splits: it stays open
        until the last row, so a DROP committed meanwhile leaves the
        files until the reader has finished."""
        with self.engine.txns.run() as txn:
            snapshot = txn.statement_snapshot()
            for split in self._splits(table, snapshot):
                yield from self._scan(split, snapshot)


class HawqTableOutputFormat:
    """Write rows into a HAWQ table from outside SQL (bulk exchange)."""

    def __init__(self, engine):
        self.engine = engine

    def write_table(self, table: str, rows: Sequence[tuple]) -> int:
        """Append rows transactionally; returns the row count."""
        return self.engine.connect().load_rows(table, rows)
