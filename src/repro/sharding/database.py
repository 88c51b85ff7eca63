"""A gather view over a shard directory that still accepts writes.

:class:`ShardedDatabase` opens every ``shard_<i>.db`` file under one
in-memory SQLite connection via ``ATTACH`` and exposes each logical
table as a ``TEMP VIEW`` that ``UNION ALL``\\ s the per-shard tables, so
the whole read surface of :class:`~repro.storage.database.Database`
(focused lookups, statistics scans, fingerprinting) works unchanged —
SQLite pushes ``WHERE`` predicates through ``UNION ALL`` views, so
focused probes still hit each shard's indexes.

Views are not writable, so writes are intercepted and routed:

* ``INSERT`` — each row goes to exactly one shard, chosen by the
  partition hash of the table's scatter column (the same
  :func:`~repro.sharding.shardset.scatter_column` policy used when the
  shards were created); ``copy_rows`` (a table-to-table copy) reads the
  source through its gather view and routes each row the same way;
* ``DELETE`` / ``UPDATE`` — broadcast to every shard; the returned
  cursor aggregates ``rowcount`` so callers that bill deletions (the
  master index's ``remove_entries``) see the global count;
* DDL (``CREATE TABLE/INDEX``, ``DROP``) — broadcast to every shard,
  then the union views are rebuilt lazily per connection.

Everything else (``SELECT``, ``PRAGMA``, transactions) passes through;
a ``commit`` on the gather connection commits all attached shards in
one SQLite transaction.
"""

from __future__ import annotations

import re
import sqlite3
import threading
from pathlib import Path
from typing import Any, Iterable, Sequence

from ..core.execution import shard_of
from ..storage.database import Database
from .partition import PartitionBook
from .shardset import ShardSet, scatter_column

_INSERT_RE = re.compile(r"^\s*INSERT(?:\s+OR\s+\w+)?\s+INTO\s+(\w+)", re.IGNORECASE)
_DELETE_RE = re.compile(r"^\s*DELETE\s+FROM\s+(\w+)", re.IGNORECASE)
_UPDATE_RE = re.compile(r"^\s*UPDATE\s+(\w+)", re.IGNORECASE)
_CREATE_TABLE_RE = re.compile(
    r"^\s*CREATE\s+TABLE\s+(?:IF\s+NOT\s+EXISTS\s+)?(\w+)", re.IGNORECASE
)
_CREATE_INDEX_RE = re.compile(
    r"^\s*CREATE\s+(?:UNIQUE\s+)?INDEX\s+(?:IF\s+NOT\s+EXISTS\s+)?(\w+)\s+ON\s+\w+",
    re.IGNORECASE,
)
_DROP_RE = re.compile(
    r"^\s*DROP\s+(?:TABLE|INDEX)\s+(?:IF\s+EXISTS\s+)?(\w+)", re.IGNORECASE
)


class _BroadcastCursor:
    """Aggregate result of a statement broadcast to every shard.

    Mimics the slice of the DB-API cursor surface the repo's write paths
    consume (``rowcount`` for deletion billing).
    """

    def __init__(self, rowcount: int) -> None:
        self.rowcount = rowcount


class ShardedDatabase(Database):
    """A :class:`Database` whose storage is a directory of shards.

    Drop-in for the single-file database: reads see the union of all
    shards through per-table views, writes are routed to the owning
    shard (inserts) or broadcast (deletes, DDL).  Per-thread connections
    work exactly as in the base class; each connection re-attaches the
    shard files and rebuilds its views after DDL.

    Attributes:
        directory: The shard directory this database was opened from.
        book: The shard set's persisted :class:`PartitionBook`.
    """

    def __init__(self, directory: str | Path, simulated_latency: float = 0.0) -> None:
        """Open a shard directory created by :func:`create_shards`.

        Args:
            directory: Directory holding ``shard_<i>.db`` files and the
                partition book.
            simulated_latency: Per-read-query delay in seconds (see the
                base class).
        """
        shards = ShardSet.open(directory)
        self.directory = Path(directory)
        self.book: PartitionBook = shards.book
        self._shard_paths = [str(path) for path in shards.shard_paths()]
        self._ordinals: dict[str, int | None] = {}
        self._write_counts = {index: 0 for index in range(shards.num_shards)}
        self._write_lock = threading.Lock()
        self._schema_gen = 0
        # The base constructor opens the anchor connection, so every
        # attribute _open() touches must exist before this call.
        super().__init__(path=None, simulated_latency=simulated_latency)

    @property
    def num_shards(self) -> int:
        """Number of attached shards."""
        return len(self._shard_paths)

    # ------------------------------------------------------------------
    # connections and views
    def _open(self) -> sqlite3.Connection:
        connection = sqlite3.connect(":memory:", check_same_thread=False)
        connection.execute("PRAGMA synchronous = OFF")
        for index, path in enumerate(self._shard_paths):
            connection.execute(f"ATTACH DATABASE ? AS s{index}", (path,))
        self._build_views(connection)
        return connection

    @property
    def connection(self) -> sqlite3.Connection:
        """This thread's gather connection, views refreshed after DDL."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            generation = self._schema_gen
            connection = self._open()
            self._local.connection = connection
            self._local.schema_gen = generation
        elif getattr(self._local, "schema_gen", -1) != self._schema_gen:
            self._local.schema_gen = self._schema_gen
            self._build_views(connection)
        return connection

    def _build_views(self, connection: sqlite3.Connection) -> None:
        """(Re)create one TEMP UNION ALL view per shard table."""
        stale = connection.execute(
            "SELECT name FROM temp.sqlite_master WHERE type = 'view'"
        ).fetchall()
        for (name,) in stale:
            connection.execute(f"DROP VIEW temp.{name}")
        tables = connection.execute(
            "SELECT name FROM s0.sqlite_master "
            "WHERE type = 'table' AND name NOT LIKE 'sqlite_%'"
        ).fetchall()
        for (table,) in tables:
            union = " UNION ALL ".join(
                f"SELECT * FROM s{index}.{table}"
                for index in range(self.num_shards)
            )
            connection.execute(f"CREATE TEMP VIEW {table} AS {union}")

    def _bump_schema(self) -> None:
        """Invalidate every connection's views and the ordinal cache."""
        self._ordinals.clear()
        self._schema_gen += 1
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            self._local.schema_gen = self._schema_gen
            self._build_views(connection)

    # ------------------------------------------------------------------
    # write routing
    def _ordinal(self, table: str) -> int | None:
        """Index of ``table``'s scatter column, ``None`` → pin to shard 0."""
        if table not in self._ordinals:
            columns = [
                str(row[1])
                for row in self.connection.execute(
                    f"PRAGMA s0.table_info({table})"
                ).fetchall()
            ]
            column = scatter_column(table, columns) if columns else None
            self._ordinals[table] = (
                columns.index(column) if column is not None else None
            )
        return self._ordinals[table]

    def _owner(self, table: str, row: Sequence[Any]) -> int:
        ordinal = self._ordinal(table)
        if ordinal is None or ordinal >= len(row):
            return 0
        return shard_of(str(row[ordinal]), self.num_shards)

    def _count_writes(self, shard: int, rows: int = 1) -> None:
        with self._write_lock:
            self._write_counts[shard] += rows

    @staticmethod
    def _qualify(sql: str, name_start: int, shard: int) -> str:
        """Splice ``s<shard>.`` in front of the object name at ``name_start``."""
        return f"{sql[:name_start]}s{shard}.{sql[name_start:]}"

    def execute(self, sql: str, params: Sequence[Any] = ()) -> Any:
        """Execute one statement, routing or broadcasting writes.

        Returns the underlying cursor for pass-through statements and
        routed inserts, or a :class:`_BroadcastCursor` (with the summed
        ``rowcount``) for broadcast deletes/updates and DDL.
        """
        match = _INSERT_RE.match(sql)
        if match:
            if "VALUES" not in sql.upper():
                raise NotImplementedError(
                    "sharded INSERT ... SELECT is not supported; "
                    "insert explicit rows (or use copy_rows) so they can be routed"
                )
            shard = self._owner(match.group(1), params)
            cursor = self.connection.execute(
                self._qualify(sql, match.start(1), shard), params
            )
            self._count_writes(shard)
            return cursor
        for pattern in (_DELETE_RE, _UPDATE_RE):
            match = pattern.match(sql)
            if match:
                return self._broadcast(sql, match.start(1), params)
        for pattern in (_CREATE_TABLE_RE, _CREATE_INDEX_RE, _DROP_RE):
            match = pattern.match(sql)
            if match:
                cursor = self._broadcast(sql, match.start(1), params)
                self._bump_schema()
                return cursor
        return super().execute(sql, params)

    def _broadcast(
        self, sql: str, name_start: int, params: Sequence[Any]
    ) -> _BroadcastCursor:
        connection = self.connection
        affected = 0
        for shard in range(self.num_shards):
            cursor = connection.execute(
                self._qualify(sql, name_start, shard), params
            )
            affected += max(0, cursor.rowcount)
            self._count_writes(shard, 0)
        return _BroadcastCursor(affected)

    def executemany(self, sql: str, rows: Iterable[Sequence[Any]]) -> None:
        """Bulk execute, grouping INSERT rows by their owning shard."""
        match = _INSERT_RE.match(sql)
        if match is None:
            materialized = list(rows)
            for row in materialized:
                self.execute(sql, row)
            return
        table = match.group(1)
        buckets: dict[int, list[Sequence[Any]]] = {}
        for row in rows:
            buckets.setdefault(self._owner(table, row), []).append(row)
        connection = self.connection
        for shard, batch in buckets.items():
            connection.executemany(
                self._qualify(sql, match.start(1), shard), batch
            )
            self._count_writes(shard, len(batch))

    def copy_rows(self, target: str, source: str, columns: Sequence[str]) -> None:
        """Copy ``source`` into ``target``, routing every row by ``target``'s policy.

        A row's owning shard in ``target`` can differ from its shard in
        ``source`` (a rotation copy scatters on a different leading
        column), so rows are read through the gather view and inserted
        with the same routing as :meth:`executemany`.
        """
        placeholders = ", ".join("?" for _ in columns)
        self.executemany(
            f"INSERT OR IGNORE INTO {target} VALUES ({placeholders})",
            self.query(f"SELECT {', '.join(columns)} FROM {source}"),
        )

    # ------------------------------------------------------------------
    # introspection (main's sqlite_master is empty; consult shard 0)
    def table_exists(self, name: str) -> bool:
        """Whether ``name`` exists (as table or view) on shard 0.

        Shards share one schema, so shard 0 answers for all of them.
        """
        row = self.query_one(
            "SELECT 1 FROM s0.sqlite_master "
            "WHERE type IN ('table','view') AND name = ?",
            (name,),
        )
        return row is not None

    def table_names(self) -> list[str]:
        """Every user table name, read from shard 0's catalog."""
        return [
            row[0]
            for row in self.query(
                "SELECT name FROM s0.sqlite_master "
                "WHERE type = 'table' AND name NOT LIKE 'sqlite_%'"
            )
        ]

    def total_bytes(self) -> int:
        """Summed storage footprint of every shard file."""
        total = 0
        for index in range(self.num_shards):
            pages = self.query_one(f"PRAGMA s{index}.page_count")
            size = self.query_one(f"PRAGMA s{index}.page_size")
            if pages and size:
                total += int(pages[0]) * int(size[0])
        return total

    # ------------------------------------------------------------------
    # shard health
    def write_counts(self) -> dict[int, int]:
        """Rows inserted per shard through this object (for health/metrics)."""
        with self._write_lock:
            return dict(self._write_counts)

    def shard_row_counts(self, table: str) -> dict[int, int]:
        """Current per-shard row counts of one table (balance diagnostics)."""
        counts = {}
        for index in range(self.num_shards):
            row = self.query_one(f"SELECT COUNT(*) FROM s{index}.{table}")
            counts[index] = int(row[0]) if row else 0
        return counts
