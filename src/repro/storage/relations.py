"""Connection relations: DDL, loading, and physical variants (Section 5).

Each fragment of a decomposition materializes as one connection relation
whose columns are target-object id columns, one per fragment role.  The
physical organization follows the decomposition's
:class:`~repro.decomposition.strategies.IndexPolicy`:

* ``ALL_ROTATIONS`` — clustered (index-organized) copies, one per leading
  column, emulating Oracle index-organized tables with SQLite
  ``WITHOUT ROWID`` tables.  The executor picks the copy clustered on the
  direction it traverses (paper Section 5.1: "the performance is
  dramatically improved when a connection relation is clustered on the
  direction that it is used").
* ``SINGLE_COLUMN_INDEXES`` — one heap table plus a secondary index per
  column (the paper's fallback when clustering is too expensive).
* ``NONE`` — one heap table, no indexes (full scans only).

Tables are shared across decompositions: two decompositions containing
the same fragment under the same policy reuse the same tables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import itemgetter

from ..decomposition.fragments import Fragment
from ..decomposition.strategies import Decomposition, IndexPolicy
from .database import Database, quote_identifier
from .target_objects import TargetObjectGraph

LOAD_PHASES = ("enumerate", "base_insert", "rotation_copy")
"""The phases :meth:`RelationStore.load` times, in the order they run."""

_POLICY_CODES = {
    IndexPolicy.ALL_ROTATIONS: "cl",
    IndexPolicy.SINGLE_COLUMN_INDEXES: "ix",
    IndexPolicy.NONE: "hp",
}


def fragment_instances(
    fragment: Fragment,
    to_graph: TargetObjectGraph,
    anchor: tuple[int, str] | None = None,
) -> list[tuple[str, ...]]:
    """All embeddings of a fragment into the target-object graph.

    Rows are tuples of target-object ids in role order; roles must bind
    distinct target objects (a fragment instance is a *subgraph* of the
    target-object graph).  Each embedding appears once, in no particular
    order.

    Enumeration is level-wise: roles are visited breadth-first from a
    start role, and the whole list of partial rows is extended over one
    tree edge at a time through the graph's adjacency, dropping any
    candidate the partial row already binds.

    Args:
        anchor: Optional ``(role, to_id)`` pair pinning one role to one
            target object.  Enumeration then walks outward from the
            anchor, yielding exactly the embeddings containing that
            target object in that role — the update subsystem's way to
            recompute only rows touched by a delta.
    """
    start = anchor[0] if anchor is not None else 0
    # Visit order: every later role hangs off an earlier one by one edge;
    # a step is (position of that earlier role in a partial row, edge
    # id, whether the walk follows the edge forward).
    order = [start]
    position = {start: 0}
    steps: list[tuple[int, str, bool]] = []
    visited = 0
    while visited < len(order):
        role = order[visited]
        visited += 1
        for edge in fragment.incident(role):
            nxt = edge.other(role)
            if nxt not in position:
                position[nxt] = len(order)
                order.append(nxt)
                steps.append((position[role], edge.edge_id, edge.oriented_from(role)))

    if anchor is not None:
        rows = [(anchor[1],)]
    else:
        rows = [(to_id,) for to_id in to_graph.target_objects(fragment.labels[start])]
    for bound, edge_id, forward in steps:
        adjacency = to_graph.adjacency(forward)
        rows = [
            row + (candidate,)
            for row in rows
            for candidate in adjacency.get((edge_id, row[bound]), ())
            if candidate not in row
        ]
    if order != sorted(order):
        # In place, so only one full copy of the rows is alive at a time.
        to_role_order = itemgetter(*(position[role] for role in range(len(order))))
        for index, row in enumerate(rows):
            rows[index] = to_role_order(row)
    return rows


@dataclass(frozen=True)
class PhysicalTable:
    """One physical SQLite table materializing a connection relation."""

    name: str
    columns: tuple[str, ...]
    clustered: bool


class RelationStore:
    """Creates, loads, and queries a decomposition's connection relations."""

    def __init__(self, database: Database, decomposition: Decomposition) -> None:
        self.database = database
        self.decomposition = decomposition
        self.policy = decomposition.index_policy
        self._code = _POLICY_CODES[self.policy]
        self._scan_cache: dict[str, list[tuple[str, ...]]] = {}
        self._hash_indexes: dict[tuple[str, tuple[str, ...]], dict] = {}

    # ------------------------------------------------------------------
    # Naming
    # ------------------------------------------------------------------
    def base_table(self, fragment: Fragment) -> str:
        return quote_identifier(f"{fragment.relation_name}_{self._code}")

    def _rotation_table(self, fragment: Fragment, leading: int) -> str:
        base = self.base_table(fragment)
        return base if leading == 0 else quote_identifier(f"{base}_r{leading}")

    def physical_tables(self, fragment: Fragment) -> list[PhysicalTable]:
        columns = fragment.columns
        if self.policy is IndexPolicy.ALL_ROTATIONS:
            tables = []
            for leading in range(len(columns)):
                rotated = (columns[leading],) + tuple(
                    column for position, column in enumerate(columns) if position != leading
                )
                tables.append(
                    PhysicalTable(self._rotation_table(fragment, leading), rotated, True)
                )
            return tables
        return [PhysicalTable(self.base_table(fragment), columns, False)]

    # ------------------------------------------------------------------
    # DDL + loading
    # ------------------------------------------------------------------
    def create(self) -> None:
        for fragment in self.decomposition.fragments:
            for table in self.physical_tables(fragment):
                column_sql = ", ".join(f"{quote_identifier(c)} TEXT NOT NULL" for c in table.columns)
                if table.clustered:
                    pk = ", ".join(quote_identifier(c) for c in table.columns)
                    self.database.execute(
                        f"CREATE TABLE IF NOT EXISTS {table.name} "
                        f"({column_sql}, PRIMARY KEY ({pk})) WITHOUT ROWID"
                    )
                else:
                    self.database.execute(
                        f"CREATE TABLE IF NOT EXISTS {table.name} ({column_sql})"
                    )
            if self.policy is IndexPolicy.SINGLE_COLUMN_INDEXES:
                base = self.base_table(fragment)
                for column in fragment.columns:
                    self.database.execute(
                        f"CREATE INDEX IF NOT EXISTS {base}_{quote_identifier(column)} "
                        f"ON {base} ({quote_identifier(column)})"
                    )
        self.database.commit()

    def load(
        self,
        to_graph: TargetObjectGraph,
        phase_seconds: dict[str, float] | None = None,
    ) -> dict[str, int]:
        """Populate every relation; returns row counts per relation name.

        Each relation's rows are enumerated, sorted and inserted once,
        into the base table; every other rotation copy is then filled
        from the base table by :meth:`Database.copy_rows`, inside SQLite.
        The base table's scan order (its primary key) is the sorted
        insertion order, so each copy receives its rows in the same
        order a Python-side insert of the sorted rows would.
        Already-populated tables (shared with a previously loaded
        decomposition under the same policy) are left untouched.

        Args:
            phase_seconds: When given, the seconds spent in each load
                phase (``enumerate``, ``base_insert``, ``rotation_copy``)
                are added to it.
        """
        counts: dict[str, int] = {}
        phases = dict.fromkeys(LOAD_PHASES, 0.0)
        for fragment in self.decomposition.fragments:
            base, *rotations = self.physical_tables(fragment)
            existing = self.database.row_count(base.name)
            if existing:
                counts[fragment.relation_name] = existing
                continue
            started = time.perf_counter()
            rows = fragment_instances(fragment, to_graph)
            rows.sort()
            enumerated = time.perf_counter()
            placeholders = ", ".join("?" for _ in base.columns)
            self.database.executemany(
                f"INSERT OR IGNORE INTO {base.name} VALUES ({placeholders})", rows
            )
            counts[fragment.relation_name] = len(rows)
            del rows
            inserted = time.perf_counter()
            for rotation in rotations:
                self.database.copy_rows(rotation.name, base.name, rotation.columns)
            phases["enumerate"] += enumerated - started
            phases["base_insert"] += inserted - enumerated
            phases["rotation_copy"] += time.perf_counter() - inserted
        self.database.commit()
        self.drop_memory_caches()
        if phase_seconds is not None:
            for phase, seconds in phases.items():
                phase_seconds[phase] = phase_seconds.get(phase, 0.0) + seconds
        return counts

    # ------------------------------------------------------------------
    # Query surface
    # ------------------------------------------------------------------
    def lookup(
        self, fragment: Fragment, bindings: dict[str, str]
    ) -> list[tuple[str, ...]]:
        """Rows matching equality bindings, in the fragment's column order.

        With ``ALL_ROTATIONS`` the clustered copy led by a bound column is
        chosen, turning the lookup into an index-organized range scan —
        the paper's clustered access path.
        """
        table, table_columns = self._pick_table(fragment, bindings)
        select = ", ".join(quote_identifier(c) for c in fragment.columns)
        if bindings:
            where = " AND ".join(f"{quote_identifier(c)} = ?" for c in sorted(bindings))
            params = [bindings[c] for c in sorted(bindings)]
            sql = f"SELECT {select} FROM {table} WHERE {where}"
        else:
            params = []
            sql = f"SELECT {select} FROM {table}"
        return self.database.query(sql, params)

    def scan(self, fragment: Fragment) -> list[tuple[str, ...]]:
        """Full scan in fragment column order (hash-join building block)."""
        return self.lookup(fragment, {})

    def scan_cached(self, fragment: Fragment) -> list[tuple[str, ...]]:
        """Full scan, kept in memory after the first read.

        Models the DBMS buffer pool the paper's Figure 15(b) relies on:
        "the full table scan and the hash join is the fastest way to
        perform a join when the size of the relations is small relative
        to the main memory".
        """
        rows = self._scan_cache.get(fragment.relation_name)
        if rows is None:
            rows = self.scan(fragment)
            self._scan_cache[fragment.relation_name] = rows
        return rows

    def hash_index(
        self, fragment: Fragment, key_columns: tuple[str, ...]
    ) -> dict[tuple[str, ...], list[tuple[str, ...]]]:
        """An in-memory hash index on the cached scan (built once)."""
        cache_key = (fragment.relation_name, key_columns)
        index = self._hash_indexes.get(cache_key)
        if index is None:
            positions = [fragment.columns.index(column) for column in key_columns]
            index = {}
            for row in self.scan_cached(fragment):
                index.setdefault(tuple(row[p] for p in positions), []).append(row)
            self._hash_indexes[cache_key] = index
        return index

    # ------------------------------------------------------------------
    # Incremental maintenance (the update subsystem's delta surface)
    # ------------------------------------------------------------------
    def rows_containing(
        self, fragment: Fragment, to_ids
    ) -> set[tuple[str, ...]]:
        """Existing rows binding any of the given target objects.

        Each column is probed through :meth:`clustered_table`, so under
        ``ALL_ROTATIONS`` every probe is a primary-key range search on
        the rotation copy led by that column, never a scan of the base
        table.
        """
        ids = sorted(set(to_ids))
        if not ids:
            return set()
        select = ", ".join(quote_identifier(c) for c in fragment.columns)
        rows: set[tuple[str, ...]] = set()
        for column in fragment.columns:
            table = self.clustered_table(fragment, column)
            for start in range(0, len(ids), 400):
                chunk = ids[start:start + 400]
                placeholders = ", ".join("?" for _ in chunk)
                rows.update(
                    self.database.query(
                        f"SELECT {select} FROM {table} "
                        f"WHERE {quote_identifier(column)} IN ({placeholders})",
                        chunk,
                    )
                )
        return rows

    def apply_row_delta(self, fragment: Fragment, remove_rows, add_rows) -> None:
        """Delete/insert exact rows in every physical table; caller commits.

        Rows are matched on *all* columns, which on clustered
        (``WITHOUT ROWID``) rotation copies is a primary-key point
        delete — the delta stays proportional to its own size, not to
        the relation.  Heap tables pay one scan per removed row, but
        deltas are small by construction.
        """
        for table in self.physical_tables(fragment):
            projection = [fragment.columns.index(c) for c in table.columns]
            if remove_rows:
                predicate = " AND ".join(
                    f"{quote_identifier(c)} = ?" for c in table.columns
                )
                self.database.executemany(
                    f"DELETE FROM {table.name} WHERE {predicate}",
                    [tuple(row[p] for p in projection) for row in remove_rows],
                )
            if add_rows:
                placeholders = ", ".join("?" for _ in table.columns)
                self.database.executemany(
                    f"INSERT OR IGNORE INTO {table.name} VALUES ({placeholders})",
                    [tuple(row[p] for p in projection) for row in add_rows],
                )
        self.drop_memory_caches([fragment.relation_name])

    def drop_memory_caches(self, relations=None) -> None:
        """Forget cached scans and hash indexes.

        Args:
            relations: Relation names to forget; ``None`` (reloads)
                forgets everything.  The update subsystem passes the
                touched relations so untouched in-memory scans survive a
                mutation.
        """
        if relations is None:
            self._scan_cache.clear()
            self._hash_indexes.clear()
            return
        names = set(relations)
        for name in names:
            self._scan_cache.pop(name, None)
        self._hash_indexes = {
            key: index
            for key, index in self._hash_indexes.items()
            if key[0] not in names
        }

    def row_count(self, fragment: Fragment) -> int:
        return self.database.row_count(self.base_table(fragment))

    def clustered_table(self, fragment: Fragment, column: str | None) -> str:
        """The physical table to read when access is keyed on ``column``.

        Under ``ALL_ROTATIONS`` this is the clustered (``WITHOUT
        ROWID``) rotation copy led by ``column``, whose primary key
        turns equality on that column into an index range scan — the
        same access path :meth:`lookup` picks per probe, exposed so the
        plan→SQL compiler can reference it in join clauses.  Falls back
        to the base table when ``column`` is ``None`` or no rotation
        leads with it (other policies index, or don't, the base table
        itself).
        """
        if self.policy is IndexPolicy.ALL_ROTATIONS and column is not None:
            for leading, candidate in enumerate(fragment.columns):
                if candidate == column:
                    return self._rotation_table(fragment, leading)
        return self.base_table(fragment)

    def _pick_table(
        self, fragment: Fragment, bindings: dict[str, str]
    ) -> tuple[str, tuple[str, ...]]:
        if self.policy is IndexPolicy.ALL_ROTATIONS and bindings:
            for leading, column in enumerate(fragment.columns):
                if column in bindings:
                    table = self._rotation_table(fragment, leading)
                    return table, fragment.columns
        return self.base_table(fragment), fragment.columns

    def storage_bytes(self) -> int:
        """Rough footprint: total rows across all physical tables."""
        total = 0
        for fragment in self.decomposition.fragments:
            for table in self.physical_tables(fragment):
                total += self.database.row_count(table.name) * len(table.columns)
        return total
