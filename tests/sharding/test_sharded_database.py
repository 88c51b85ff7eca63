"""Write routing and read equivalence of the gather database."""

from __future__ import annotations

import pytest

from repro.core import shard_of
from repro.sharding import ShardedDatabase, create_shards

from .conftest import build_dblp


@pytest.fixture()
def sharded(tmp_path):
    _, _, loaded = build_dblp(papers=10, authors=6)
    create_shards(loaded, 3, tmp_path)
    database = ShardedDatabase(tmp_path)
    yield loaded, database
    database.close()
    loaded.database.close()


def test_reads_match_monolith(sharded):
    loaded, database = sharded
    assert set(database.table_names()) == set(loaded.database.table_names())
    assert database.table_exists("master_index")
    assert not database.table_exists("no_such_table")
    for table in loaded.database.table_names():
        assert database.row_count(table) == loaded.database.row_count(table)
    assert database.total_bytes() > 0


def test_insert_routes_to_owning_shard(sharded):
    _, database = sharded
    before = database.shard_row_counts("master_index")
    database.execute(
        "INSERT INTO master_index VALUES (?, ?, ?, ?)",
        ("zzz-keyword", "routed-to", "n1", "tss"),
    )
    owner = shard_of("routed-to", database.num_shards)
    after = database.shard_row_counts("master_index")
    for index in range(database.num_shards):
        expected = before[index] + (1 if index == owner else 0)
        assert after[index] == expected
    assert database.write_counts()[owner] >= 1


def test_executemany_buckets_by_shard(sharded):
    _, database = sharded
    rows = [(f"kw{i}", f"to-{i}", f"n{i}", "tss") for i in range(20)]
    database.executemany("INSERT INTO master_index VALUES (?, ?, ?, ?)", rows)
    counts = database.shard_row_counts("master_index")
    for keyword, to_id, _, _ in rows:
        found = database.query(
            "SELECT to_id FROM master_index WHERE keyword = ?", (keyword,)
        )
        assert [row[0] for row in found] == [to_id]
    assert sum(database.write_counts().values()) >= len(rows)
    assert sum(counts.values()) == database.row_count("master_index")


def test_delete_broadcast_sums_rowcount(sharded):
    _, database = sharded
    rows = [(f"bulk{i}", f"to-{i}", f"n{i}", "tss") for i in range(9)]
    database.executemany("INSERT INTO master_index VALUES (?, ?, ?, ?)", rows)
    cursor = database.execute(
        "DELETE FROM master_index WHERE keyword LIKE 'bulk%'"
    )
    assert cursor.rowcount == len(rows)
    assert database.query("SELECT 1 FROM master_index WHERE keyword LIKE 'bulk%'") == []


def test_ddl_broadcasts_and_refreshes_views(sharded):
    _, database = sharded
    database.execute("CREATE TABLE scratch (id TEXT, to_id TEXT)")
    assert database.table_exists("scratch")
    database.execute("INSERT INTO scratch VALUES (?, ?)", ("a", "x"))
    assert database.row_count("scratch") == 1
    assert database.shard_row_counts("scratch")[shard_of("x", 3)] == 1
    database.execute("DROP TABLE scratch")
    assert not database.table_exists("scratch")


def test_insert_select_is_rejected(sharded):
    _, database = sharded
    with pytest.raises(NotImplementedError):
        database.execute(
            "INSERT INTO master_index SELECT * FROM master_index"
        )


def test_add_decomposition_routes_rotation_copies(tmp_path):
    """Loading more relations into sharded storage matches the monolith.

    Rotation copies are filled table to table (``copy_rows``); on shards
    each copied row must land on the shard its own leading column owns.
    """
    from repro.decomposition import xkeyword_decomposition
    from repro.sharding import open_sharded
    from repro.sharding.shardset import scatter_column

    catalog, decompositions, loaded = build_dblp(papers=10, authors=6)
    create_shards(loaded, 3, tmp_path)
    gathered = open_sharded(tmp_path, catalog, decompositions)
    extra = xkeyword_decomposition(catalog.tss, 4, 1)
    sharded_store = gathered.add_decomposition(extra)
    store = loaded.add_decomposition(extra)
    database = gathered.database
    assert gathered.report.relation_rows[extra.name] == loaded.report.relation_rows[extra.name]
    for fragment in extra.fragments:
        for table in store.physical_tables(fragment):
            columns = ", ".join(table.columns)
            expected = sorted(loaded.database.query(f"SELECT {columns} FROM {table.name}"))
            assert sorted(database.query(f"SELECT {columns} FROM {table.name}")) == expected
            column = scatter_column(table.name, table.columns)
            position = table.columns.index(column)
            for shard in range(database.num_shards):
                for row in database.query(f"SELECT {columns} FROM s{shard}.{table.name}"):
                    assert shard_of(row[position], database.num_shards) == shard
        assert sharded_store.row_count(fragment) == store.row_count(fragment)
    database.close()
    loaded.database.close()
