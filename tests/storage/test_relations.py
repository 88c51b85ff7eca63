"""Tests for connection relations: loading, lookup, physical variants."""

import itertools
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decomposition import (
    Decomposition,
    Fragment,
    IndexPolicy,
    NetEdge,
    minimal_decomposition,
    single_edge_fragment,
    xkeyword_decomposition,
)
from repro.schema import dblp_catalog, tpch_catalog
from repro.storage import (
    Database,
    RelationStore,
    build_target_object_graph,
    fragment_instances,
    load_database,
)
from repro.workloads import DBLPConfig, generate_dblp
from tests.test_integration import RandomTreeMachinery


@pytest.fixture(scope="module")
def to_graph(figure1_graph, tpch):
    return build_target_object_graph(figure1_graph, tpch.tss)


def olpa(tpch):
    return Fragment(
        ["Order", "Lineitem", "Part"],
        [NetEdge(0, 1, "Order=>Lineitem"), NetEdge(1, 2, "Lineitem=>Part")],
    )


class TestFragmentInstances:
    def test_single_edge_instances(self, tpch, to_graph):
        fragment = single_edge_fragment(tpch.tss, "Part=>Part")
        rows = set(fragment_instances(fragment, to_graph))
        assert rows == {("pa3", "pa1"), ("pa3", "pa2")}

    def test_path_instances(self, tpch, to_graph):
        rows = set(fragment_instances(olpa(tpch), to_graph))
        assert rows == {("o1", "l1", "pa3"), ("o1", "l2", "pa3")}

    def test_injective_roles(self, tpch, to_graph):
        papa = Fragment(
            ["Part", "Part", "Part"],
            [NetEdge(0, 1, "Part=>Part"), NetEdge(0, 2, "Part=>Part")],
        )
        rows = set(fragment_instances(papa, to_graph))
        assert rows == {("pa3", "pa1", "pa2"), ("pa3", "pa2", "pa1")}
        for row in rows:
            assert len(set(row)) == len(row)


@pytest.fixture(scope="module")
def clustered_store(tpch, to_graph):
    db = Database()
    store = RelationStore(db, minimal_decomposition(tpch.tss))
    store.create()
    store.load(to_graph)
    return store


class TestClusteredStore:
    def test_rotation_tables_created(self, clustered_store, tpch):
        fragment = single_edge_fragment(tpch.tss, "Person=>Order")
        tables = clustered_store.physical_tables(fragment)
        assert len(tables) == 2
        assert all(t.clustered for t in tables)

    def test_lookup_by_each_column(self, clustered_store, tpch):
        fragment = single_edge_fragment(tpch.tss, "Part=>Part")
        rows = clustered_store.lookup(fragment, {"part_id": "pa3"})
        assert set(rows) == {("pa3", "pa1"), ("pa3", "pa2")}
        rows = clustered_store.lookup(fragment, {"part_1_id": "pa1"})
        assert rows == [("pa3", "pa1")]

    def test_scan(self, clustered_store, tpch):
        fragment = single_edge_fragment(tpch.tss, "Order=>Lineitem")
        assert set(clustered_store.scan(fragment)) == {
            ("o1", "l1"), ("o1", "l2"), ("o2", "l3"),
        }

    def test_row_count(self, clustered_store, tpch):
        fragment = single_edge_fragment(tpch.tss, "Part=>Part")
        assert clustered_store.row_count(fragment) == 2

    def test_lookup_empty_for_unknown_id(self, clustered_store, tpch):
        fragment = single_edge_fragment(tpch.tss, "Part=>Part")
        assert clustered_store.lookup(fragment, {"part_id": "nope"}) == []

    def test_reload_is_idempotent(self, clustered_store, to_graph):
        counts_again = clustered_store.load(to_graph)
        fragment_counts = set(counts_again.values())
        assert all(count > 0 for count in fragment_counts)

    def test_storage_bytes_positive(self, clustered_store):
        assert clustered_store.storage_bytes() > 0


class TestHeapPolicies:
    @pytest.mark.parametrize(
        "policy", [IndexPolicy.SINGLE_COLUMN_INDEXES, IndexPolicy.NONE]
    )
    def test_single_table_per_fragment(self, tpch, to_graph, policy):
        db = Database()
        store = RelationStore(db, minimal_decomposition(tpch.tss, policy))
        store.create()
        store.load(to_graph)
        fragment = single_edge_fragment(tpch.tss, "Part=>Part")
        assert len(store.physical_tables(fragment)) == 1
        assert set(store.lookup(fragment, {"part_id": "pa3"})) == {
            ("pa3", "pa1"), ("pa3", "pa2"),
        }

    def test_policies_use_distinct_tables(self, tpch, to_graph):
        db = Database()
        clustered = RelationStore(db, minimal_decomposition(tpch.tss))
        heap = RelationStore(db, minimal_decomposition(tpch.tss, IndexPolicy.NONE))
        clustered.create()
        heap.create()
        fragment = single_edge_fragment(tpch.tss, "Part=>Part")
        assert clustered.base_table(fragment) != heap.base_table(fragment)

    def test_indexes_created(self, tpch, to_graph):
        db = Database()
        store = RelationStore(
            db, minimal_decomposition(tpch.tss, IndexPolicy.SINGLE_COLUMN_INDEXES)
        )
        store.create()
        indexes = db.query("SELECT name FROM sqlite_master WHERE type = 'index'")
        assert len(indexes) >= 2 * len(store.decomposition.fragments)


class TestMultiFragmentDecomposition:
    def test_wide_fragment_loads(self, tpch, to_graph):
        db = Database()
        decomposition = Decomposition(
            "Test", (olpa(tpch),), IndexPolicy.ALL_ROTATIONS
        )
        store = RelationStore(db, decomposition)
        store.create()
        counts = store.load(to_graph)
        assert counts[olpa(tpch).relation_name] == 2
        rows = store.lookup(olpa(tpch), {"part_id": "pa3"})
        assert set(rows) == {("o1", "l1", "pa3"), ("o1", "l2", "pa3")}


# ----------------------------------------------------------------------
# Enumeration against a brute-force oracle
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def brute_force_world(catalog: str):
    """``(tss_graph, to_graph)`` small enough to enumerate every role map."""
    if catalog == "tpch":
        from tests.conftest import build_figure1_graph

        graph, tss = build_figure1_graph(), tpch_catalog().tss
    else:
        graph = generate_dblp(DBLPConfig(papers=10, authors=6, avg_citations=2.0, seed=4))
        tss = dblp_catalog().tss
    return tss, build_target_object_graph(graph, tss)


def brute_force_instances(fragment, to_graph) -> set[tuple[str, ...]]:
    """Every injective role -> TO map respecting each role label and edge."""
    candidates = [to_graph.target_objects(label) for label in fragment.labels]
    return {
        row
        for row in itertools.product(*candidates)
        if len(set(row)) == len(row)
        and all(
            to_graph.has_instance(edge.edge_id, row[edge.source], row[edge.target])
            for edge in fragment.edges
        )
    }


class TestFragmentInstancesBruteForce:
    @given(
        catalog=st.sampled_from(["tpch", "dblp"]),
        seed=st.integers(0, 10_000),
        size=st.integers(1, 3),
    )
    @settings(max_examples=80, deadline=None)
    def test_unanchored_and_anchored_match_oracle(self, catalog, seed, size):
        tss, to_graph = brute_force_world(catalog)
        fragment = RandomTreeMachinery.random_tree(tss, seed, size)
        expected = brute_force_instances(fragment, to_graph)
        rows = list(fragment_instances(fragment, to_graph))
        assert len(rows) == len(set(rows))
        assert set(rows) == expected
        rng = random.Random(seed)
        for role, label in enumerate(fragment.labels):
            pool = to_graph.target_objects(label)
            for to_id in rng.sample(pool, min(3, len(pool))):
                anchored = list(fragment_instances(fragment, to_graph, anchor=(role, to_id)))
                assert len(anchored) == len(set(anchored))
                assert set(anchored) == {row for row in expected if row[role] == to_id}


# ----------------------------------------------------------------------
# Delta reads: same rows as a base-table filter, clustered access path
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def delta_world(policy: IndexPolicy):
    catalog = dblp_catalog()
    graph = generate_dblp(DBLPConfig(papers=60, authors=30, avg_citations=3.0, seed=3))
    decomposition = xkeyword_decomposition(catalog.tss, 4, 1)
    if policy is not IndexPolicy.ALL_ROTATIONS:
        decomposition = Decomposition(decomposition.name, decomposition.fragments, policy)
    loaded = load_database(graph, catalog, [decomposition])
    return loaded, loaded.store(decomposition.name)


def base_table_filter(store, fragment, ids) -> set[tuple[str, ...]]:
    """The reference answer: every base-table row binding one of ``ids``."""
    wanted = set(ids)
    columns = ", ".join(fragment.columns)
    return {
        row
        for row in store.database.query(f"SELECT {columns} FROM {store.base_table(fragment)}")
        if wanted.intersection(row)
    }


class TestRowsContaining:
    @given(
        policy=st.sampled_from(list(IndexPolicy)),
        seed=st.integers(0, 10_000),
        count=st.integers(0, 450),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_base_table_filter(self, policy, seed, count):
        loaded, store = delta_world(policy)
        rng = random.Random(seed)
        pool = sorted(loaded.to_graph.target_objects()) + ["missing-1", "missing-2"]
        ids = rng.sample(pool, min(count, len(pool)))
        fragment = rng.choice(store.decomposition.fragments)
        assert store.rows_containing(fragment, ids) == base_table_filter(store, fragment, ids)

    def test_probes_search_the_clustered_rotation(self, monkeypatch):
        loaded, store = delta_world(IndexPolicy.ALL_ROTATIONS)
        database = store.database
        issued: list[tuple[str, tuple]] = []
        original = database.query

        def recording(sql, params=()):
            issued.append((sql, tuple(params)))
            return original(sql, params)

        monkeypatch.setattr(database, "query", recording)
        ids = sorted(loaded.to_graph.target_objects())[::7]
        wide = [f for f in store.decomposition.fragments if f.role_count >= 3]
        assert wide, "the decomposition should hold multi-role fragments"
        for fragment in wide:
            issued.clear()
            store.rows_containing(fragment, ids)
            assert len(issued) >= fragment.role_count
            for sql, params in issued:
                plan = original(f"EXPLAIN QUERY PLAN {sql}", params)
                details = [str(row[-1]) for row in plan]
                assert details, sql
                for detail in details:
                    assert detail.startswith("SEARCH"), (sql, details)
                    assert "PRIMARY KEY" in detail, (sql, details)
                    assert "SCAN" not in detail, (sql, details)
