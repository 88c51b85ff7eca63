"""Unit tests for role-labeled trees, canonical forms, embeddings."""

from functools import lru_cache
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decomposition import (
    Fragment,
    NetEdge,
    NetworkError,
    TSSNetwork,
    embedding_masks,
    enumerate_fragments,
    enumerate_networks,
    find_embeddings,
    single_edge_fragment,
)
from repro.schema import get_catalog


def chain(tss, *edge_ids):
    """Helper: build the path fragment e1 . e2 . ... following directions."""
    labels = []
    edges = []
    for index, edge_id in enumerate(edge_ids):
        edge = tss.edge(edge_id)
        if not labels:
            labels = [edge.source]
        labels.append(edge.target)
        edges.append(NetEdge(index, index + 1, edge_id))
    return Fragment(labels, edges)


class TestValidation:
    def test_single_node(self):
        net = TSSNetwork(["A"], [])
        assert net.size == 0
        assert net.role_count == 1

    def test_edge_count_mismatch(self):
        with pytest.raises(NetworkError, match="tree edges"):
            TSSNetwork(["A", "B"], [])

    def test_cycle_rejected(self):
        # Four roles, three edges: a triangle plus an isolated role has
        # the right edge count but closes a cycle.
        with pytest.raises(NetworkError, match="cycle"):
            TSSNetwork(
                ["A", "B", "C", "D"],
                [NetEdge(0, 1, "e"), NetEdge(1, 2, "e"), NetEdge(2, 0, "e")],
            )

    def test_self_loop_rejected(self):
        with pytest.raises(NetworkError, match="self-loop"):
            TSSNetwork(["A", "B"], [NetEdge(0, 0, "e")])

    def test_unknown_role_rejected(self):
        with pytest.raises(NetworkError, match="unknown role"):
            TSSNetwork(["A", "B"], [NetEdge(0, 5, "e")])

    def test_empty_rejected(self):
        with pytest.raises(NetworkError, match="at least one role"):
            TSSNetwork([], [])


class TestCanonicalForm:
    def test_role_order_irrelevant(self, tpch):
        a = chain(tpch.tss, "Person=>Order", "Order=>Lineitem")
        b = Fragment(
            ["Lineitem", "Order", "Person"],
            [NetEdge(1, 0, "Order=>Lineitem"), NetEdge(2, 1, "Person=>Order")],
        )
        assert a.canonical_key() == b.canonical_key()
        assert a == b
        assert hash(a) == hash(b)

    def test_direction_matters(self, tpch):
        forward = Fragment(["Part", "Part"], [NetEdge(0, 1, "Part=>Part")])
        # Two roles joined by the same edge id are only equal as unordered
        # trees; a chain of two subpart edges differs from a fan-out.
        fan = Fragment(
            ["Part", "Part", "Part"],
            [NetEdge(0, 1, "Part=>Part"), NetEdge(0, 2, "Part=>Part")],
        )
        path = Fragment(
            ["Part", "Part", "Part"],
            [NetEdge(0, 1, "Part=>Part"), NetEdge(1, 2, "Part=>Part")],
        )
        assert fan.canonical_key() != path.canonical_key()
        assert forward.canonical_key() != fan.canonical_key()

    def test_annotation_extra_changes_key(self, tpch):
        f = chain(tpch.tss, "Person=>Order")
        assert f.canonical_key() != f.canonical_key(["^k", ""])

    def test_canonical_order_starts_at_centroid(self, tpch):
        f = chain(tpch.tss, "Person=>Order", "Order=>Lineitem")
        order = f.canonical_order()
        assert sorted(order) == [0, 1, 2]

    def test_symmetric_tree_consistent(self):
        left = Fragment(["A", "B", "A"], [NetEdge(0, 1, "e"), NetEdge(2, 1, "e")])
        right = Fragment(["A", "B", "A"], [NetEdge(2, 1, "e"), NetEdge(0, 1, "e")])
        assert left.canonical_key() == right.canonical_key()


class TestFragmentNaming:
    def test_relation_name_stable(self, tpch):
        a = chain(tpch.tss, "Person=>Order")
        b = Fragment(["Order", "Person"], [NetEdge(1, 0, "Person=>Order")])
        assert a.relation_name == b.relation_name

    def test_columns_unique_for_repeated_tss(self, tpch):
        f = chain(tpch.tss, "Part=>Part", "Part=>Part")
        assert len(set(f.columns)) == 3
        assert f.columns[0] == "part_id"
        assert f.columns[1] == "part_1_id"

    def test_single_edge_fragment(self, tpch):
        f = single_edge_fragment(tpch.tss, "Person=>Order")
        assert f.size == 1
        assert f.labels == ("Person", "Order")


class TestBranches:
    def test_branch_roles(self, tpch):
        f = chain(tpch.tss, "Person=>Order", "Order=>Lineitem")
        via = f.edges[0]
        assert set(f.branch_roles(0, via)) == {1, 2}
        assert set(f.branch_roles(1, via)) == {0}

    def test_branch_edges(self, tpch):
        f = chain(tpch.tss, "Person=>Order", "Order=>Lineitem")
        via = f.edges[0]
        assert set(f.branch_edges(0, via)) == set(f.edges)


class TestEmbeddings:
    def test_identity_embedding(self, tpch):
        f = chain(tpch.tss, "Person=>Order", "Order=>Lineitem")
        embeddings = list(find_embeddings(f, f))
        assert {tuple(sorted(e.items())) for e in embeddings} == {
            ((0, 0), (1, 1), (2, 2))
        }

    def test_sub_chain_embeds(self, tpch):
        small = chain(tpch.tss, "Order=>Lineitem")
        big = chain(tpch.tss, "Person=>Order", "Order=>Lineitem")
        embeddings = list(find_embeddings(small, big))
        assert len(embeddings) == 1
        assert embeddings[0] == {0: 1, 1: 2}

    def test_too_big_fragment_no_embedding(self, tpch):
        small = chain(tpch.tss, "Order=>Lineitem")
        big = chain(tpch.tss, "Person=>Order", "Order=>Lineitem")
        assert list(find_embeddings(big, small)) == []

    def test_orientation_respected(self, tpch):
        # Part=>Part chain embeds into a chain but not reversed.
        path = chain(tpch.tss, "Part=>Part", "Part=>Part")
        single = single_edge_fragment(tpch.tss, "Part=>Part")
        assert len(list(find_embeddings(single, path))) == 2

    def test_symmetric_fanout_embeddings(self, tpch):
        fan = Fragment(
            ["Order", "Lineitem", "Lineitem"],
            [NetEdge(0, 1, "Order=>Lineitem"), NetEdge(0, 2, "Order=>Lineitem")],
        )
        embeddings = list(find_embeddings(fan, fan))
        assert len(embeddings) == 2  # the two lineitem roles may swap

    def test_label_mismatch_blocks(self, tpch):
        person_order = single_edge_fragment(tpch.tss, "Person=>Order")
        order_line = single_edge_fragment(tpch.tss, "Order=>Lineitem")
        assert list(find_embeddings(person_order, order_line)) == []


@lru_cache(maxsize=None)
def small_trees(catalog: str):
    tss = get_catalog(catalog).tss
    return enumerate_networks(tss, 4), enumerate_fragments(tss, 3)


def brute_force_embeddings(fragment, network):
    """Every injective role map that preserves labels and oriented edges,
    found by trying all of them, with the network edges each one covers."""
    position = {
        (edge.source, edge.target, edge.edge_id): index
        for index, edge in enumerate(network.edges)
    }
    found = []
    for image in permutations(range(network.role_count), fragment.role_count):
        if any(network.labels[image[r]] != fragment.labels[r] for r in range(len(image))):
            continue
        keys = [(image[e.source], image[e.target], e.edge_id) for e in fragment.edges]
        if all(key in position for key in keys):
            mask = sum(1 << position[key] for key in keys)
            found.append((dict(enumerate(image)), mask))
    return found


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(("dblp", "tpch", "xmark")), st.data())
def test_embedding_search_matches_brute_force(catalog, data):
    networks, fragments = small_trees(catalog)
    network = data.draw(st.sampled_from(networks))
    fragment = data.draw(st.sampled_from(fragments))
    expected = brute_force_embeddings(fragment, network)
    found = list(find_embeddings(fragment, network))
    assert sorted(map(sorted, (m.items() for m in found))) == sorted(
        sorted(m.items()) for m, _ in expected
    )
    assert embedding_masks(network, [fragment]) == [{mask for _, mask in expected}]
