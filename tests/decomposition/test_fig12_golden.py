"""Golden fragment tuples of the Figure 12 decomposition and its variants.

The Figure 12 algorithm (paper §5.1) decides which connection relations
a load materializes, so any change to it changes DB bytes, plans and
answers.  This suite pins, per catalog and ``(M, B)``, the full fragment
tuple — relation name, role labels and edges, in order — of
``xkeyword_decomposition``, ``combined_decomposition`` and
``inlined_only_decomposition`` (the latter both called directly and
derived from an already-built XKeyword decomposition), plus
``xkeyword_decomposition`` over two explicit ``networks`` lists.
``fig12_golden.json`` stores each tuple's relation names for readable
diffs plus a SHA-256 of its canonical JSON serialization for
byte-identity.

Regenerate after an *intended* change to the algorithm with::

    PYTHONPATH=src python tests/decomposition/test_fig12_golden.py

The property test holds ``covers_with_joins`` (the join-bound yes/no
question the algorithm asks) to ``min_cover``, the optimizer's exact
branch and bound.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.decomposition import (
    Decomposition,
    combined_decomposition,
    covers_with_joins,
    enumerate_fragments,
    enumerate_networks,
    inlined_only_decomposition,
    inlined_only_from,
    min_cover,
    xkeyword_decomposition,
)
from repro.schema import get_catalog

GOLDEN_PATH = Path(__file__).with_name("fig12_golden.json")

CONFIGS = [
    (catalog, m, b)
    for catalog in ("dblp", "tpch", "xmark")
    for m, b in ((3, 1), (4, 1), (5, 1))
] + [("dblp", 6, 2)]

CONFIG_IDS = [f"{catalog}-M{m}-B{b}" for catalog, m, b in CONFIGS]


def fragment_rows(decomposition: Decomposition) -> list:
    return [
        [
            fragment.relation_name,
            list(fragment.labels),
            [[edge.source, edge.target, edge.edge_id] for edge in fragment.edges],
        ]
        for fragment in decomposition.fragments
    ]


def pin(decomposition: Decomposition) -> dict:
    rows = fragment_rows(decomposition)
    serialized = json.dumps(rows, separators=(",", ":")).encode()
    return {
        "relations": [row[0] for row in rows],
        "sha256": hashlib.sha256(serialized).hexdigest(),
    }


@lru_cache(maxsize=None)
def tss_of(catalog: str):
    return get_catalog(catalog).tss


@lru_cache(maxsize=None)
def xkeyword_of(catalog: str, m: int, b: int) -> Decomposition:
    return xkeyword_decomposition(tss_of(catalog), m, b)


@lru_cache(maxsize=1)
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def assert_pinned(key: str, decomposition: Decomposition) -> None:
    expected = golden()[key]
    actual = pin(decomposition)
    assert actual["relations"] == expected["relations"], key
    assert actual["sha256"] == expected["sha256"], key


@pytest.mark.parametrize("catalog,m,b", CONFIGS, ids=CONFIG_IDS)
def test_xkeyword_fragments_pinned(catalog, m, b):
    assert_pinned(f"{catalog}/{m}/{b}/xkeyword", xkeyword_of(catalog, m, b))


@pytest.mark.parametrize("catalog,m,b", CONFIGS, ids=CONFIG_IDS)
def test_combined_fragments_pinned(catalog, m, b):
    decomposition = combined_decomposition(tss_of(catalog), m, b)
    assert_pinned(f"{catalog}/{m}/{b}/combined", decomposition)


@pytest.mark.parametrize("catalog,m,b", CONFIGS, ids=CONFIG_IDS)
def test_inlined_fragments_pinned(catalog, m, b):
    decomposition = inlined_only_decomposition(tss_of(catalog), m, b)
    assert_pinned(f"{catalog}/{m}/{b}/inlined", decomposition)


@pytest.mark.parametrize("catalog,m,b", CONFIGS, ids=CONFIG_IDS)
def test_inlined_derived_from_xkeyword_pinned(catalog, m, b):
    decomposition = inlined_only_from(xkeyword_of(catalog, m, b))
    assert_pinned(f"{catalog}/{m}/{b}/inlined", decomposition)


# An explicit ``networks`` list: a strided subset (rescuers must come
# from networks the list skips) and the full list in reverse (step 3's
# first-come choices change with the order).
EXPLICIT_NETWORKS = {
    "tpch/5/1/xkeyword-every-third": ("tpch", 5, 1, slice(None, None, 3)),
    "dblp/5/1/xkeyword-reversed": ("dblp", 5, 1, slice(None, None, -1)),
}


def explicit_networks_decomposition(key: str) -> Decomposition:
    catalog, m, b, picked = EXPLICIT_NETWORKS[key]
    tss = tss_of(catalog)
    networks = enumerate_networks(tss, m)[picked]
    return xkeyword_decomposition(tss, m, b, networks=networks)


@pytest.mark.parametrize("key", sorted(EXPLICIT_NETWORKS))
def test_explicit_networks_pinned(key):
    assert_pinned(key, explicit_networks_decomposition(key))


COVER_CATALOGS = ("dblp", "tpch", "xmark")


@lru_cache(maxsize=None)
def cover_universe(catalog: str):
    tss = tss_of(catalog)
    return enumerate_networks(tss, 5), enumerate_fragments(tss, 3)


@st.composite
def cover_cases(draw):
    catalog = draw(st.sampled_from(COVER_CATALOGS))
    networks, fragments = cover_universe(catalog)
    network = draw(st.sampled_from(networks))
    chosen = draw(
        st.lists(st.sampled_from(fragments), max_size=len(fragments), unique_by=id)
    )
    max_joins = draw(st.integers(min_value=0, max_value=3))
    return network, chosen, max_joins


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cover_cases())
def test_covers_with_joins_matches_min_cover(case):
    network, fragments, max_joins = case
    expected = min_cover(network, fragments, max_pieces=max_joins + 1) is not None
    assert covers_with_joins(network, fragments, max_joins) is expected


def regenerate() -> None:
    pins = {}
    for catalog, m, b in CONFIGS:
        tss = tss_of(catalog)
        pins[f"{catalog}/{m}/{b}/xkeyword"] = pin(xkeyword_of(catalog, m, b))
        pins[f"{catalog}/{m}/{b}/combined"] = pin(combined_decomposition(tss, m, b))
        pins[f"{catalog}/{m}/{b}/inlined"] = pin(inlined_only_decomposition(tss, m, b))
    for key in EXPLICIT_NETWORKS:
        pins[key] = pin(explicit_networks_decomposition(key))
    GOLDEN_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
