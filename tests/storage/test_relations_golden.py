"""Golden contents of every physical connection-relation table.

The load stage (paper §5.1) materializes one connection relation per
fragment, physically organized by the decomposition's
:class:`~repro.decomposition.IndexPolicy` (clustered rotation copies,
indexed heap, or plain heap).  A faster load or a different way of
filling the rotation copies must leave every table's contents exactly as
they were.  This suite pins, per case, each physical table's name and a
SHA-256 of its sorted rows, for a TPC-H and a DBLP graph under all three
policies plus the XKeyword decomposition at ``(M, B) = (4, 1)``.

Regenerate after an *intended* change to what the load stores with::

    PYTHONPATH=src python tests/storage/test_relations_golden.py
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path

import pytest

from repro.decomposition import IndexPolicy, minimal_decomposition, xkeyword_decomposition
from repro.schema import get_catalog
from repro.storage import load_database
from repro.workloads import DBLPConfig, TPCHConfig, generate_dblp, generate_tpch

GOLDEN_PATH = Path(__file__).with_name("relations_golden.json")

POLICIES = {
    "all-rotations": IndexPolicy.ALL_ROTATIONS,
    "single-column-indexes": IndexPolicy.SINGLE_COLUMN_INDEXES,
    "none": IndexPolicy.NONE,
}

CASES = [
    f"{catalog}/{variant}"
    for catalog in ("tpch", "dblp")
    for variant in (*(f"minimal-{name}" for name in POLICIES), "xkeyword-4-1")
]


@lru_cache(maxsize=None)
def graph_of(catalog: str):
    if catalog == "dblp":
        return generate_dblp(DBLPConfig(papers=60, authors=30, avg_citations=3.0, seed=3))
    return generate_tpch(TPCHConfig(persons=10, seed=5))


def decomposition_of(case: str):
    catalog, variant = case.split("/")
    tss = get_catalog(catalog).tss
    if variant == "xkeyword-4-1":
        return xkeyword_decomposition(tss, 4, 1)
    return minimal_decomposition(tss, POLICIES[variant.removeprefix("minimal-")])


def pin(case: str) -> dict:
    """``{table: {"rows": n, "sha256": digest}}`` for every physical table."""
    catalog = case.split("/")[0]
    decomposition = decomposition_of(case)
    loaded = load_database(graph_of(catalog), get_catalog(catalog), [decomposition])
    store = loaded.store(decomposition.name)
    pins = {}
    for fragment in decomposition.fragments:
        for table in store.physical_tables(fragment):
            rows = sorted(
                loaded.database.query(
                    f"SELECT {', '.join(table.columns)} FROM {table.name}"
                )
            )
            serialized = json.dumps(rows, separators=(",", ":")).encode()
            pins[table.name] = {
                "rows": len(rows),
                "sha256": hashlib.sha256(serialized).hexdigest(),
            }
    loaded.database.close()
    return pins


@lru_cache(maxsize=1)
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("case", CASES)
def test_relation_tables_pinned(case):
    expected = golden()[case]
    actual = pin(case)
    assert sorted(actual) == sorted(expected), case
    for table, digest in expected.items():
        assert actual[table] == digest, f"{case}: {table}"


def regenerate() -> None:
    pins = {case: pin(case) for case in CASES}
    GOLDEN_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
