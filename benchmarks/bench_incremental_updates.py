"""Incremental index maintenance vs. full reload (live-update subsystem).

The update manager (:mod:`repro.updates`) patches the master index,
connection relations, BLOBs, and statistics in place of rebuilding
them.  These benchmarks measure:

* the steady-state latency of one in-place document update;
* an insert+delete round trip (state-neutral, so one database serves
  every round);
* the full ``load_database`` rebuild the incremental path replaces.

The ratio of the last to the first is the headline number (>= 10x at
DBLP scale).  A *private* database is built here (same
:data:`common.SCALE`) because mutations would corrupt the memoized
shared one other benchmark modules reuse.

Each benchmark runs under two decompositions:

* ``minimal`` — single-edge relations (two roles, <= 10k rows each);
* ``xkeyword-6-2`` — ``xkeyword_decomposition(tss, 6, 2)``, the
  decomposition the benchmark of record (``perfbench/run.py``) loads,
  whose 2-6 role relations reach ~115k rows.  A delta read that scans a
  relation instead of searching its clustered rotation copy shows here
  and not under ``minimal``.

Run:  pytest benchmarks/bench_incremental_updates.py --benchmark-only
Smoke (every case once, no timing):
      pytest benchmarks/bench_incremental_updates.py --benchmark-disable -q
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import pytest

import common
from repro.decomposition import minimal_decomposition, xkeyword_decomposition
from repro.schema import dblp_catalog
from repro.storage import Database, load_database
from repro.updates import UpdateManager
from repro.workloads import DBLPConfig, generate_dblp

_counter = itertools.count()


DECOMPOSITIONS = {
    "minimal": lambda tss: minimal_decomposition(tss),
    "xkeyword-6-2": lambda tss: xkeyword_decomposition(
        tss, common.SCALE.max_network_size, common.SCALE.max_joins
    ),
}

by_decomposition = pytest.mark.parametrize("kind", sorted(DECOMPOSITIONS))


@lru_cache(maxsize=None)
def mutable_database(kind: str):
    """A private mutable load at benchmark scale: ``(catalog, decomps, loaded, manager)``."""
    catalog = dblp_catalog()
    graph = generate_dblp(
        DBLPConfig(
            papers=common.SCALE.papers,
            authors=common.SCALE.authors,
            avg_citations=common.SCALE.avg_citations,
            seed=common.SCALE.seed,
        )
    )
    decomps = [DECOMPOSITIONS[kind](catalog.tss)]
    loaded = load_database(graph, catalog, decomps)
    return catalog, decomps, loaded, UpdateManager(loaded)


def paper_update_xml(node_id: str) -> str:
    serial = next(_counter)
    return (
        f'<paper id="{node_id}" ref="a4 p3">'
        f'<title id="{node_id}t">incremental probe {serial}</title>'
        f'<pages id="{node_id}g">1-{serial % 40 + 1}</pages></paper>'
    )


@by_decomposition
def test_update_in_place(benchmark, kind):
    """Steady-state: replace one paper's subtree, epoch to epoch."""
    _, _, _, manager = mutable_database(kind)
    benchmark(lambda: manager.update_document("p9", paper_update_xml("p9")))


@by_decomposition
def test_insert_delete_cycle(benchmark, kind):
    """One insert plus the delete that undoes it (state-neutral)."""
    _, _, _, manager = mutable_database(kind)

    def cycle() -> None:
        node_id = f"bm{next(_counter)}"
        manager.insert_document(paper_update_xml(node_id), parent_id="c0y1")
        manager.delete_document(node_id)

    benchmark(cycle)


@by_decomposition
def test_full_reload(benchmark, kind):
    """The rebuild the incremental path replaces, same mutated graph."""
    catalog, decomps, loaded, _ = mutable_database(kind)
    benchmark(
        lambda: load_database(
            loaded.graph, catalog, decomps, database=Database()
        )
    )
