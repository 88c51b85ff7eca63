"""Ablation E9: cost of the decomposition algorithms themselves.

The Figure 12 algorithm runs once, at load time, but its cost grows
quickly with the network-size bound M (it enumerates every satisfiable
candidate TSS network of size up to M and solves a coverage problem per
network).  This ablation times the decomposition *selection* step the
paper's load stage performs, across M, for both example schemas.
DBLP at M = 6 / B = 2 is the decomposition the benchmark of record
(``perfbench/run.py``) builds before every run.

Run:  pytest benchmarks/bench_ablation_fig12_construction.py --benchmark-only
"""

from __future__ import annotations

import pytest

from repro.decomposition import xkeyword_decomposition
from repro.schema import dblp_catalog, tpch_catalog

CONFIGS = [
    ("dblp", 3, 1),
    ("dblp", 4, 1),
    ("dblp", 6, 2),
    ("tpch", 4, 1),
    ("tpch", 6, 2),
]


@pytest.mark.parametrize("catalog_name,m,b", CONFIGS)
def test_fig12_construction(benchmark, catalog_name, m, b):
    benchmark.group = "fig12-construction"
    benchmark.name = f"{catalog_name} M={m} B={b}"
    catalog = dblp_catalog() if catalog_name == "dblp" else tpch_catalog()

    def construct():
        return xkeyword_decomposition(catalog.tss, m, b).size

    size = benchmark.pedantic(construct, rounds=2, iterations=1)
    assert size > 0
