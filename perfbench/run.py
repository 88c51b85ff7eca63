"""XKeyword benchmark of record: keywords in, ranked MTTONs out, layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload topk-z8 --seed 1 --seconds 15 --trace 0

The benchmark is an outside client of the public API of ``src/repro``.
Every workload shares one set-up: a synthetic DBLP graph
(``generate_dblp``, 800 papers, 250 authors, 12 average citations, graph
seed = ``--seed``), the XKeyword decomposition (``xkeyword_decomposition``
with M = 6, B = 2) loaded by ``load_database`` into an in-memory SQLite
database, the default engine configuration, and one untimed operation of
each kind the workload issues (the first execution in a process pays a
one-time warm-up).  ``setup_s`` spans process start to the end of that
warm-up; it is measured once per run, since one set-up takes ~25 s.

Workloads (closed loop; one process, at most ``nproc`` client threads):

``topk-z8``
    One client streams co-author-pair queries (Z = 8) through
    ``XKeyword.search_streaming(k=10)``, round robin over a seeded pool.
    CN generation and planning dominate; execution is pruned by the
    top-k bound.  The pool is small (8) because each query's expected
    answer costs as much as the query.
``allres-z6``
    The same kind of pool at Z = 6 through
    ``search_streaming(all_results=True)``.  Execution dominates.  It runs
    here but is not gated in ``BENCHMARK.json``: with a ~25 s set-up per
    run, a third gated workload would leave too little measuring time per
    run for steady figures within a bounded total benchmarking time.
``rw-service``
    An in-process ``QueryService`` (default ``ServiceConfig``) driven by
    two clients.  In each, every seventh operation (14%) is a mutation,
    cycling insert -> title update -> delete of the client's own document
    so the database size stays level; the rest are ``search(k=10,
    max_size=6)`` drawn Zipf(4) over a 12-query pool that fits the result
    cache.  Every mutation invalidates the cached entries it touches, so
    the hit share settles near 70-75%, well away from 1/2: the median read
    is a cache hit and misses and mutations show in ``ops_per_s``.

Correctness.  At set-up every pool query's ranked answer, as
``(score, CN key, assignment)`` triples, is computed by a second engine
on the ``sql`` backend (the equivalence suites hold it byte-identical
to the ``python`` backend).  Every timed answer is compared with it; a
mismatch or an exception counts as a failed operation.  The documents
``rw-service`` mutates are single-author papers inside a conference year
of their own, so any result tree through one has at least seven target
objects and the Z = 6 pool answers cannot change; at the end of the run
the service's answer to each pool query is compared with a cold
``XKeyword.search`` on the mutated database and with the oracle.

Metrics.  ``--trace 0`` prints the end-to-end metrics:

* ``setup_s`` -- process start to ready, warm-up included.
* ``query_p50_ms`` -- median query latency.
* ``first_result_p50_ms`` -- median time until the consumer receives the
  first MTTON.  ``rw-service`` reads are buffered (``QueryService.search``
  returns the ranked list at once), so there it equals the read latency.
* ``ops_per_s`` -- completed timed operations per second.
* ``ok_ops_frac`` -- attempted operations that returned the right answer.
* ``peak_rss_mb`` -- peak resident set size of the process.
* ``db_bytes_per_input_byte`` -- SQLite ``page_count * page_size`` after
  the load over the size of the serialized XML.

``--trace 1`` runs the set-up stage by stage and the workload twice with
the same operations: once untraced, then traced.  On ``topk-z8`` and
``allres-z6`` the traced pass drives the pipeline through the public
stage calls (``containing_lists``, ``candidate_networks``,
``reduce_to_ctssn``, ``plan`` and ``CTSSNExecutor.run`` under the
engine's scheduler); on ``rw-service`` it wraps ``QueryService.search``
and the mutation calls and serves misses from that same staged
pipeline.  Spans (name, start, end, parent, query id) are kept in
memory, written to ``.perfbench_out/`` when the run ends, and reduced to
per-layer self times; counters come from ``ExecutionMetrics``, search
payloads and mutation reports.  Layers a workload does not reach report
0.  ``tracing_overhead_frac`` is (traced wall - untraced wall) /
untraced wall over the same operations.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the seed, ``nproc`` and the Python version.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from concurrent.futures import ThreadPoolExecutor  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("topk-z8", "allres-z6", "rw-service")
PINNED_ENV = ("REPRO_BACKEND", "REPRO_SHARDS", "REPRO_SANITIZE")
K = 10
RW_CLIENTS = 2
RW_MUTATION_EVERY = 7  # one rw-service operation in seven is a mutation
RW_ZIPF = 4.0  # read popularity exponent: hot query ~92% of reads


@dataclass(frozen=True)
class Scale:
    """Data and pool sizes; ``TINY`` exists for the benchmark's own test."""

    papers: int = 800
    authors: int = 250
    avg_citations: float = 12.0
    max_network_size: int = 6
    max_joins: int = 2
    topk_pool: int = 8
    allres_pool: int = 12
    rw_pool: int = 12


FULL = Scale()
TINY = Scale(
    papers=60, authors=24, avg_citations=3.0, max_network_size=4, max_joins=1,
    topk_pool=3, allres_pool=3, rw_pool=3,
)


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing program, pinned setting)."""


def load_program():
    """Put the checkout's ``src`` on the path and import the program."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"program source not found at {src}")
    sys.path.insert(0, str(src))
    import repro  # noqa: F401


# ----------------------------------------------------------------------
# Tracing: spans recorded by the benchmark around calls into each layer
# ----------------------------------------------------------------------
@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    query_id: int | None
    attrs: dict


class Spans:
    """In-memory span recorder; parents and query ids follow the thread."""

    def __init__(self) -> None:
        self.records: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, query_id: int | None = None, **attrs):
        parent = getattr(self._local, "current", None)
        inherited = getattr(self._local, "query_id", None)
        span_id = next(self._ids)
        self._local.current = span_id
        self._local.query_id = inherited if query_id is None else query_id
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._local.current = parent
            record = Span(
                span_id, name, start, end, parent, self._local.query_id, attrs
            )
            self._local.query_id = inherited
            with self._lock:
                self.records.append(record)

    def self_seconds(self) -> dict[str, list[float]]:
        """Per span name, each span's duration minus its children's cover."""
        children: dict[int, list[Span]] = {}
        for record in self.records:
            if record.parent is not None:
                children.setdefault(record.parent, []).append(record)
        result: dict[str, list[float]] = {}
        for record in self.records:
            covered, reach = 0.0, record.start
            kids = sorted(children.get(record.span_id, ()), key=lambda s: s.start)
            for kid in kids:
                start, end = max(kid.start, reach), min(kid.end, record.end)
                if end > start:
                    covered += end - start
                    reach = end
            result.setdefault(record.name, []).append(
                record.end - record.start - covered
            )
        return result

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for record in self.records:
                out.write(json.dumps(record.__dict__, default=str) + "\n")


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
@dataclass
class Setup:
    graph: object
    loaded: object
    layer_seconds: dict[str, float] = field(default_factory=dict)


def build(scale: Scale, seed: int, staged: bool) -> Setup:
    """Generate the graph, build the decomposition and load the database.

    ``staged`` calls the load stage's parts one by one, timing each;
    otherwise ``load_database`` runs as a user would call it.
    """
    from repro.decomposition import xkeyword_decomposition
    from repro.schema import dblp_catalog
    from repro.storage import load_database
    from repro.workloads import DBLPConfig, generate_dblp

    catalog = dblp_catalog()
    graph = generate_dblp(
        DBLPConfig(
            papers=scale.papers,
            authors=scale.authors,
            avg_citations=scale.avg_citations,
            seed=seed,
        )
    )
    seconds: dict[str, float] = {}
    started = time.perf_counter()
    decomposition = xkeyword_decomposition(
        catalog.tss, scale.max_network_size, scale.max_joins
    )
    seconds["decomposition.strategies"] = time.perf_counter() - started
    if not staged:
        return Setup(graph, load_database(graph, catalog, [decomposition]), seconds)
    return Setup(graph, staged_load(graph, catalog, decomposition, seconds), seconds)


def staged_load(graph, catalog, decomposition, seconds: dict[str, float]):
    """``load_database`` split at its layer boundaries, each one timed."""
    from repro.schema.validate import check_conformance
    from repro.storage import (
        BlobStore,
        Database,
        LoadedDatabase,
        LoadReport,
        MasterIndex,
        RelationStore,
        Statistics,
        build_target_object_graph,
    )

    def timed(layer, action):
        started = time.perf_counter()
        value = action()
        seconds[layer] = time.perf_counter() - started
        return value

    database = Database()
    report = LoadReport()
    timed("schema.validate", lambda: check_conformance(graph, catalog.schema))
    to_graph = timed(
        "storage.target_objects", lambda: build_target_object_graph(graph, catalog.tss)
    )
    master_index = MasterIndex(database)
    blobs = BlobStore(database)
    store = RelationStore(database, decomposition)

    def load_index():
        master_index.create()
        return master_index.load(graph, to_graph, catalog.text_nodes)

    def load_blobs():
        blobs.create()
        return blobs.load(graph, to_graph)

    def load_relations():
        store.create()
        return store.load(to_graph)

    report.index_entries = timed("storage.master_index", load_index)
    report.blobs = timed("storage.blobs", load_blobs)
    statistics_ = timed(
        "storage.statistics", lambda: Statistics.from_target_object_graph(to_graph)
    )
    report.relation_rows[decomposition.name] = timed(
        "storage.relations", load_relations
    )
    report.target_objects = to_graph.target_object_count
    report.edge_instances = to_graph.instance_count
    return LoadedDatabase(
        catalog=catalog,
        database=database,
        graph=graph,
        to_graph=to_graph,
        master_index=master_index,
        blobs=blobs,
        statistics=statistics_,
        stores={decomposition.name: store},
        report=report,
    )


def query_pool(graph, seed: int, size: int) -> list[tuple[str, str]]:
    """A seeded pool of co-author last-name pairs, stratified by cost.

    Candidates are the distinct last-name pairs of two authors of one
    paper (every such query has results at any Z >= 3).  Their cost
    follows the product of the two names' paper counts (the number of
    connecting trees grows with it), so the candidates are sorted by that
    product, cut into ``size`` equal strata, and one pair is drawn from
    the middle half of each: every seed's pool spans the same cost range.
    The pool is returned cheapest stratum first.
    """
    last_name = {}
    for node in graph.nodes():
        if node.label == "aname" and node.value:
            author = graph.containment_parent(node.node_id).node_id
            last_name[author] = node.value.split()[-1]
    papers_of: dict[str, int] = {}
    pairs = set()
    for node in graph.nodes():
        if node.label != "paper":
            continue
        names = [
            last_name[edge.target]
            for edge in graph.out_edges(node.node_id)
            if edge.is_reference and graph.node(edge.target).label == "author"
        ]
        for name in names:
            papers_of[name] = papers_of.get(name, 0) + 1
        if len(names) >= 2 and names[0] != names[1]:
            pairs.add(tuple(sorted(names[:2])))
    ranked = sorted(pairs, key=lambda p: (papers_of[p[0]] * papers_of[p[1]], p))
    rng = random.Random(seed)
    size = min(size, len(ranked))
    pool = []
    for index in range(size):
        stratum = ranked[len(ranked) * index // size: len(ranked) * (index + 1) // size]
        quarter = len(stratum) // 4
        pool.append(rng.choice(stratum[quarter: len(stratum) - quarter]))
    return pool


def spread_order(items: list) -> list:
    """Reorder cost-sorted items by a golden-ratio stride.

    Any run of consecutive items then samples the whole cost range, so a
    run that stops part way through a pass still issues a balanced mix.
    """
    count = len(items)
    stride = max(1, round(count * 0.618))
    while math.gcd(stride, count) != 1:
        stride += 1
    return [items[(index * stride) % count] for index in range(count)]


def answer_key(mttons) -> list[tuple]:
    return [(m.score, m.ctssn.canonical_key, m.assignment) for m in mttons]


def payload_key(payload: dict) -> list[tuple]:
    return [
        (
            item["score"],
            item["network"],
            tuple((node["role"], node["target_object"]) for node in item["nodes"]),
        )
        for item in payload["results"]
    ]


def oracle(loaded, queries, all_results: bool) -> dict:
    """Expected ranked answers, computed on the ``sql`` backend."""
    from repro.core import ExecutorConfig, XKeyword

    engine = XKeyword(loaded, executor_config=ExecutorConfig(backend="sql"))
    expected = {}
    for query in queries:
        if all_results:
            result = engine.search_all(query)
        else:
            result = engine.search(query, k=K)
        expected[query] = answer_key(result.mttons)
    return expected


# ----------------------------------------------------------------------
# Staged pipeline (traced runs): the engine's scheduler over public calls
# ----------------------------------------------------------------------
@dataclass
class StageCounts:
    target_objects: int = 0
    networks: int = 0
    joins: int = 0
    cns: int = 0
    metrics: object = None


def staged_search(engine, query, limit, spans: Spans, counts: list):
    """Run one query stage by stage, recording a span per layer.

    Mirrors ``XKeyword.search``/``search_all`` on an unsharded engine:
    CNs ordered by (score, estimated results, key), shared join prefixes,
    the global top-k bound, one executor per CN on the engine's pool.
    """
    from repro.core import (
        CTSSNExecutor,
        ExecutionMetrics,
        ResultCache,
        SharedPrefixTable,
        TopKBound,
        assign_shared_prefixes,
        materialize,
        reduce_to_ctssn,
    )

    config = engine.executor_config
    stage = StageCounts(metrics=ExecutionMetrics())
    counts.append(stage)
    with spans.span("core.matching"):
        containing = engine.containing_lists(query)
    stage.target_objects = sum(len(tos) for tos in containing.keyword_tos.values())
    if any(not containing.keyword_tos[k] for k in query.keywords):
        return [], frozenset(), [], [], stage
    with spans.span("core.cn_generator"):
        networks = engine.candidate_networks(query, containing)
    stage.networks = len(networks)
    with spans.span("core.ctssn"):
        ctssns = [reduce_to_ctssn(cn, engine.loaded.catalog.tss) for cn in networks]
    with spans.span("core.optimizer"):
        role_costs = {
            c.canonical_key: {
                role: len(containing.allowed_tos(constraints))
                for role, constraints in c.keyword_roles()
            }
            for c in ctssns
        }
        estimates = {
            c.canonical_key: engine.optimizer.estimate_results(
                c, role_costs[c.canonical_key]
            )
            for c in ctssns
        }
        ordered = sorted(
            ctssns, key=lambda c: (c.score, estimates[c.canonical_key], c.canonical_key)
        )
        planned = [(c, engine.plan(c, containing)) for c in ordered]
    stage.cns = len(planned)
    stage.joins = sum(plan.join_count for _, plan in planned)
    with spans.span("core.execution"):
        prefixes = {}
        prefix_table = None
        if config.share_prefixes:
            prefixes = assign_shared_prefixes([plan for _, plan in planned])
            if prefixes:
                prefix_table = SharedPrefixTable()
        bound = TopKBound(limit) if config.prune_by_bound and limit is not None else None
        lookup_cache = ResultCache(config.cache_capacity)
        collected = []
        lock = threading.Lock()

        def evaluate(index: int):
            ctssn, plan = planned[index]
            local = ExecutionMetrics()
            lower = engine.optimizer.score_lower_bound(ctssn)
            if bound is not None and not bound.admits(lower):
                local.cns_pruned += 1
                return local
            executor = CTSSNExecutor(
                plan,
                engine.stores,
                containing,
                config=config,
                metrics=local,
                lookup_cache=lookup_cache,
                observer=engine.hooks.observer,
                prefix=prefixes.get(index),
                prefix_table=prefix_table,
            )
            for row in executor.run(limit=limit):
                mtton = materialize(ctssn, row, engine.loaded.to_graph)
                with lock:
                    collected.append(mtton)
                if bound is not None:
                    bound.add(mtton.score)
                    if not bound.admits(lower):
                        break
            return local

        if len(planned) > 1:
            with ThreadPoolExecutor(max_workers=engine.threads) as pool:
                for local in pool.map(evaluate, range(len(planned))):
                    stage.metrics.merge(local)
        else:
            for index in range(len(planned)):
                stage.metrics.merge(evaluate(index))
        collected.sort(key=lambda m: (m.score, m.ctssn.canonical_key, m.assignment))
        if limit is not None:
            collected = collected[:limit]
    relations = frozenset(n for _, plan in planned for n in plan.relations_used())
    return collected, relations, networks, ctssns, stage


def staged_engine_class():
    """An ``XKeyword`` whose searches run :func:`staged_search` (rw-service)."""
    from repro.core import SearchResult, XKeyword

    class StagedXKeyword(XKeyword):
        def __init__(self, loaded, spans: Spans, counts: list, **kwargs) -> None:
            super().__init__(loaded, **kwargs)
            self.spans = spans
            self.counts = counts

        def search(self, query, k=10, config=None, parallel=True, *, stream=None, **_):
            return self._staged(query, k, stream)

        def search_all(self, query, config=None, parallel=False, stream=None):
            return self._staged(query, None, stream)

        def _staged(self, query, limit, stream):
            query = self._coerce(query)
            with self.spans.span("core.pipeline"):
                mttons, relations, networks, ctssns, stage = staged_search(
                    self, query, limit, self.spans, self.counts
                )
            result = SearchResult(query, mttons, stage.metrics, networks, ctssns)
            result.relations_used = relations
            result.epoch = getattr(self.loaded, "epoch", 0)
            if stream is not None:
                stream.complete(result)
            return result

    return StagedXKeyword


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@dataclass
class Tally:
    """What a measured pass did: latencies, failures and layer counters."""

    query_s: list[float] = field(default_factory=list)
    first_s: list[float] = field(default_factory=list)
    mutation_s: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    reads_cached: int = 0
    reads_shared: int = 0
    read_hit_s: list[float] = field(default_factory=list)
    read_miss_s: list[float] = field(default_factory=list)
    keywords_touched: list[int] = field(default_factory=list)
    entries_dropped: list[int] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def attempt(self) -> None:
        with self.lock:
            self.attempted += 1

    def fail(self, why: str) -> None:
        with self.lock:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(why)

    @property
    def ops(self) -> int:
        return len(self.query_s) + sum(len(v) for v in self.mutation_s.values())


class StreamWorkload:
    """``topk-z8`` / ``allres-z6``: one client, streamed ranked answers."""

    def __init__(self, name: str, scale: Scale, setup: Setup, seed: int) -> None:
        from repro.core import KeywordQuery, XKeyword

        self.all_results = name == "allres-z6"
        max_size = 6 if self.all_results else 8
        size = scale.allres_pool if self.all_results else scale.topk_pool
        pairs = spread_order(query_pool(setup.graph, seed, size))
        self.pool = [KeywordQuery(pair, max_size=max_size) for pair in pairs]
        self.engine = XKeyword(setup.loaded)
        self.limit = None if self.all_results else K
        self.expected: dict = {}

    def warm_up(self) -> None:
        self.run_one(self.pool[0], Tally(), check=False)

    def compute_expected(self, loaded) -> None:
        self.expected = oracle(loaded, self.pool, self.all_results)

    def run_one(self, query, tally: Tally, check: bool = True) -> None:
        tally.attempt()
        started = time.perf_counter()
        first = None
        received = []
        try:
            stream = self.engine.search_streaming(
                query, k=K, all_results=self.all_results
            )
            for mtton in stream:
                if first is None:
                    first = time.perf_counter() - started
                received.append(mtton)
        except Exception as exc:  # noqa: BLE001 - a failed operation, counted
            tally.fail(f"{query.keywords}: {exc!r}")
            return
        tally.query_s.append(time.perf_counter() - started)
        if first is not None:
            tally.first_s.append(first)
        if check and answer_key(received) != self.expected[query]:
            tally.fail(f"{query.keywords}: answer differs from the oracle")

    def measure(self, seconds: float, tally: Tally) -> int:
        """Run round robin over the pool; returns the operations issued."""
        started = time.perf_counter()
        deadline = started + seconds
        issued = 0
        while time.perf_counter() < deadline:
            self.run_one(self.pool[issued % len(self.pool)], tally)
            issued += 1
        tally.wall_s = time.perf_counter() - started
        return issued

    def measure_traced(self, ops: int, tally: Tally, spans: Spans, counts: list):
        started = time.perf_counter()
        for index in range(ops):
            query = self.pool[index % len(self.pool)]
            tally.attempt()
            op_started = time.perf_counter()
            try:
                with spans.span("core.pipeline", query_id=index):
                    mttons, *_ = staged_search(
                        self.engine, query, self.limit, spans, counts
                    )
            except Exception as exc:  # noqa: BLE001 - a failed operation, counted
                tally.fail(f"{query.keywords}: {exc!r}")
                continue
            tally.query_s.append(time.perf_counter() - op_started)
            if answer_key(mttons) != self.expected[query]:
                tally.fail(f"{query.keywords}: staged answer differs from the oracle")
        tally.wall_s = time.perf_counter() - started

    def finish(self, tally: Tally) -> None:
        """Nothing is mutated, so every answer was checked in flight."""


class ServiceWorkload:
    """``rw-service``: reads and mutations against one ``QueryService``."""

    def __init__(self, scale: Scale, setup: Setup, seed: int) -> None:
        from repro.core import KeywordQuery

        self.seed = seed
        self.loaded = setup.loaded
        # Popularity rank follows the golden-ratio stride from the median
        # stratum, so the hot query is of typical cost on every seed.
        pairs = query_pool(setup.graph, seed, scale.rw_pool)
        middle = len(pairs) // 2
        pairs = spread_order(pairs[middle:] + pairs[:middle])
        self.pool = [KeywordQuery(pair, max_size=6) for pair in pairs]
        weights = [1.0 / (rank + 1) ** RW_ZIPF for rank in range(len(pairs))]
        self.weights = [w / sum(weights) for w in weights]
        graph = setup.graph
        self.conferences = sorted(
            n.node_id for n in graph.nodes() if n.label == "conference"
        )
        author_of = {}
        for node in graph.nodes():
            if node.label == "aname" and node.value:
                author = graph.containment_parent(node.node_id).node_id
                author_of.setdefault(node.value.split()[-1], author)
        self.pool_authors = sorted({author_of[name] for pair in pairs for name in pair})
        self.service = self.new_service()
        self.expected: dict = {}
        self.serial = itertools.count()
        self.op_ids = itertools.count()

    def new_service(self, engine_factory=None):
        from repro.service import QueryService

        return QueryService(self.loaded, engine_factory=engine_factory)

    def compute_expected(self, loaded) -> None:
        self.expected = oracle(loaded, self.pool, all_results=False)

    def warm_up(self) -> None:
        rng = random.Random(f"{self.seed}/warm-up")
        tally = Tally()
        self.read(self.pool[0], tally, check=False)
        client = _Client(self, rng, tally, "w")
        for _ in range(3):
            client.mutate()

    def read(self, query, tally: Tally, check: bool = True, spans: Spans | None = None):
        tally.attempt()
        started = time.perf_counter()
        try:
            if spans is None:
                payload = self.service.search(list(query.keywords), k=K, max_size=6)
            else:
                with spans.span("service.server", next(self.op_ids)) as attrs:
                    payload = self.service.search(list(query.keywords), k=K, max_size=6)
                    attrs["cached"] = payload["cached"]
        except Exception as exc:  # noqa: BLE001 - a failed operation, counted
            tally.fail(f"{query.keywords}: {exc!r}")
            return
        seconds = time.perf_counter() - started
        with tally.lock:
            tally.query_s.append(seconds)
            tally.first_s.append(seconds)
            if payload["cached"]:
                tally.reads_cached += 1
                tally.read_hit_s.append(seconds)
            else:
                tally.read_miss_s.append(seconds)
                tally.reads_shared += bool(payload["shared"])
        if check and payload_key(payload) != self.expected[query]:
            tally.fail(f"{query.keywords}: answer differs from the oracle")

    def run_clients(self, tally: Tally, seconds: float | None, ops: list[int] | None,
                    spans: Spans | None = None) -> list[int]:
        """Run the clients; returns how many operations each completed."""
        deadline = time.perf_counter() + (seconds or 0.0)
        done = [0] * RW_CLIENTS
        errors: list[BaseException] = []

        def client_loop(index: int) -> None:
            rng = random.Random(f"{self.seed}/client{index}")
            client = _Client(self, rng, tally, str(index), spans)
            try:
                while True:
                    if ops is not None and done[index] >= ops[index]:
                        break
                    if ops is None and time.perf_counter() >= deadline:
                        break
                    client.step()
                    done[index] += 1
                client.clean_up()
            except BaseException as exc:  # noqa: BLE001 - re-raised on the main thread
                errors.append(exc)

        started = time.perf_counter()
        threads = [
            threading.Thread(target=client_loop, args=(i,), name=f"client{i}")
            for i in range(RW_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        tally.wall_s = time.perf_counter() - started
        if errors:
            raise errors[0]
        return done

    def measure(self, seconds: float, tally: Tally) -> list[int]:
        return self.run_clients(tally, seconds, None)

    def measure_traced(self, ops: list[int], tally: Tally, spans: Spans, counts: list):
        from repro.core import ExecutorConfig
        from repro.service import ServiceConfig

        staged = staged_engine_class()
        self.service.close()
        self.service = self.new_service(
            lambda db, hooks: staged(
                db,
                spans,
                counts,
                executor_config=ExecutorConfig(strategy=ServiceConfig().strategy),
                threads=ServiceConfig().engine_threads,
                hooks=hooks,
            )
        )
        self.run_clients(tally, None, ops, spans)

    def finish(self, tally: Tally) -> None:
        """Compare the service's answers with a cold search and the oracle."""
        from repro.core import XKeyword

        cold = XKeyword(self.service.loaded)
        for query in self.pool:
            tally.attempt()
            try:
                served = payload_key(
                    self.service.search(list(query.keywords), k=K, max_size=6)
                )
                fresh = answer_key(cold.search(query, k=K).mttons)
            except Exception as exc:  # noqa: BLE001 - a failed check, counted
                tally.fail(f"final {query.keywords}: {exc!r}")
                continue
            if served != fresh:
                tally.fail(f"final {query.keywords}: service differs from cold search")
            elif fresh != self.expected[query]:
                tally.fail(f"final {query.keywords}: cold search differs from oracle")
        self.service.close()


class _Client:
    """One closed-loop ``rw-service`` client and the documents it owns."""

    def __init__(self, workload: ServiceWorkload, rng: random.Random, tally: Tally,
                 tag: str, spans: Spans | None = None) -> None:
        self.workload = workload
        self.rng = rng
        self.tally = tally
        self.tag = tag
        self.spans = spans
        self.live: str | None = None
        self.revised = False
        self.steps = rng.randrange(RW_MUTATION_EVERY)
        self.author = ""
        self.parent = ""

    def step(self) -> None:
        workload = self.workload
        self.steps += 1
        if self.steps % RW_MUTATION_EVERY == 0:
            self.mutate()
        else:
            query = self.rng.choices(workload.pool, workload.weights)[0]
            workload.read(query, self.tally, spans=self.spans)

    def document(self, doc_id: str, revision: int) -> str:
        """A conference year holding one single-author paper, no citations."""
        return (
            f'<confyear id="{doc_id}">2099<paper id="{doc_id}p" ref="{self.author}">'
            f'<title id="{doc_id}t">perfbench revision r{revision}</title>'
            f'<pages id="{doc_id}g">1-{revision % 40 + 2}</pages></paper></confyear>'
        )

    def mutate(self) -> None:
        """Insert, then update the title, then delete: the size stays level."""
        workload = self.workload
        serial = next(workload.serial)
        if self.live is None:
            op = "insert"
            doc_id = f"bq{self.tag}x{serial}"
            self.author = self.rng.choice(workload.pool_authors)
            self.parent = self.rng.choice(workload.conferences)
        elif self.revised:
            op, doc_id = "delete", self.live
        else:
            op, doc_id = "update", self.live
        service = workload.service
        actions = {
            "insert": lambda: service.insert_document(
                self.document(doc_id, serial), parent_id=self.parent
            ),
            "update": lambda: service.update_document(
                doc_id, self.document(doc_id, serial)
            ),
            "delete": lambda: service.delete_document(doc_id),
        }
        self.tally.attempt()
        started = time.perf_counter()
        try:
            if self.spans is None:
                report = actions[op]()
            else:
                with self.spans.span("updates.manager", next(workload.op_ids), op=op):
                    report = actions[op]()
        except Exception as exc:  # noqa: BLE001 - a failed operation, counted
            self.tally.fail(f"{op} {doc_id}: {exc!r}")
            return
        seconds = time.perf_counter() - started
        with self.tally.lock:
            self.tally.mutation_s.setdefault(op, []).append(seconds)
            self.tally.keywords_touched.append(len(report["keywords_touched"]))
            self.tally.entries_dropped.append(report["cache_entries_dropped"])
        self.live = None if op == "delete" else doc_id
        self.revised = op == "update"

    def clean_up(self) -> None:
        """Delete the client's last document so runs end at the start size.

        At most an update and a delete remain; a failed one is counted and
        not retried, so a broken mutation path cannot hang the run.
        """
        for _ in range(2):
            if self.live is None:
                break
            self.mutate()


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def median_ms(values: list[float]) -> float:
    return statistics.median(values) * 1000.0 if values else 0.0


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(tally: Tally, setup_s: float, space: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "query_p50_ms": (median_ms(tally.query_s), "ms"),
        "first_result_p50_ms": (median_ms(tally.first_s), "ms"),
        "ops_per_s": (tally.ops / tally.wall_s, "1/s"),
        "ok_ops_frac": ((tally.attempted - tally.failed) / tally.attempted, "frac"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "db_bytes_per_input_byte": (space, "ratio"),
    }


def per_layer_metrics(setup: Setup, spans: Spans, counts: list, tally: Tally,
                      overhead: float) -> dict:
    loaded = setup.loaded
    self_s = spans.self_seconds()

    def layer_ms(name: str) -> float:
        return mean(self_s.get(name, ())) * 1000.0

    executed = [c.metrics for c in counts]
    hits = sum(m.cache_hits for m in executed)
    lookups = hits + sum(m.cache_misses for m in executed)
    cns = sum(c.cns for c in counts)
    reads = len(tally.query_s)
    misses = len(tally.read_miss_s)
    mutation = tally.mutation_s
    return {
        "decomposition.strategies.build_s": (
            setup.layer_seconds["decomposition.strategies"], "s"),
        "storage.target_objects.s": (setup.layer_seconds["storage.target_objects"], "s"),
        "storage.master_index.s": (setup.layer_seconds["storage.master_index"], "s"),
        "storage.blobs.s": (setup.layer_seconds["storage.blobs"], "s"),
        "storage.relations.s": (setup.layer_seconds["storage.relations"], "s"),
        "storage.relations.rows": (loaded.report.total_relation_rows(
            next(iter(loaded.stores))), "count"),
        "storage.db_bytes": (loaded.database.total_bytes(), "B"),
        "core.pipeline.ms": (mean(
            (s.end - s.start) * 1000.0 for s in spans.records if s.name == "core.pipeline"
        ), "ms"),
        "core.matching.ms": (layer_ms("core.matching"), "ms"),
        "core.matching.target_objects": (mean(c.target_objects for c in counts), "count"),
        "core.cn_generator.ms": (layer_ms("core.cn_generator"), "ms"),
        "core.cn_generator.networks": (mean(c.networks for c in counts), "count"),
        "core.ctssn.ms": (layer_ms("core.ctssn"), "ms"),
        "core.optimizer.ms": (layer_ms("core.optimizer"), "ms"),
        "core.optimizer.joins": (mean(c.joins for c in counts), "count"),
        "core.execution.ms": (layer_ms("core.execution"), "ms"),
        "core.execution.queries_sent": (mean(m.queries_sent for m in executed), "count"),
        "core.execution.rows_fetched": (mean(m.rows_fetched for m in executed), "count"),
        "core.execution.lookup_hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "core.execution.cns_pruned_ratio": (
            sum(m.cns_pruned for m in executed) / cns if cns else 0.0, "ratio"),
        "core.execution.results": (mean(m.results for m in executed), "count"),
        "service.cache.hit_ratio": (tally.reads_cached / reads if reads else 0.0, "ratio"),
        "service.server.hit_ms": (mean(tally.read_hit_s) * 1000.0, "ms"),
        "service.server.miss_ms": (mean(tally.read_miss_s) * 1000.0, "ms"),
        "service.singleflight.shared_ratio": (
            tally.reads_shared / misses if misses else 0.0, "ratio"),
        "updates.manager.insert_ms": (mean(mutation.get("insert", ())) * 1000.0, "ms"),
        "updates.manager.update_ms": (mean(mutation.get("update", ())) * 1000.0, "ms"),
        "updates.manager.delete_ms": (mean(mutation.get("delete", ())) * 1000.0, "ms"),
        "updates.manager.keywords_touched": (mean(tally.keywords_touched), "count"),
        "updates.manager.cache_entries_dropped": (mean(tally.entries_dropped), "count"),
        "tracing_overhead_frac": (overhead, "frac"),
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run(workload_name: str, seed: int, seconds: float, trace: bool,
        scale: Scale = FULL) -> dict:
    """One benchmark run; returns the result object printed last."""
    for name in PINNED_ENV:
        if os.environ.get(name):
            raise BenchmarkError(f"{name} is set; unset it to measure the default program")
    if workload_name not in WORKLOADS:
        raise BenchmarkError(f"unknown workload {workload_name!r}; expected {WORKLOADS}")
    load_program()
    from repro.xmlgraph import serialize_graph

    setup = build(scale, seed, staged=trace)
    if workload_name == "rw-service":
        workload = ServiceWorkload(scale, setup, seed)
    else:
        workload = StreamWorkload(workload_name, scale, setup, seed)
    workload.warm_up()
    setup_s = time.perf_counter() - STARTED

    space = setup.loaded.database.total_bytes() / len(
        serialize_graph(setup.graph).encode()
    )
    workload.compute_expected(setup.loaded)

    tally = Tally()
    if not trace:
        workload.measure(seconds, tally)
        workload.finish(tally)
        metrics = end_to_end_metrics(tally, setup_s, space)
    else:
        untraced = Tally()
        done = workload.measure(seconds / 2, untraced)
        spans, counts = Spans(), []
        workload.measure_traced(done, tally, spans, counts)
        workload.finish(tally)
        tally.attempted += untraced.attempted
        tally.failed += untraced.failed
        tally.errors.extend(untraced.errors)
        overhead = (tally.wall_s - untraced.wall_s) / untraced.wall_s
        metrics = per_layer_metrics(setup, spans, counts, tally, overhead)
        spans.write(OUT_DIR / f"spans-{workload_name}-{seed}.jsonl")
    for error in tally.errors:
        print(f"failed: {error}", file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: a few-second smoke size for the benchmark's test")
    args = parser.parse_args(argv)
    scale = TINY if args.scale == "tiny" else FULL
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), scale)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({
        "run": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "scale": args.scale,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
        }
    }))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
