"""Property-based equivalence of the scheduling strategies and backends.

The scheduler's contract is exact: for any query and any K, the
``shared-prefix`` and ``shared-prefix+pruning`` strategies return the
*same ranked list* as the ``serial`` baseline (every CN evaluated
independently).  Prefix borrowing preserves per-CN row enumeration
order, and pruning only skips CNs whose score is strictly above the
k-th best collected score (ties always run), so the property holds with
equality on the full (canonical_key, assignment, score) triples — not
just on scores.

The execution backends extend the same contract: the Python nested-loop
executor is the oracle, and ``python-hash`` and ``sql`` (one compiled
statement per plan, executed inside SQLite) must reproduce its ranked
top-k bit for bit.  Both sides enumerate rows lexicographically in the
plan's binding order — the Python executor via its canonical candidate
sort, the SQL backend via ``ORDER BY`` under SQLite's BINARY collation —
so even the k-subset a >k-result CN contributes is identical.

The front-half cache (:mod:`repro.core.frontcache`) is held to the same
standard: an engine answering a query from a cached, keyword-abstract
template must return the CNs, CTSSNs and ranked MTTONs a fresh engine
and a direct ``CNGenerator`` + ``reduce_to_ctssn`` run produce.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.plans import DebugVerifier
from repro.core import (
    BACKENDS,
    CNGenerator,
    ContainingLists,
    ExecutorConfig,
    KeywordQuery,
    XKeyword,
    reduce_to_ctssn,
)
from repro.storage.master_index import tokenize

EQUIVALENCE_SETTINGS = settings(
    deadline=None,  # whole-pipeline searches vary too much for a deadline
    max_examples=20,
    suppress_health_check=[HealthCheck.too_slow],
)


_VOCABULARIES: dict[int, tuple[str, ...]] = {}


def keyword_vocabulary(graph) -> tuple[str, ...]:
    """Distinct single words appearing in the graph's leaf values
    (memoized per graph object — XMLGraph itself is not hashable)."""
    cached = _VOCABULARIES.get(id(graph))
    if cached is None:
        words = set()
        for node in graph.nodes():
            if node.value:
                words.update(word.lower() for word in node.value.split())
        cached = _VOCABULARIES[id(graph)] = tuple(sorted(words))
    return cached


def ranked(result):
    return [
        (m.ctssn.canonical_key, m.assignment, m.score) for m in result.mttons
    ]


def assert_strategies_agree(db, keywords, k, max_size, backend="python") -> None:
    query = KeywordQuery(tuple(keywords), max_size=max_size)
    engine = XKeyword(db)
    baseline = ranked(
        engine.search(
            query,
            k=k,
            config=ExecutorConfig(backend="python", strategy="serial"),
            parallel=False,
        )
    )
    optimized = ranked(
        engine.search(
            query,
            k=k,
            config=ExecutorConfig(
                backend=backend, strategy="shared-prefix+pruning"
            ),
            parallel=False,
        )
    )
    assert optimized == baseline


@pytest.mark.parametrize("backend", BACKENDS)
class TestDBLPEquivalence:
    @EQUIVALENCE_SETTINGS
    @given(data=st.data(), k=st.integers(min_value=1, max_value=25))
    def test_random_queries(
        self, small_dblp_graph, small_dblp_db, backend, data, k
    ):
        vocabulary = keyword_vocabulary(small_dblp_graph)
        keywords = data.draw(
            st.lists(
                st.sampled_from(vocabulary), min_size=2, max_size=2, unique=True
            )
        )
        max_size = data.draw(st.integers(min_value=2, max_value=6))
        assert_strategies_agree(
            small_dblp_db, keywords, k, max_size, backend=backend
        )


@pytest.mark.parametrize("backend", BACKENDS)
class TestTPCHEquivalence:
    @EQUIVALENCE_SETTINGS
    @given(data=st.data(), k=st.integers(min_value=1, max_value=25))
    def test_random_queries(
        self, small_tpch_graph, small_tpch_db, backend, data, k
    ):
        vocabulary = keyword_vocabulary(small_tpch_graph)
        keywords = data.draw(
            st.lists(
                st.sampled_from(vocabulary), min_size=2, max_size=2, unique=True
            )
        )
        max_size = data.draw(st.integers(min_value=2, max_value=6))
        assert_strategies_agree(
            small_tpch_db, keywords, k, max_size, backend=backend
        )


# ----------------------------------------------------------------------
# Cached-vs-cold front half

# Fewer examples than above: each one pays three cold generations (the
# direct generator, a fresh engine, the cached engine's miss) up to Z = 8.
CACHED_SETTINGS = settings(
    deadline=None,
    max_examples=6,
    suppress_health_check=[HealthCheck.too_slow],
)


def label_vocabulary(graph, label: str) -> tuple[str, ...]:
    """Index tokens of the graph's ``label`` leaves (each hits that node)."""
    words = set()
    for node in graph.nodes():
        if node.label == label and node.value:
            words.update(word for word in tokenize(node.value) if not word.isdigit())
    return tuple(sorted(words))


def network_view(networks):
    """Everything a CN's identity and order consist of."""
    return [
        (cn.canonical_key, cn.network.labels, cn.network.edges, cn.annotations)
        for cn in networks
    ]


def ctssn_view(ctssns):
    """Everything a CTSSN's identity and order consist of."""
    return [
        (
            ctssn.canonical_key,
            ctssn.network.labels,
            ctssn.network.edges,
            ctssn.annotations,
            ctssn.cn.canonical_key,
        )
        for ctssn in ctssns
    ]


def cold_front_half(db, query):
    """Stages 2-3 computed directly, bypassing every engine cache."""
    containing = ContainingLists.fetch(db.master_index, query)
    networks = CNGenerator(db.catalog.schema, containing.schema_nodes()).generate(query)
    return networks, [reduce_to_ctssn(cn, db.catalog.tss) for cn in networks]


def assert_cached_answers_cold(db, engine, query, k, backend):
    """Answer ``query`` twice on ``engine``; both answers must equal a
    fresh engine's and the direct generator's, the second from a hit."""
    config = ExecutorConfig(backend=backend)
    networks, ctssns = cold_front_half(db, query)
    fresh = XKeyword(db).search(query, k=k, config=config, parallel=False)
    answers = [
        engine.search(query, k=k, config=config, parallel=False) for _ in range(2)
    ]
    for answer in (fresh, *answers):
        assert network_view(answer.candidate_networks) == network_view(networks)
        assert ctssn_view(answer.ctssns) == ctssn_view(ctssns)
        assert ranked(answer) == ranked(fresh)
    if answers[0].front_half_cache is not None:
        assert answers[1].front_half_cache == "hit"
    return answers


def draw_query(data, vocabulary, count: int, max_z: int = 8) -> KeywordQuery:
    """``count`` distinct keywords and a Z in ``0..max_z`` (3-keyword
    generation at Z = 8 takes seconds per cold run, so those cells stop
    at 6)."""
    keywords = data.draw(
        st.lists(st.sampled_from(vocabulary), min_size=count, max_size=count, unique=True)
    )
    return KeywordQuery(tuple(keywords), max_size=data.draw(st.integers(0, max_z)))


@pytest.mark.parametrize("backend", BACKENDS)
class TestCachedFrontHalfEquivalence:
    @CACHED_SETTINGS
    @given(data=st.data(), k=st.integers(min_value=1, max_value=25))
    def test_swapped_keyword_order(
        self, small_dblp_graph, small_dblp_db, backend, data, k
    ):
        query = draw_query(data, label_vocabulary(small_dblp_graph, "aname"), 2)
        swapped = KeywordQuery(query.keywords[::-1], max_size=query.max_size)
        engine = XKeyword(small_dblp_db)
        assert_cached_answers_cold(small_dblp_db, engine, query, k, backend)
        assert_cached_answers_cold(small_dblp_db, engine, swapped, k, backend)

    @CACHED_SETTINGS
    @given(data=st.data(), k=st.integers(min_value=1, max_value=25))
    def test_different_schema_node_sets(
        self, small_dblp_graph, small_dblp_db, backend, data, k
    ):
        author = data.draw(st.sampled_from(label_vocabulary(small_dblp_graph, "aname")))
        titles = label_vocabulary(small_dblp_graph, "title")
        word = data.draw(st.sampled_from([t for t in titles if t != author]))
        query = KeywordQuery((author, word), max_size=data.draw(st.integers(0, 8)))
        engine = XKeyword(small_dblp_db)
        assert_cached_answers_cold(small_dblp_db, engine, query, k, backend)

    @CACHED_SETTINGS
    @given(data=st.data(), k=st.integers(min_value=1, max_value=25))
    def test_three_keywords(self, small_dblp_graph, small_dblp_db, backend, data, k):
        query = draw_query(data, keyword_vocabulary(small_dblp_graph), 3, max_z=6)
        engine = XKeyword(small_dblp_db)
        assert_cached_answers_cold(small_dblp_db, engine, query, k, backend)

    @CACHED_SETTINGS
    @given(data=st.data(), k=st.integers(min_value=1, max_value=25))
    def test_tpch_random_query(
        self, small_tpch_graph, small_tpch_db, backend, data, k
    ):
        query = draw_query(data, keyword_vocabulary(small_tpch_graph), 2, max_z=6)
        engine = XKeyword(small_tpch_db)
        assert_cached_answers_cold(small_tpch_db, engine, query, k, backend)

    @CACHED_SETTINGS
    @given(data=st.data(), k=st.integers(min_value=1, max_value=25))
    def test_debug_verify_checks_bound_networks_on_hit(
        self, small_dblp_graph, small_dblp_db, backend, data, k
    ):
        query = draw_query(data, label_vocabulary(small_dblp_graph, "aname"), 2)
        verifier = RecordingVerifier()
        engine = XKeyword(small_dblp_db, verifier=verifier)
        _, hit = assert_cached_answers_cold(small_dblp_db, engine, query, k, backend)
        # The second search's checks: every bound CN and CTSSN, by value.
        cns = verifier.cns[len(verifier.cns) // 2:]
        ctssns = verifier.ctssns[len(verifier.ctssns) // 2:]
        assert network_view(cns) == network_view(hit.candidate_networks)
        assert ctssn_view(ctssns) == ctssn_view(hit.ctssns)


class RecordingVerifier(DebugVerifier):
    """The ``debug_verify`` checker, remembering what it checked."""

    def __init__(self) -> None:
        self.cns = []
        self.ctssns = []

    def check_cn(self, cn, keywords) -> None:
        self.cns.append(cn)
        super().check_cn(cn, keywords)

    def check_ctssn(self, ctssn, keywords, tss_graph) -> None:
        self.ctssns.append(ctssn)
        super().check_ctssn(ctssn, keywords, tss_graph)
