"""Cached plan shapes equal cold plans, and so do their shared prefixes.

The front-half cache keeps, per template CTSSN and anchor role, the
optimizer's cover and join order (:class:`repro.core.frontcache.PlanShape`).
That is exact only if every plan a search runs from a cached shape equals
what :meth:`Optimizer.plan` returns for a freshly reduced CTSSN: the same
anchor, the same steps and the same ``describe()``.  The shared-prefix
assignment must equal the one computed from those cold plans too.  A
recording verifier captures the plans and prefixes each search really
used; the checks run over random DBLP and TPC-H queries, and again on a
warm engine after live inserts and deletes.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.plans import DebugVerifier
from repro.core import (
    KeywordQuery,
    XKeyword,
    assign_shared_prefixes,
    reduce_to_ctssn,
)
from repro.decomposition import minimal_decomposition, xkeyword_decomposition
from repro.storage import load_database
from repro.storage.master_index import tokenize
from repro.updates import UpdateManager

from ..updates.conftest import build_dblp
from .test_equivalence import keyword_vocabulary, label_vocabulary

PLAN_CACHE_SETTINGS = settings(
    deadline=None,
    max_examples=20,
    suppress_health_check=[HealthCheck.too_slow],
)


class RecordingVerifier(DebugVerifier):
    """The ``debug_verify`` checker, remembering one search's plans and
    shared-prefix assignment."""

    def __init__(self) -> None:
        self.plans = []
        self.prefixes = []

    def check_plan(self, plan, stores) -> None:
        self.plans.append(plan)
        super().check_plan(plan, stores)

    def check_shared_prefix(self, plan, prefix) -> None:
        self.prefixes.append((plan, prefix))
        super().check_shared_prefix(plan, prefix)


def draw_query(data, vocabulary, count: int, max_z: int) -> KeywordQuery:
    """``count`` distinct keywords and a Z in ``4..max_z``: smaller Z
    leaves too few candidate networks to share prefixes."""
    keywords = data.draw(
        st.lists(st.sampled_from(vocabulary), min_size=count, max_size=count, unique=True)
    )
    return KeywordQuery(tuple(keywords), max_size=data.draw(st.integers(4, max_z)))


def plan_view(plan):
    return (plan.anchor_role, plan.steps, plan.describe())


def assert_plans_cold(engine: XKeyword, query: KeywordQuery, k: int = 10):
    """Search ``query`` on ``engine``; every plan it ran and its prefix
    assignment must equal cold planning of freshly reduced CTSSNs."""
    verifier = engine.verifier
    verifier.plans, verifier.prefixes = [], []
    result = engine.search(query, k=k, parallel=False)
    plans = verifier.plans
    position = {id(plan): index for index, plan in enumerate(plans)}
    used = {position[id(plan)]: spec for plan, spec in verifier.prefixes}

    containing = engine.containing_lists(query)
    cold = []
    for plan in plans:
        ctssn = reduce_to_ctssn(plan.ctssn.cn, engine.loaded.catalog.tss)
        assert ctssn.network is not plan.ctssn.network
        role_costs = {
            role: len(containing.allowed_tos(constraints))
            for role, constraints in ctssn.keyword_roles()
        }
        cold.append(engine.optimizer.plan(ctssn, role_costs))
    assert [plan_view(plan) for plan in plans] == [plan_view(plan) for plan in cold]
    assert used == assign_shared_prefixes(cold)
    metrics = result.metrics
    assert metrics.plan_cache_hits + metrics.plan_cache_misses == len(plans)
    return result


def assert_repeat_hits(engine: XKeyword, query: KeywordQuery, k: int = 10) -> None:
    """A repeated query finds every plan shape cached."""
    first = assert_plans_cold(engine, query, k)
    again = assert_plans_cold(engine, query, k)
    assert again.metrics.plan_cache_misses == 0
    assert again.metrics.plan_cache_hits == len(first.ctssns)


@pytest.fixture(scope="module")
def covered_dblp_db(small_dblp_graph, dblp):
    """Multi-edge fragments, so covers and join orders are real choices."""
    return load_database(
        small_dblp_graph,
        dblp,
        [xkeyword_decomposition(dblp.tss, 4, 1), minimal_decomposition(dblp.tss)],
    )


class TestCachedPlansEqualCold:
    @PLAN_CACHE_SETTINGS
    @given(data=st.data(), k=st.integers(min_value=1, max_value=25))
    def test_dblp_same_signature_queries(
        self, small_dblp_graph, covered_dblp_db, data, k
    ):
        """Author pairs share a signature, so the second query binds the
        first one's template; its plans hit or miss by anchor."""
        authors = label_vocabulary(small_dblp_graph, "aname")
        first = draw_query(data, authors, 2, max_z=8)
        second = KeywordQuery(
            draw_query(data, authors, 2, max_z=8).keywords, max_size=first.max_size
        )
        engine = XKeyword(covered_dblp_db, verifier=RecordingVerifier())
        assert_plans_cold(engine, first, k)
        assert_plans_cold(engine, second, k)
        assert_repeat_hits(engine, second, k)

    @PLAN_CACHE_SETTINGS
    @given(data=st.data(), k=st.integers(min_value=1, max_value=25))
    def test_dblp_random_queries(self, small_dblp_graph, small_dblp_db, data, k):
        engine = XKeyword(small_dblp_db, verifier=RecordingVerifier())
        vocabulary = keyword_vocabulary(small_dblp_graph)
        for count in (2, 2, 3):
            query = draw_query(data, vocabulary, count, max_z=6)
            assert_plans_cold(engine, query, k)

    @PLAN_CACHE_SETTINGS
    @given(data=st.data(), k=st.integers(min_value=1, max_value=25))
    def test_tpch_random_queries(self, small_tpch_graph, small_tpch_db, data, k):
        engine = XKeyword(small_tpch_db, verifier=RecordingVerifier())
        vocabulary = keyword_vocabulary(small_tpch_graph)
        for _ in range(3):
            query = draw_query(data, vocabulary, 2, max_z=6)
            assert_repeat_hits(engine, query, k)


class TestCachedPlansAfterLiveUpdates:
    def test_insert_and_delete_on_warm_engine(self):
        _, _, loaded = build_dblp()
        manager = UpdateManager(loaded)
        engine = XKeyword(loaded, verifier=RecordingVerifier())
        title_words = {
            word
            for node in loaded.graph.nodes()
            if node.label == "title" and node.value
            for word in tokenize(node.value)
        }
        authors = sorted(
            {
                word
                for node in loaded.graph.nodes()
                if node.label == "aname" and node.value
                for word in tokenize(node.value)
            }
            - title_words
        )
        queries = [
            KeywordQuery((authors[0], authors[1]), max_size=6),
            KeywordQuery((authors[2], authors[3]), max_size=6),
            KeywordQuery((authors[1], authors[4]), max_size=5),
        ]
        for query in queries:
            assert_repeat_hits(engine, query)

        manager.insert_document(
            f'<paper id="pc0" ref="a1 a2"><title id="pc0t">{authors[0]} revisited'
            '</title><pages id="pc0g">1-9</pages></paper>',
            parent_id="c0y1",
        )
        for query in queries:
            assert_plans_cold(engine, query)

        manager.delete_document("pc0")
        for query in queries:
            result = assert_plans_cold(engine, query)
            assert result.front_half_cache == "hit"
            assert result.metrics.plan_cache_misses == 0
