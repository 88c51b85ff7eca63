"""Thread-safety stress tests for the engine and storage layers."""

import random
import sys
import threading

import pytest

from repro.core import ContainingLists, KeywordQuery, ResultCache, XKeyword
from repro.core.frontcache import FRONT_HALF_CACHE_CAPACITY, front_half_signature

pytestmark = pytest.mark.stress


class TestConcurrentSearches:
    def test_parallel_topk_consistent(self, small_dblp_db):
        """The thread-pool top-k must produce valid, deduplicated
        results under repeated runs."""
        engine = XKeyword(small_dblp_db, threads=4)
        query = KeywordQuery.of("smith", "balmin", max_size=6)
        baseline = {
            (m.ctssn.canonical_key, m.assignment)
            for m in engine.search_all(query, parallel=False).mttons
        }
        for _ in range(5):
            parallel = engine.search_all(query, parallel=True)
            got = {
                (m.ctssn.canonical_key, m.assignment) for m in parallel.mttons
            }
            assert got == baseline

    def test_concurrent_engines_share_database(self, small_dblp_db):
        """Many threads querying one LoadedDatabase simultaneously."""
        engine = XKeyword(small_dblp_db)
        query = KeywordQuery.of("smith", "balmin", max_size=5)
        expected = {
            m.assignment for m in engine.search_all(query, parallel=False).mttons
        }
        failures: list[str] = []

        def worker() -> None:
            local = XKeyword(small_dblp_db)
            got = {
                m.assignment
                for m in local.search_all(query, parallel=False).mttons
            }
            if got != expected:
                failures.append(f"{len(got)} != {len(expected)}")

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures, failures

    def test_topk_cutoff_under_parallelism(self, small_dblp_db):
        engine = XKeyword(small_dblp_db, threads=4)
        query = KeywordQuery.of("smith", "balmin", max_size=6)
        for k in (1, 3, 7):
            result = engine.search(query, k=k, parallel=True)
            assert len(result.mttons) <= k
            # Results are always presented in ranking order, whatever
            # order the threads produced them in.
            assert result.scores() == sorted(result.scores())


class TestResultCacheThreadSafety:
    def test_concurrent_get_put_eviction(self):
        """The partial-result cache is shared by the per-CN thread pool
        (and by concurrent service requests): hammering it from many
        threads must neither raise nor overflow the capacity bound."""
        cache = ResultCache(capacity=64)
        errors: list[BaseException] = []

        def hammer(worker: int) -> None:
            try:
                for i in range(2000):
                    key = ("cn", worker % 3, i % 100)
                    hit = cache.get(key)
                    if hit is not None:
                        assert isinstance(hit, list)
                    cache.put(key, [{worker: f"to{i}"}])
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(w,)) for w in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        assert len(cache) <= 64

    def test_shared_lookup_cache_across_parallel_searches(self, small_dblp_db):
        """Concurrent engine searches sharing one database (the service
        pattern) agree with the serial baseline while the thread pools
        share and mutate their caches."""
        engine = XKeyword(small_dblp_db, threads=4)
        query = KeywordQuery.of("hristidis", "smith", max_size=6)
        expected = {
            m.assignment for m in engine.search_all(query, parallel=False).mttons
        }
        mismatches: list[str] = []

        def worker() -> None:
            got = {m.assignment for m in engine.search_all(query, parallel=True).mttons}
            if got != expected:
                mismatches.append(f"{len(got)} != {len(expected)}")

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not mismatches, mismatches


class TestFrontHalfCacheThreadSafety:
    def test_concurrent_searches_fill_cache_within_capacity(self, small_dblp_db):
        """8 threads search overlapping signatures on one engine: more
        distinct (signature, Z) pairs than the cache holds, so entries
        are added, hit and evicted concurrently.  Every answer must
        equal a fresh engine's, and the cache never outgrows its bound."""
        families = [
            ("smith", "balmin"),
            ("balmin", "smith"),
            ("smith", "xml"),
            ("xml", "smith"),
            ("xml", "query"),
            ("hristidis",),
            ("query",),
            ("vldb", "smith"),
        ]
        queries = [
            KeywordQuery(keywords, max_size=z) for keywords in families for z in range(6)
        ]

        def answer(result):
            return (
                [cn.canonical_key for cn in result.candidate_networks],
                [(m.ctssn.canonical_key, m.assignment) for m in result.mttons],
            )

        oracle = {
            query: answer(XKeyword(small_dblp_db).search(query, k=5, parallel=False))
            for query in queries
        }
        engine = XKeyword(small_dblp_db)
        failures: list[str] = []
        outcomes: list[str | None] = []
        plan_outcomes = {"hit": 0, "miss": 0}
        lock = threading.Lock()

        def worker(seed: int) -> None:
            order = list(queries)
            random.Random(seed).shuffle(order)
            try:
                for query in order:
                    result = engine.search(query, k=5, parallel=False)
                    size = len(engine.front_half_cache)
                    with lock:
                        outcomes.append(result.front_half_cache)
                        plan_outcomes["hit"] += result.metrics.plan_cache_hits
                        plan_outcomes["miss"] += result.metrics.plan_cache_misses
                        if answer(result) != oracle[query]:
                            failures.append(f"{query}: answer differs")
                        if size > FRONT_HALF_CACHE_CAPACITY:
                            failures.append(f"cache holds {size} entries")
            except BaseException as exc:  # noqa: BLE001
                with lock:
                    failures.append(repr(exc))

        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the cache's get/put races
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[:5]
        signatures = {
            front_half_signature(query, engine.containing_lists(query))
            for query in queries
        }
        assert len(signatures) > FRONT_HALF_CACHE_CAPACITY
        assert outcomes.count("hit") > 0 and outcomes.count("miss") > 0
        # Plan shapes are filled and read concurrently too.
        assert plan_outcomes["hit"] > 0 and plan_outcomes["miss"] > 0


class TestContainingListsThreadSafety:
    def test_allowed_tos_memo_under_contention(self, small_dblp_db):
        """16 threads ask one query's lists for the same role filters at
        once, as the per-CN pool does.  Every answer equals the cold
        computation, and each constraints tuple maps to one shared set."""
        engine = XKeyword(small_dblp_db)
        query = KeywordQuery.of("smith", "balmin", max_size=6)
        constraint_sets = sorted(
            {
                constraints
                for ctssn in engine.candidate_tss_networks(query)
                for _, constraints in ctssn.keyword_roles()
            },
            key=repr,
        )
        assert len(constraint_sets) > 2
        cold = ContainingLists.fetch(small_dblp_db.master_index, query)
        expected = {c: cold._compute_allowed(c) for c in constraint_sets}
        shared = ContainingLists.fetch(small_dblp_db.master_index, query)
        seen: list[dict] = []
        failures: list[str] = []
        lock = threading.Lock()

        def worker(seed: int) -> None:
            order = constraint_sets * 4
            random.Random(seed).shuffle(order)
            got = {}
            for constraints in order:
                allowed = shared.allowed_tos(constraints)
                if allowed != expected[constraints]:
                    with lock:
                        failures.append(f"{constraints}: wrong admission set")
                got.setdefault(constraints, set()).add(id(allowed))
            with lock:
                seen.append(got)

        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(16)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[:5]
        for constraints in constraint_sets:
            identities = set().union(*(got[constraints] for got in seen))
            assert identities == {id(shared.allowed_tos(constraints))}
