"""Tests for the streaming result interface (``XKeyword.search_streaming``)."""

import itertools

import pytest

from repro.core import KeywordQuery, XKeyword


@pytest.fixture(scope="module")
def engine(small_dblp_db):
    return XKeyword(small_dblp_db)


class TestStream:
    def test_stream_matches_search_all(self, engine):
        query = KeywordQuery.of("smith", "balmin", max_size=6)
        stream = engine.search_streaming(query, parallel=False, all_results=True)
        streamed = [(m.ctssn.canonical_key, m.assignment) for m in stream]
        collected = [
            (m.ctssn.canonical_key, m.assignment)
            for m in engine.search_all(query, parallel=False).mttons
        ]
        assert streamed == collected
        assert streamed

    def test_stream_is_lazy(self, engine):
        query = KeywordQuery.of("smith", "balmin", max_size=6)
        stream = engine.search_streaming(query, all_results=True)
        first_three = list(itertools.islice(stream, 3))
        stream.cancel()
        assert len(first_three) == 3
        assert stream.result(timeout=30).query == query

    def test_stream_block_ranking(self, engine):
        """Scores are non-decreasing: a later result never has a smaller
        score than an earlier one."""
        query = KeywordQuery.of("smith", "balmin", max_size=6)
        scores = [m.score for m in engine.search_streaming(query, all_results=True)]
        assert scores == sorted(scores)

    def test_stream_missing_keyword_empty(self, engine):
        stream = engine.search_streaming(KeywordQuery.of("zzzabsent", "smith"))
        assert list(stream) == []

    def test_stream_string_query(self, engine):
        assert list(itertools.islice(engine.search_streaming("smith"), 1))
