"""Tests for the shared ContinuousEngine interface behaviour."""

from __future__ import annotations

import pytest

from repro import ENGINE_FACTORIES, add, create_engine, delete
from repro.core.engine import ContinuousEngine
from repro.graph import GraphStream
from repro.graph.errors import DuplicateQueryError, UnknownQueryError
from repro.query import QueryBuilder

ALL_ENGINE_NAMES = list(ENGINE_FACTORIES)


@pytest.fixture(params=ALL_ENGINE_NAMES)
def engine(request):
    return create_engine(request.param)


class TestQueryManagement:
    def test_queries_property_reflects_registrations(self, engine, checkin_query):
        assert engine.num_queries == 0
        engine.register(checkin_query)
        assert engine.num_queries == 1
        assert set(engine.queries) == {"checkin"}

    def test_register_all(self, engine, paper_fig4_queries):
        engine.register_all(paper_fig4_queries)
        assert engine.num_queries == 4

    def test_duplicate_registration_rejected(self, engine, checkin_query):
        engine.register(checkin_query)
        with pytest.raises(DuplicateQueryError):
            engine.register(checkin_query)

    def test_unknown_query_lookup_raises(self, engine):
        with pytest.raises(UnknownQueryError):
            engine.matches_of("missing")

    def test_queries_is_a_live_read_only_view(self, engine, checkin_query, paper_fig4_queries):
        view = engine.queries
        with pytest.raises(TypeError):
            view["nope"] = checkin_query
        # The proxy is live: registrations made after it was obtained show up.
        engine.register(checkin_query)
        assert "checkin" in view
        engine.register_all(paper_fig4_queries)
        assert set(view) == {"checkin", "Q1", "Q2", "Q3", "Q4"}


class TestStreamConsumption:
    def test_on_update_returns_per_update_answers(self, engine, checkin_query, checkin_stream):
        engine.register(checkin_query)
        answers = [engine.on_update(update) for update in checkin_stream]
        assert len(answers) == len(checkin_stream)
        assert answers[-1] == frozenset({"checkin"})
        assert engine.updates_processed == len(checkin_stream)

    def test_satisfied_queries_accumulate(self, engine):
        engine.register(QueryBuilder("q1").edge("a", "?x", "?y").build())
        engine.register(QueryBuilder("q2").edge("b", "?x", "?y").build())
        engine.on_update(add("a", "1", "2"))
        assert engine.satisfied_queries() == {"q1"}
        engine.on_update(add("b", "1", "2"))
        assert engine.satisfied_queries() == {"q1", "q2"}

    def test_deletion_shrinks_satisfied_set(self, engine):
        engine.register(QueryBuilder("q1").edge("a", "?x", "?y").build())
        engine.on_update(add("a", "1", "2"))
        engine.on_update(delete("a", "1", "2"))
        assert engine.satisfied_queries() == frozenset()

    def test_describe_contains_counters(self, engine, checkin_query, checkin_stream):
        engine.register(checkin_query)
        engine.on_batch(checkin_stream)
        description = engine.describe()
        assert description["queries"] == 1
        assert description["updates_processed"] == len(checkin_stream)
        assert description["satisfied"] == 1
        assert description["engine"] == engine.name

    def test_engines_accept_graphstream_and_plain_lists(self, engine, checkin_query):
        engine.register(checkin_query)
        stream = GraphStream([add("knows", "a", "b")])
        assert engine.on_batch(stream) == frozenset()
        assert engine.on_batch([add("checksIn", "a", "rio")]) == frozenset()
        assert engine.on_update(add("checksIn", "b", "rio")) == frozenset({"checkin"})
        assert engine.updates_processed == 3


class TestBatchConsumption:
    def test_on_batch_reports_the_batch_union(self, engine, checkin_query, checkin_stream):
        engine.register(checkin_query)
        assert engine.on_batch(list(checkin_stream)) == frozenset({"checkin"})
        assert engine.updates_processed == len(checkin_stream)
        assert engine.satisfied_queries() == {"checkin"}

    def test_on_batch_splits_mixed_runs(self, engine):
        engine.register(QueryBuilder("q1").edge("a", "?x", "?y").build())
        notified = engine.on_batch(
            [add("a", "1", "2"), delete("a", "1", "2"), add("a", "3", "4")]
        )
        # q1 matched (twice) and was invalidated in between; the batch
        # reports the union of the per-update notifications.
        assert notified == frozenset({"q1"})
        assert engine.satisfied_queries() == {"q1"}

    def test_windowed_on_batch_matches_per_update_union(
        self, engine, checkin_query, checkin_stream
    ):
        engine.register(checkin_query)
        updates = list(checkin_stream)
        answers = [
            engine.on_batch(updates[start : start + 2]) for start in range(0, len(updates), 2)
        ]
        assert answers == [frozenset(), frozenset({"checkin"})]
        assert engine.updates_processed == len(updates)


def test_the_batch_hooks_are_the_only_stream_hooks():
    assert ContinuousEngine.__abstractmethods__ == {
        "_index_query",
        "_on_addition_batch",
        "_on_deletion_batch",
        "matches_of",
    }
