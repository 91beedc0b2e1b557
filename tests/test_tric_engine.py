"""Tests for the TRIC / TRIC+ engines (the paper's core contribution)."""

from __future__ import annotations

import pytest

from repro import NaiveEngine, TRICEngine, TRICPlusEngine, add, delete
from repro.graph.errors import DuplicateQueryError, UnknownQueryError
from repro.query import QueryBuilder, QueryGraphPattern


@pytest.fixture(params=[TRICEngine, TRICPlusEngine], ids=["TRIC", "TRIC+"])
def engine(request):
    return request.param()


class TestIndexingPhase:
    def test_register_builds_tries_and_views(self, engine, paper_fig4_queries):
        engine.register_all(paper_fig4_queries)
        stats = engine.statistics()
        assert engine.num_queries == 4
        assert stats["tries"] >= 2
        # Clustering: shared prefixes mean fewer trie nodes than path edges.
        assert stats["trie_nodes"] < stats["indexed_path_edges"]
        assert stats["base_views"] > 0

    def test_duplicate_query_id_rejected(self, engine, checkin_query):
        engine.register(checkin_query)
        with pytest.raises(DuplicateQueryError):
            engine.register(checkin_query)

    def test_matches_of_unknown_query_raises(self, engine):
        with pytest.raises(UnknownQueryError):
            engine.matches_of("nope")

    def test_describe_reports_engine_name(self, engine):
        description = engine.describe()
        assert description["engine"] in {"TRIC", "TRIC+"}
        assert description["queries"] == 0


class TestAnsweringPhase:
    def test_checkin_example(self, engine, checkin_query, checkin_stream):
        engine.register(checkin_query)
        answers = [engine.on_update(update) for update in checkin_stream]
        # Only the final update completes the pattern.
        assert [bool(a) for a in answers] == [False, False, False, True]
        assert engine.satisfied_queries() == {"checkin"}
        assert engine.matches_of("checkin") == [{"p1": "P1", "p2": "P2", "place": "rio"}]

    def test_irrelevant_updates_are_ignored(self, engine, checkin_query):
        engine.register(checkin_query)
        assert engine.on_update(add("likes", "a", "b")) == frozenset()
        assert engine.updates_processed == 1

    def test_duplicate_edge_produces_no_new_answers(self, engine, checkin_query, checkin_stream):
        engine.register(checkin_query)
        for update in checkin_stream:
            engine.on_update(update)
        assert engine.on_update(add("checksIn", "P2", "rio")) == frozenset()

    def test_multiple_queries_share_an_update(self, engine):
        engine.register(QueryBuilder("q1").edge("knows", "?a", "?b").build())
        engine.register(QueryBuilder("q2").edge("knows", "?x", "person9").build())
        matched = engine.on_update(add("knows", "person1", "person9"))
        assert matched == {"q1", "q2"}

    def test_cycle_query(self, engine):
        triangle = QueryGraphPattern(
            "triangle",
            [("knows", "?a", "?b"), ("knows", "?b", "?c"), ("knows", "?c", "?a")],
        )
        engine.register(triangle)
        engine.on_update(add("knows", "x", "y"))
        engine.on_update(add("knows", "y", "z"))
        assert engine.on_update(add("knows", "z", "x")) == {"triangle"}
        assert len(engine.matches_of("triangle")) == 3  # three rotations

    def test_literal_constraints_are_enforced(self, engine):
        engine.register(QueryBuilder("q").edge("posted", "?p", "pst1").build())
        assert engine.on_update(add("posted", "u1", "pst2")) == frozenset()
        assert engine.on_update(add("posted", "u1", "pst1")) == {"q"}

    def test_registration_after_updates_sees_the_live_graph(self, engine, checkin_query):
        # A late query answers over the graph as it stands, like the Naive
        # oracle: the checksIn edge no earlier query matched still counts.
        oracle = NaiveEngine()
        for each in (engine, oracle):
            each.register(QueryBuilder("warmup").edge("knows", "?a", "?b").build())
            each.on_update(add("knows", "P1", "P2"))
            each.on_update(add("checksIn", "P1", "rio"))
            each.register(checkin_query)
        notified = engine.on_update(add("checksIn", "P2", "rio"))
        assert notified == oracle.on_update(add("checksIn", "P2", "rio")) == {"checkin"}
        assert engine.matches_of("checkin") == oracle.matches_of("checkin") != []

    def test_registration_after_updates_backfills_shared_views(self, engine):
        # A later query sharing keys with an earlier one starts from the
        # already-materialized base views of those shared keys.
        engine.register(QueryBuilder("early").edge("knows", "?a", "?b").build())
        engine.on_update(add("knows", "P1", "P2"))
        late = (
            QueryBuilder("late")
            .edge("knows", "?a", "?b")
            .edge("checksIn", "?b", "?place")
            .build()
        )
        engine.register(late)
        assert engine.on_update(add("checksIn", "P2", "rio")) == {"late"}

    def test_injective_mode(self):
        engine = TRICEngine(injective=True)
        engine.register(QueryBuilder("q").edge("knows", "?a", "?b").build())
        assert engine.on_update(add("knows", "x", "x")) == frozenset()
        assert engine.on_update(add("knows", "x", "y")) == {"q"}


class TestDeletions:
    def test_deletion_invalidates_a_satisfied_query(self, engine, checkin_query, checkin_stream):
        engine.register(checkin_query)
        for update in checkin_stream:
            engine.on_update(update)
        invalidated = engine.on_update(delete("checksIn", "P2", "rio"))
        assert invalidated == {"checkin"}
        assert engine.satisfied_queries() == frozenset()
        assert engine.matches_of("checkin") == []

    def test_deletion_of_redundant_edge_keeps_query_satisfied(self, engine, checkin_query, checkin_stream):
        engine.register(checkin_query)
        for update in checkin_stream:
            engine.on_update(update)
        # P3 also checked in at rio but is not part of the only embedding.
        assert engine.on_update(delete("checksIn", "P3", "rio")) == frozenset()
        assert engine.satisfied_queries() == {"checkin"}

    def test_deleting_one_copy_of_duplicate_edge_keeps_matches(self, engine):
        engine.register(QueryBuilder("q").edge("knows", "?a", "?b").build())
        engine.on_update(add("knows", "x", "y"))
        engine.on_update(add("knows", "x", "y"))
        assert engine.on_update(delete("knows", "x", "y")) == frozenset()
        assert engine.matches_of("q") == [{"a": "x", "b": "y"}]

    def test_deletion_of_unknown_edge_is_a_noop(self, engine, checkin_query):
        engine.register(checkin_query)
        assert engine.on_update(delete("knows", "nobody", "noone")) == frozenset()


class TestCachingVariant:
    def test_tric_plus_reports_answer_materialisation(self):
        assert TRICPlusEngine().materializes_answers
        assert not TRICEngine().materializes_answers
        assert TRICPlusEngine().describe()["materialize_answers"]

    def test_tric_and_tric_plus_agree(self, checkin_query, checkin_stream):
        plain = TRICEngine()
        cached = TRICPlusEngine()
        for engine in (plain, cached):
            engine.register(checkin_query)
        for update in checkin_stream:
            assert plain.on_update(update) == cached.on_update(update)
        assert plain.matches_of("checkin") == cached.matches_of("checkin")
