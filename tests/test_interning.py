"""Interning round-trips and maintained-index invariants.

The matching layer carries dictionary-encoded int rows internally and must
decode back to identifier strings at every public surface.  The central
property: for any query set and any interleaved add/delete stream — replayed
per update or in micro-batches — every interned engine's notifications and
``matches_of`` answers are byte-identical to the string-based naive oracle.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    INCEngine,
    INCPlusEngine,
    INVEngine,
    INVPlusEngine,
    NaiveEngine,
    TRICEngine,
    TRICPlusEngine,
    add,
    delete,
)
from repro.graph.interning import NullInterner, VertexInterner
from repro.matching.relation import Relation
from repro.query import QueryGraphPattern

LABELS = ("a", "b")
VERTICES = ("v0", "v1", "v2", "v3")
TERMS = ("?x", "?y", "?z", "v0", "v1")

ENGINE_FACTORIES = (
    TRICEngine,
    TRICPlusEngine,
    INVEngine,
    INVPlusEngine,
    INCEngine,
    INCPlusEngine,
)


# ----------------------------------------------------------------------
# VertexInterner unit behaviour
# ----------------------------------------------------------------------
class TestVertexInterner:
    def test_ids_are_dense_and_first_seen_ordered(self):
        interner = VertexInterner()
        assert interner.intern("alice") == 0
        assert interner.intern("bob") == 1
        assert interner.intern("alice") == 0
        assert len(interner) == 2

    def test_round_trip(self):
        interner = VertexInterner()
        row = interner.intern_row(("alice", "bob", "alice"))
        assert interner.decode_row(row) == ("alice", "bob", "alice")
        assert interner.intern_pair("carol", "bob") == (2, 1)
        assert interner.label_of(2) == "carol"

    def test_lookup_does_not_assign(self):
        interner = VertexInterner()
        assert interner.lookup("ghost") is None
        assert "ghost" not in interner
        interner.intern("ghost")
        assert interner.lookup("ghost") == 0

    @given(st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_decode_inverts_intern_for_any_labels(self, labels):
        interner = VertexInterner()
        row = tuple(interner.intern(label) for label in labels)
        assert interner.decode_row(row) == tuple(labels)
        # Dense: ids cover exactly 0..n-1 for n distinct labels.
        assert set(row) == set(range(len(set(labels))))

    def test_null_interner_is_identity(self):
        interner = NullInterner()
        assert interner.intern("alice") == "alice"
        assert interner.intern_pair("a", "b") == ("a", "b")
        assert interner.decode_row(("a", "b")) == ("a", "b")
        assert interner.label_of("x") == "x"


# ----------------------------------------------------------------------
# Maintained-index invariants
# ----------------------------------------------------------------------
rows_st = st.lists(
    st.tuples(st.sampled_from("abcd"), st.sampled_from("wxyz")), min_size=0, max_size=30
)


class TestMaintainedIndexes:
    @given(rows_st, rows_st)
    @settings(max_examples=60, deadline=None)
    def test_probe_agrees_with_scan_under_churn(self, adds, removes):
        relation = Relation(("s", "t"))
        relation.ensure_index((0,))
        relation.ensure_index((1,))
        for row in adds:
            relation.add(row)
        for row in removes:
            relation.remove(row)
        for key in "abcd":
            expected = {row for row in relation.rows if row[0] == key}
            assert set(relation.probe((0,), (key,))) == expected
        for key in "wxyz":
            expected = {row for row in relation.rows if row[1] == key}
            assert set(relation.probe((1,), (key,))) == expected

    def test_index_survives_wholesale_replacement(self):
        relation = Relation(("s", "t"), [("a", "b")])
        relation.ensure_index((0,))
        relation.replace_rows([("x", "y"), ("x", "z")])
        assert set(relation.probe((0,), ("x",))) == {("x", "y"), ("x", "z")}
        assert relation.probe((0,), ("a",)) == frozenset()
        relation.clear()
        assert relation.probe((0,), ("x",)) == frozenset()

    def test_lazy_index_created_once_and_patched(self):
        relation = Relation(("s", "t"), [("a", "b")])
        assert (0,) not in relation.maintained_index_positions
        assert set(relation.probe((0,), ("a",))) == {("a", "b")}
        assert relation.maintained_index_positions == [(0,)]
        relation.add(("a", "c"))
        relation.remove(("a", "b"))
        assert set(relation.probe((0,), ("a",))) == {("a", "c")}


# ----------------------------------------------------------------------
# Engine round-trip equivalence vs the string oracle
# ----------------------------------------------------------------------
@st.composite
def connected_patterns(draw):
    """Small connected query patterns over a tiny vocabulary."""
    num_edges = draw(st.integers(min_value=1, max_value=3))
    edges = []
    terms = [draw(st.sampled_from(TERMS))]
    for _ in range(num_edges):
        label = draw(st.sampled_from(LABELS))
        anchor = draw(st.sampled_from(terms))
        other = draw(st.sampled_from(TERMS))
        if draw(st.booleans()):
            edges.append((label, anchor, other))
        else:
            edges.append((label, other, anchor))
        terms.append(other)
    if not any(t.startswith("?") for triple in edges for t in triple[1:]):
        label, _, target = edges[0]
        edges[0] = (label, "?x", target)
    return edges


@st.composite
def mixed_update_streams(draw):
    """Interleaved additions and deletions; deletions retract live edges."""
    events = draw(
        st.lists(
            st.tuples(
                st.booleans(),
                st.integers(min_value=0, max_value=2**16),
                st.sampled_from(LABELS),
                st.sampled_from(VERTICES),
                st.sampled_from(VERTICES),
            ),
            min_size=1,
            max_size=30,
        )
    )
    live, updates = [], []
    for is_deletion, pick, label, source, target in events:
        if is_deletion and live:
            edge = live.pop(pick % len(live))
            updates.append(delete(edge.label, edge.source, edge.target))
        else:
            update = add(label, source, target)
            live.append(update.edge)
            updates.append(update)
    return updates


def _patterns_from(edge_lists):
    return [QueryGraphPattern(f"Q{i}", edges) for i, edges in enumerate(edge_lists)]


class TestInterningRoundTripsThroughEngines:
    @given(st.lists(connected_patterns(), min_size=1, max_size=3), mixed_update_streams())
    @settings(max_examples=20, deadline=None)
    def test_every_engine_matches_the_string_oracle_per_update(self, edge_lists, updates):
        patterns = _patterns_from(edge_lists)
        oracle = NaiveEngine()
        engines = [factory() for factory in ENGINE_FACTORIES]
        for engine in [oracle, *engines]:
            engine.register_all(patterns)
        for update in updates:
            expected = oracle.on_update(update)
            for engine in engines:
                assert engine.on_update(update) == expected, engine.name
        for engine in engines:
            assert engine.satisfied_queries() == oracle.satisfied_queries(), engine.name
            for pattern in patterns:
                # Byte-identical: same strings, same dicts, same list order.
                assert engine.matches_of(pattern.query_id) == oracle.matches_of(
                    pattern.query_id
                ), engine.name

    @given(
        st.lists(connected_patterns(), min_size=1, max_size=3),
        mixed_update_streams(),
        st.integers(min_value=2, max_value=9),
    )
    @settings(max_examples=15, deadline=None)
    def test_batched_drive_round_trips_identically(self, edge_lists, updates, batch_size):
        patterns = _patterns_from(edge_lists)
        for factory in (TRICEngine, TRICPlusEngine, INVPlusEngine):
            batched = factory()
            oracle = NaiveEngine()
            for engine in (batched, oracle):
                engine.register_all(patterns)
            for start in range(0, len(updates), batch_size):
                window = updates[start : start + batch_size]
                expected = frozenset().union(*(oracle.on_update(u) for u in window))
                assert batched.on_batch(window) == expected, factory.__name__
            for pattern in patterns:
                assert batched.matches_of(pattern.query_id) == oracle.matches_of(
                    pattern.query_id
                ), factory.__name__

    @given(st.lists(connected_patterns(), min_size=1, max_size=2), mixed_update_streams())
    @settings(max_examples=10, deadline=None)
    def test_shared_interner_across_engines_is_safe(self, edge_lists, updates):
        """Engines may share one interner; answers stay oracle-identical."""
        patterns = _patterns_from(edge_lists)
        shared = VertexInterner()
        tric = TRICEngine(interner=shared)
        inv = INVEngine(interner=shared)
        oracle = NaiveEngine()
        for engine in (tric, inv, oracle):
            engine.register_all(patterns)
        for update in updates:
            expected = oracle.on_update(update)
            assert tric.on_update(update) == expected
            assert inv.on_update(update) == expected
        for pattern in patterns:
            expected = oracle.matches_of(pattern.query_id)
            assert tric.matches_of(pattern.query_id) == expected
            assert inv.matches_of(pattern.query_id) == expected

    def test_matches_decode_to_strings(self):
        engine = TRICEngine()
        engine.register(QueryGraphPattern("q", [("knows", "?a", "?b")]))
        engine.on_update(add("knows", "alice", "bob"))
        assert engine.matches_of("q") == [{"a": "alice", "b": "bob"}]

    def test_stats_measure_the_live_dictionary(self):
        """``stats()`` reports live ids and a bytes estimate that grows with
        the dictionary, and engines surface it through ``describe()`` — the
        measurement the append-only-interner compaction concern needs."""
        interner = VertexInterner()
        empty = interner.stats()
        assert empty["live_ids"] == 0
        for i in range(10):
            interner.intern(f"person:{i}")
        stats = interner.stats()
        assert stats["live_ids"] == 10
        assert stats["bytes_estimate"] > empty["bytes_estimate"]
        null_stats = NullInterner(["a", "b"]).stats()
        assert null_stats["live_ids"] == 2 and null_stats["bytes_estimate"] > 0
        engine = TRICEngine()
        engine.register(QueryGraphPattern("q", [("knows", "?a", "?b")]))
        engine.on_update(add("knows", "alice", "bob"))
        description = engine.describe()
        assert description["interner"]["live_ids"] == 2
        assert description["interner"]["bytes_estimate"] > 0

    def test_unmatched_traffic_does_not_grow_the_interner(self):
        """Edges no registered key matches must never intern their endpoints
        (the dictionary is append-only, so stray ids would leak forever)."""
        engine = TRICEngine()
        engine.register(QueryGraphPattern("q", [("knows", "?a", "?b")]))
        interner = engine.views.interner
        engine.on_update(add("likes", "stranger1", "stranger2"))
        engine.on_update(delete("likes", "stranger3", "stranger4"))
        assert len(interner) == 0
        engine.on_update(add("knows", "alice", "bob"))
        assert len(interner) == 2


if __name__ == "__main__":  # pragma: no cover - manual invocation
    raise SystemExit(pytest.main([__file__, "-q"]))
