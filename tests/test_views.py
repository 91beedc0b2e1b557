"""Tests for the materialized base-view registry."""

from __future__ import annotations

from repro.graph import Edge
from repro.matching.views import EdgeViewRegistry
from repro.query.terms import ANY, EdgeKey


class TestRegistration:
    def test_register_creates_empty_view(self):
        registry = EdgeViewRegistry()
        view = registry.register(EdgeKey("knows", ANY, ANY))
        assert len(view) == 0
        assert len(registry) == 1

    def test_register_is_idempotent(self):
        registry = EdgeViewRegistry()
        key = EdgeKey("knows", ANY, ANY)
        first = registry.register(key)
        second = registry.register(key)
        assert first is second
        assert len(registry) == 1

    def test_register_all_and_keys(self):
        registry = EdgeViewRegistry()
        keys = [EdgeKey("a", ANY, ANY), EdgeKey("b", "x", ANY)]
        registry.register_all(keys)
        assert set(registry.keys()) == set(keys)
        assert registry.has_label("a")
        assert not registry.has_label("c")

    def test_get_and_contains(self):
        registry = EdgeViewRegistry()
        key = EdgeKey("a", ANY, ANY)
        assert registry.get(key) is None
        registry.register(key)
        assert key in registry
        assert registry.get(key) is not None


class TestStreamMaintenance:
    def test_matching_keys_only_returns_registered_generalisations(self):
        registry = EdgeViewRegistry()
        registry.register(EdgeKey("posted", ANY, "pst1"))
        registry.register(EdgeKey("posted", ANY, ANY))
        keys = registry.matching_keys(Edge("posted", "p1", "pst1"))
        assert set(keys) == {EdgeKey("posted", ANY, "pst1"), EdgeKey("posted", ANY, ANY)}
        assert registry.matching_keys(Edge("likes", "p1", "pst1")) == []

    def test_apply_addition_populates_all_matching_views(self):
        registry = EdgeViewRegistry()
        registry.register(EdgeKey("posted", ANY, "pst1"))
        registry.register(EdgeKey("posted", ANY, ANY))
        new_by_key = registry.apply_additions([Edge("posted", "p1", "pst1")])
        assert set(new_by_key) == {
            EdgeKey("posted", ANY, "pst1"),
            EdgeKey("posted", ANY, ANY),
        }
        assert all(len(rows) == 1 for rows in new_by_key.values())
        assert registry.total_rows() == 2

    def test_duplicate_addition_reports_not_new(self):
        registry = EdgeViewRegistry()
        registry.register(EdgeKey("posted", ANY, ANY))
        registry.apply_additions([Edge("posted", "p1", "pst1")])
        # The second copy is not new: the view gains no tuple.
        assert registry.apply_additions([Edge("posted", "p1", "pst1")]) == {}
        assert registry.multiplicity(Edge("posted", "p1", "pst1")) == 2
        assert registry.total_rows() == 1

    def test_non_matching_addition_is_counted_but_not_materialised(self):
        registry = EdgeViewRegistry()
        registry.register(EdgeKey("posted", ANY, ANY))
        live_ids = registry.interner.stats()["live_ids"]
        assert registry.apply_additions([Edge("likes", "p1", "pst1")]) == {}
        # The live-edge store counts it; no view holds it and no vertex
        # was interned for it.
        assert registry.multiplicity(Edge("likes", "p1", "pst1")) == 1
        assert registry.total_rows() == 0
        assert registry.interner.stats()["live_ids"] == live_ids

    def test_a_key_registered_late_starts_from_every_live_edge_it_matches(self):
        registry = EdgeViewRegistry()
        registry.register(EdgeKey("posted", ANY, ANY))
        edges = [
            Edge("likes", "p1", "pst1"),
            Edge("likes", "p1", "pst1"),  # multigraph copy
            Edge("likes", "p2", "pst1"),
            Edge("likes", "p1", "pst2"),
            Edge("posted", "p1", "pst1"),
        ]
        registry.apply_additions(edges)
        decode = registry.interner.decode_row
        every = registry.register(EdgeKey("likes", ANY, ANY))
        assert {decode(row) for row in every} == {
            ("p1", "pst1"), ("p2", "pst1"), ("p1", "pst2")
        }
        literal = registry.register(EdgeKey("likes", "p1", ANY))
        assert {decode(row) for row in literal} == {("p1", "pst1"), ("p1", "pst2")}
        # The views' maintained indexes cover the rows they started from.
        assert literal.probe((1,), (registry.interner.lookup("pst2"),)) == {
            (registry.interner.lookup("p1"), registry.interner.lookup("pst2"))
        }
        # The starting rows honour the counted copies: one deletion of the
        # doubled edge keeps its tuple, the second retracts it.
        edge = Edge("likes", "p1", "pst1")
        assert registry.apply_deletions([edge]) == {}
        removed = registry.apply_deletions([edge])
        assert set(removed) == {EdgeKey("likes", ANY, ANY), EdgeKey("likes", "p1", ANY)}
        assert registry.multiplicity(edge) == 0

    def test_deletion_removes_tuple_only_when_last_copy_goes(self):
        registry = EdgeViewRegistry()
        key = EdgeKey("posted", ANY, ANY)
        registry.register(key)
        edge = Edge("posted", "p1", "pst1")
        registry.apply_additions([edge])
        registry.apply_additions([edge])
        assert registry.apply_deletions([edge]) == {}        # one copy remains
        assert registry.multiplicity(edge) == 1
        assert len(registry.view(key)) == 1
        removed = registry.apply_deletions([edge])           # last copy removed
        assert list(removed) == [key] and len(removed[key]) == 1
        assert registry.multiplicity(edge) == 0
        assert len(registry.view(key)) == 0

    def test_deletion_of_unknown_edge_is_a_noop(self):
        registry = EdgeViewRegistry()
        registry.register(EdgeKey("posted", ANY, ANY))
        assert registry.apply_deletions([Edge("posted", "p1", "pst1")]) == {}
        assert registry.apply_deletions([Edge("likes", "p1", "pst1")]) == {}
