"""Unit tests for the in-memory attribute multigraph."""

from __future__ import annotations

import pytest

from repro.graph import Edge, EdgeNotFoundError, Graph, VertexNotFoundError, add, delete


@pytest.fixture
def small_graph() -> Graph:
    graph = Graph()
    graph.add_edge(Edge("knows", "a", "b"))
    graph.add_edge(Edge("knows", "b", "c"))
    graph.add_edge(Edge("likes", "a", "post1"))
    return graph


class TestGraphBasics:
    def test_empty_graph(self):
        graph = Graph()
        assert graph.num_vertices == 0
        assert graph.num_edges == 0
        assert list(graph.edges()) == []

    def test_add_edge_creates_vertices(self, small_graph):
        assert small_graph.num_vertices == 4
        assert small_graph.has_vertex("post1")

    def test_num_edges_counts_multiplicity(self, small_graph):
        small_graph.add_edge(Edge("knows", "a", "b"))
        assert small_graph.num_edges == 4
        assert small_graph.multiplicity(Edge("knows", "a", "b")) == 2

    def test_has_edge(self, small_graph):
        assert small_graph.has_edge(Edge("knows", "a", "b"))
        assert not small_graph.has_edge(Edge("knows", "b", "a"))

    def test_contains_protocol(self, small_graph):
        assert Edge("knows", "a", "b") in small_graph
        assert "a" in small_graph
        assert "unknown" not in small_graph
        assert 42 not in small_graph

    def test_len_counts_edges(self, small_graph):
        assert len(small_graph) == 3

    def test_constructor_from_edges(self):
        graph = Graph([Edge("l", "x", "y"), Edge("l", "y", "z")])
        assert graph.num_edges == 2

    def test_edge_labels(self, small_graph):
        assert small_graph.edge_labels() == {"knows", "likes"}


class TestNavigation:
    def test_successors(self, small_graph):
        assert small_graph.successors("a") == {"b", "post1"}
        assert small_graph.successors("a", "knows") == {"b"}
        assert small_graph.successors("missing") == set()

    def test_predecessors(self, small_graph):
        assert small_graph.predecessors("b", "knows") == {"a"}
        assert small_graph.predecessors("post1") == {"a"}
        assert small_graph.predecessors("missing") == set()

    def test_degrees(self, small_graph):
        assert small_graph.out_degree("a") == 2
        assert small_graph.in_degree("b") == 1

    def test_degree_of_missing_vertex_raises(self, small_graph):
        with pytest.raises(VertexNotFoundError):
            small_graph.out_degree("nope")
        with pytest.raises(VertexNotFoundError):
            small_graph.in_degree("nope")

    def test_edges_with_label(self, small_graph):
        assert small_graph.edges_with_label("knows") == {("a", "b"), ("b", "c")}
        assert small_graph.edges_with_label("unknown") == set()


class TestMutation:
    def test_remove_edge(self, small_graph):
        small_graph.remove_edge(Edge("knows", "a", "b"))
        assert not small_graph.has_edge(Edge("knows", "a", "b"))
        assert small_graph.successors("a", "knows") == set()

    def test_remove_missing_edge_raises(self, small_graph):
        with pytest.raises(EdgeNotFoundError):
            small_graph.remove_edge(Edge("knows", "c", "a"))

    def test_remove_duplicate_edge_keeps_one_copy(self, small_graph):
        duplicate = Edge("knows", "a", "b")
        small_graph.add_edge(duplicate)
        small_graph.remove_edge(duplicate)
        assert small_graph.has_edge(duplicate)
        assert small_graph.multiplicity(duplicate) == 1

    def test_apply_updates(self):
        graph = Graph()
        graph.apply(add("l", "a", "b"))
        assert graph.has_edge(Edge("l", "a", "b"))
        graph.apply(delete("l", "a", "b"))
        assert not graph.has_edge(Edge("l", "a", "b"))

    def test_copy_is_independent(self, small_graph):
        clone = small_graph.copy()
        clone.add_edge(Edge("knows", "c", "a"))
        assert clone.num_edges == small_graph.num_edges + 1
        assert not small_graph.has_edge(Edge("knows", "c", "a"))

    def test_copy_preserves_multiplicity(self):
        graph = Graph()
        graph.add_edge(Edge("l", "a", "b"))
        graph.add_edge(Edge("l", "a", "b"))
        assert graph.copy().multiplicity(Edge("l", "a", "b")) == 2
