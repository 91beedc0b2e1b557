"""Unit tests for graph streams."""

from __future__ import annotations

import pytest

from repro.graph import Edge, GraphStream, StreamError, add, delete


@pytest.fixture
def stream() -> GraphStream:
    return GraphStream(
        [add("knows", "a", "b"), add("likes", "a", "p"), delete("likes", "a", "p")],
        name="tiny",
    )


class TestConstruction:
    def test_timestamps_are_renumbered(self, stream):
        assert [u.timestamp for u in stream] == [0, 1, 2]

    def test_from_triples(self):
        stream = GraphStream.from_triples([("l", "a", "b")])
        assert stream[0].edge == Edge("l", "a", "b")

    def test_append_and_extend(self):
        stream = GraphStream()
        stream.append(add("l", "a", "b"))
        stream.extend([add("l", "b", "c"), add("l", "c", "d")])
        assert len(stream) == 3
        assert [u.timestamp for u in stream] == [0, 1, 2]


class TestSlicing:
    def test_prefix(self, stream):
        prefix = stream.prefix(2)
        assert len(prefix) == 2
        assert isinstance(prefix, GraphStream)

    def test_prefix_negative_raises(self, stream):
        with pytest.raises(StreamError):
            stream.prefix(-1)

    def test_getitem_slice_returns_stream(self, stream):
        assert isinstance(stream[0:2], GraphStream)
        assert len(stream[0:2]) == 2

    def test_getitem_index_returns_update(self, stream):
        assert stream[0].edge == Edge("knows", "a", "b")

    def test_batches(self, stream):
        batches = list(stream.batches(2))
        assert [len(b) for b in batches] == [2, 1]

    def test_batches_invalid_size(self, stream):
        with pytest.raises(StreamError):
            list(stream.batches(0))


class TestMaterialisation:
    def test_to_graph_applies_all_updates(self, stream):
        graph = stream.to_graph()
        assert graph.has_edge(Edge("knows", "a", "b"))
        assert not graph.has_edge(Edge("likes", "a", "p"))

    def test_statistics(self, stream):
        stats = stream.statistics()
        assert stats.num_updates == 3
        assert stats.num_additions == 2
        assert stats.num_deletions == 1
        assert stats.num_vertices == 3
        assert stats.num_edge_labels == 2
        assert stats.label_histogram["likes"] == 2

    def test_updates_returns_tuple(self, stream):
        assert isinstance(stream.updates(), tuple)
        assert len(stream.updates()) == 3
