"""Tests for the trie forest that clusters covering paths."""

from __future__ import annotations

import pytest

from repro.core.trie import TrieForest, TrieNode
from repro.matching.views import EdgeViewRegistry
from repro.query import QueryGraphPattern, covering_paths
from repro.query.terms import ANY, EdgeKey

K_HASMOD = EdgeKey("hasMod", ANY, ANY)
K_POSTED1 = EdgeKey("posted", ANY, "pst1")
K_POSTED2 = EdgeKey("posted", ANY, "pst2")
K_CONTAINED = EdgeKey("containedIn", "pst1", ANY)


def _root(key):
    """A root node on its key's base view, as :meth:`TrieForest.index_path` builds it."""
    return TrieNode(key, None, EdgeViewRegistry().register(key))


def _forest():
    return TrieForest(EdgeViewRegistry())


class TestTrieNode:
    def test_root_node_properties(self):
        root = _root(K_HASMOD)
        assert root.is_root
        assert root.depth == 1
        assert root.view.schema == ("p0", "p1")

    def test_child_depth_and_schema(self):
        root = _root(K_HASMOD)
        child = root.add_child(K_POSTED1)
        assert child.depth == 2
        assert child.parent is root
        assert child.view.schema == ("p0", "p1", "p2")

    def test_add_child_reuses_existing(self):
        root = _root(K_HASMOD)
        first = root.add_child(K_POSTED1)
        second = root.add_child(K_POSTED1)
        assert first is second
        assert len(root.children) == 1

    def test_descendants(self):
        root = _root(K_HASMOD)
        child = root.add_child(K_POSTED1)
        grandchild = child.add_child(K_CONTAINED)
        assert list(root.descendants()) == [root, child, grandchild]


class TestTrieForest:
    def test_index_path_shares_prefixes(self):
        forest = _forest()
        terminal_a = forest.index_path([K_HASMOD, K_POSTED1, K_CONTAINED])
        terminal_b = forest.index_path([K_HASMOD, K_POSTED1])
        terminal_c = forest.index_path([K_HASMOD, K_POSTED2])
        assert terminal_b is terminal_a.parent
        assert terminal_c is not terminal_b
        root = forest.roots[K_HASMOD]
        assert set(root.children) == {K_POSTED1, K_POSTED2}
        assert forest.num_nodes() == 4  # hasMod, posted-pst1, containedIn, posted-pst2

    def test_a_root_view_is_the_base_view_of_its_key(self):
        views = EdgeViewRegistry()
        forest = TrieForest(views)
        terminal = forest.index_path([K_HASMOD, K_POSTED1])
        forest.index_path([K_POSTED1])
        for key, root in forest.roots.items():
            assert root.view is views.get(key)
            assert root.view.schema == ("p0", "p1")
        # a deeper node owns its prefix relation
        assert terminal.view.schema == ("p0", "p1", "p2")

    def test_index_path_creates_tries_per_root_key(self):
        forest = _forest()
        forest.index_path([K_HASMOD, K_POSTED1])
        forest.index_path([K_POSTED1])
        assert forest.num_tries() == 2
        assert set(forest.roots) == {K_HASMOD, K_POSTED1}

    def test_edge_index_lists_every_node_indexing_a_key(self):
        forest = _forest()
        deep = forest.index_path([K_HASMOD, K_POSTED1])
        forest.index_path([K_POSTED1, K_CONTAINED])
        forest.index_path([K_HASMOD, K_POSTED1])  # re-indexing adds nothing
        nodes = forest.nodes_with_key(K_POSTED1)
        assert set(nodes) == {deep, forest.roots[K_POSTED1]}  # two tries
        assert len(nodes) == 2
        assert forest.nodes_with_key(K_POSTED2) == ()
        forest.index_path([K_HASMOD, K_POSTED2, K_POSTED1])  # same trie, new branch
        assert len(forest.nodes_with_key(K_POSTED1)) == 3
        assert len(forest.nodes_with_key(K_HASMOD)) == 1

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            _forest().index_path([])

    def test_shared_prefixes_share_nodes_across_queries(self, paper_fig4_queries):
        """Fig. 6 of the paper: Q1, Q2 and Q4 cluster under the same trie."""
        forest = _forest()
        total_path_edges = 0
        for pattern in paper_fig4_queries:
            for path in covering_paths(pattern):
                forest.index_path(path.key_sequence())
                total_path_edges += path.length
        # Clustering means strictly fewer trie nodes than indexed path edges.
        assert forest.num_nodes() < total_path_edges
        # The hasMod-rooted trie is shared by Q1, Q2 and Q4.
        hasmod_root = forest.roots[K_HASMOD]
        assert len(list(hasmod_root.descendants())) >= 3

    def test_nodes_iterates_every_node(self):
        forest = _forest()
        forest.index_path([K_HASMOD, K_POSTED1])
        forest.index_path([K_POSTED2])
        assert len(list(forest.nodes())) == forest.num_nodes() == 3
