"""Tests for the trie forest that clusters covering paths."""

from __future__ import annotations

import pytest

from repro.core.trie import Trie, TrieForest, TrieNode
from repro.query import QueryGraphPattern, covering_paths
from repro.query.terms import ANY, EdgeKey

K_HASMOD = EdgeKey("hasMod", ANY, ANY)
K_POSTED1 = EdgeKey("posted", ANY, "pst1")
K_POSTED2 = EdgeKey("posted", ANY, "pst2")
K_CONTAINED = EdgeKey("containedIn", "pst1", ANY)


class TestTrieNode:
    def test_root_node_properties(self):
        root = TrieNode(K_HASMOD, None)
        assert root.is_root
        assert root.depth == 1
        assert root.view.schema == ("p0", "p1")

    def test_child_depth_and_schema(self):
        root = TrieNode(K_HASMOD, None)
        child = root.add_child(K_POSTED1)
        assert child.depth == 2
        assert child.parent is root
        assert child.view.schema == ("p0", "p1", "p2")

    def test_add_child_reuses_existing(self):
        root = TrieNode(K_HASMOD, None)
        first = root.add_child(K_POSTED1)
        second = root.add_child(K_POSTED1)
        assert first is second
        assert len(root.children) == 1

    def test_descendants(self):
        root = TrieNode(K_HASMOD, None)
        child = root.add_child(K_POSTED1)
        grandchild = child.add_child(K_CONTAINED)
        assert {node.node_id for node in root.descendants()} == {
            root.node_id,
            child.node_id,
            grandchild.node_id,
        }


class TestTrie:
    def test_insert_path_and_sharing(self):
        trie = Trie(K_HASMOD)
        terminal_a = trie.insert_path([K_HASMOD, K_POSTED1, K_CONTAINED])
        terminal_b = trie.insert_path([K_HASMOD, K_POSTED1])
        terminal_c = trie.insert_path([K_HASMOD, K_POSTED2])
        assert terminal_b is terminal_a.parent
        assert terminal_c is not terminal_b
        assert trie.num_nodes() == 4  # hasMod, posted-pst1, containedIn, posted-pst2

    def test_insert_path_must_start_with_root_key(self):
        trie = Trie(K_HASMOD)
        with pytest.raises(ValueError):
            trie.insert_path([K_POSTED1])

    def test_child_with_key_is_a_lookup(self):
        trie = Trie(K_HASMOD)
        terminal = trie.insert_path([K_HASMOD, K_POSTED1])
        trie.insert_path([K_HASMOD, K_POSTED2])
        assert trie.root.child_with_key(K_POSTED1) is terminal
        assert trie.root.child_with_key(K_CONTAINED) is None
        assert set(trie.root.children) == {K_POSTED1, K_POSTED2}


class TestTrieForest:
    def test_index_path_creates_tries_per_root_key(self):
        forest = TrieForest()
        forest.index_path([K_HASMOD, K_POSTED1])
        forest.index_path([K_POSTED1])
        assert forest.num_tries() == 2
        assert set(forest.roots) == {K_HASMOD, K_POSTED1}

    def test_edge_index_lists_every_node_indexing_a_key(self):
        forest = TrieForest()
        deep = forest.index_path([K_HASMOD, K_POSTED1])
        forest.index_path([K_POSTED1, K_CONTAINED])
        forest.index_path([K_HASMOD, K_POSTED1])  # re-indexing adds nothing
        nodes = forest.nodes_with_key(K_POSTED1)
        assert set(nodes) == {deep, forest.roots[K_POSTED1].root}  # two tries
        assert len(nodes) == 2
        assert forest.nodes_with_key(K_POSTED2) == ()
        forest.index_path([K_HASMOD, K_POSTED2, K_POSTED1])  # same trie, new branch
        assert len(forest.nodes_with_key(K_POSTED1)) == 3
        assert len(forest.nodes_with_key(K_HASMOD)) == 1

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            TrieForest().index_path([])

    def test_shared_prefixes_share_nodes_across_queries(self, paper_fig4_queries):
        """Fig. 6 of the paper: Q1, Q2 and Q4 cluster under the same trie."""
        forest = TrieForest()
        total_path_edges = 0
        for pattern in paper_fig4_queries:
            for path in covering_paths(pattern):
                forest.index_path(path.key_sequence())
                total_path_edges += path.length
        # Clustering means strictly fewer trie nodes than indexed path edges.
        assert forest.num_nodes() < total_path_edges
        # The hasMod-rooted trie is shared by Q1, Q2 and Q4.
        hasmod_trie = forest.roots[K_HASMOD]
        assert hasmod_trie.num_nodes() >= 3

    def test_all_keys(self):
        forest = TrieForest()
        forest.index_path([K_HASMOD, K_POSTED1])
        assert forest.all_keys() == {K_HASMOD, K_POSTED1}
        assert forest.contains_key(K_HASMOD)
        assert not forest.contains_key(K_CONTAINED)

    def test_nodes_iterates_every_node(self):
        forest = TrieForest()
        forest.index_path([K_HASMOD, K_POSTED1])
        forest.index_path([K_POSTED2])
        assert len(list(forest.nodes())) == forest.num_nodes() == 3
