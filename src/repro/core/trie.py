"""Trie forest clustering the covering paths of the query database.

This is the central data structure of TRIC (paper Section 4.1, Step 2).  Each
trie indexes covering paths that start with the same generalised edge key;
paths sharing a prefix share the corresponding chain of trie nodes, and every
node owns the materialized view of its prefix — one relation with a column
per path position.  Sharing the node therefore shares both the *structure*
and the *materialization* between queries — including the maintained
indexes the queries probe: a terminal node's view *is* the binding relation
of every covering path that ends there (see :meth:`TrieNode.binding_relation`).

A root's prefix is its one edge, so a root's view *is* the registry's base
view ``matV[e]`` of its key (:meth:`TrieForest.index_path`): one relation,
filled by the registry, never copied.  Only nodes below the roots own a view
of their own.

The forest also maintains the paper's auxiliary indexes:

* ``rootInd``  — first edge key -> trie root (:attr:`TrieForest.roots`),
* ``edgeInd``  — edge key -> the trie nodes indexing it, across all tries
  (:attr:`TrieForest.edge_index`, what the per-tick probe reads),
* ``queryInd`` — kept by the engine: query id -> per covering path, the
  binding relation of its terminal node.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

from ..matching.relation import Relation, Row, rows_with_equal_positions
from ..matching.views import EdgeViewRegistry
from ..query.terms import EdgeKey

__all__ = ["TrieNode", "TrieForest"]

#: ``PathPlan.equality_positions`` of a covering path with repeated variables.
EqualityPositions = Tuple[Tuple[int, int], ...]


def _prefix_schema(depth: int) -> Tuple[str, ...]:
    """Schema of a node at ``depth`` edges from the root: positions ``p0..pdepth``."""
    return tuple(f"p{i}" for i in range(depth + 1))


class TrieNode:
    """One trie node: a generalised edge key plus the view of its prefix path."""

    __slots__ = (
        "key",
        "parent",
        "children",
        "depth",
        "view",
        "filtered_views",
        "query_paths",
    )

    def __init__(self, key: EdgeKey, parent: "TrieNode | None", view: Relation) -> None:
        self.key = key
        self.parent = parent
        #: Child nodes by the edge key they index.
        self.children: Dict[EdgeKey, TrieNode] = {}
        self.depth = 1 if parent is None else parent.depth + 1
        self.view = view
        #: Equality signature -> the view's rows satisfying it, for covering
        #: paths that repeat a variable (see :meth:`binding_relation`).
        self.filtered_views: Dict[EqualityPositions, Relation] = {}
        #: (query id, path index) pairs whose covering path terminates here.
        self.query_paths: List[Tuple[str, int]] = []

    @property
    def is_root(self) -> bool:
        """``True`` for the first node of a trie (depth 1)."""
        return self.parent is None

    def add_child(self, key: EdgeKey) -> "TrieNode":
        """Create (or reuse) the child indexing ``key``."""
        child = self.children.get(key)
        if child is None:
            view = Relation(_prefix_schema(self.depth + 1))
            child = self.children[key] = TrieNode(key, self, view)
        return child

    # ------------------------------------------------------------------
    # The view as a binding relation
    # ------------------------------------------------------------------
    def binding_relation(self, equality_positions: EqualityPositions) -> Relation:
        """The positional relation a covering path ending here is probed through.

        Rows of the view and variable bindings of the path correspond one
        to one (literal positions are constant across the view, repeated
        variable positions equal their first occurrence), so no projected
        copy exists: a path without repeated variables reads the view
        itself, and a path with ``equality_positions`` reads the node's
        filtered relation for that signature — created on first request,
        maintained by the node's own mutators from then on, and shared by
        every query with the same signature on this node.
        """
        if not equality_positions:
            return self.view
        relation = self.filtered_views.get(equality_positions)
        if relation is None:
            relation = self.view.select_positions_equal(equality_positions)
            self.filtered_views[equality_positions] = relation
        return relation

    def add_rows(self, rows: Iterable[Row]) -> List[Row]:
        """Add ``rows`` to the view; return the genuinely new ones."""
        added = self.view.add_all(rows)
        if added and self.filtered_views:
            self.filter_added(added)
        return added

    def remove_rows(self, rows: Iterable[Row]) -> List[Row]:
        """Remove ``rows`` from the view; return the ones actually removed."""
        removed = self.view.remove_all(rows)
        if removed and self.filtered_views:
            self.filter_removed(removed)
        return removed

    def filter_added(self, added: Iterable[Row]) -> None:
        """Patch the filtered views with rows the view has just gained.

        A root calls this directly: the registry has already added the rows
        to its (shared) view.
        """
        for equality, relation in self.filtered_views.items():
            relation.add_all(rows_with_equal_positions(added, equality))

    def filter_removed(self, removed: Iterable[Row]) -> None:
        """Patch the filtered views with rows the view has just lost."""
        for equality, relation in self.filtered_views.items():
            relation.remove_all(rows_with_equal_positions(removed, equality))

    def replace_rows(self, rows: Set[Row]) -> None:
        """Replace the view wholesale (backfill): an epoch bump for readers."""
        self.view.replace_rows(rows)
        for equality, relation in self.filtered_views.items():
            relation.replace_rows(rows_with_equal_positions(rows, equality))

    def descendants(self) -> Iterator["TrieNode"]:
        """Iterate over this node and every node below it (pre-order)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TrieNode(depth={self.depth}, key={self.key}, "
            f"children={len(self.children)}, rows={len(self.view)})"
        )


class TrieForest:
    """The forest of tries plus the root/edge inverted indexes.

    ``views`` is the engine's base-view registry: every root is built on
    the registry's view of its key.
    """

    def __init__(self, views: EdgeViewRegistry) -> None:
        self._views = views
        #: rootInd: first edge key of a path -> the root node of its trie.
        self.roots: Dict[EdgeKey, TrieNode] = {}
        #: edgeInd: edge key -> every node indexing the key, in any trie.
        self.edge_index: Dict[EdgeKey, Tuple[TrieNode, ...]] = {}

    def index_path(self, keys: Sequence[EdgeKey]) -> TrieNode:
        """Index one covering path (as generalised keys); return terminal node.

        Shared prefixes reuse existing nodes; only the unshared suffix
        creates new ones.  A new root's view is the registry's base view of
        ``keys[0]`` — the same object, so the registry's maintenance is the
        root's.
        """
        if not keys:
            raise ValueError("cannot index an empty key sequence")
        root_key = keys[0]
        terminal = self.roots.get(root_key)
        if terminal is None:
            terminal = TrieNode(root_key, None, self._views.register(root_key))
            self.roots[root_key] = terminal
        for key in keys[1:]:
            terminal = terminal.add_child(key)
        # New nodes form a suffix of the chain: an indexed node was indexed
        # together with all of its ancestors.
        node: TrieNode | None = terminal
        while node is not None:
            indexed = self.edge_index.get(node.key, ())
            if node in indexed:
                break
            self.edge_index[node.key] = indexed + (node,)
            node = node.parent
        return terminal

    def nodes_with_key(self, key: EdgeKey) -> Tuple[TrieNode, ...]:
        """Every trie node in the forest indexing ``key`` (the ``edgeInd`` probe)."""
        return self.edge_index.get(key, ())

    def num_tries(self) -> int:
        """Number of tries in the forest."""
        return len(self.roots)

    def num_nodes(self) -> int:
        """Total number of trie nodes across the forest."""
        return sum(1 for _ in self.nodes())

    def nodes(self) -> Iterator[TrieNode]:
        """Iterate over every node of every trie."""
        for root in self.roots.values():
            yield from root.descendants()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TrieForest(tries={self.num_tries()}, nodes={self.num_nodes()})"
