"""In-memory attribute graph (directed labelled multigraph).

This is the substrate graph the engines evolve while consuming a stream.  It
supports multi-edges, O(1) amortised insertion, per-label adjacency indexes
(used by the graph-database baseline and by the correctness oracle), and edge
deletions for the extended model of Section 4.3 of the paper.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, Iterable, Iterator, Set, Tuple

from .elements import Edge, Update, UpdateKind, Vertex
from .errors import EdgeNotFoundError, VertexNotFoundError
from .interning import VertexInterner

__all__ = ["Graph"]


class Graph:
    """A directed labelled multigraph keyed by vertex labels.

    The graph keeps:

    * a multiset of edges (multiplicity counted),
    * per-vertex outgoing / incoming adjacency grouped by edge label,
    * a per-label edge index (``label -> set of (source, target)``).

    These indexes are what a production graph store would maintain and they
    are exactly what the Neo4j-substitute baseline relies on to re-execute
    affected queries.

    Internally the adjacency structures carry interned vertex ids (one
    dictionary-encoded int per distinct identifier string) and decode back
    to strings at the public navigation surface, so identifier strings are
    stored once no matter how many adjacency entries reference them.
    """

    def __init__(self, edges: Iterable[Edge] | None = None) -> None:
        self._interner = VertexInterner()
        self._edge_counts: Counter[Edge] = Counter()
        self._vertices: Set[int] = set()
        # adjacency: vertex id -> label -> set of neighbour ids
        self._out: Dict[int, Dict[str, Set[int]]] = defaultdict(dict)
        self._in: Dict[int, Dict[str, Set[int]]] = defaultdict(dict)
        # label -> set of (source id, target id)
        self._by_label: Dict[str, Set[Tuple[int, int]]] = defaultdict(set)
        if edges is not None:
            for edge in edges:
                self.add_edge(edge)

    @property
    def interner(self) -> VertexInterner:
        """The vertex string <-> dense-int encoding (read-only use)."""
        return self._interner

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of distinct vertices."""
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        """Number of edges counting multiplicities."""
        return sum(self._edge_counts.values())

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over all vertices."""
        label_of = self._interner.label_of
        return (label_of(vid) for vid in self._vertices)

    def edges(self) -> Iterator[Edge]:
        """Iterate over distinct edges (ignoring multiplicity)."""
        return iter(self._edge_counts)

    def edge_labels(self) -> Set[str]:
        """Return the set of edge labels present in the graph."""
        return {label for label, pairs in self._by_label.items() if pairs}

    def has_vertex(self, vertex: Vertex) -> bool:
        """Return ``True`` when ``vertex`` is present."""
        vid = self._interner.lookup(vertex)
        return vid is not None and vid in self._vertices

    def has_edge(self, edge: Edge) -> bool:
        """Return ``True`` when at least one copy of ``edge`` is present."""
        return self._edge_counts.get(edge, 0) > 0

    def multiplicity(self, edge: Edge) -> int:
        """Return how many copies of ``edge`` are present."""
        return self._edge_counts.get(edge, 0)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_edge(self, edge: Edge) -> None:
        """Add one copy of ``edge``, creating endpoints as needed."""
        self._edge_counts[edge] += 1
        source_id, target_id = self._interner.intern_pair(edge.source, edge.target)
        self._vertices.add(source_id)
        self._vertices.add(target_id)
        self._out[source_id].setdefault(edge.label, set()).add(target_id)
        self._in[target_id].setdefault(edge.label, set()).add(source_id)
        self._by_label[edge.label].add((source_id, target_id))

    def remove_edge(self, edge: Edge) -> None:
        """Remove one copy of ``edge``.

        Raises
        ------
        EdgeNotFoundError
            If no copy of the edge exists.
        """
        count = self._edge_counts.get(edge, 0)
        if count == 0:
            raise EdgeNotFoundError(f"edge not present: {edge}")
        if count == 1:
            del self._edge_counts[edge]
            source_id, target_id = self._interner.intern_pair(edge.source, edge.target)
            self._out[source_id][edge.label].discard(target_id)
            if not self._out[source_id][edge.label]:
                del self._out[source_id][edge.label]
            self._in[target_id][edge.label].discard(source_id)
            if not self._in[target_id][edge.label]:
                del self._in[target_id][edge.label]
            self._by_label[edge.label].discard((source_id, target_id))
        else:
            self._edge_counts[edge] = count - 1

    def apply(self, update: Update) -> None:
        """Apply a stream update (addition or deletion) to the graph."""
        if update.kind is UpdateKind.ADD:
            self.add_edge(update.edge)
        else:
            self.remove_edge(update.edge)

    # ------------------------------------------------------------------
    # Navigation
    # ------------------------------------------------------------------
    def successors(self, vertex: Vertex, label: str | None = None) -> Set[Vertex]:
        """Return successors of ``vertex`` (optionally restricted to ``label``)."""
        vid = self._interner.lookup(vertex)
        per_label = self._out.get(vid) if vid is not None else None
        if not per_label:
            return set()
        label_of = self._interner.label_of
        if label is not None:
            return {label_of(t) for t in per_label.get(label, ())}
        result: Set[Vertex] = set()
        for targets in per_label.values():
            result.update(label_of(t) for t in targets)
        return result

    def predecessors(self, vertex: Vertex, label: str | None = None) -> Set[Vertex]:
        """Return predecessors of ``vertex`` (optionally restricted to ``label``)."""
        vid = self._interner.lookup(vertex)
        per_label = self._in.get(vid) if vid is not None else None
        if not per_label:
            return set()
        label_of = self._interner.label_of
        if label is not None:
            return {label_of(s) for s in per_label.get(label, ())}
        result: Set[Vertex] = set()
        for sources in per_label.values():
            result.update(label_of(s) for s in sources)
        return result

    def out_degree(self, vertex: Vertex) -> int:
        """Number of distinct outgoing (label, target) pairs of ``vertex``."""
        vid = self._interner.lookup(vertex)
        if vid is None or vid not in self._vertices:
            raise VertexNotFoundError(f"vertex not present: {vertex}")
        return sum(len(ts) for ts in self._out.get(vid, {}).values())

    def in_degree(self, vertex: Vertex) -> int:
        """Number of distinct incoming (label, source) pairs of ``vertex``."""
        vid = self._interner.lookup(vertex)
        if vid is None or vid not in self._vertices:
            raise VertexNotFoundError(f"vertex not present: {vertex}")
        return sum(len(ss) for ss in self._in.get(vid, {}).values())

    def edges_with_label(self, label: str) -> Set[Tuple[Vertex, Vertex]]:
        """Return the set of (source, target) pairs carrying ``label``."""
        label_of = self._interner.label_of
        return {(label_of(s), label_of(t)) for s, t in self._by_label.get(label, ())}

    # ------------------------------------------------------------------
    # Dunder helpers
    # ------------------------------------------------------------------
    def __contains__(self, item: object) -> bool:
        if isinstance(item, Edge):
            return self.has_edge(item)
        if isinstance(item, str):
            return self.has_vertex(item)
        return False

    def __len__(self) -> int:
        return self.num_edges

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Graph(vertices={self.num_vertices}, edges={self.num_edges}, "
            f"labels={len(self.edge_labels())})"
        )

    def copy(self) -> "Graph":
        """Return a deep copy of the graph."""
        clone = Graph()
        for edge, count in self._edge_counts.items():
            for _ in range(count):
                clone.add_edge(edge)
        return clone
