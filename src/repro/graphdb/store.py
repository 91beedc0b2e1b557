"""Embedded in-memory property-graph store.

This is the repository's stand-in for the embedded Neo4j instance used by the
paper's third baseline: a persistent (for the process lifetime) multigraph
store with label indexes, adjacency indexes, per-label statistics and
multi-edge support.  The continuous-query baseline applies every stream
update to this store and re-executes affected queries against it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Optional, Set, Tuple

from ..graph.errors import EdgeNotFoundError
from .indexes import AdjacencyIndex, LabelIndex, VertexLabelIndex

__all__ = ["StoredVertex", "StoredEdge", "PropertyGraphStore", "StoreStatistics"]


@dataclass
class StoredVertex:
    """A vertex record: id, optional class labels, optional properties."""

    vertex_id: str
    labels: Set[str] = field(default_factory=set)
    properties: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class StoredEdge:
    """An edge record with a unique id (multi-edges get distinct ids)."""

    edge_id: int
    label: str
    source: str
    target: str


@dataclass(frozen=True)
class StoreStatistics:
    """Summary counts used by reports and by the query planner."""

    num_vertices: int
    num_edges: int
    num_labels: int
    label_cardinalities: Dict[str, int]


class PropertyGraphStore:
    """In-memory property graph with label and adjacency indexes."""

    def __init__(self) -> None:
        self._vertices: Dict[str, StoredVertex] = {}
        self._edges: Dict[int, StoredEdge] = {}
        self._edge_ids_by_triple: Dict[Tuple[str, str, str], list] = {}
        self._next_edge_id = 0
        self._label_index = LabelIndex()
        self._adjacency = AdjacencyIndex()
        self._vertex_labels = VertexLabelIndex()
        self._label_counts: Counter[str] = Counter()

    # ------------------------------------------------------------------
    # Vertices
    # ------------------------------------------------------------------
    def create_vertex(
        self,
        vertex_id: str,
        labels: Iterable[str] = (),
        properties: Optional[Dict[str, object]] = None,
    ) -> StoredVertex:
        """Create (or fetch) a vertex, merging labels and properties."""
        vertex = self._vertices.get(vertex_id)
        if vertex is None:
            vertex = StoredVertex(vertex_id)
            self._vertices[vertex_id] = vertex
        for label in labels:
            if label not in vertex.labels:
                vertex.labels.add(label)
                self._vertex_labels.add(label, vertex_id)
        if properties:
            vertex.properties.update(properties)
        return vertex

    def vertex(self, vertex_id: str) -> Optional[StoredVertex]:
        """Return the vertex record or ``None``."""
        return self._vertices.get(vertex_id)

    def has_vertex(self, vertex_id: str) -> bool:
        """``True`` when the vertex exists."""
        return vertex_id in self._vertices

    def vertices_with_label(self, label: str) -> Set[str]:
        """Vertex ids carrying the class label ``label``."""
        return set(self._vertex_labels.members(label))

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------
    def add_edge(self, label: str, source: str, target: str) -> StoredEdge:
        """Add one edge occurrence, creating endpoints as needed."""
        self.create_vertex(source)
        self.create_vertex(target)
        edge_id = self._next_edge_id
        self._next_edge_id += 1
        record = StoredEdge(edge_id, label, source, target)
        self._edges[edge_id] = record
        self._edge_ids_by_triple.setdefault((label, source, target), []).append(edge_id)
        self._label_index.add(label, source, target)
        self._adjacency.add(label, source, target)
        self._label_counts[label] += 1
        return record

    def remove_edge(self, label: str, source: str, target: str) -> StoredEdge:
        """Remove one occurrence of the edge; raises when absent."""
        triple = (label, source, target)
        ids = self._edge_ids_by_triple.get(triple)
        if not ids:
            raise EdgeNotFoundError(f"edge not present in store: {source}-[{label}]->{target}")
        edge_id = ids.pop()
        record = self._edges.pop(edge_id)
        if not ids:
            del self._edge_ids_by_triple[triple]
            self._label_index.remove(label, source, target)
            self._adjacency.remove(label, source, target)
        self._label_counts[label] -= 1
        if self._label_counts[label] == 0:
            del self._label_counts[label]
        return record

    def has_edge(self, label: str, source: str, target: str) -> bool:
        """``True`` when at least one occurrence of the edge exists."""
        return (label, source, target) in self._edge_ids_by_triple

    def multiplicity(self, label: str, source: str, target: str) -> int:
        """Number of occurrences of the edge."""
        return len(self._edge_ids_by_triple.get((label, source, target), ()))

    def edges(self) -> Iterator[StoredEdge]:
        """Iterate over every stored edge occurrence."""
        return iter(self._edges.values())

    # ------------------------------------------------------------------
    # Navigation (used by the executor)
    # ------------------------------------------------------------------
    def successors(self, vertex: str, label: str) -> Set[str]:
        """Targets of ``vertex`` through ``label``."""
        return self._adjacency.successors(vertex, label)

    def predecessors(self, vertex: str, label: str) -> Set[str]:
        """Sources reaching ``vertex`` through ``label``."""
        return self._adjacency.predecessors(vertex, label)

    def edges_with_label(self, label: str) -> Set[Tuple[str, str]]:
        """Distinct (source, target) pairs carrying ``label``."""
        return self._label_index.pairs(label)

    def label_cardinality(self, label: str) -> int:
        """Number of distinct edges carrying ``label`` (planner statistic)."""
        return self._label_index.cardinality(label)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices in the store."""
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        """Number of edge occurrences in the store."""
        return len(self._edges)

    def statistics(self) -> StoreStatistics:
        """Planner / report statistics snapshot."""
        cardinalities = {
            label: self._label_index.cardinality(label) for label in self._label_index.labels()
        }
        return StoreStatistics(
            num_vertices=self.num_vertices,
            num_edges=self.num_edges,
            num_labels=len(cardinalities),
            label_cardinalities=cardinalities,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PropertyGraphStore(vertices={self.num_vertices}, edges={self.num_edges})"
