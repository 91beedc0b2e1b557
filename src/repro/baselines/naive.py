"""Naive per-query re-evaluation engine.

This engine keeps the full evolving graph and, for every update, runs the
backtracking matcher for every registered query with the update edge pinned.
It performs no indexing, no clustering and no materialization, which makes
it (a) the slowest possible strategy and (b) an ideal *correctness oracle*:
its answers follow directly from the matching semantics, so every other
engine is tested for agreement against it.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Set

from ..core.engine import ContinuousEngine
from ..graph.elements import Edge
from ..graph.graph import Graph
from ..matching.evaluator import find_embeddings, find_new_embeddings
from ..query.pattern import QueryGraphPattern

__all__ = ["NaiveEngine"]


class NaiveEngine(ContinuousEngine):
    """Re-evaluate every query against the full graph on every update."""

    name = "Naive"

    def __init__(self, *, injective: bool = False) -> None:
        super().__init__(injective=injective)
        self._graph = Graph()

    # ------------------------------------------------------------------
    # Indexing phase (none — the naive engine stores only the pattern)
    # ------------------------------------------------------------------
    def _index_query(self, pattern: QueryGraphPattern) -> None:  # noqa: D401
        """The naive engine needs no per-query index structures."""

    # ------------------------------------------------------------------
    # Answering phase (one update is a micro-batch of one)
    # ------------------------------------------------------------------
    def _on_addition_batch(self, edges: Sequence[Edge]) -> FrozenSet[str]:
        """Apply the whole batch to the graph, then re-evaluate each query once."""
        fresh: List[Edge] = []
        for edge in edges:
            if not self._graph.has_edge(edge):
                fresh.append(edge)
            self._graph.add_edge(edge)
        if not fresh:
            return frozenset()
        matched: Set[str] = set()
        for query_id, pattern in self._queries.items():
            for edge in fresh:
                if find_new_embeddings(
                    self._graph, pattern, edge, injective=self.injective, limit=1
                ):
                    matched.add(query_id)
                    break
        return frozenset(matched)

    def _on_deletion_batch(self, edges: Sequence[Edge]) -> FrozenSet[str]:
        """Apply the whole batch to the graph, then re-check satisfied queries once."""
        any_gone = False
        for edge in edges:
            self._graph.remove_edge(edge)
            if not self._graph.has_edge(edge):
                any_gone = True
        if not any_gone:
            # Every deleted edge still has multigraph copies left: no answer
            # can have disappeared.
            return frozenset()
        invalidated: Set[str] = set()
        for query_id in self._satisfied:
            pattern = self._queries[query_id]
            if not find_embeddings(self._graph, pattern, injective=self.injective, limit=1):
                invalidated.add(query_id)
        return frozenset(invalidated)

    # ------------------------------------------------------------------
    # Answers
    # ------------------------------------------------------------------
    def matches_of(self, query_id: str) -> List[Dict[str, str]]:
        pattern = self._require_known(query_id)
        return sorted(
            find_embeddings(self._graph, pattern, injective=self.injective),
            key=lambda assignment: tuple(sorted(assignment.items())),
        )

    @property
    def graph(self) -> Graph:
        """The evolving graph held by the oracle (read-only use)."""
        return self._graph
