"""Graph-database baseline: re-execute affected queries on an embedded store.

This reproduces the paper's third baseline (Section 5.3), which extends an
embedded Neo4j instance with auxiliary in-memory structures:

* every registered pattern is compiled to the store's declarative query
  form (the stand-in for Cypher) and kept in ``queryInd``,
* every query edge is indexed in the ``edgeInd`` inverted index,
* each stream update is applied to the store through the transaction
  manager, the affected queries are looked up in ``edgeInd``, and each one is
  re-executed **in full** against the store.

Because re-execution scans the growing store on every update, this baseline
reproduces the paper's characteristic behaviour: acceptable on small graphs,
increasingly slow as the graph grows, far behind TRIC/TRIC+ throughout.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set

from ..core.engine import BatchReport, ContinuousEngine
from ..graph.elements import Edge
from ..graphdb.executor import QueryExecutor
from ..graphdb.planner import QueryPlanner
from ..graphdb.query import GraphQuery, compile_pattern
from ..graphdb.store import PropertyGraphStore
from ..graphdb.transactions import TransactionManager
from ..query.pattern import QueryGraphPattern
from ..query.terms import EdgeKey, Literal, Variable, candidate_keys_for_edge
from .naive import NaiveEngine  # noqa: F401  (re-exported convenience for callers)

__all__ = ["GraphDBEngine"]

Assignment = Dict[str, str]


class GraphDBEngine(ContinuousEngine):
    """Continuous multi-query processing on top of the embedded graph database."""

    name = "GraphDB"

    def __init__(
        self,
        *,
        injective: bool = False,
        writes_per_transaction: int = 20_000,
        store: Optional[PropertyGraphStore] = None,
    ) -> None:
        super().__init__(injective=injective)
        self._store = store or PropertyGraphStore()
        self._transactions = TransactionManager(self._store, writes_per_transaction)
        self._executor = QueryExecutor(self._store, QueryPlanner(self._store))
        #: queryInd — query id -> compiled query.
        self._compiled: Dict[str, GraphQuery] = {}
        #: edgeInd — generalised edge key -> query ids using it.
        self._edge_index: Dict[EdgeKey, Set[str]] = {}
        self._patterns_by_id: Dict[str, QueryGraphPattern] = {}

    # ------------------------------------------------------------------
    # Indexing phase
    # ------------------------------------------------------------------
    def _index_query(self, pattern: QueryGraphPattern) -> None:
        compiled = compile_pattern(pattern)
        self._compiled[pattern.query_id] = compiled
        self._patterns_by_id[pattern.query_id] = pattern
        for key in pattern.distinct_edge_keys():
            self._edge_index.setdefault(key, set()).add(pattern.query_id)

    # ------------------------------------------------------------------
    # Answering phase (one update is a micro-batch of one)
    # ------------------------------------------------------------------
    def _on_addition_batch(self, edges: Sequence[Edge]) -> FrozenSet[str]:
        """Write the whole batch to the store, then re-execute each affected
        query once per batch instead of once per update."""
        fresh: List[Edge] = []
        for edge in edges:
            was_present = self._store.has_edge(edge.label, edge.source, edge.target)
            self._transactions.write_edge_addition(edge.label, edge.source, edge.target)
            self._transactions.flush()
            if not was_present:
                fresh.append(edge)
        if not fresh:
            # Only duplicate occurrences: no new answers can exist.
            return BatchReport(affected=())
        affected: Set[str] = set()
        for edge in fresh:
            affected.update(self._affected_queries(edge))
        matched: Set[str] = set()
        for query_id in sorted(affected):
            assignments = self._executor.execute(
                self._compiled[query_id], injective=self.injective
            ).assignments
            if self._any_assignment_uses_an_edge(query_id, assignments, fresh):
                matched.add(query_id)
        return BatchReport(matched, affected=affected)

    def _on_deletion_batch(self, edges: Sequence[Edge]) -> FrozenSet[str]:
        """Apply the whole batch of removals, then re-check each affected
        satisfied query once per batch."""
        gone: List[Edge] = []
        for edge in edges:
            if not self._store.has_edge(edge.label, edge.source, edge.target):
                continue
            self._transactions.write_edge_removal(edge.label, edge.source, edge.target)
            self._transactions.flush()
            if not self._store.has_edge(edge.label, edge.source, edge.target):
                gone.append(edge)
        if not gone:
            return BatchReport(affected=())
        affected: Set[str] = set()
        for edge in gone:
            affected.update(self._affected_queries(edge))
        invalidated: Set[str] = set()
        for query_id in affected:
            if query_id not in self._satisfied:
                continue
            result = self._executor.execute(
                self._compiled[query_id], injective=self.injective, limit=1
            )
            if not result:
                invalidated.add(query_id)
        return BatchReport(invalidated, affected=affected)

    def _affected_queries(self, edge: Edge) -> Set[str]:
        affected: Set[str] = set()
        for key in candidate_keys_for_edge(edge):
            affected.update(self._edge_index.get(key, ()))
        return affected

    def _any_assignment_uses_an_edge(
        self, query_id: str, assignments: List[Assignment], edges: Sequence[Edge]
    ) -> bool:
        """``True`` when some answer maps a query edge onto one of ``edges``.

        One pass over the assignments: each query edge is paired up front
        with the set of ``(source, target)`` rows of the batch edges it can
        match, so the cost is |assignments| x |pattern edges| regardless of
        the batch size.
        """
        pattern = self._patterns_by_id[query_id]
        rows_by_query_edge = []
        for query_edge in pattern.edges:
            rows = {(e.source, e.target) for e in edges if query_edge.key.matches(e)}
            if rows:
                rows_by_query_edge.append((query_edge, rows))
        if not rows_by_query_edge:
            return False
        for assignment in assignments:
            for query_edge, rows in rows_by_query_edge:
                source = self._resolve(query_edge.source, assignment)
                target = self._resolve(query_edge.target, assignment)
                if (source, target) in rows:
                    return True
        return False

    @staticmethod
    def _resolve(term, assignment: Assignment) -> Optional[str]:
        if isinstance(term, Literal):
            return term.value
        if isinstance(term, Variable):
            return assignment.get(term.name)
        return None

    # ------------------------------------------------------------------
    # Answers
    # ------------------------------------------------------------------
    def matches_of(self, query_id: str) -> List[Assignment]:
        self._require_known(query_id)
        result = self._executor.execute(self._compiled[query_id], injective=self.injective)
        return sorted(result.assignments, key=lambda a: tuple(sorted(a.items())))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def store(self) -> PropertyGraphStore:
        """The underlying property-graph store (read-only use)."""
        return self._store

    @property
    def executor(self) -> QueryExecutor:
        """The query executor (exposes plan-cache counters)."""
        return self._executor

    def statistics(self) -> Dict[str, int]:
        """Store and plan-cache statistics for reports."""
        return {
            "store_vertices": self._store.num_vertices,
            "store_edges": self._store.num_edges,
            "indexed_keys": len(self._edge_index),
            "plans_built": self._executor.plans_built,
            "plan_cache_hits": self._executor.plan_cache_hits,
        }

    def describe(self) -> Dict[str, object]:
        description = super().describe()
        description.update(self.statistics())
        return description
