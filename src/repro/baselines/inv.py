"""INV / INV+: the inverted-index baseline engines (paper Section 5.1).

INV indexes query graph patterns at the granularity of *edges* using three
inverted indexes (``edgeInd``, ``sourceInd``, ``targetInd``).  On every
update it

1. probes ``edgeInd`` with the update's generalised keys to find the affected
   queries and discards those with an empty materialized view on any edge,
2. re-materializes every covering path of each surviving query by joining
   the base edge views along the path **from scratch** (the expensive
   "join and explore" the paper criticises), and
3. extends the path rows that use the update across the other paths'
   relations to produce the new query answers — through the same
   positional backtracking program TRIC enumerates its answers with
   (:class:`~repro.matching.plans.QueryEvaluationPlan`).

INV+ (the re-differentiated ``+`` tier) is INV plus *answer
materialisation*: every polled query's answer set is cached in an
:class:`~repro.matching.answers.AnswerSetCache`, patched exactly on
additions (the delta bindings the notification decision computes anyway are
unioned in) and marked dirty by deletions (refreshed lazily at the next
poll) — so ``matches_of`` stops paying the full path re-materialization on
every poll of a stable query.  Deletion-time invalidation re-checks use the
existence-mode ``evaluate_full(limit=1)`` on both tiers — the cross-path
enumeration stops at the first surviving witness, though this
join-and-explore baseline still pays each covering path's materialisation
first.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set

from ..core.engine import BatchReport, ContinuousEngine
from ..graph.elements import Edge
from ..graph.interning import VertexInterner
from ..matching.answers import AnswerSetCache
from ..matching.plans import PathPlan, QueryEvaluationPlan, bindings_to_dicts
from ..matching.relation import Relation, Row, extend_path_rows
from ..matching.views import EdgeViewRegistry
from ..query.pattern import QueryGraphPattern
from ..query.terms import EdgeKey

__all__ = ["INVEngine", "INVPlusEngine"]


class INVEngine(ContinuousEngine):
    """Inverted-index baseline with full path re-materialization per update.

    Parameters
    ----------
    materialize_answers:
        The re-differentiated ``+`` flag: cache each polled query's answer
        set, patch it on additions, refresh it lazily after deletions (see
        the module docstring).  Off by default — the base engine
        materialises nothing and probes existence instead.
    injective:
        Require injective (isomorphism) answer semantics.
    interner:
        Vertex encoding shared with the base views.
    """

    name = "INV"

    def __init__(
        self,
        *,
        materialize_answers: bool = False,
        injective: bool = False,
        interner: VertexInterner | None = None,
    ) -> None:
        super().__init__(injective=injective)
        self.materializes_answers = materialize_answers
        self._views = EdgeViewRegistry(interner=interner)
        self._plans: Dict[str, QueryEvaluationPlan] = {}
        # query id -> cached answer relation, created lazily on the first
        # poll of that query (``None`` when materialisation is off).
        self._answers: Optional[Dict[str, AnswerSetCache]] = (
            {} if materialize_answers else None
        )
        #: edgeInd — generalised edge key -> query ids using it.
        self._edge_index: Dict[EdgeKey, Set[str]] = {}
        #: sourceInd / targetInd — vertex term (literal value or ``?var``) ->
        #: generalised keys whose source / target is that term.
        self._source_index: Dict[str, Set[EdgeKey]] = {}
        self._target_index: Dict[str, Set[EdgeKey]] = {}

    # ------------------------------------------------------------------
    # Indexing phase
    # ------------------------------------------------------------------
    def _index_query(self, pattern: QueryGraphPattern) -> None:
        plan = QueryEvaluationPlan(pattern, interner=self._views.interner)
        self._plans[pattern.query_id] = plan
        for key in plan.distinct_keys():
            self._views.register(key)
            self._edge_index.setdefault(key, set()).add(pattern.query_id)
            self._source_index.setdefault(key.source, set()).add(key)
            self._target_index.setdefault(key.target, set()).add(key)

    # ------------------------------------------------------------------
    # Answering phase
    # ------------------------------------------------------------------
    def _on_addition_batch(self, edges: Sequence[Edge]) -> FrozenSet[str]:
        """Native micro-batch addition processing.

        The expensive per-query path re-materialization is performed once
        per affected query per *batch* instead of once per update, which is
        the dominant amortization for this join-and-explore baseline.

        Returns a :class:`~repro.core.engine.BatchReport` whose ``affected``
        set comes straight off ``edgeInd``: a query's answers can only
        change when one of its generalised keys' views changed, and every
        key of every query is registered there.
        """
        new_rows_by_key = self._views.apply_additions(edges)
        if not new_rows_by_key:
            return BatchReport(affected=())
        affected = self._affected_queries(new_rows_by_key)
        matched: Set[str] = set()
        for query_id in sorted(affected):
            if self._answer_query(query_id, new_rows_by_key):
                matched.add(query_id)
        return BatchReport(matched, affected=affected)

    def _affected_queries(self, keys: Iterable[EdgeKey]) -> Set[str]:
        affected: Set[str] = set()
        for key in keys:
            affected.update(self._edge_index.get(key, ()))
        return affected

    def _answer_query(self, query_id: str, new_rows_by_key: Mapping[EdgeKey, Iterable[Row]]) -> bool:
        """Notification decision for one affected query, plus cache upkeep.

        The *delta bindings* — answers derivable using at least one new
        base tuple — decide the notification; when the query has a live
        answer cache they are also unioned into it, which keeps the cache
        exact (every answer present after a batch of additions either
        existed before or uses a new tuple).
        """
        new_bindings = self._delta_bindings(query_id, new_rows_by_key)
        if new_bindings is None or not new_bindings:
            return False
        if self._answers is not None:
            cache = self._answers.get(query_id)
            if cache is not None:
                cache.absorb_new(new_bindings)
        return True

    def _delta_bindings(
        self, query_id: str, new_rows_by_key: Mapping[EdgeKey, Iterable[Row]]
    ) -> Relation | None:
        """Answers of ``query_id`` derivable with the batch's new tuples."""
        plan = self._plans[query_id]
        # Step 1 (paper): a query is only a candidate when every one of its
        # edges has a non-empty materialized view.
        if any(not self._views.view(key) for key in plan.distinct_keys()):
            return None
        full_rows = self._materialize_paths(plan)
        if full_rows is None:
            return None
        deltas = self._path_deltas(plan, full_rows, new_rows_by_key)
        if not deltas:
            return None
        return plan.evaluate_delta(
            deltas,
            full_rows,
            injective=self.injective,
        )

    def _materialize_paths(self, plan: QueryEvaluationPlan) -> List[Set[Row]] | None:
        """Fully join the base views along every covering path of the query."""
        full_rows: List[Set[Row]] = []
        for path_plan in plan.path_plans:
            rows = self._materialize_path(path_plan)
            if not rows:
                return None
            full_rows.append(rows)
        return full_rows

    def _materialize_path(self, path_plan: PathPlan) -> Set[Row]:
        keys = path_plan.key_sequence
        rows: Set[Row] = set(self._views.view(keys[0]).rows)
        for key in keys[1:]:
            if not rows:
                return set()
            rows = set(extend_path_rows(rows, self._views.view(key)))
        return rows

    @staticmethod
    def _path_deltas(
        plan: QueryEvaluationPlan,
        full_rows: Sequence[Set[Row]],
        new_rows_by_key: Mapping[EdgeKey, Iterable[Row]],
    ) -> Dict[int, Set[Row]]:
        """Positional rows of each affected path that use a new base tuple."""
        deltas: Dict[int, Set[Row]] = {}
        for key, new_rows in new_rows_by_key.items():
            new_rows = set(new_rows)
            for path_index, positions in plan.key_occurrences.get(key, ()):
                using_edge = {
                    row
                    for row in full_rows[path_index]
                    if any((row[pos], row[pos + 1]) in new_rows for pos in positions)
                }
                if using_edge:
                    deltas.setdefault(path_index, set()).update(using_edge)
        return deltas

    def _on_deletion_batch(self, edges: Sequence[Edge]) -> FrozenSet[str]:
        """Native micro-batch deletion processing.

        Affected queries' answer caches are marked dirty (refreshed lazily
        at the next poll, never eagerly here), and each affected satisfied
        query is re-checked once per batch through the existence-mode
        witness probe (:meth:`has_matches`), which stops at the first
        surviving answer instead of materialising them all.
        """
        removed_by_key = self._views.apply_deletions(edges)
        if not removed_by_key:
            return BatchReport(affected=())
        affected = self._affected_queries(removed_by_key)
        invalidated: Set[str] = set()
        for query_id in affected:
            if self._answers is not None:
                cache = self._answers.get(query_id)
                if cache is not None:
                    cache.mark_dirty()
            if query_id in self._satisfied and not self.has_matches(query_id):
                invalidated.add(query_id)
        return BatchReport(invalidated, affected=affected)

    # ------------------------------------------------------------------
    # Answers
    # ------------------------------------------------------------------
    def matches_of(self, query_id: str) -> List[Dict[str, str]]:
        """Current answers of ``query_id``.

        With answer materialisation on, polls after the first are served
        from the cached answer relation — no path re-materialization, no
        cross-path enumeration.  The base engine recomputes every answer on
        every call (the paper's join-and-explore behaviour).
        """
        self._require_known(query_id)
        if self._answers is not None:
            return bindings_to_dicts(
                self._materialized_answers(query_id), self._views.interner
            )
        return bindings_to_dicts(self._full_bindings(query_id), self._views.interner)

    def has_matches(self, query_id: str) -> bool:
        """Existence probe: clean-cache emptiness, or a first-witness search.

        A dirty cache is *not* refreshed here — deletion-time invalidation
        falls through to the ``evaluate_full(limit=1)`` backtracking
        search.  Note the probe is only witness-limited at the *cross-path
        enumeration*: this join-and-explore baseline still materialises each
        covering path's relation first (it maintains no per-path state to
        probe incrementally, unlike TRIC's binding relations), so the
        re-check costs O(path materialisation + first witness).
        """
        self._require_known(query_id)
        if self._answers is not None:
            cache = self._answers.get(query_id)
            if cache is not None and not cache.dirty:
                return bool(cache)
        plan = self._plans[query_id]
        full_rows = self._materialize_paths(plan)
        if full_rows is None:
            return False
        return bool(plan.evaluate_full(full_rows, injective=self.injective, limit=1))

    def _full_bindings(self, query_id: str) -> Relation:
        """Fully evaluate ``query_id`` from the base views (no caches)."""
        plan = self._plans[query_id]
        full_rows = self._materialize_paths(plan)
        if full_rows is None:
            return Relation(plan.variable_names)
        return plan.evaluate_full(full_rows, injective=self.injective)

    def _materialized_answers(self, query_id: str) -> Relation:
        """The query's cached answer relation, refreshed if dirty."""
        assert self._answers is not None
        cache = self._answers.get(query_id)
        if cache is None:
            cache = AnswerSetCache(self._plans[query_id])
            self._answers[query_id] = cache
        if cache.dirty:
            cache.reset_to(self._full_bindings(query_id))
        return cache.relation

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def views(self) -> EdgeViewRegistry:
        """The base materialized views (read-only use)."""
        return self._views

    def statistics(self) -> Dict[str, int]:
        """Index statistics for reports."""
        statistics = {
            "indexed_keys": len(self._edge_index),
            "base_views": len(self._views),
            "base_view_rows": self._views.total_rows(),
            "source_terms": len(self._source_index),
            "target_terms": len(self._target_index),
        }
        if self._answers is not None:
            statistics["materialized_queries"] = len(self._answers)
            statistics["materialized_answer_rows"] = sum(
                len(cache.relation) for cache in self._answers.values()
            )
        return statistics

    def describe(self) -> Dict[str, object]:
        description = super().describe()
        description.update(self.statistics())
        description["materialize_answers"] = self.materializes_answers
        description["interner"] = self._views.interner.stats()
        return description


class INVPlusEngine(INVEngine):
    """INV+ — INV with answer materialisation for polled queries.

    Additions patch the cached answer sets exactly (the delta bindings the
    notification decision computes are unioned in); deletions mark affected
    caches dirty, deferring the recompute — which the base engine pays on
    *every* ``matches_of`` call — to the next poll.
    """

    name = "INV+"

    def __init__(
        self, *, injective: bool = False, interner: VertexInterner | None = None
    ) -> None:
        super().__init__(materialize_answers=True, injective=injective, interner=interner)
