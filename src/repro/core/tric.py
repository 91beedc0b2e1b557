"""TRIC and TRIC+: trie-based clustering of continuous graph queries.

This module implements the paper's primary contribution (Section 4):

* **Indexing phase** — every registered query is decomposed into covering
  paths; each path (generalised: variables become the anonymous ``?var``) is
  inserted into the trie forest so that structurally identical prefixes of
  different queries share trie nodes *and* their materialized views.
* **Answering phase** — stream updates are processed through a *unified
  delta pipeline*: a micro-batch of edge additions (a single update is just
  a batch of one) is matched against the (at most four) generalised keys
  each edge satisfies, the affected trie nodes are located through
  ``edgeInd``, one positive delta per affected node per batch is joined down
  the tries (pruning sub-tries whose delta dies), and finally the new rows
  of each affected query's terminal views are extended across its other
  terminal views to decide whether the query gained an answer.  The
  terminal views *are* the per-path binding relations: queries probe the
  shared views' maintained indexes directly and keep no per-query copy of
  their rows (see :meth:`~repro.core.trie.TrieNode.binding_relation`).
  Deletions flow through the same pipeline with the sign flipped: the
  retracted base tuples become *negative* deltas that propagate down the
  tries row by row, so a deletion costs one pruned traversal instead of a
  sub-trie rebuild (paper Section 4.3 treats deletions as first-class
  stream updates).  A deletion-time re-check of a still-satisfied query is
  an existence probe — ``evaluate_full(limit=1)`` stops at the first
  surviving witness — never a full answer materialisation.

``TRICEngine(materialize_answers=True)`` (exposed as
:class:`TRICPlusEngine`) is the repository's re-differentiated TRIC+: the
same delta pipeline plus a *maintained answer relation* per polled query
(:class:`~repro.matching.answers.MaterializedAnswers`).  Once a query has
been polled through ``matches_of``, its answers are kept patched in place
from the signed delta logs of its terminal views (recorded only for views
that have such a reader), so subsequent polls are an O(answer-set) decode
(no cross-path join) and deletion invalidation of that query is an O(1)
emptiness check.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..graph.elements import Edge
from ..graph.interning import VertexInterner
from ..matching.answers import MaterializedAnswers
from ..matching.plans import QueryEvaluationPlan, bindings_to_dicts
from ..matching.relation import Relation, Row, extend_path_rows
from ..matching.views import EdgeViewRegistry
from ..query.pattern import QueryGraphPattern
from .engine import BatchReport, ContinuousEngine, MaintainedAnswerSource
from .trie import TrieForest, TrieNode

__all__ = ["TRICEngine", "TRICPlusEngine"]

# affected[query id] -> (path index, rows a terminal node gained) pairs; the
# row lists are the nodes' own deltas, shared by every query on the node.
_AffectedMap = Dict[str, List[Tuple[int, Sequence[Row]]]]


class TRICEngine(ContinuousEngine):
    """Trie-based clustering engine (the paper's Algorithm TRIC).

    Parameters
    ----------
    materialize_answers:
        The re-differentiated ``+`` flag.  When ``True`` the engine keeps a
        maintained answer relation for every query that has been polled
        through :meth:`matches_of`
        (:class:`~repro.matching.answers.MaterializedAnswers`): the answer
        set is patched in place from its terminal views' delta logs,
        later polls are an O(answer-set) decode with no cross-path
        enumeration, and deletion invalidation of a polled query is an
        O(1) emptiness check.  Queries that are never polled pay nothing —
        their deletion re-checks use the same ``evaluate_full(limit=1)``
        witness probe as the base engine.
    injective:
        Require injective (isomorphism) answer semantics.
    interner:
        Vertex encoding used by the base views (dictionary-encoded dense
        ints by default; a :class:`~repro.graph.interning.NullInterner`
        replays the string pipeline, and callers may share one interner
        across engines).
    """

    name = "TRIC"

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
        self._forest = TrieForest(self._views)
        self._plans: Dict[str, QueryEvaluationPlan] = {}
        # queryInd: query id -> per covering path, the positional relation
        # of its terminal node (the node's view, or the node's filtered view
        # for a path that repeats a variable).  Shared objects, never copies.
        self._binding_relations: Dict[str, List[Relation]] = {}
        # query id -> maintained answer relation, created lazily on the
        # first poll of that query (``None`` when materialisation is off).
        self._answers: Optional[Dict[str, MaterializedAnswers]] = (
            {} if materialize_answers else None
        )

    # ------------------------------------------------------------------
    # Indexing phase (paper Fig. 5)
    # ------------------------------------------------------------------
    def _index_query(self, pattern: QueryGraphPattern) -> None:
        plan = QueryEvaluationPlan(pattern, interner=self._views.interner)
        query_id = pattern.query_id
        self._plans[query_id] = plan
        relations: List[Relation] = []
        for path_index, path_plan in enumerate(plan.path_plans):
            keys = path_plan.key_sequence
            self._views.register_all(keys)
            terminal = self._forest.index_path(keys)
            terminal.query_paths.append((query_id, path_index))
            self._backfill_chain(terminal)
            relations.append(terminal.binding_relation(path_plan.equality_positions))
        self._binding_relations[query_id] = relations

    def _backfill_chain(self, terminal: TrieNode) -> None:
        """Recompute the views below the root along a freshly indexed path.

        Registering a query after updates have already been consumed must
        leave its trie nodes consistent with the base views accumulated so
        far (shared prefixes may already carry data).  The root is its
        key's base view, so it is already current; recomputing the rest of
        the chain top-down is idempotent for nodes that were already correct.
        """
        chain: List[TrieNode] = []
        node = terminal
        while node.parent is not None:
            chain.append(node)
            node = node.parent
        for node in reversed(chain):
            rows = set(self._extend_rows(node.parent.view.rows, self._views.view(node.key)))
            if rows != node.view.rows:
                node.replace_rows(rows)

    # ------------------------------------------------------------------
    # Answering phase — additions (paper Figs. 8 and 10)
    # ------------------------------------------------------------------
    def _on_addition_batch(self, edges: Sequence[Edge]) -> FrozenSet[str]:
        """Native micro-batch addition processing.

        All base views absorb the batch first; then every affected trie node
        computes *one* positive delta for the whole batch (amortizing the
        parent-view probe structures over the batch) and propagates it down
        its sub-trie.  The affected queries are evaluated once per batch.

        Returns a :class:`~repro.core.engine.BatchReport` whose ``affected``
        set is exactly the queries whose terminal views gained rows — a
        query's answers are a join of projections of its terminal views, so
        any query outside the set provably kept its answer set.
        """
        new_by_key = self._views.apply_additions(edges)
        if not new_by_key:
            return BatchReport(affected=())

        # A node indexes exactly one key, so no node is listed twice.
        forest = self._forest
        affected_nodes = [
            node for key in new_by_key for node in forest.nodes_with_key(key)
        ]
        if not affected_nodes:
            return BatchReport(affected=())

        affected: _AffectedMap = {}
        # Shallow nodes first so a parent's view already contains the new
        # delta when a deeper node with the same key computes its own delta.
        for node in sorted(affected_nodes, key=lambda n: n.depth):
            new_rows = new_by_key[node.key]
            if node.is_root:
                # The root's view is the base view: the registry added them.
                added = new_rows
                node.filter_added(added)
            else:
                added = node.add_rows(self._delta_against_parent(node, new_rows))
            if not added:
                continue
            self._record_terminal(node, added, affected)
            self._propagate(node, added, affected)

        return BatchReport(self._evaluate_affected(affected), affected=affected)

    def _delta_against_parent(self, node: TrieNode, new_rows: Sequence[Row]) -> List[Row]:
        """Delta of a non-root node hit directly by a batch of new tuples.

        Joins the parent's prefix view with the new base tuples of the
        node's key: rows of the parent whose last vertex equals a new
        tuple's source, extended with that tuple's target.  The probe goes
        through the parent view's maintained last-column index — created on
        first use, patched by the view's own mutations from then on — so the
        cost is O(|delta| x bucket), never O(|parent view|).
        """
        parent_view = node.parent.view
        lookup = parent_view.index_map((parent_view.arity - 1,)).get
        delta: List[Row] = []
        for source, target in new_rows:
            bucket = lookup((source,))
            if bucket:
                delta.extend(parent_row + (target,) for parent_row in bucket)
        return delta

    def _propagate(self, node: TrieNode, delta_rows: Sequence[Row], affected: _AffectedMap) -> None:
        """Push a delta down the sub-trie, pruning branches whose delta dies."""
        for child in node.children.values():
            base = self._views.get(child.key)
            if base is None or not base:
                continue
            extended = self._extend_rows(delta_rows, base)
            if not extended:
                continue
            added = child.add_rows(extended)
            if not added:
                continue
            self._record_terminal(child, added, affected)
            self._propagate(child, added, affected)

    def _extend_rows(self, rows: Iterable[Row], base: Relation) -> List[Row]:
        """Join prefix rows with a base edge view on ``last column == source``."""
        return extend_path_rows(rows, base, direction="forward")

    @staticmethod
    def _record_terminal(node: TrieNode, added: Sequence[Row], affected: _AffectedMap) -> None:
        for query_id, path_index in node.query_paths:
            affected.setdefault(query_id, []).append((path_index, added))

    def _evaluate_affected(self, affected: _AffectedMap) -> FrozenSet[str]:
        matched: Set[str] = set()
        for query_id, path_deltas in affected.items():
            relations = self._binding_relations[query_id]
            # A live maintainer is fed inside the tick that changed its views.
            self._live_maintainer(query_id, relations)
            # Notifications only need existence: extend each new terminal
            # row across the other paths' views and stop at the first
            # complete answer (O(delta) probes, no relation materialisation).
            if self._plans[query_id].has_new_binding(
                path_deltas, relations, injective=self.injective
            ):
                matched.add(query_id)
        return frozenset(matched)

    # ------------------------------------------------------------------
    # Answering phase — deletions (extension, paper Section 4.3)
    # ------------------------------------------------------------------
    def _on_deletion_batch(self, edges: Sequence[Edge]) -> FrozenSet[str]:
        """Native micro-batch deletion processing.

        Deletions flow through the same delta pipeline as additions, with
        the sign flipped: the base tuples retracted from the views become
        negative deltas at the directly affected trie nodes, and prefix rows
        that die propagate their deaths down the sub-tries (pruning branches
        whose negative delta dies).  The views' maintained indexes are
        patched in place, never rebuilt, and the per-query invalidation re-check
        is an existence probe (:meth:`has_matches`), never a full answer
        materialisation.

        Returns a :class:`~repro.core.engine.BatchReport` whose ``affected``
        set is the queries whose terminal views lost rows (the same
        projection argument as on the addition side).
        """
        removed_by_key = self._views.apply_deletions(edges)
        if not removed_by_key:
            return BatchReport(affected=())

        forest = self._forest
        affected_nodes = [
            node for key in removed_by_key for node in forest.nodes_with_key(key)
        ]

        affected_queries: Set[str] = set()
        # Shallow nodes first, mirroring additions: a deeper node hit both
        # directly and through its ancestor sees its view already pruned.
        for node in sorted(affected_nodes, key=lambda n: n.depth):
            retracted = removed_by_key[node.key]
            if node.is_root:
                # The root's view is the base view: the registry removed them.
                removed = retracted
                node.filter_removed(removed)
            else:
                removed = node.remove_rows(self._direct_dead_rows(node, retracted))
            if not removed:
                continue
            affected_queries.update(query_id for query_id, _ in node.query_paths)
            self._propagate_removals(node, removed, affected_queries)

        invalidated: Set[str] = set()
        for query_id in affected_queries:
            if query_id in self._satisfied and not self.has_matches(query_id):
                invalidated.add(query_id)
        return BatchReport(invalidated, affected=affected_queries)

    def _direct_dead_rows(self, node: TrieNode, removed_rows: Set[Row]) -> List[Row]:
        """Rows of a non-root ``node``'s view that use a retracted base tuple
        at the node's own edge position.

        Probes the view's maintained ``(source, target)``-pair index, so the
        cost is proportional to the retracted tuples' buckets, not the view.
        """
        position = node.depth - 1
        view = node.view
        positions = (position, position + 1)
        dead: List[Row] = []
        for pair in removed_rows:
            dead.extend(view.probe(positions, pair))
        return dead

    def _propagate_removals(
        self, node: TrieNode, removed: Sequence[Row], affected_queries: Set[str]
    ) -> None:
        """Push a negative delta down the sub-trie, pruning branches where it dies.

        A child row dies exactly when its parent prefix died; the dead rows
        are found through the child view's maintained prefix index, one
        bucket per removed prefix.
        """
        removed_prefixes = set(removed)
        for child in node.children.values():
            child_view = child.view
            if not child_view:
                continue
            prefix_positions = tuple(range(child_view.arity - 1))
            dead: List[Row] = []
            for prefix in removed_prefixes:
                dead.extend(child_view.probe(prefix_positions, prefix))
            child_removed = child.remove_rows(dead)
            if not child_removed:
                continue
            affected_queries.update(query_id for query_id, _ in child.query_paths)
            self._propagate_removals(child, child_removed, affected_queries)

    # ------------------------------------------------------------------
    # Answers
    # ------------------------------------------------------------------
    def matches_of(self, query_id: str) -> List[Dict[str, str]]:
        """Current answers of ``query_id``.

        With answer materialisation on, the result is decoded straight from
        the query's maintained answer relation (created on the first poll,
        patched by the delta pipeline from then on) — no cross-path
        enumeration runs on this call path.  The base engine enumerates the
        answers on demand by backtracking through the terminal views'
        maintained indexes (O(answers)).
        """
        self._require_known(query_id)
        if self._answers is not None:
            return bindings_to_dicts(
                self._materialized_answers(query_id), self._views.interner
            )
        bindings = self._plans[query_id].evaluate_full(
            binding_relations=self._binding_relations[query_id],
            injective=self.injective,
        )
        return bindings_to_dicts(bindings, self._views.interner)

    def has_matches(self, query_id: str) -> bool:
        """Existence probe: O(1) on a materialised query, O(witness) otherwise.

        A query with a live (non-stale) maintained answer relation answers
        from its patched emptiness; every other query — including one
        whose maintainer went stale through a wholesale view change, whose
        rebuild stays deferred to the next poll — runs the existence-mode
        ``evaluate_full(limit=1)`` backtracking search over its terminal
        views, which stops at the first surviving witness.
        This is what deletion-time invalidation re-checks call, so neither
        path ever materialises a full answer set.
        """
        self._require_known(query_id)
        relations = self._binding_relations[query_id]
        maintainer = self._live_maintainer(query_id, relations)
        if maintainer is not None:
            return bool(maintainer)
        witness = self._plans[query_id].evaluate_full(
            binding_relations=relations, injective=self.injective, limit=1
        )
        return bool(witness)

    def _live_maintainer(
        self, query_id: str, relations: Sequence[Relation]
    ) -> Optional[MaterializedAnswers]:
        """The query's maintainer, synchronised — or ``None`` when it has
        none or went stale (rebuilds stay deferred to the next poll)."""
        if self._answers is None:
            return None
        maintainer = self._answers.get(query_id)
        if maintainer is None:
            return None
        maintainer.sync(relations)
        return None if maintainer.stale else maintainer

    def _materialized_answers(self, query_id: str) -> Relation:
        """The query's maintained answer relation, created/refreshed lazily."""
        assert self._answers is not None
        maintainer = self._answers.get(query_id)
        if maintainer is None:
            maintainer = MaterializedAnswers(
                self._plans[query_id], injective=self.injective
            )
            self._answers[query_id] = maintainer
        relations = self._binding_relations[query_id]
        maintainer.sync(relations)
        if maintainer.stale:
            maintainer.rebuild(relations)
        return maintainer.relation

    def answer_delta_source(self, query_id: str) -> Optional[MaintainedAnswerSource]:
        """Expose the maintained answer relation for exact delta reads.

        Available exactly when the engine materialises answers and the
        query's (lazily created) maintained relation is live — the pub/sub
        delta tracker then consumes answer visibility changes off the
        relation's signed delta log instead of re-polling ``matches_of``.
        """
        self._require_known(query_id)
        if self._answers is None:
            return None
        relation = self._materialized_answers(query_id)
        relation.track_deltas()
        return MaintainedAnswerSource(relation, self._views.interner)

    # ------------------------------------------------------------------
    # Introspection used by tests and reports
    # ------------------------------------------------------------------
    @property
    def forest(self) -> TrieForest:
        """The underlying trie forest (read-only use)."""
        return self._forest

    @property
    def views(self) -> EdgeViewRegistry:
        """The base materialized views (read-only use)."""
        return self._views

    def statistics(self) -> Dict[str, int]:
        """Structural statistics used by reports and clustering tests."""
        total_path_edges = sum(
            path_plan.path.length
            for plan in self._plans.values()
            for path_plan in plan.path_plans
        )
        statistics = {
            "tries": self._forest.num_tries(),
            "trie_nodes": self._forest.num_nodes(),
            "indexed_path_edges": total_path_edges,
            "base_views": len(self._views),
            "base_view_rows": self._views.total_rows(),
        }
        if self._answers is not None:
            statistics["materialized_queries"] = len(self._answers)
            statistics["materialized_answer_rows"] = sum(
                len(maintainer.relation) for maintainer in self._answers.values()
            )
        return statistics

    def describe(self) -> Dict[str, object]:
        description = super().describe()
        description.update(self.statistics())
        description["materialize_answers"] = self.materializes_answers
        description["interner"] = self._views.interner.stats()
        return description


class TRICPlusEngine(TRICEngine):
    """TRIC+ — TRIC with maintained answer materialisation.

    The paper's TRIC+ cached hash-join build structures (Section 4.2,
    "Caching"); those structures are maintained for every variant in this
    codebase, so the repository re-differentiates the ``+`` tier as the
    *answer-materialising* variant: ``matches_of`` of a polled query is
    served from a maintained answer relation instead of a cross-path
    enumeration, and deletion invalidation of a polled query is an O(1)
    emptiness check.
    """

    name = "TRIC+"

    def __init__(
        self, *, injective: bool = False, interner: VertexInterner | None = None
    ) -> None:
        super().__init__(materialize_answers=True, injective=injective, interner=interner)
