"""INC / INC+: the incremental inverted-index baselines (paper Section 5.2).

INC reuses INV's inverted indexes but changes how the joins along a covering
path are executed: instead of re-materializing the whole path from its base
views, the path join is *seeded with the triggering update* and expanded
left and right from the position the update matched.  Only when a query has
several covering paths do the unaffected paths still require full
materialization, for the final cross-path enumeration.

INC+ (the re-differentiated ``+`` tier) is INC plus answer materialisation,
exactly like INV+: polled queries' answer sets are cached, patched on
additions with the delta bindings the notification decision computes, and
marked dirty by deletions (refreshed lazily at the next poll).

Both tiers inherit INV's :class:`~repro.core.engine.BatchReport`
production: the per-batch affected-query set comes off the shared
``edgeInd`` (every generalised key of every query is indexed there, so the
set is complete for the update-seeded joins too).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Set

from ..graph.interning import VertexInterner
from ..matching.plans import PathPlan
from ..matching.relation import Relation, Row, extend_path_rows
from ..query.terms import EdgeKey
from .inv import INVEngine

__all__ = ["INCEngine", "INCPlusEngine"]


class INCEngine(INVEngine):
    """Inverted-index baseline with update-seeded (incremental) path joins."""

    name = "INC"

    # ------------------------------------------------------------------
    # Answering phase
    # ------------------------------------------------------------------
    def _delta_bindings(
        self, query_id: str, new_rows_by_key: Mapping[EdgeKey, Iterable[Row]]
    ) -> Relation | None:
        """Delta bindings via update-seeded expansion (no full path joins)."""
        plan = self._plans[query_id]
        if any(not self._views.view(key) for key in plan.distinct_keys()):
            return None

        deltas: Dict[int, Set[Row]] = {}
        for key, new_rows in new_rows_by_key.items():
            for path_index, positions in plan.key_occurrences.get(key, ()):
                path_plan = plan.path_plans[path_index]
                rows: Set[Row] = set()
                for position in positions:
                    for new_row in new_rows:
                        rows.update(self._expand_from_update(path_plan, position, new_row))
                if rows:
                    deltas.setdefault(path_index, set()).update(rows)
        if not deltas:
            return None

        # Paths untouched by the update still need their full relation for
        # the final cross-path enumeration; when several paths are affected
        # their full relations are needed as well (delta-A extends across
        # full-B and vice versa).
        full_rows: List[Set[Row]] = []
        for path_index, path_plan in enumerate(plan.path_plans):
            needs_full = path_index not in deltas or len(deltas) > 1
            if needs_full:
                rows = self._materialize_path(path_plan)
                if not rows:
                    return None
                full_rows.append(rows)
            else:
                full_rows.append(set())

        return plan.evaluate_delta(
            deltas,
            full_rows,
            injective=self.injective,
        )

    def _expand_from_update(self, path_plan: PathPlan, position: int, new_row: Row) -> Set[Row]:
        """Positional rows of the path that use ``new_row`` at edge ``position``.

        Starting from the two positions covered by the update tuple, the
        partial row is expanded to the right (joining each subsequent edge
        view on the running endpoint) and then to the left (joining each
        preceding edge view backwards), exactly the "use only the update"
        strategy the paper describes for INC.
        """
        keys = path_plan.key_sequence
        partial_rows: List[Row] = [new_row]
        for key in keys[position + 1 :]:
            if not partial_rows:
                return set()
            partial_rows = extend_path_rows(
                partial_rows, self._views.view(key), direction="forward"
            )
        for key in reversed(keys[:position]):
            if not partial_rows:
                return set()
            partial_rows = extend_path_rows(
                partial_rows, self._views.view(key), direction="backward"
            )
        return set(partial_rows)


class INCPlusEngine(INCEngine):
    """INC+ — INC with answer materialisation for polled queries.

    Same caching contract as INV+: exact union patches on additions,
    dirty-marking on deletions with poll-time refresh, O(answer-set) polls
    of stable queries.
    """

    name = "INC+"

    def __init__(
        self, *, injective: bool = False, interner: VertexInterner | None = None
    ) -> None:
        super().__init__(materialize_answers=True, injective=injective, interner=interner)
