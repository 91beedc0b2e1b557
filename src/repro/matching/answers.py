"""Maintained answer materialisation: the subsystem behind the ``+`` engines.

The base engines (TRIC, INV, INC) answer *notifications* — "did this query
gain or lose answers?" — through existence probes that stop at the first
witness, and compute the full answer set of a query only on demand, by
enumerating it through its covering-path relations.  The ``+`` variants
(TRIC+, INV+, INC+) additionally *materialise* each polled query's answer
relation and keep it maintained, so
:meth:`~repro.core.engine.ContinuousEngine.matches_of` becomes an
O(answer-set) decode instead of a cross-path enumeration, and deletion
invalidation of a polled query becomes an O(1) emptiness check.

Two maintenance strategies live here, matching the two engine families:

:class:`MaterializedAnswers`
    Exact maintenance for engines whose per-path relations are maintained
    (TRIC+: the shared trie views).  Every variable of a covering path is
    an answer column, so an answer determines its *derivation* — the one
    row per covering path that produces it — and the answer relation is a
    plain set.  The maintainer is a *reader* of the path relations' signed
    delta logs: at every synchronisation it folds what each path logged
    since the last one into a net ``(added, removed)`` pair, extends those
    rows across the *other* paths' relations (through their maintained
    indexes) and patches the answer relation in place; an answer
    disappears exactly when a row of its derivation does.

:class:`AnswerSetCache`
    Set-semantics caching for recompute-style engines without maintained
    per-path state (INV+, INC+).  Additions are absorbed exactly — any
    answer created by a batch is derivable from the batch's delta rows, so
    unioning the engine's delta bindings into the cache is lossless — while
    deletions mark the cache dirty: invalidation keeps using the engines'
    O(witness) existence probe, and the recompute (which the base variants
    performed on *every* ``matches_of`` call) is deferred to the next
    poll.

Both classes are deliberately engine-agnostic: they hold no references to
views, tries, or inverted indexes, only to a
:class:`~repro.matching.plans.QueryEvaluationPlan` and log positions into
whatever relations the engine hands them.

Answer-ordering note: engines decode these relations through
:func:`~repro.matching.plans.bindings_to_dicts`, which canonicalises the
output order — a materialised answer relation with the same *rows* as a
fresh evaluation therefore yields a byte-identical ``matches_of`` list.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .plans import QueryEvaluationPlan
from .relation import Delta, Relation, Row

__all__ = ["MaterializedAnswers", "AnswerSetCache"]


def _net_delta(deltas: Iterable[Delta]) -> Tuple[Set[Row], Set[Row]]:
    """Fold a slice of a signed delta log to its net ``(added, removed)`` rows.

    A row's visibility alternates, so an appearance cancels a pending
    disappearance of the same row and vice versa; what is left is disjoint
    from (``added``) resp. contained in (``removed``) the old state.
    """
    added: Set[Row] = set()
    removed: Set[Row] = set()
    for row, sign in deltas:
        if sign > 0:
            if row in removed:
                removed.discard(row)
            else:
                added.add(row)
        elif row in added:
            added.discard(row)
        else:
            removed.add(row)
    return added, removed


class _OldState:
    """A path relation as it was before its pending net delta (read-only).

    The relation itself is already at its new state — it is shared and
    live — so the old state is reconstructed per probe: the current bucket
    minus the rows that appeared, plus the rows that disappeared and match
    the key.  Only built for paths that actually have a pending delta.
    """

    __slots__ = ("relation", "added", "removed")

    def __init__(self, relation: Relation, added: Set[Row], removed: Set[Row]) -> None:
        self.relation = relation
        self.added = added
        self.removed = removed

    def probe(self, key_positions: Tuple[int, ...], key: Tuple) -> List[Row]:
        added = self.added
        bucket = [
            row for row in self.relation.probe(key_positions, key) if row not in added
        ]
        for row in self.removed:
            if all(row[position] == value for position, value in zip(key_positions, key)):
                bucket.append(row)
        return bucket

    @property
    def rows(self) -> Set[Row]:
        return (self.relation.rows - self.added) | self.removed


class MaterializedAnswers:
    """Maintained answer relation of one query (TRIC+ strategy).

    The relation's rows are tuples over the plan's
    :attr:`~repro.matching.plans.QueryEvaluationPlan.variable_names`: the
    answers of every current *derivation* — combination of one row per
    covering path relation that agree on their shared variables (and pass
    the injectivity filter when the engine requires isomorphism
    semantics).  An answer has exactly one derivation
    (:meth:`~repro.matching.plans.QueryEvaluationPlan.iter_derivations`),
    so every ``add`` and ``remove`` the maintainer issues changes the
    relation's visibility.

    Lifecycle
    ---------
    A maintainer starts *stale*.  :meth:`rebuild` computes the relation
    from the query's current path relations (one enumeration pass, one
    row per answer), asks each of them to record its delta log and
    remembers ``(epoch, log position)`` per path.  From then on
    :meth:`sync` brings the answers up to date with whatever the paths
    logged in between.  Because the path relations are shared and live,
    *all* of them are already at their new state when :meth:`sync` runs;
    the exact sequential inclusion–exclusion is restored on net deltas:
    path ``i``'s rows are joined against paths ``< i`` as they are (new)
    and paths ``> i`` through an :class:`_OldState` overlay.  A wholesale
    change to any path relation (an epoch bump: backfill, log compaction)
    marks the maintainer stale until the next :meth:`rebuild`.
    """

    __slots__ = ("plan", "injective", "relation", "_stale", "_epochs", "_positions")

    def __init__(self, plan: QueryEvaluationPlan, *, injective: bool = False) -> None:
        self.plan = plan
        self.injective = injective
        self.relation = Relation(plan.variable_names)
        self._stale = True
        # Per covering path: epoch of its relation at the last rebuild, and
        # the log position the answers are current with.
        self._epochs: Optional[List[int]] = None
        self._positions: List[int] = []

    @property
    def stale(self) -> bool:
        """``True`` while the relation needs a :meth:`rebuild`."""
        return self._stale

    def mark_stale(self) -> None:
        """Invalidate the relation (a binding relation changed wholesale)."""
        self._stale = True

    def rebuild(self, binding_relations: Sequence[Relation]) -> None:
        """Recompute the relation from the current ``binding_relations``.

        Enumerates every derivation through the plan's backtracking
        program (probing the binding relations' maintained indexes), so
        the cost is proportional to the number of answers, not to the
        cross product of the path relations.
        """
        self._epochs = [relation.epoch for relation in binding_relations]
        self.relation = Relation(
            self.plan.variable_names,
            self.plan.iter_derivations(binding_relations, injective=self.injective),
        )
        for path_relation in binding_relations:
            path_relation.track_deltas()
        self._positions = [path_relation.log_length for path_relation in binding_relations]
        self._stale = False

    def sync(self, binding_relations: Sequence[Relation]) -> None:
        """Patch the answers with what the path relations logged since the
        last :meth:`sync` / :meth:`rebuild`.

        With nothing pending this is one epoch and one log-length
        comparison per path.  Otherwise each path's log slice is folded to
        a net delta and fed in path order — removals before additions, so
        every intermediate state is the answer set of a consistent set of
        path states and each answer is removed while present and added
        while absent.  An epoch change on any path marks the maintainer
        stale instead.
        """
        if self._epochs is None:
            return
        stale = self._stale
        pending: Dict[int, Tuple[Set[Row], Set[Row]]] = {}
        for index, relation in enumerate(binding_relations):
            if relation.epoch != self._epochs[index]:
                self.mark_stale()
                return
            if not stale and relation.log_length != self._positions[index]:
                pending[index] = _net_delta(relation.deltas_since(self._positions[index]))
                self._positions[index] = relation.log_length
        if not pending:
            return
        sources: List[object] = list(binding_relations)
        for index, (added, removed) in pending.items():
            sources[index] = _OldState(binding_relations[index], added, removed)
        answers = self.relation
        iter_delta_derivations = self.plan.iter_delta_derivations
        injective = self.injective
        for index, (added, removed) in pending.items():
            # Path ``index`` itself is never probed while its own rows are
            # fed; later paths must see it at its new state.
            sources[index] = binding_relations[index]
            for row in removed:
                for answer in iter_delta_derivations(index, row, sources, injective=injective):
                    answers.remove(answer)
            for row in added:
                for answer in iter_delta_derivations(index, row, sources, injective=injective):
                    answers.add(answer)

    def __len__(self) -> int:
        return len(self.relation)

    def __bool__(self) -> bool:
        return bool(self.relation)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "stale" if self._stale else f"answers={len(self.relation)}"
        return f"MaterializedAnswers({state})"


class AnswerSetCache:
    """Set-semantics materialised answers (INV+ / INC+ strategy).

    Engines without maintained per-path binding relations cannot attribute
    a retracted base tuple to the answers it supported, so this cache
    patches additions exactly and invalidates lazily on deletions:

    * :meth:`absorb_new` unions a batch's *delta bindings* (the answers
      derivable using at least one new base tuple — which the engine
      already computes for its notification decision) into the relation.
      This is lossless: every answer present after a batch of additions
      either existed before or uses a new tuple.
    * :meth:`mark_dirty` records that a deletion may have removed cached
      answers.  A dirty cache is *not* recomputed eagerly — the engine's
      deletion-time invalidation keeps using the O(witness) existence
      probe — but the next actual poll refreshes it through
      :meth:`reset_to` (the same full evaluation the non-materialising
      engine would run inside every ``matches_of``).

    The cache is born dirty, so the first poll computes it.
    """

    __slots__ = ("relation", "_dirty")

    def __init__(self, plan: QueryEvaluationPlan) -> None:
        self.relation = Relation(plan.variable_names)
        self._dirty = True

    @property
    def dirty(self) -> bool:
        """``True`` while a deletion may have invalidated cached answers."""
        return self._dirty

    def mark_dirty(self) -> None:
        """Record a deletion touching this query (refresh deferred to the
        next poll)."""
        self._dirty = True

    def absorb_new(self, new_bindings: Relation) -> None:
        """Union the answers of a positive delta into the cache.

        A no-op while dirty: the pending refresh recomputes everything
        anyway, so patching a known-stale relation is wasted work.
        """
        if not self._dirty:
            self.relation.add_all(new_bindings.rows)

    def reset_to(self, bindings: Relation) -> None:
        """Replace the cached answers wholesale (poll-time refresh)."""
        self.relation.replace_rows(bindings.rows)
        self._dirty = False

    def __len__(self) -> int:
        return len(self.relation)

    def __bool__(self) -> bool:
        return bool(self.relation)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "dirty, " if self._dirty else ""
        return f"AnswerSetCache({state}answers={len(self.relation)})"
