"""Per-query evaluation plans shared by every engine.

A query graph pattern is answered from its covering paths: each path yields a
relation of *positional* rows (one column per path position), and the paths
are joined on shared variable names (paper Section 4.1, "Materialization"
and "Variable Handling").

A positional row that satisfies the path's repeated-variable constraints
*is* a variable binding, read through the path's
:attr:`~PathPlan.variable_positions`: literal positions are constant across
the relation (the literal is part of the generalised edge key) and repeated
positions equal their first occurrence, so rows and bindings correspond one
to one.  The backtracking programs below are therefore compiled in
*positional* coordinates and probe the positional relations directly —
for TRIC those are the shared trie views themselves, so every query on a
terminal node probes the same maintained index and nothing is projected or
copied per query.

:class:`QueryEvaluationPlan` encapsulates that per-query logic so that TRIC,
INV and INC only differ in *how* they produce the per-path positional
relations (shared trie views vs. per-query path joins), not in how the final
answer is assembled: every engine enumerates answers through the same
backtracking program, and a path relation handed over as plain rows is
wrapped in a probeable :class:`~repro.matching.relation.Relation` first.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from ..graph.interning import VertexInterner
from ..query.paths import CoveringPath, covering_paths
from ..query.pattern import QueryGraphPattern
from ..query.terms import EdgeKey, Variable
from .relation import Relation, Row, rows_with_equal_positions

__all__ = ["PathPlan", "QueryEvaluationPlan", "bindings_to_dicts"]


def _positional_schema(length: int) -> Tuple[str, ...]:
    """Column names for a path with ``length`` edges (``length + 1`` positions)."""
    return tuple(f"p{i}" for i in range(length + 1))


class PathPlan:
    """Evaluation metadata for one covering path of a query."""

    __slots__ = (
        "path",
        "terms",
        "schema",
        "equality_positions",
        "variable_positions",
        "variable_names",
    )

    def __init__(self, path: CoveringPath) -> None:
        self.path = path
        self.terms = path.terms()
        self.schema = _positional_schema(path.length)

        # Positions that must carry equal values because the same variable
        # occurs more than once along the path (cycles, self-joins).
        first_seen: Dict[str, int] = {}
        equality: List[Tuple[int, int]] = []
        for position, term in enumerate(self.terms):
            if isinstance(term, Variable):
                if term.name in first_seen:
                    equality.append((first_seen[term.name], position))
                else:
                    first_seen[term.name] = position
        self.equality_positions: Tuple[Tuple[int, int], ...] = tuple(equality)
        # First position of each variable, in first-occurrence order.
        self.variable_names: Tuple[str, ...] = tuple(first_seen)
        self.variable_positions: Tuple[int, ...] = tuple(
            first_seen[name] for name in self.variable_names
        )

    @property
    def key_sequence(self) -> Tuple[EdgeKey, ...]:
        """Generalised edge keys along the path."""
        return self.path.key_sequence()

    def positions_of_key(self, key: EdgeKey) -> List[int]:
        """Edge positions (0-based) along the path whose key equals ``key``."""
        return [i for i, k in enumerate(self.key_sequence) if k == key]

    def positional_relation(self, rows: Iterable[Row]) -> Relation:
        """``rows`` that satisfy the path's equality constraints, as a
        positional relation the backtracking programs can probe."""
        if self.equality_positions:
            rows = rows_with_equal_positions(rows, self.equality_positions)
        return Relation(self.schema, rows)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PathPlan(length={self.path.length}, vars={self.variable_names})"


class QueryEvaluationPlan:
    """Covering-path decomposition plus answer assembly for one query.

    ``interner`` is the vertex encoding of the engine's edge-view registry;
    when supplied, the plan's literal vertex values are interned up front so
    the injectivity filter compares dense ints against int rows (the rows it
    sees are produced by interned base views).
    """

    def __init__(
        self,
        pattern: QueryGraphPattern,
        paths: Sequence[CoveringPath] | None = None,
        *,
        interner: VertexInterner | None = None,
    ) -> None:
        self.pattern = pattern
        if paths is None:
            paths = covering_paths(pattern)
        self.path_plans: List[PathPlan] = [PathPlan(path) for path in paths]
        variables: List[str] = []
        for plan in self.path_plans:
            for name in plan.variable_names:
                if name not in variables:
                    variables.append(name)
        self.variable_names: Tuple[str, ...] = tuple(variables)
        literal_values = (literal.value for literal in pattern.literals())
        self._literal_values: Tuple[object, ...] = tuple(
            interner.intern(value) for value in literal_values
        ) if interner is not None else tuple(literal_values)
        # Generalised edge key -> list of (path index, edge positions in path).
        self.key_occurrences: Dict[EdgeKey, List[Tuple[int, List[int]]]] = {}
        for path_index, plan in enumerate(self.path_plans):
            for key in set(plan.key_sequence):
                positions = plan.positions_of_key(key)
                self.key_occurrences.setdefault(key, []).append((path_index, positions))
        # Slot of each variable in an assignment list (= its answer column).
        slots = {name: slot for slot, name in enumerate(self.variable_names)}
        #: Per path: ``(assignment slot, row position)`` of each of its variables.
        self._path_columns: List[Tuple[Tuple[int, int], ...]] = [
            tuple(
                (slots[name], position)
                for name, position in zip(plan.variable_names, plan.variable_positions)
            )
            for plan in self.path_plans
        ]
        # affected path index (or None for the full-enumeration program) ->
        # probe program for the existence/enumeration machinery, built lazily.
        self._delta_programs: Dict[Optional[int], List[Tuple]] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_paths(self) -> int:
        """Number of covering paths."""
        return len(self.path_plans)

    def distinct_keys(self) -> Set[EdgeKey]:
        """All generalised edge keys used by the query's covering paths."""
        return set(self.key_occurrences)

    # ------------------------------------------------------------------
    # Answer assembly
    # ------------------------------------------------------------------
    def evaluate_full(
        self,
        path_rows: Sequence[Iterable[Row]] | None = None,
        *,
        binding_relations: Sequence[Relation] | None = None,
        injective: bool = False,
        limit: int | None = None,
    ) -> Relation:
        """Assemble query-level bindings from every covering path.

        Answers are enumerated by backtracking through the paths'
        positional relations (:meth:`iter_derivations`): one derivation per
        answer, every probe O(bucket), so the cost is O(answers) and never
        the cross product of the path relations.

        Parameters
        ----------
        path_rows:
            Positional rows of each covering path (in plan order) — what
            the join-and-explore engines (INV, INC) materialise per call.
            Rows violating their path's equality constraints are dropped.
        binding_relations:
            Maintained positional relations of each covering path (in plan
            order), every row satisfying its path's equality constraints —
            TRIC's terminal views, probed in place, never copied.  Takes
            precedence over ``path_rows``.
        injective:
            Keep only bindings mapping distinct variables (and literals)
            to distinct vertices (isomorphism semantics).
        limit:
            *Existence mode.*  Stop as soon as ``limit`` distinct bindings
            exist.  ``limit=1`` is the deletion-invalidation probe — "does
            any answer survive?" — and costs O(first witness) instead of
            O(answer set).

        Returns
        -------
        Relation
            Bindings over :attr:`variable_names` — the query's full answer
            relation, or its first ``limit`` bindings in existence mode.
        """
        if binding_relations is None:
            if path_rows is None:
                raise ValueError("evaluate_full needs path_rows or binding_relations")
            binding_relations = self._positional_relations(path_rows)
        result = Relation(self.variable_names)
        if limit is not None and limit < 1:
            return result
        answers = result.rows
        for answer in self.iter_derivations(binding_relations, injective=injective):
            answers.add(answer)
            if len(answers) == limit:
                break
        return result

    def evaluate_delta(
        self,
        delta_rows_by_path: Mapping[int, Iterable[Row]],
        full_path_rows: Sequence[Iterable[Row]],
        *,
        injective: bool = False,
    ) -> Relation:
        """Bindings derivable only with the new (delta) rows of affected paths.

        Each delta row of an affected path is extended across the *other*
        paths' full relations (:meth:`iter_delta_derivations`); the union
        over affected paths is exactly the set of *new* query answers
        produced by the triggering update.  An affected path's own full
        rows are never read, so a caller with a single affected path may
        pass an empty placeholder for them.
        """
        relations = self._positional_relations(full_path_rows)
        result = Relation(self.variable_names)
        answers = result.rows
        for affected_index, delta_rows in delta_rows_by_path.items():
            equality = self.path_plans[affected_index].equality_positions
            if equality:
                delta_rows = rows_with_equal_positions(delta_rows, equality)
            for row in delta_rows:
                answers.update(
                    self.iter_delta_derivations(
                        affected_index, row, relations, injective=injective
                    )
                )
        return result

    def _positional_relations(self, path_rows: Sequence[Iterable[Row]]) -> List[Relation]:
        """One probeable positional relation per covering path."""
        return [
            plan.positional_relation(rows)
            for plan, rows in zip(self.path_plans, path_rows)
        ]

    # ------------------------------------------------------------------
    # Existence check (the notification hot path)
    # ------------------------------------------------------------------
    def has_new_binding(
        self,
        path_deltas: Iterable[Tuple[int, Iterable[Row]]],
        binding_relations: Sequence[Relation],
        *,
        injective: bool = False,
    ) -> bool:
        """``True`` iff the delta rows complete at least one answer —
        without materialising any.

        Per-update notifications only need to know *whether* a query gained
        an answer.  ``path_deltas`` are ``(path index, new positional rows)``
        pairs — the rows a batch added to that path's relation, handed over
        by reference (rows of one delta are distinct, nothing is copied or
        de-duplicated here).  Each row is extended across the other
        covering paths by backtracking through their relations' maintained
        indexes, stopping at the first complete binding.  Every probe is
        O(bucket) and the whole check is proportional to the delta, not to
        the query's answer set.

        ``binding_relations`` must hold the current positional relation of
        every covering path, in plan order (see :meth:`evaluate_full`).
        """
        for relation in binding_relations:
            if not relation:
                # Some covering path has no bindings at all: no complete
                # answer can exist, with or without the delta.
                return False
        assignment: List[object] = [None] * len(self.variable_names)
        for affected_index, delta_rows in path_deltas:
            path_plan = self.path_plans[affected_index]
            program = self._delta_program(affected_index)
            equality = path_plan.equality_positions
            bound = self._path_columns[affected_index]
            if equality:
                delta_rows = rows_with_equal_positions(delta_rows, equality)
            for row in delta_rows:
                for slot, position in bound:
                    assignment[slot] = row[position]
                if self._extend_assignment(program, 0, assignment, binding_relations, injective):
                    return True
        return False

    def _delta_program(self, affected_index: Optional[int]) -> List[Tuple]:
        """Probe steps extending an affected path's binding across the others.

        With ``affected_index=None`` the program enumerates *every* path
        from an empty assignment (the full-enumeration program behind
        :meth:`iter_derivations`).  Paths are ordered greedily so each step
        shares at least one already bound variable where possible.  A step
        is ``(path index, shared slots, shared positions, new slots, new
        positions)``: the key probed is read from the assignment's *slots*,
        the index probed and the values read off a bucket row are
        *positions of the path's positional relation* — so the runtime
        loops do no schema arithmetic and build no per-row projection.
        """
        program = self._delta_programs.get(affected_index)
        if program is None:
            if affected_index is None:
                bound: Set[str] = set()
                remaining = list(range(len(self.path_plans)))
            else:
                bound = set(self.path_plans[affected_index].variable_names)
                remaining = [i for i in range(len(self.path_plans)) if i != affected_index]
            program = []
            while remaining:
                index = next(
                    (i for i in remaining if bound.intersection(self.path_plans[i].variable_names)),
                    remaining[0],
                )
                remaining.remove(index)
                path_plan = self.path_plans[index]
                columns = list(zip(path_plan.variable_names, self._path_columns[index]))
                shared = [column for name, column in columns if name in bound]
                fresh = [column for name, column in columns if name not in bound]
                program.append(
                    (
                        index,
                        tuple(slot for slot, _ in shared),
                        tuple(position for _, position in shared),
                        tuple(slot for slot, _ in fresh),
                        tuple(position for _, position in fresh),
                    )
                )
                bound.update(path_plan.variable_names)
            self._delta_programs[affected_index] = program
        return program

    def _extend_assignment(
        self,
        program: List[Tuple],
        step: int,
        assignment: List[object],
        binding_relations: Sequence[Relation],
        injective: bool,
    ) -> bool:
        """``True`` iff ``assignment`` completes through ``program[step:]``.

        ``assignment`` is mutated in place: each step owns its new slots and
        simply overwrites them on the next bucket row, so backtracking
        copies nothing.
        """
        if step == len(program):
            return not injective or self._is_injective(assignment)
        index, shared_slots, shared_positions, new_slots, new_positions = program[step]
        relation = binding_relations[index]
        if shared_positions:
            key = tuple([assignment[slot] for slot in shared_slots])
            bucket = relation.probe(shared_positions, key)
        else:
            bucket = relation.rows
        if not bucket:
            return False
        if not new_slots:
            # Every bucket row agrees with the assignment and binds nothing
            # new; one witness is enough.
            return self._extend_assignment(program, step + 1, assignment, binding_relations, injective)
        for bucket_row in bucket:
            for slot, position in zip(new_slots, new_positions):
                assignment[slot] = bucket_row[position]
            if self._extend_assignment(program, step + 1, assignment, binding_relations, injective):
                return True
        return False

    # ------------------------------------------------------------------
    # Derivation enumeration (answer materialisation and existence mode)
    # ------------------------------------------------------------------
    def iter_derivations(
        self,
        binding_relations: Sequence[Relation],
        *,
        injective: bool = False,
    ) -> Iterator[Row]:
        """Yield one answer tuple per *derivation* of the query.

        A derivation is a combination of one row per covering path that
        agrees on every shared variable.  Every variable of a path is a
        column of the answer, so an answer determines its derivation: each
        answer is yielded exactly once.  Probes go through the relations'
        maintained indexes, so the cost is proportional to the number of
        answers, never to the cross product of the path relations.
        """
        for relation in binding_relations:
            if not relation:
                return
        program = self._delta_program(None)
        assignment: List[object] = [None] * len(self.variable_names)
        for _ in self._iter_assignments(program, 0, assignment, binding_relations):
            if injective and not self._is_injective(assignment):
                continue
            yield tuple(assignment)

    def iter_delta_derivations(
        self,
        path_index: int,
        row: Row,
        binding_relations: Sequence[Relation],
        *,
        injective: bool = False,
    ) -> Iterator[Row]:
        """Yield the derivations gained (or lost) with one path row.

        Extends ``row`` — a positional row of covering path ``path_index``
        (satisfying its equality constraints) that just appeared in or
        disappeared from that path's relation — across the *other* paths'
        relations.  An answer determines its derivation, so each yield is an
        answer that appears (or disappears) with ``row``; ``path_index``'s
        own relation is never probed, so the caller is free to feed the
        delta before or after patching it.
        """
        assignment: List[object] = [None] * len(self.variable_names)
        for slot, position in self._path_columns[path_index]:
            assignment[slot] = row[position]
        program = self._delta_program(path_index)
        for _ in self._iter_assignments(program, 0, assignment, binding_relations):
            if injective and not self._is_injective(assignment):
                continue
            yield tuple(assignment)

    def _iter_assignments(
        self,
        program: List[Tuple],
        step: int,
        assignment: List[object],
        binding_relations: Sequence[Relation],
    ) -> Iterator[None]:
        """Enumerate every completion of ``assignment`` through ``program``.

        Unlike :meth:`_extend_assignment` (which short-circuits at the
        first witness), every consistent combination of bucket rows is
        visited — one yield per derivation, with ``assignment`` holding the
        completed binding *at the time of the yield* (it is mutated in
        place, so consumers read it before resuming).  When a step binds no
        new variable its bucket is keyed on every variable column, so it
        holds at most one row and contributes at most one choice.
        """
        if step == len(program):
            yield None
            return
        index, shared_slots, shared_positions, new_slots, new_positions = program[step]
        relation = binding_relations[index]
        if shared_positions:
            key = tuple([assignment[slot] for slot in shared_slots])
            bucket = relation.probe(shared_positions, key)
        else:
            bucket = relation.rows
        if not bucket:
            return
        if not new_slots:
            yield from self._iter_assignments(
                program, step + 1, assignment, binding_relations
            )
            return
        for bucket_row in bucket:
            for slot, position in zip(new_slots, new_positions):
                assignment[slot] = bucket_row[position]
            yield from self._iter_assignments(
                program, step + 1, assignment, binding_relations
            )

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _is_injective(self, values: Iterable[object]) -> bool:
        """``True`` when ``values`` plus the plan's literals are pairwise distinct."""
        combined = tuple(values) + self._literal_values
        return len(set(combined)) == len(combined)


def bindings_to_dicts(
    bindings: Relation, interner: VertexInterner | None = None
) -> List[Dict[str, str]]:
    """Convert a binding relation into a list of ``{variable: vertex}`` dicts.

    With ``interner`` the rows are int-encoded and decoded back to the
    original identifier strings first.  The output is sorted on the
    variable-name-sorted items of each binding — the canonical answer order
    the naive string-based oracle uses — so every engine's ``matches_of``
    list compares equal element for element.  (The seed sorted on raw rows
    in schema order instead, which silently diverged from the oracle
    whenever a query's first-occurrence variable order was not
    alphabetical.)
    """
    schema = bindings.schema
    if interner is not None:
        rows: Iterable[Row] = (interner.decode_row(row) for row in bindings.rows)
    else:
        rows = bindings.rows
    dicts = [dict(zip(schema, row)) for row in rows]
    dicts.sort(key=lambda binding: tuple(sorted(binding.items())))
    return dicts
