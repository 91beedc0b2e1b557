"""Tests for per-query evaluation plans (path bindings and answer assembly)."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matching.plans import PathPlan, QueryEvaluationPlan, bindings_to_dicts
from repro.matching.relation import Relation
from repro.query import QueryGraphPattern, covering_paths
from repro.query.terms import Variable


@pytest.fixture
def chain_plan() -> QueryEvaluationPlan:
    pattern = QueryGraphPattern(
        "chain", [("hasMod", "?f", "?p"), ("posted", "?p", "pst1")]
    )
    return QueryEvaluationPlan(pattern)


@pytest.fixture
def cycle_plan() -> QueryEvaluationPlan:
    pattern = QueryGraphPattern(
        "cycle", [("knows", "?a", "?b"), ("knows", "?b", "?a")]
    )
    return QueryEvaluationPlan(pattern)


class TestPathPlan:
    def test_positional_schema_and_variables(self, chain_plan):
        path_plan = chain_plan.path_plans[0]
        assert path_plan.schema == ("p0", "p1", "p2")
        assert path_plan.variable_names == ("f", "p")
        assert path_plan.equality_positions == ()

    def test_repeated_variable_creates_equality_constraint(self, cycle_plan):
        path_plan = cycle_plan.path_plans[0]
        assert path_plan.equality_positions == ((0, 2),)

    def test_evaluate_full_drops_literal_columns(self, chain_plan):
        bindings = chain_plan.evaluate_full([{("f1", "p1", "pst1")}])
        assert bindings.schema == ("f", "p")
        assert bindings.rows == {("f1", "p1")}

    def test_evaluate_full_filters_equality_constraints(self, cycle_plan):
        bindings = cycle_plan.evaluate_full([{("a", "b", "a"), ("a", "b", "c")}])
        assert bindings.rows == {("a", "b")}

    def test_positions_of_key(self, cycle_plan):
        path_plan = cycle_plan.path_plans[0]
        key = path_plan.key_sequence[0]
        assert path_plan.positions_of_key(key) == [0, 1]


class TestQueryEvaluationPlan:
    def test_uses_covering_paths_by_default(self, paper_fig4_queries):
        q1 = paper_fig4_queries[0]
        plan = QueryEvaluationPlan(q1)
        assert plan.num_paths == len(covering_paths(q1))

    def test_variable_names_cover_the_whole_query(self, paper_fig4_queries):
        q1 = paper_fig4_queries[0]
        plan = QueryEvaluationPlan(q1)
        assert set(plan.variable_names) == {v.name for v in q1.variables()}

    def test_key_occurrences(self, chain_plan):
        for key in chain_plan.distinct_keys():
            assert [index for index, _ in chain_plan.key_occurrences[key]] == [0]

    def test_evaluate_full_single_path(self, chain_plan):
        rows = {("f1", "p1", "pst1"), ("f2", "p1", "pst1")}
        bindings = chain_plan.evaluate_full([rows])
        assert bindings.rows == {("f1", "p1"), ("f2", "p1")}
        assert bindings_to_dicts(bindings) == [
            {"f": "f1", "p": "p1"},
            {"f": "f2", "p": "p1"},
        ]

    def test_evaluate_full_joins_multiple_paths(self, paper_fig4_queries):
        q1 = paper_fig4_queries[0]
        plan = QueryEvaluationPlan(q1)
        # Build per-path rows consistent with a single embedding.
        rows_per_path = []
        assignment = {"f1": "F", "p1": "P", "com1": "C"}
        for path_plan in plan.path_plans:
            row = []
            for term in path_plan.terms:
                if hasattr(term, "name"):
                    row.append(assignment[term.name])
                else:
                    row.append(term.value)
            rows_per_path.append({tuple(row)})
        bindings = plan.evaluate_full(rows_per_path)
        assert len(bindings) == 1
        only = bindings_to_dicts(bindings)[0]
        assert only == {"f1": "F", "p1": "P", "com1": "C"}

    def test_evaluate_full_empty_path_means_no_answers(self, paper_fig4_queries):
        q1 = paper_fig4_queries[0]
        plan = QueryEvaluationPlan(q1)
        rows_per_path = [set() for _ in plan.path_plans]
        assert len(plan.evaluate_full(rows_per_path)) == 0

    def test_evaluate_delta_returns_only_new_answers(self, chain_plan):
        full = {("f1", "p1", "pst1"), ("f2", "p2", "pst1")}
        delta = {("f2", "p2", "pst1")}
        bindings = chain_plan.evaluate_delta({0: delta}, [full])
        assert bindings.rows == {("f2", "p2")}

    def test_evaluate_delta_with_empty_delta_is_empty(self, chain_plan):
        assert len(chain_plan.evaluate_delta({0: set()}, [set()])) == 0

    def test_injective_filter(self):
        pattern = QueryGraphPattern("q", [("knows", "?a", "?b")])
        plan = QueryEvaluationPlan(pattern)
        rows = {("x", "x"), ("x", "y")}
        homomorphic = plan.evaluate_full([rows])
        injective = plan.evaluate_full([rows], injective=True)
        assert homomorphic.rows == {("x", "x"), ("x", "y")}
        assert injective.rows == {("x", "y")}

    def test_injective_filter_excludes_literal_collisions(self):
        pattern = QueryGraphPattern("q", [("posted", "?a", "pst1")])
        plan = QueryEvaluationPlan(pattern)
        rows = {("pst1", "pst1"), ("u1", "pst1")}
        injective = plan.evaluate_full([rows], injective=True)
        assert injective.rows == {("u1",)}

    def test_bindings_to_dicts_sorted_and_stable(self):
        # Canonical answer order: sorted on the variable-name-sorted items
        # of each binding — the same order the naive oracle reports, so
        # engine answer lists compare equal element for element.
        relation = Relation(("b", "a"), [("2", "1"), ("0", "9")])
        dicts = bindings_to_dicts(relation)
        assert dicts == [{"b": "2", "a": "1"}, {"b": "0", "a": "9"}]


# ----------------------------------------------------------------------
# Answer assembly against a brute-force reference
# ----------------------------------------------------------------------
TERMS = ("?x", "?y", "?z", "?w", "v0", "v1")
VERTICES = ("v0", "v1", "v2")


@st.composite
def plans(draw):
    """Connected patterns with cycles, repeated variables and literals."""
    terms = [draw(st.sampled_from(TERMS))]
    edges = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        anchor = draw(st.sampled_from(terms))
        other = draw(st.sampled_from(TERMS))
        label = draw(st.sampled_from("ab"))
        edges.append((label, anchor, other) if draw(st.booleans()) else (label, other, anchor))
        terms.append(other)
    if not any(term.startswith("?") for _, *ends in edges for term in ends):
        label, _, target = edges[0]
        edges[0] = (label, "?x", target)
    return QueryEvaluationPlan(QueryGraphPattern("q", edges))


def _path_rows(data, path_plan):
    """Positional rows of one path: literal positions hold the literal,
    variable positions any vertex (repeated variables may disagree)."""
    positions = [
        st.sampled_from(VERTICES) if isinstance(term, Variable) else st.just(term.value)
        for term in path_plan.terms
    ]
    return data.draw(st.sets(st.tuples(*positions), min_size=1, max_size=12))


def _reference(plan, rows_per_path, injective):
    """One row per path (``itertools.product``), kept when the rows agree on
    every shared variable, then the injective filter."""
    bindings_per_path = []
    for path_plan, rows in zip(plan.path_plans, rows_per_path):
        bindings = []
        for row in rows:
            binding = {}
            if all(
                binding.setdefault(term.name, value) == value
                for term, value in zip(path_plan.terms, row)
                if isinstance(term, Variable)
            ):
                bindings.append(binding)
        bindings_per_path.append(bindings)
    literals = [literal.value for literal in plan.pattern.literals()]
    answers = set()
    for combination in itertools.product(*bindings_per_path):
        merged = {}
        if not all(
            merged.setdefault(name, value) == value
            for binding in combination
            for name, value in binding.items()
        ):
            continue
        answer = tuple(merged[name] for name in plan.variable_names)
        if injective and len(set(answer + tuple(literals))) != len(answer) + len(literals):
            continue
        answers.add(answer)
    return answers


class TestAssemblyAgainstBruteForce:
    @given(plans(), st.booleans(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_evaluate_full(self, plan, injective, data):
        rows_per_path = [_path_rows(data, path_plan) for path_plan in plan.path_plans]
        expected = _reference(plan, rows_per_path, injective)
        assert plan.evaluate_full(rows_per_path, injective=injective).rows == expected
        witness = plan.evaluate_full(rows_per_path, injective=injective, limit=1)
        assert witness.rows <= expected and len(witness) == min(1, len(expected))

    @given(plans(), st.booleans(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_evaluate_delta(self, plan, injective, data):
        rows_per_path = [_path_rows(data, path_plan) for path_plan in plan.path_plans]
        affected = data.draw(
            st.sets(st.integers(min_value=0, max_value=plan.num_paths - 1), min_size=1)
        )
        deltas = {
            index: data.draw(st.sets(st.sampled_from(sorted(rows_per_path[index]))))
            for index in affected
        }
        expected = set()
        for index, delta in deltas.items():
            substituted = [delta if j == index else rows for j, rows in enumerate(rows_per_path)]
            expected |= _reference(plan, substituted, injective)
        result = plan.evaluate_delta(deltas, rows_per_path, injective=injective)
        assert result.schema == plan.variable_names
        assert result.rows == expected
        if len(deltas) == 1:
            # A lone affected path's own full rows are never read.
            (index,) = deltas
            placeholder = [set() if j == index else rows for j, rows in enumerate(rows_per_path)]
            assert plan.evaluate_delta(deltas, placeholder, injective=injective).rows == expected


# ----------------------------------------------------------------------
# Cross-path assembly: shared variables join, disjoint ones multiply
# ----------------------------------------------------------------------
def _plan(*edges):
    return QueryEvaluationPlan(QueryGraphPattern("q", list(edges)))


class TestCrossPathAssembly:
    def test_paths_join_on_a_shared_variable(self):
        plan = _plan(("a", "?h", "?x"), ("b", "?h", "?y"))
        bindings = plan.evaluate_full([{("1", "x"), ("2", "y")}, {("1", "end"), ("3", "other")}])
        assert bindings.schema == ("h", "x", "y")
        assert bindings.rows == {("1", "x", "end")}

    def test_paths_without_shared_variables_are_a_cartesian_product(self):
        plan = _plan(("a", "?x", "?y"), ("b", "?z", "?w"))
        bindings = plan.evaluate_full([{("1", "p"), ("2", "p")}, {("x", "q")}])
        assert bindings.rows == {("1", "p", "x", "q"), ("2", "p", "x", "q")}

    def test_an_empty_path_empties_the_answer(self):
        plan = _plan(("a", "?h", "?x"), ("b", "?h", "?y"))
        assert len(plan.evaluate_full([{("1", "x")}, set()])) == 0
        assert len(plan.evaluate_delta({0: {("1", "x")}}, [set(), set()])) == 0

    def test_paths_join_on_every_shared_variable(self):
        plan = _plan(("a", "?x", "?y"), ("b", "?x", "?y"))
        bindings = plan.evaluate_full([{("1", "x"), ("1", "y")}, {("1", "x"), ("1", "z")}])
        assert bindings.rows == {("1", "x")}

    @given(
        st.sets(st.tuples(st.sampled_from("abc"), st.sampled_from("xyz")), max_size=12),
        st.sets(st.tuples(st.sampled_from("abc"), st.sampled_from("pq")), max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_assembly_matches_nested_loop_reference(self, left_rows, right_rows):
        plan = _plan(("a", "?h", "?x"), ("b", "?h", "?y"))
        expected = {
            (lh, lx, ry) for lh, lx in left_rows for rh, ry in right_rows if lh == rh
        }
        assert plan.evaluate_full([left_rows, right_rows]).rows == expected

    @given(
        st.sets(st.tuples(st.sampled_from("abc"), st.sampled_from("xyz")), max_size=10),
        st.sets(st.tuples(st.sampled_from("abc"), st.sampled_from("pq")), max_size=10),
    )
    @settings(max_examples=40, deadline=None)
    def test_path_order_does_not_change_the_answers(self, left_rows, right_rows):
        plan = _plan(("a", "?h", "?x"), ("b", "?h", "?y"))
        forward = plan.evaluate_full([left_rows, right_rows])
        paths = [path_plan.path for path_plan in reversed(plan.path_plans)]
        swapped = QueryEvaluationPlan(plan.pattern, paths)
        backward = swapped.evaluate_full([right_rows, left_rows])
        # Same answers, possibly different column order.
        assert _columns(backward, forward.schema) == forward.rows


# ----------------------------------------------------------------------
# Assembly properties
# ----------------------------------------------------------------------
rows_ab = st.sets(st.tuples(st.sampled_from("12"), st.sampled_from("xy")), max_size=8)
rows_bc = st.sets(st.tuples(st.sampled_from("xy"), st.sampled_from("pq")), max_size=8)
rows_cd = st.sets(st.tuples(st.sampled_from("pq"), st.sampled_from("mn")), max_size=8)
CHAIN = (("r", "?a", "?b"), ("s", "?b", "?c"), ("t", "?c", "?d"))


def _one_path_per_edge(edges):
    """A plan over ``edges`` whose covering paths are its single edges, in
    the given order (the default decomposition would make a chain one path)."""
    paths = [covering_paths(QueryGraphPattern("e", [edge]))[0] for edge in edges]
    return QueryEvaluationPlan(QueryGraphPattern("q", list(edges)), paths)


def _columns(relation, names):
    return {tuple(row[relation.schema.index(name)] for name in names) for row in relation.rows}


class TestAssemblyProperties:
    @given(rows_ab, rows_bc, rows_cd, st.permutations(range(3)))
    @settings(max_examples=50, deadline=None)
    def test_chain_assembly_is_independent_of_path_order(self, ab, bc, cd, order):
        rows = (ab, bc, cd)
        plan = _one_path_per_edge([CHAIN[i] for i in order])
        answers = plan.evaluate_full([rows[i] for i in order])
        expected = {
            (a, b, c, d)
            for a, b in ab for b2, c in bc for c2, d in cd if b == b2 and c == c2
        }
        assert _columns(answers, "abcd") == expected

    @given(rows_ab)
    @settings(max_examples=30, deadline=None)
    def test_a_path_repeated_is_idempotent(self, ab):
        plan = _plan(("r", "?a", "?b"), ("s", "?a", "?b"))
        assert plan.num_paths == 2
        assert plan.evaluate_full([ab, ab]).rows == set(ab)

    @given(rows_ab, rows_bc)
    @settings(max_examples=30, deadline=None)
    def test_assembly_never_invents_values(self, ab, bc):
        answers = _one_path_per_edge(CHAIN[:2]).evaluate_full([ab, bc])
        seen = {value for row in ab | bc for value in row}
        assert all(value in seen for row in answers.rows for value in row)
