"""The maintained answer relations of the `+` engines must stay exact.

The re-differentiated ``+`` tier (TRIC+/INV+/INC+) serves ``matches_of``
from a materialised answer relation patched by the delta pipeline.  These
tests churn the engines with interleaved additions, deletions, duplicate
multigraph edges, and micro-batches, and at every checkpoint compare the
maintained relation against (a) a fresh full evaluation on the same engine
state, (b) the string-based naive oracle, and (c) the existence-mode
``evaluate_full(limit=1)`` witness probe.
"""

from __future__ import annotations

import random

import pytest

from repro import (
    INCPlusEngine,
    INVPlusEngine,
    NaiveEngine,
    TRICEngine,
    TRICPlusEngine,
    add,
    delete,
)
from repro.matching.answers import AnswerSetCache, MaterializedAnswers
from repro.matching.plans import QueryEvaluationPlan
from repro.matching.relation import Relation
from repro.query.pattern import QueryGraphPattern

from test_equivalence import _random_query

PLUS_FACTORIES = [TRICPlusEngine, INVPlusEngine, INCPlusEngine]


def _churn_stream(rng: random.Random, num_updates: int, deletion_rate: float):
    labels = ["knows", "likes", "posted"]
    vertices = [f"v{i}" for i in range(7)]
    live = []
    updates = []
    for _ in range(num_updates):
        roll = rng.random()
        if live and roll < deletion_rate:
            edge = live.pop(rng.randrange(len(live)))
            updates.append(delete(edge.label, edge.source, edge.target))
        else:
            update = add(rng.choice(labels), rng.choice(vertices), rng.choice(vertices))
            if roll > 0.9 and live:
                # Duplicate a live edge: multigraph support counts matter.
                edge = rng.choice(live)
                update = add(edge.label, edge.source, edge.target)
            live.append(update.edge)
            updates.append(update)
    return updates


def _workload(seed: int, num_queries: int = 8):
    rng = random.Random(seed)
    labels = ["knows", "likes", "posted"]
    vertices = [f"v{i}" for i in range(7)]
    return rng, [_random_query(rng, f"Q{i}", labels, vertices) for i in range(num_queries)]


class TestMaintainedAnswersStayExact:
    """Property churn: maintained answers == fresh evaluation == oracle."""

    @pytest.mark.parametrize("factory", PLUS_FACTORIES)
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_churn_against_fresh_evaluation_and_oracle(self, factory, seed):
        rng, queries = _workload(seed)
        plus = factory()
        base_cls = type(plus).__mro__[1]  # the non-materialising base engine
        fresh = base_cls()
        oracle = NaiveEngine()
        for engine in (plus, fresh, oracle):
            engine.register_all(queries)

        updates = _churn_stream(rng, num_updates=140, deletion_rate=0.3)
        for step, update in enumerate(updates):
            plus.on_update(update)
            fresh.on_update(update)
            oracle.on_update(update)
            if step % 11 == 0 or step == len(updates) - 1:
                for query in queries:
                    maintained = plus.matches_of(query.query_id)
                    assert maintained == fresh.matches_of(query.query_id)
                    assert maintained == oracle.matches_of(query.query_id)

    @pytest.mark.parametrize("factory", PLUS_FACTORIES)
    def test_batched_churn_against_oracle(self, factory):
        rng, queries = _workload(seed=47)
        plus = factory()
        oracle = NaiveEngine()
        for engine in (plus, oracle):
            engine.register_all(queries)
        updates = _churn_stream(rng, num_updates=160, deletion_rate=0.35)
        for start in range(0, len(updates), 13):
            window = updates[start : start + 13]
            plus.on_batch(window)
            oracle.on_batch(window)
            for query in queries:
                assert plus.matches_of(query.query_id) == oracle.matches_of(query.query_id)

    def test_existence_mode_agrees_with_full_evaluation(self):
        rng, queries = _workload(seed=61)
        engine = TRICEngine()
        engine.register_all(queries)
        updates = _churn_stream(rng, num_updates=120, deletion_rate=0.3)
        for step, update in enumerate(updates):
            engine.on_update(update)
            if step % 9 == 0:
                for query in queries:
                    plan = engine._plans[query.query_id]
                    relations = engine._binding_relations[query.query_id]
                    witness = plan.evaluate_full(
                        binding_relations=relations, limit=1
                    )
                    full = plan.evaluate_full(binding_relations=relations)
                    assert bool(witness) == bool(full)
                    assert len(witness) <= 1
                    assert witness.rows <= full.rows
                    assert engine.has_matches(query.query_id) == bool(full)

    @pytest.mark.parametrize("factory", PLUS_FACTORIES)
    def test_late_registration_with_shared_structures(self, factory):
        """Registering a query mid-stream (epoch-bumping shared terminals)
        must not desynchronise an already live maintained answer relation."""
        plus = factory()
        oracle = NaiveEngine()
        first = QueryGraphPattern("A", [("knows", "?a", "?b"), ("likes", "?b", "?c")])
        for engine in (plus, oracle):
            engine.register(first)
        rng = random.Random(99)
        updates = _churn_stream(rng, num_updates=60, deletion_rate=0.3)
        for update in updates[:30]:
            plus.on_update(update)
            oracle.on_update(update)
        assert plus.matches_of("A") == oracle.matches_of("A")  # maintainer live

        second = QueryGraphPattern(
            "B", [("knows", "?x", "?y"), ("likes", "?y", "?z"), ("likes", "?z", "?w")]
        )
        for engine in (plus, oracle):
            engine.register(second)
        for update in updates[30:]:
            plus.on_update(update)
            oracle.on_update(update)
            assert plus.matches_of("A") == oracle.matches_of("A")
            assert plus.matches_of("B") == oracle.matches_of("B")

    def test_injective_churn_agrees_with_oracle(self):
        rng, queries = _workload(seed=83, num_queries=6)
        plus = TRICPlusEngine(injective=True)
        oracle = NaiveEngine(injective=True)
        for engine in (plus, oracle):
            engine.register_all(queries)
        for step, update in enumerate(_churn_stream(rng, 100, 0.3)):
            plus.on_update(update)
            oracle.on_update(update)
            if step % 7 == 0:
                for query in queries:
                    assert plus.matches_of(query.query_id) == oracle.matches_of(query.query_id)


class TestNoJoinOnTheServingPaths:
    """matches_of (+) and deletion re-checks (base) avoid full answer
    enumeration."""

    def test_materialised_matches_of_runs_no_cross_path_join(self, monkeypatch):
        rng, queries = _workload(seed=5)
        engine = TRICPlusEngine()
        engine.register_all(queries)
        updates = _churn_stream(rng, num_updates=80, deletion_rate=0.2)
        warmup, churn = updates[:40], updates[40:]
        for update in warmup:
            engine.on_update(update)
        for query in queries:  # instantiate every maintainer
            engine.matches_of(query.query_id)

        calls = []
        evaluate_full = QueryEvaluationPlan.evaluate_full

        def _recording(self, *args, **kwargs):
            calls.append(kwargs.get("limit"))
            return evaluate_full(self, *args, **kwargs)

        monkeypatch.setattr(QueryEvaluationPlan, "evaluate_full", _recording)
        for update in churn:
            engine.on_update(update)
            before = len(calls)
            for query in queries:
                engine.matches_of(query.query_id)
            assert len(calls) == before, "a materialised poll re-evaluated its query"

    def test_base_deletion_recheck_runs_no_cross_path_join(self, monkeypatch):
        rng, queries = _workload(seed=19)
        engine = TRICEngine()
        engine.register_all(queries)
        updates = _churn_stream(rng, num_updates=120, deletion_rate=0.4)
        warmup, churn = updates[:40], updates[40:]
        for update in warmup:
            engine.on_update(update)

        limits = []
        evaluate_full = QueryEvaluationPlan.evaluate_full

        def _witness_only(self, *args, **kwargs):
            limits.append(kwargs.get("limit"))
            return evaluate_full(self, *args, **kwargs)

        monkeypatch.setattr(QueryEvaluationPlan, "evaluate_full", _witness_only)
        # Notifications only; matches_of would enumerate by design.
        for update in churn:
            engine.on_update(update)
        assert limits and set(limits) == {1}


class TestMaterializedAnswersUnit:
    """Direct unit coverage of the answer maintainer."""

    def _two_path_plan(self):
        # Star query: two covering paths sharing the hub variable ?a.
        pattern = QueryGraphPattern(
            "star", [("knows", "?a", "?b"), ("likes", "?a", "?c")]
        )
        return QueryEvaluationPlan(pattern)

    def _path_relations(self, plan):
        # Positional relations, as a trie's terminal views would be.
        return [Relation(path_plan.schema) for path_plan in plan.path_plans]

    def test_counts_track_derivations(self):
        plan = self._two_path_plan()
        relations = self._path_relations(plan)
        maintainer = MaterializedAnswers(plan)
        assert maintainer.stale
        maintainer.rebuild(relations)
        assert not maintainer.stale
        assert len(maintainer) == 0
        # The maintainer is now a registered reader of both paths' logs.
        assert all(relation.tracks_deltas for relation in relations)

        # Path 0 gains (a1, b1) while path 1 is still empty: no answer.
        relations[0].add(("a1", "b1"))
        maintainer.sync(relations)
        assert len(maintainer) == 0

        # Path 1 gains (a1, c1): one derivation, one answer.
        relations[1].add(("a1", "c1"))
        maintainer.sync(relations)
        assert set(maintainer.relation.rows) == {("a1", "b1", "c1")}

        # Retract it again: the answer disappears with its last derivation.
        relations[1].remove(("a1", "c1"))
        maintainer.sync(relations)
        assert len(maintainer) == 0

    def test_sync_with_deltas_pending_on_both_paths(self):
        """Both paths changed since the last sync: path 0's rows must be
        joined against path 1's *old* state (the overlay), path 1's rows
        against path 0's new state — anything else double counts."""
        plan = self._two_path_plan()
        relations = self._path_relations(plan)
        relations[0].add_all([("a1", "b1"), ("a2", "b2")])
        relations[1].add_all([("a1", "c1"), ("a2", "c2")])
        maintainer = MaterializedAnswers(plan)
        maintainer.rebuild(relations)
        assert set(maintainer.relation.rows) == {("a1", "b1", "c1"), ("a2", "b2", "c2")}

        relations[0].add(("a1", "b9"))       # joins old (a1, c1) and new (a1, c9)
        relations[0].remove(("a2", "b2"))    # kills (a2, b2, c2) ...
        relations[1].remove(("a2", "c2"))    # ... exactly once
        relations[1].add(("a1", "c9"))
        relations[1].add(("a3", "c3"))       # no partner on path 0
        relations[0].add(("a4", "b4"))
        relations[0].remove(("a4", "b4"))    # nets to nothing
        maintainer.sync(relations)
        expected = {
            ("a1", "b1", "c1"), ("a1", "b1", "c9"),
            ("a1", "b9", "c1"), ("a1", "b9", "c9"),
        }
        assert set(maintainer.relation.rows) == expected
        fresh = MaterializedAnswers(plan)
        fresh.rebuild(relations)
        assert set(fresh.relation.rows) == expected

    def test_stale_maintainer_ignores_deltas_until_rebuilt(self):
        plan = self._two_path_plan()
        relations = self._path_relations(plan)
        maintainer = MaterializedAnswers(plan)
        maintainer.rebuild(relations)
        maintainer.mark_stale()
        relations[0].add(("a1", "b1"))
        relations[1].add(("a1", "c1"))
        maintainer.sync(relations)
        assert len(maintainer) == 0  # ignored while stale
        maintainer.rebuild(relations)
        assert set(maintainer.relation.rows) == {("a1", "b1", "c1")}

    def test_epoch_change_marks_the_maintainer_stale(self):
        plan = self._two_path_plan()
        relations = self._path_relations(plan)
        maintainer = MaterializedAnswers(plan)
        maintainer.rebuild(relations)
        relations[0].replace_rows([("a1", "b1")])  # wholesale: epoch bump
        relations[1].add(("a1", "c1"))
        maintainer.sync(relations)
        assert maintainer.stale
        assert len(maintainer) == 0  # untouched until rebuilt
        maintainer.rebuild(relations)
        assert set(maintainer.relation.rows) == {("a1", "b1", "c1")}

    def test_answer_set_cache_roundtrip(self):
        plan = self._two_path_plan()
        cache = AnswerSetCache(plan)
        assert cache.dirty  # born dirty: the first poll computes it
        cache.absorb_new(Relation(plan.variable_names, [("a1", "b1", "c1")]))
        assert not cache  # absorbing into a dirty cache is a no-op
        cache.reset_to(Relation(plan.variable_names, [("a1", "b1", "c1")]))
        assert not cache.dirty
        assert len(cache) == 1
        cache.absorb_new(Relation(plan.variable_names, [("a2", "b2", "c2")]))
        assert len(cache) == 2
        cache.mark_dirty()
        assert cache.dirty
        cache.reset_to(Relation(plan.variable_names))
        assert not cache and not cache.dirty
