"""A query registered mid-stream answers over the graph as it stands.

The paper's queries are long-standing and arrive while the graph evolves, so
a late registration must see every live edge it matches — whichever other
queries happened to be registered when those edges arrived.  The Naive
oracle keeps the whole graph and is the reference: after every step of an
interleaved stream of add/delete batches and registrations (new labels,
literal keys on known labels, keys shared with earlier queries, multigraph
copies later deleted), every engine and every sharded group must report
the oracle's notified sets and ``matches_of`` for every registered query.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import NaiveEngine, add, delete
from repro.engines import ENGINE_FACTORIES
from repro.pubsub import ShardedEngineGroup
from repro.query import QueryGraphPattern

LABELS = ("a", "b", "c")
VERTICES = ("v0", "v1", "v2")

#: Query shapes by what a late registration of them exercises.
SHAPES = {
    # all-variable keys, one per label (``c`` only ever arrives late)
    "a_any": [("a", "?x", "?y")],
    "b_any": [("b", "?x", "?y")],
    "c_any": [("c", "?x", "?y")],
    # literal keys on labels other queries already use
    "a_from_v0": [("a", "v0", "?y")],
    "b_into_v1": [("b", "?x", "v1")],
    # keys shared with the single-edge queries, joined
    "chain": [("a", "?x", "?y"), ("b", "?y", "?z")],
    "cycle": [("a", "?x", "?y"), ("b", "?y", "?x")],
    "literal_chain": [("a", "v0", "?y"), ("c", "?y", "?z")],
    "star": [("c", "?h", "?x"), ("b", "?h", "v2")],
}

#: Sharded groups beside the engines: both assignments, serial shards.
GROUPS = {
    "hash x2": lambda injective: ShardedEngineGroup(
        "TRIC+", 2, assignment="hash", injective=injective
    ),
    "label x2": lambda injective: ShardedEngineGroup(
        "INC+", 2, assignment="label", injective=injective
    ),
    "label x3": lambda injective: ShardedEngineGroup(
        "TRIC", 3, assignment="label", injective=injective
    ),
}


def _targets(injective):
    targets = {name: factory(injective=injective) for name, factory in ENGINE_FACTORIES.items()}
    targets.update({name: factory(injective) for name, factory in GROUPS.items()})
    return targets


@st.composite
def programs(draw):
    """Registrations interleaved with add/delete batches.  Deletions retract
    live edges; duplicate additions make multigraph copies."""
    names = draw(st.lists(st.sampled_from(sorted(SHAPES)), min_size=2, max_size=6, unique=True))
    live, batches = [], []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        batch = []
        for _ in range(draw(st.integers(min_value=1, max_value=6))):
            if live and draw(st.integers(min_value=0, max_value=9)) < 3:
                edge = live.pop(draw(st.integers(min_value=0, max_value=len(live) - 1)))
                batch.append(delete(edge.label, edge.source, edge.target))
            else:
                update = add(
                    draw(st.sampled_from(LABELS)),
                    draw(st.sampled_from(VERTICES)),
                    draw(st.sampled_from(VERTICES)),
                )
                live.append(update.edge)
                batch.append(update)
        batches.append(batch)
    # The first query is registered up front; each later one just before
    # the batch at its drawn position (after the last batch: at the end).
    positions = [
        draw(st.integers(min_value=0, max_value=len(batches))) for _ in names[1:]
    ]
    steps = [("register", names[0])]
    for index, batch in enumerate(batches + [None]):
        steps.extend(
            ("register", name) for name, at in zip(names[1:], positions) if at == index
        )
        if batch is not None:
            steps.append(("batch", batch))
    return steps


def _assert_equal_to_oracle(targets, oracle, registered, step):
    for name, target in targets.items():
        for query_id in registered:
            assert target.matches_of(query_id) == oracle.matches_of(query_id), (
                name,
                query_id,
                step,
            )
        assert target.satisfied_queries() == oracle.satisfied_queries(), (name, step)


class TestLateRegistrationEqualsNaive:
    @given(st.booleans(), programs())
    @settings(max_examples=40, deadline=None)
    def test_every_engine_and_group_tracks_the_oracle(self, injective, steps):
        oracle = NaiveEngine(injective=injective)
        targets = _targets(injective)
        registered = []
        for step, (kind, operand) in enumerate(steps):
            if kind == "register":
                pattern = QueryGraphPattern(operand, SHAPES[operand])
                oracle.register(pattern)
                for target in targets.values():
                    target.register(pattern)
                registered.append(operand)
            else:
                expected = oracle.on_batch(operand)
                for name, target in targets.items():
                    assert target.on_batch(operand) == expected, (name, step)
            _assert_equal_to_oracle(targets, oracle, registered, step)


def _repro_stream(target, late):
    target.register(QueryGraphPattern("q1", [("a", "?x", "?y")]))
    target.on_batch([add("a", "u", "v"), add("b", "u", "w")])
    target.register(QueryGraphPattern("q2", [late]))
    return target.matches_of("q2")


#: The late key of each repro: a label no query used yet, and a literal
#: key on a label an earlier query already used.
REPROS = {
    "new label": (("b", "?x", "?y"), [{"x": "u", "y": "w"}]),
    "new literal key": (("a", "u", "?y"), [{"y": "v"}]),
}


class TestRepros:
    @pytest.mark.parametrize("repro", sorted(REPROS))
    @pytest.mark.parametrize("target", sorted(ENGINE_FACTORIES) + sorted(GROUPS))
    def test_a_late_query_sees_edges_no_earlier_query_matched(self, target, repro):
        late, expected = REPROS[repro]
        factory = ENGINE_FACTORIES.get(target) or (lambda: GROUPS[target](False))
        assert _repro_stream(NaiveEngine(), late) == expected
        assert _repro_stream(factory(), late) == expected

    def test_a_process_group_tracks_the_oracle(self):
        """The repros, then shared keys and a deleted multigraph copy, on a
        2-shard process group with label assignment (each shard owns a
        label the other's queries never use)."""
        oracle = NaiveEngine()
        with ShardedEngineGroup("TRIC+", 2, assignment="label", executor="process") as group:
            targets = {"process label x2": group}
            registered = []
            steps = [
                ("register", QueryGraphPattern("q1", [("a", "?x", "?y")])),
                ("batch", [add("a", "u", "v"), add("b", "u", "w"), add("b", "u", "w")]),
                ("register", QueryGraphPattern("q2", [("b", "?x", "?y")])),
                ("register", QueryGraphPattern("q3", [("a", "u", "?y")])),
                ("batch", [add("c", "w", "u"), delete("b", "u", "w")]),
                ("register", QueryGraphPattern("q4", [("b", "?x", "?y"), ("c", "?y", "?x")])),
                ("batch", [delete("b", "u", "w"), add("a", "w", "u")]),
                ("register", QueryGraphPattern("q5", [("c", "w", "?y"), ("a", "?y", "?z")])),
                ("batch", [add("b", "u", "w"), delete("a", "u", "v")]),
            ]
            for step, (kind, operand) in enumerate(steps):
                if kind == "register":
                    oracle.register(operand)
                    group.register(operand)
                    registered.append(operand.query_id)
                else:
                    assert group.on_batch(operand) == oracle.on_batch(operand), step
                _assert_equal_to_oracle(targets, oracle, registered, step)
            # Label assignment spread the labels over both shards.
            assert {group.shard_of(query_id) for query_id in registered} == {0, 1}
