"""Regression pins for the soft spots the scenario matrix exposes.

ROADMAP item 3 predicted the synthetic scenarios would stress two known
weaknesses: the lazy-deletion caches of the ``+`` tier (INV+/INC+) must
still *converge* to their base engines' answers under churn-heavy
add/delete streams, and the append-only :class:`VertexInterner` grows
monotonically on long soaks (ids are never recycled — the measurement
that motivates id recycling / epoch compaction later).  These tests pin
both behaviours so a regression (divergence) or an unnoticed change in
the growth contract fails loudly.

The broker tests cover the remaining matrix dimension: mid-stream
subscribe/unsubscribe at the generated churn rate must reconstruct
``matches_of`` exactly from the delivered deltas under *every* overflow
policy (DROP_OLDEST sized to never drop, COALESCE resyncing through
snapshots, BLOCK growing past capacity).
"""

from __future__ import annotations

import hashlib

import pytest

from repro.bench.workloads import SCENARIOS, generate_workload, run_workload
from repro.engines import create_engine
from repro.pubsub import SubscriptionBroker, canonical_key, replay_deltas
from repro.streams import replay

#: Small but non-trivial scale for the churn/soak cells under tier-1.
TEST_SCALE = 0.1


def _answer_set(engine, query_id):
    return {canonical_key(binding) for binding in engine.matches_of(query_id)}


class TestTranscriptPins:
    """The replay transcript of every scenario, pinned to a fixed digest.

    The scenario matrix only compares engines with each other; these pins
    compare them with a committed value, so a change to the replay loop
    (tick routing, churn timing, transcript format) that moves every engine
    the same way still fails.  Stable across ``PYTHONHASHSEED`` values.
    """

    DIGESTS = {
        "insert_heavy": "e83572caa59581871aaa42d5c22812e45b04367263f2cc02aadebad756ed559b",
        "delete_heavy": "3661ceba36f7ab5f27d8fbc823cf9f5e113e5d9ab028dba0b5851c67ff998dfa",
        "bursty": "16c45b4f7e526ffaacedb12d6e24f8badad570da4c16174f98a86252006287bb",
        "high_skew": "b8b3c60ed4e7a6f0a3f4d060c716250bb322d82453d188ccc0b75256007c9615",
        "churn_heavy": "40ddefaea680f02d114cfbd77d918474dc6d2498c6499485e432f738d8573144",
        "soak": "2918d63d0a0b41c0f69f1626733351f4c66fe12f1bf3bccd7625311bbd5a97cf",
    }

    def test_every_scenario_is_pinned(self):
        assert set(self.DIGESTS) == set(SCENARIOS)

    @pytest.mark.parametrize("engine_name", ["TRIC+", "INV"])
    @pytest.mark.parametrize("scenario", sorted(DIGESTS))
    def test_transcript_digest(self, scenario, engine_name):
        workload = generate_workload(SCENARIOS[scenario].scaled(TEST_SCALE))
        transcript = run_workload(workload, engine_name).transcript
        digest = hashlib.sha256(transcript.encode("utf-8")).hexdigest()
        assert digest == self.DIGESTS[scenario]


class TestPlusTierConvergence:
    """INV+/INC+ lazy caches must converge to their base engines."""

    @pytest.mark.parametrize("base,plus", [("INV", "INV+"), ("INC", "INC+")])
    @pytest.mark.parametrize("scenario", ["churn_heavy", "delete_heavy"])
    def test_plus_tier_matches_base_on_churny_streams(self, base, plus, scenario):
        workload = generate_workload(SCENARIOS[scenario].scaled(TEST_SCALE))
        base_result = run_workload(workload, base)
        plus_result = run_workload(workload, plus)
        assert base_result.transcript == plus_result.transcript, (
            f"{plus} diverged from {base} on the {scenario} scenario"
        )


class TestInternerGrowthOnSoak:
    """The append-only interner's growth is bounded and measured."""

    def test_soak_live_ids_grow_monotonically_within_the_universe(self):
        spec = SCENARIOS["soak"].scaled(TEST_SCALE)
        workload = generate_workload(spec)
        engine = create_engine("TRIC+")
        engine.register_all(workload.queries)
        growth = []
        result = replay(
            engine,
            workload.iter_ticks(),
            on_tick=lambda index, tick, notified: growth.append(
                engine.describe()["interner"]["live_ids"]
            ),
        )
        assert result.completed
        assert len(growth) == workload.num_ticks
        # Measured: nearly half the soak's updates are deletions, yet the
        # live-id count never decreases — ids are append-only, which is
        # exactly the compaction concern this pin documents.
        assert all(a <= b for a, b in zip(growth, growth[1:]))
        assert growth[0] <= growth[-1]
        # Bounded: interning is lazy (only vertices the engine touches get
        # ids), so the spec's vertex universe plus interned query literals
        # caps growth no matter how long the soak runs.
        stream_vertices = set()
        for update in workload.stream:
            stream_vertices.add(update.edge.source)
            stream_vertices.add(update.edge.target)
        literals = {
            str(literal)
            for pattern in workload.queries
            for literal in pattern.literals()
        }
        assert 0 < growth[-1] <= len(stream_vertices | literals) <= spec.num_vertices


class TestBrokerDeliveryUnderChurn:
    """Churn-rate subscribe/unsubscribe reconstructs matches_of exactly.

    The generated churn plan drives real mid-stream subscription turnover;
    each listener's accumulated deltas (drained on a cadence that forces
    queue pressure at small capacities) must fold — via the
    ``replay_deltas`` consumer contract — into exactly the engine's
    current answer set at unsubscribe time and at end of stream.
    """

    #: (policy, capacity, exact): DROP_OLDEST is lossy by design, so its
    #: exactness is only guaranteed with capacity ample for the drain
    #: cadence; COALESCE recovers exactness through snapshot resyncs and
    #: BLOCK through unbounded growth, so both stay exact even starved.
    POLICIES = [("drop-oldest", 1 << 16), ("coalesce", 2), ("block", 2)]
    DRAIN_EVERY = 7

    @pytest.mark.parametrize("policy,capacity", POLICIES)
    @pytest.mark.parametrize("engine_name", ["TRIC+", "INV"])
    def test_churned_subscriptions_reconstruct_matches_of(
        self, policy, capacity, engine_name
    ):
        workload = generate_workload(SCENARIOS["churn_heavy"].scaled(TEST_SCALE))
        assert workload.churn, "churn_heavy must generate churn events"
        engine = create_engine(engine_name)
        engine.register_all(workload.queries)
        broker = SubscriptionBroker(
            engine, default_policy=policy, default_capacity=capacity
        )

        subscriptions = {}  # query id -> (subscription, accumulated deltas)
        checked = 0
        for tick_index, chunk in enumerate(workload.iter_ticks()):
            broker.on_batch(chunk)
            if tick_index % self.DRAIN_EVERY == 0:
                for subscription, received in subscriptions.values():
                    received.extend(subscription.drain())
            for event in workload.churn_at(tick_index):
                if event.action == "subscribe":
                    subscription = broker.subscribe(
                        f"listener-{event.query_id}-{tick_index}", [event.query_id]
                    )
                    subscriptions[event.query_id] = (subscription, [])
                else:
                    subscription, received = subscriptions.pop(event.query_id)
                    received.extend(subscription.drain())
                    state = replay_deltas(received).get(event.query_id, set())
                    assert state == _answer_set(engine, event.query_id)
                    checked += 1
                    broker.unsubscribe(subscription.name)

        for query_id, (subscription, received) in subscriptions.items():
            received.extend(subscription.drain())
            state = replay_deltas(received).get(query_id, set())
            assert state == _answer_set(engine, query_id)
            checked += 1
        assert checked > 0, "the churn plan must exercise reconstruction"
