"""Pub/sub subscription broker, sharded engine groups, and match deltas.

The central delivery property: for any interleaved add/delete/batch stream,
the cumulative deltas delivered to a subscription reconstruct exactly the
engine's (and the string oracle's) ``matches_of`` answer sets — per query,
under every overflow policy, with mid-stream subscribes/unsubscribes, and
across 1, 2 and 4 shards.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    NaiveEngine,
    QueryBuilder,
    TRICEngine,
    TRICPlusEngine,
    add,
    create_sharded_engine,
    delete,
)
from repro.graph.errors import EngineError, SubscriptionError, UnknownQueryError
from repro.pubsub import (
    OverflowPolicy,
    ShardedEngineGroup,
    SubscriptionBroker,
    canonical_key,
    replay_deltas,
)
from repro.query import QueryGraphPattern

LABELS = ("a", "b")
VERTICES = ("v0", "v1", "v2", "v3")
TERMS = ("?x", "?y", "?z", "v0", "v1")


def chain_query():
    return (
        QueryBuilder("chain")
        .edge("knows", "?a", "?b")
        .edge("likes", "?b", "?c")
        .build()
    )


def pair_query():
    return QueryBuilder("pair").edge("knows", "?x", "?y").build()


def answer_set(engine, query_id):
    return {canonical_key(b) for b in engine.matches_of(query_id)}


# ----------------------------------------------------------------------
# Broker basics
# ----------------------------------------------------------------------
class TestSubscriptionBroker:
    def test_delivers_added_and_removed_answers(self):
        engine = TRICPlusEngine()
        engine.register_all([chain_query(), pair_query()])
        broker = SubscriptionBroker(engine)
        subscription = broker.subscribe("app", ["chain"])
        broker.on_update(add("knows", "ann", "bob"))
        broker.on_update(add("likes", "bob", "carl"))
        broker.on_update(add("likes", "bob", "dora"))
        # Partial deletion: chain keeps an answer, so the engine emits *no*
        # notification — the broker must still deliver the removal.
        tick = broker.on_update(delete("likes", "bob", "carl"))
        assert tick.notified == frozenset()
        deltas = subscription.drain()
        assert [d.query_id for d in deltas] == ["chain", "chain", "chain"]
        assert deltas[0].added == ({"a": "ann", "b": "bob", "c": "carl"},)
        assert deltas[-1].removed == ({"a": "ann", "b": "bob", "c": "carl"},)
        state = replay_deltas(deltas)
        assert state["chain"] == answer_set(engine, "chain")

    def test_unsubscribed_query_not_delivered(self):
        engine = TRICPlusEngine()
        engine.register_all([chain_query(), pair_query()])
        broker = SubscriptionBroker(engine)
        subscription = broker.subscribe("app", ["chain"])
        broker.on_update(add("knows", "ann", "bob"))
        assert subscription.drain() == []  # only "pair" changed

    def test_subscribe_to_all_and_label_predicates(self):
        engine = TRICPlusEngine()
        engine.register_all([chain_query(), pair_query()])
        broker = SubscriptionBroker(engine)
        assert broker.resolve_queries() == ["chain", "pair"]
        assert broker.resolve_queries(labels=["likes"]) == ["chain"]
        assert broker.resolve_queries(labels=["knows"]) == ["chain", "pair"]
        everything = broker.subscribe("all")
        assert everything.query_ids == frozenset({"chain", "pair"})
        liked = broker.subscribe("liked", labels=["likes"])
        assert liked.query_ids == frozenset({"chain"})

    def test_initial_snapshot_on_mid_stream_subscribe(self):
        engine = TRICPlusEngine()
        engine.register_all([pair_query()])
        broker = SubscriptionBroker(engine)
        broker.on_update(add("knows", "ann", "bob"))
        subscription = broker.subscribe("late", ["pair"])
        [snapshot] = subscription.drain()
        assert snapshot.snapshot
        assert snapshot.added == ({"x": "ann", "y": "bob"},)
        # Empty answer sets produce no initial snapshot delta.
        engine2 = TRICPlusEngine()
        engine2.register_all([pair_query()])
        assert SubscriptionBroker(engine2).subscribe("early", ["pair"]).drain() == []

    def test_unknown_query_and_duplicate_name_raise(self):
        engine = TRICPlusEngine()
        engine.register_all([pair_query()])
        broker = SubscriptionBroker(engine)
        with pytest.raises(SubscriptionError):
            broker.subscribe("app", ["ghost"])
        broker.subscribe("app", ["pair"])
        with pytest.raises(SubscriptionError):
            broker.subscribe("app", ["pair"])
        with pytest.raises(SubscriptionError):
            broker.subscribe("empty", labels=["ghost-label"])

    def test_unsubscribe_stops_delivery_and_releases_tracking(self):
        engine = TRICPlusEngine()
        engine.register_all([pair_query()])
        broker = SubscriptionBroker(engine)
        subscription = broker.subscribe("app", ["pair"])
        broker.on_update(add("knows", "ann", "bob"))
        broker.unsubscribe(subscription)
        assert broker.watched_queries == frozenset()
        broker.on_update(add("knows", "bob", "carl"))
        # Only the pre-unsubscribe delta is drainable.
        assert len(subscription.drain()) == 1
        with pytest.raises(SubscriptionError):
            broker.subscribe_queries(subscription, ["pair"])

    def test_runtime_subscribe_and_unsubscribe_queries(self):
        engine = TRICPlusEngine()
        engine.register_all([chain_query(), pair_query()])
        broker = SubscriptionBroker(engine)
        subscription = broker.subscribe("app", ["pair"])
        broker.on_update(add("knows", "ann", "bob"))
        assert [d.query_id for d in subscription.drain()] == ["pair"]
        broker.subscribe_queries(subscription, ["chain"])
        broker.unsubscribe_queries(subscription, ["pair"])
        assert subscription.query_ids == frozenset({"chain"})
        broker.on_update(add("likes", "bob", "carl"))
        broker.on_update(add("knows", "bob", "dora"))  # pair changes, unwatched
        deltas = subscription.drain()
        assert "chain" in {d.query_id for d in deltas}
        assert all(d.query_id != "pair" for d in deltas)

    def test_callback_push_mode(self):
        engine = TRICPlusEngine()
        engine.register_all([pair_query()])
        broker = SubscriptionBroker(engine)
        received = []
        subscription = broker.subscribe("push", ["pair"], callback=received.append)
        broker.on_update(add("knows", "ann", "bob"))
        assert subscription.pending == 0
        assert len(received) == 1 and received[0].query_id == "pair"

    def test_materialising_engine_serves_deltas_without_repolling(self):
        """On the fast path the broker reads the maintained answer relation's
        delta log — matches_of never runs on the flush path."""
        engine = TRICPlusEngine()
        engine.register_all([chain_query()])
        broker = SubscriptionBroker(engine)
        subscription = broker.subscribe("app", ["chain"])
        assert engine.answer_delta_source("chain") is not None

        def boom(query_id):  # pragma: no cover - must not be called
            raise AssertionError("matches_of re-polled on the fast path")

        engine.matches_of = boom
        broker.on_update(add("knows", "ann", "bob"))
        broker.on_update(add("likes", "bob", "carl"))
        broker.on_update(delete("likes", "bob", "carl"))
        deltas = subscription.drain()
        assert len(deltas) == 2
        assert replay_deltas(deltas)["chain"] == set()

    def test_describe_reports_engine_and_subscription_metrics(self):
        engine = TRICPlusEngine()
        engine.register_all([pair_query()])
        broker = SubscriptionBroker(engine)
        broker.subscribe("app", ["pair"])
        description = broker.describe()
        assert description["engine"]["engine"] == "TRIC+"
        assert description["watched_queries"] == 1
        assert description["subscriptions"][0]["subscription"] == "app"


# ----------------------------------------------------------------------
# Overflow policies
# ----------------------------------------------------------------------
def _pair_churn(broker, n=6):
    for i in range(n):
        broker.on_update(add("knows", f"s{i}", f"t{i}"))


class TestOverflowPolicies:
    def test_drop_oldest_bounds_the_queue_and_counts_drops(self):
        engine = TRICPlusEngine()
        engine.register_all([pair_query()])
        broker = SubscriptionBroker(engine)
        subscription = broker.subscribe(
            "app", ["pair"], policy="drop-oldest", capacity=2
        )
        _pair_churn(broker)
        assert len(subscription.queue) == 2
        assert subscription.dropped == 4
        # The surviving deltas are the most recent ones.
        assert [d.timestamp for d in subscription.drain()] == [5, 6]

    def test_coalesce_resyncs_to_an_exact_snapshot(self):
        engine = TRICPlusEngine()
        engine.register_all([pair_query()])
        broker = SubscriptionBroker(engine)
        subscription = broker.subscribe("app", ["pair"], policy="coalesce", capacity=2)
        _pair_churn(broker)
        assert subscription.coalesced > 0
        assert subscription.pending <= subscription.capacity + 1
        deltas = subscription.drain()
        assert any(d.snapshot for d in deltas)
        assert replay_deltas(deltas)["pair"] == answer_set(engine, "pair")

    def test_block_never_drops_and_flags_backpressure(self):
        engine = TRICPlusEngine()
        engine.register_all([pair_query()])
        broker = SubscriptionBroker(engine)
        subscription = broker.subscribe("app", ["pair"], policy="block", capacity=2)
        backpressured = []
        for i in range(6):
            tick = broker.on_update(add("knows", f"s{i}", f"t{i}"))
            backpressured.extend(tick.backpressured)
        assert "app" in backpressured
        assert subscription.backpressured == 4
        deltas = subscription.drain()
        assert len(deltas) == 6  # lossless
        assert replay_deltas(deltas)["pair"] == answer_set(engine, "pair")

    def test_policy_coercion_rejects_unknown_values(self):
        engine = TRICPlusEngine()
        engine.register_all([pair_query()])
        broker = SubscriptionBroker(engine)
        with pytest.raises(SubscriptionError):
            broker.subscribe("app", ["pair"], policy="drop-newest")
        assert OverflowPolicy.coerce("coalesce") is OverflowPolicy.COALESCE


# ----------------------------------------------------------------------
# Sharded engine groups
# ----------------------------------------------------------------------
def _interleaved_stream():
    updates = []
    live = []
    for i in range(40):
        update = add(("knows", "likes")[i % 2], f"v{i % 7}", f"v{(i * 3 + 1) % 7}")
        updates.append(update)
        live.append(update.edge)
        if i % 5 == 4:
            edge = live.pop((i * 7) % len(live))
            updates.append(delete(edge.label, edge.source, edge.target))
    return updates


class TestShardedEngineGroup:
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    @pytest.mark.parametrize("assignment", ["hash", "label"])
    def test_answers_identical_to_unsharded_engine(self, num_shards, assignment):
        patterns = [chain_query(), pair_query()]
        reference = TRICPlusEngine()
        group = ShardedEngineGroup("TRIC+", num_shards, assignment=assignment)
        reference.register_all(patterns)
        group.register_all(patterns)
        for update in _interleaved_stream():
            assert group.on_update(update) == reference.on_update(update)
            assert group.satisfied_queries() == reference.satisfied_queries()
        for pattern in patterns:
            assert group.matches_of(pattern.query_id) == reference.matches_of(
                pattern.query_id
            )
            assert group.has_matches(pattern.query_id) == reference.has_matches(
                pattern.query_id
            )

    def test_batched_processing_matches_per_update(self):
        patterns = [chain_query(), pair_query()]
        per_update = ShardedEngineGroup("TRIC+", 2)
        batched = ShardedEngineGroup("TRIC+", 2)
        per_update.register_all(patterns)
        batched.register_all(patterns)
        updates = _interleaved_stream()
        expected = set()
        for update in updates:
            expected.update(per_update.on_update(update))
        assert batched.on_batch(updates) == frozenset(expected) or (
            batched.satisfied_queries() == per_update.satisfied_queries()
        )
        for pattern in patterns:
            assert batched.matches_of(pattern.query_id) == per_update.matches_of(
                pattern.query_id
            )

    def test_every_query_owned_by_exactly_one_shard(self):
        group = ShardedEngineGroup("TRIC+", 3)
        patterns = [
            QueryGraphPattern(f"Q{i}", [("a", f"?x{i}", f"?y{i}")]) for i in range(9)
        ]
        group.register_all(patterns)
        assert sum(shard.num_queries for shard in group.shards) == 9
        assert group.num_queries == 9
        for pattern in patterns:
            shard = group.shards[group.shard_of(pattern.query_id)]
            assert pattern.query_id in shard.queries

    def test_label_assignment_clusters_shared_labels(self):
        group = ShardedEngineGroup("TRIC+", 2, assignment="label")
        group.register(QueryGraphPattern("Q0", [("a", "?x", "?y")]))
        group.register(QueryGraphPattern("Q1", [("a", "?u", "?v")]))
        group.register(QueryGraphPattern("Q2", [("b", "?s", "?t")]))
        assert group.shard_of("Q0") == group.shard_of("Q1")
        assert group.shard_of("Q2") != group.shard_of("Q0")

    def test_label_assignment_does_not_collapse_on_shared_alphabets(self):
        """When every query shares one label, affinity must not pile the
        whole database onto a single shard (bounded ~2x imbalance)."""
        group = ShardedEngineGroup("TRIC+", 2, assignment="label")
        group.register_all(
            QueryGraphPattern(f"Q{i}", [("a", f"?x{i}", f"?y{i}")]) for i in range(20)
        )
        loads = [shard.num_queries for shard in group.shards]
        assert min(loads) > 0
        assert max(loads) <= 2 * (20 // 2 + 1)

    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_mid_stream_registration_matches_unsharded_engine(self, num_shards):
        """A query registered after updates have flowed must see the same
        answers on the group as on one engine: every shard received every
        batch, so the owning shard's registry holds the live edges."""
        reference = TRICPlusEngine()
        group = ShardedEngineGroup("TRIC+", num_shards)
        for engine in (reference, group):
            engine.register(QueryGraphPattern("q0", [("knows", "?x", "?y")]))
            engine.on_update(add("knows", "a", "b"))
            engine.on_update(add("knows", "a", "b"))  # multigraph copy
            engine.register(QueryGraphPattern("q4", [("knows", "?x", "?y")]))
        assert group.matches_of("q4") == reference.matches_of("q4") == [
            {"x": "a", "y": "b"}
        ]
        # Registration is silent: it marks no query satisfied.
        assert group.satisfied_queries() == reference.satisfied_queries()
        # The counted multigraph copies honour later deletions.
        for engine in (reference, group):
            engine.on_update(delete("knows", "a", "b"))
        assert group.matches_of("q4") == reference.matches_of("q4") != []
        assert reference.on_update(delete("knows", "a", "b")) == group.on_update(
            delete("knows", "a", "b")
        )
        assert group.matches_of("q4") == reference.matches_of("q4") == []

    def test_a_late_query_sees_edges_no_registered_key_matched(self):
        """An edge arriving while no registered key matches it is still
        live: a later query over its label sees it, as on the Naive oracle,
        whichever shard the query lands on."""
        oracle = NaiveEngine()
        group = ShardedEngineGroup("TRIC+", 4, assignment="label")
        for engine in (oracle, group):
            engine.register(QueryGraphPattern("pre", [("a", "?x", "?y")]))
            engine.on_update(add("b", "v0", "v0"))  # label b: unregistered
            engine.on_update(add("a", "v0", "v0"))
            engine.register(
                QueryGraphPattern("p", [("a", "?x", "?y"), ("b", "?y", "?z")])
            )
        assert group.matches_of("p") == oracle.matches_of("p") == [
            {"x": "v0", "y": "v0", "z": "v0"}
        ]

    def test_describe_exposes_per_shard_metrics(self):
        group = ShardedEngineGroup("TRIC+", 2)
        group.register_all([chain_query(), pair_query()])
        group.on_update(add("knows", "ann", "bob"))
        description = group.describe()
        assert description["shards"] == 2
        assert sum(description["shard_queries"]) == 2
        assert len(description["per_shard"]) == 2
        assert group.name == "TRIC+x2"

    def test_invalid_configuration_rejected(self):
        with pytest.raises(EngineError):
            ShardedEngineGroup("TRIC+", 0)
        with pytest.raises(EngineError):
            ShardedEngineGroup("TRIC+", 2, assignment="round-robin")
        with pytest.raises(UnknownQueryError):
            ShardedEngineGroup("TRIC+", 2).matches_of("ghost")

    def test_create_sharded_engine_helper(self):
        assert isinstance(create_sharded_engine("TRIC+", 1), TRICPlusEngine)
        group = create_sharded_engine("TRIC", 2)
        assert isinstance(group, ShardedEngineGroup)
        assert all(isinstance(shard, TRICEngine) for shard in group.shards)


# ----------------------------------------------------------------------
# First-poll materialisation
# ----------------------------------------------------------------------
class TestFirstPollMaterialisation:
    def _many_answers_engine(self, engine):
        engine.register(pair_query())
        for i in range(5):
            engine.on_update(add("knows", f"s{i}", f"t{i}"))
        return engine

    def test_many_answers_are_served_from_the_maintained_relation(self):
        engine = self._many_answers_engine(TRICPlusEngine())
        reference = self._many_answers_engine(TRICEngine())
        assert engine.matches_of("pair") == reference.matches_of("pair")
        assert engine.answer_delta_source("pair") is not None
        assert engine.has_matches("pair")
        assert engine.statistics()["materialized_answer_rows"] == 5

    def test_first_poll_creates_the_maintained_relation(self):
        engine = TRICPlusEngine()
        engine.register(pair_query())
        engine.on_update(add("knows", "ann", "bob"))
        assert engine.statistics()["materialized_queries"] == 0
        assert engine.matches_of("pair") == [{"x": "ann", "y": "bob"}]
        assert engine.statistics()["materialized_queries"] == 1
        assert engine.statistics()["materialized_answer_rows"] == 1

    def test_broker_stays_exact_over_a_materialising_engine(self):
        engine = self._many_answers_engine(TRICPlusEngine())
        broker = SubscriptionBroker(engine)
        subscription = broker.subscribe("app", ["pair"])
        broker.on_update(add("knows", "s9", "t9"))
        broker.on_update(delete("knows", "s0", "t0"))
        deltas = subscription.drain()
        assert replay_deltas(deltas)["pair"] == answer_set(engine, "pair")

    def test_answer_row_cap_is_not_an_option(self):
        with pytest.raises(TypeError):
            TRICPlusEngine(answer_row_cap=2)


# ----------------------------------------------------------------------
# The delivery property, against the string oracle
# ----------------------------------------------------------------------
@st.composite
def connected_patterns(draw):
    """Small connected query patterns over a tiny vocabulary."""
    num_edges = draw(st.integers(min_value=1, max_value=3))
    edges = []
    terms = [draw(st.sampled_from(TERMS))]
    for _ in range(num_edges):
        label = draw(st.sampled_from(LABELS))
        anchor = draw(st.sampled_from(terms))
        other = draw(st.sampled_from(TERMS))
        if draw(st.booleans()):
            edges.append((label, anchor, other))
        else:
            edges.append((label, other, anchor))
        terms.append(other)
    if not any(t.startswith("?") for triple in edges for t in triple[1:]):
        label, _, target = edges[0]
        edges[0] = (label, "?x", target)
    return edges


@st.composite
def mixed_update_streams(draw):
    """Interleaved additions and deletions; deletions retract live edges."""
    events = draw(
        st.lists(
            st.tuples(
                st.booleans(),
                st.integers(min_value=0, max_value=2**16),
                st.sampled_from(LABELS),
                st.sampled_from(VERTICES),
                st.sampled_from(VERTICES),
            ),
            min_size=1,
            max_size=30,
        )
    )
    live, updates = [], []
    for is_deletion, pick, label, source, target in events:
        if is_deletion and live:
            edge = live.pop(pick % len(live))
            updates.append(delete(edge.label, edge.source, edge.target))
        else:
            update = add(label, source, target)
            live.append(update.edge)
            updates.append(update)
    return updates


def _patterns_from(edge_lists):
    return [QueryGraphPattern(f"Q{i}", edges) for i, edges in enumerate(edge_lists)]


BROKER_ENGINE_FACTORIES = (
    TRICEngine,  # slow path: no maintained answer relations
    TRICPlusEngine,  # fast path: exact delta-log reads
    lambda: ShardedEngineGroup("TRIC+", 2),  # fan-out + merge
    lambda: ShardedEngineGroup("TRIC", 4, assignment="label"),
)


class TestDeliveryReconstructsMatches:
    @given(
        st.lists(connected_patterns(), min_size=1, max_size=3),
        mixed_update_streams(),
        st.integers(min_value=1, max_value=5),
        st.sampled_from([policy.value for policy in OverflowPolicy]),
    )
    @settings(max_examples=25, deadline=None)
    def test_cumulative_deltas_equal_oracle_matches(
        self, edge_lists, updates, batch_size, policy
    ):
        """For any interleaved add/delete/batch stream and any policy whose
        delivery is state-lossless at drain time (all of them: drop-oldest is
        only exercised within capacity here), the composed deltas equal the
        oracle's matches_of, engine by engine."""
        patterns = _patterns_from(edge_lists)
        oracle = NaiveEngine()
        oracle.register_all(patterns)
        subscribed = [p.query_id for p in patterns[::2]] or [patterns[0].query_id]
        runs = []
        for factory in BROKER_ENGINE_FACTORIES:
            engine = factory()
            engine.register_all(patterns)
            broker = SubscriptionBroker(engine)
            subscription = broker.subscribe(
                "app", subscribed, policy=policy, capacity=10_000
            )
            runs.append((engine, broker, subscription, []))
        for start in range(0, len(updates), batch_size):
            chunk = updates[start : start + batch_size]
            oracle.on_batch(chunk)
            for engine, broker, subscription, received in runs:
                broker.on_batch(chunk)
                received.extend(subscription.drain())
        for engine, _, _, received in runs:
            state = replay_deltas(received)
            for query_id in subscribed:
                expected = {canonical_key(b) for b in oracle.matches_of(query_id)}
                assert state.get(query_id, set()) == expected, (engine.name, query_id)
                assert expected == {
                    canonical_key(b) for b in engine.matches_of(query_id)
                }

    @given(
        st.lists(connected_patterns(), min_size=2, max_size=3),
        mixed_update_streams(),
        st.integers(min_value=0, max_value=29),
    )
    @settings(max_examples=20, deadline=None)
    def test_mid_stream_subscribe_and_unsubscribe_stay_exact(
        self, edge_lists, updates, pivot
    ):
        """A subscription opened mid-stream reconstructs from its initial
        snapshot; one closed mid-stream reconstructs the state at close."""
        patterns = _patterns_from(edge_lists)
        engine = TRICPlusEngine()
        engine.register_all(patterns)
        broker = SubscriptionBroker(engine)
        early_id, late_id = patterns[0].query_id, patterns[1].query_id
        early = broker.subscribe("early", [early_id])
        pivot = min(pivot, len(updates))
        received_early, received_late = [], []
        state_at_close = None
        late = None
        for index, update in enumerate(updates):
            if index == pivot:
                received_early.extend(early.drain())
                broker.unsubscribe(early)
                state_at_close = answer_set(engine, early_id)
                late = broker.subscribe("late", [late_id])
            broker.on_update(update)
            if late is not None:
                received_late.extend(late.drain())
        if state_at_close is None:  # pivot beyond the stream: close now
            received_early.extend(early.drain())
            state_at_close = answer_set(engine, early_id)
        assert replay_deltas(received_early).get(early_id, set()) == state_at_close
        if late is not None:
            received_late.extend(late.drain())
            assert replay_deltas(received_late).get(late_id, set()) == answer_set(
                engine, late_id
            )

    @given(mixed_update_streams(), st.integers(min_value=1, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_coalesce_under_tiny_capacity_stays_state_exact(self, updates, capacity):
        """Even with a pathologically small queue, coalesce-to-snapshot keeps
        the composed per-query state equal to matches_of."""
        patterns = [
            QueryGraphPattern("edge-a", [("a", "?x", "?y")]),
            QueryGraphPattern("two-hop", [("a", "?x", "?y"), ("b", "?y", "?z")]),
        ]
        engine = TRICPlusEngine()
        engine.register_all(patterns)
        broker = SubscriptionBroker(engine)
        subscription = broker.subscribe(
            "app", policy="coalesce", capacity=capacity
        )
        for update in updates:
            broker.on_update(update)
        state = replay_deltas(subscription.drain())
        for pattern in patterns:
            assert state.get(pattern.query_id, set()) == answer_set(
                engine, pattern.query_id
            )
