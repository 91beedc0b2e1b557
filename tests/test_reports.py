"""BatchReport soundness, affected-aware flushing, and shard executors.

The central property: for any interleaved add/delete/batch churn, every
query whose ``matches_of`` changed across a batch is contained in that
batch's ``BatchReport.affected`` (completeness) — for every engine and
every shard count.  On top of it: the broker may skip unaffected queries
without ever losing a delta, answers are byte-identical across the
serial/process shard executors, and ``OverflowPolicy.BLOCK``
backpressure is observable from ``replay`` results without dropping
anything.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BatchReport,
    QueryBuilder,
    TRICEngine,
    TRICPlusEngine,
    add,
    create_engine,
    delete,
)
from repro.graph.errors import EngineError
from repro.pubsub import ShardedEngineGroup, SubscriptionBroker, canonical_key, replay_deltas
from repro.query import QueryGraphPattern
from repro.streams import replay

LABELS = ("a", "b")
VERTICES = ("v0", "v1", "v2", "v3")
TERMS = ("?x", "?y", "?z", "v0", "v1")

#: Engine factories under the completeness property: every registry engine
#: (the oracle included) plus sharded groups at 2 and 4 shards.
REPORTING_FACTORIES = (
    ("TRIC", lambda: create_engine("TRIC")),
    ("TRIC+", lambda: create_engine("TRIC+")),
    ("INV", lambda: create_engine("INV")),
    ("INV+", lambda: create_engine("INV+")),
    ("INC", lambda: create_engine("INC")),
    ("INC+", lambda: create_engine("INC+")),
    ("GraphDB", lambda: create_engine("GraphDB")),
    ("Naive", lambda: create_engine("Naive")),
    ("TRIC+x2", lambda: ShardedEngineGroup("TRIC+", 2)),
    ("TRICx4", lambda: ShardedEngineGroup("TRIC", 4, assignment="label")),
)


def pair_query():
    return QueryBuilder("pair").edge("knows", "?x", "?y").build()


def chain_query():
    return (
        QueryBuilder("chain")
        .edge("knows", "?a", "?b")
        .edge("likes", "?b", "?c")
        .build()
    )


def answer_set(engine, query_id):
    return {canonical_key(dict(b)) for b in engine.matches_of(query_id)}


# ----------------------------------------------------------------------
# BatchReport basics
# ----------------------------------------------------------------------
class TestBatchReport:
    def test_is_the_notified_frozenset(self):
        report = BatchReport({"q1"}, affected={"q1", "q2"}, additions=3)
        assert report == frozenset({"q1"})
        assert isinstance(report, frozenset)
        assert "q1" in report and "q2" not in report
        assert report.affected == frozenset({"q1", "q2"})
        assert report.notified == frozenset({"q1"})
        assert (report.additions, report.deletions, report.updates) == (3, 0, 3)

    def test_wrap_preserves_native_affected_and_restamps_counters(self):
        native = BatchReport({"q"}, affected={"q", "r"}, additions=99)
        wrapped = BatchReport.wrap(native, additions=2, deletions=1)
        assert wrapped.affected == frozenset({"q", "r"})
        assert (wrapped.additions, wrapped.deletions) == (2, 1)
        bare = BatchReport.wrap(frozenset({"q"}), deletions=4)
        assert bare.affected is None
        assert bare.deletions == 4

    def test_merge_unions_and_degrades_conservatively(self):
        exact = BatchReport({"a"}, affected={"a", "b"}, additions=1)
        other = BatchReport({"c"}, affected={"c"}, deletions=2)
        merged = BatchReport.merge([exact, other])
        assert merged == frozenset({"a", "c"})
        assert merged.affected == frozenset({"a", "b", "c"})
        assert (merged.additions, merged.deletions) == (1, 2)
        unknown = BatchReport.merge([exact, BatchReport({"d"})])
        assert unknown.affected is None
        empty = BatchReport.merge([])
        assert empty == frozenset() and empty.affected == frozenset()

    def test_pickle_round_trip(self):
        report = BatchReport({"q"}, affected={"q", "r"}, additions=2, deletions=1)
        clone = pickle.loads(pickle.dumps(report))
        assert clone == report
        assert clone.affected == report.affected
        assert (clone.additions, clone.deletions) == (2, 1)
        unknown = pickle.loads(pickle.dumps(BatchReport({"q"})))
        assert unknown.affected is None

    def test_notified_ids_are_always_affected(self):
        engine = TRICPlusEngine()
        engine.register_all([pair_query(), chain_query()])
        report = engine.on_batch(
            [add("knows", "s", "t"), add("likes", "t", "u"), delete("likes", "t", "u")]
        )
        assert report.affected is not None
        assert report <= report.affected


# ----------------------------------------------------------------------
# Completeness under churn, every engine and shard count
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
            max_size=24,
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


class TestReportCompleteness:
    @given(
        st.lists(connected_patterns(), min_size=1, max_size=3),
        mixed_update_streams(),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=15, deadline=None)
    def test_every_changed_query_is_reported_affected(
        self, edge_lists, updates, batch_size
    ):
        """Completeness: ``matches_of`` changed across a batch => the query
        is in that batch's ``BatchReport.affected`` — per engine, per shard
        count.  Engines that cannot narrow the batch report ``None``
        (conservative: everything potentially affected), which trivially
        satisfies the contract and is asserted as such."""
        patterns = [
            QueryGraphPattern(f"Q{i}", edges) for i, edges in enumerate(edge_lists)
        ]
        query_ids = [p.query_id for p in patterns]
        for name, factory in REPORTING_FACTORIES:
            engine = factory()
            engine.register_all(patterns)
            before = {q: answer_set(engine, q) for q in query_ids}
            for start in range(0, len(updates), batch_size):
                report = engine.on_batch(updates[start : start + batch_size])
                assert isinstance(report, BatchReport), name
                after = {q: answer_set(engine, q) for q in query_ids}
                changed = {q for q in query_ids if after[q] != before[q]}
                if report.affected is None:
                    assert name == "Naive", (
                        f"{name} lost its native affected report"
                    )
                else:
                    assert changed <= report.affected, (name, changed, report)
                    assert report <= report.affected, (name, report)
                before = after

    def test_per_update_reports_match_batch_reports(self):
        engine = TRICPlusEngine()
        engine.register_all([pair_query(), chain_query()])
        updates = [
            add("knows", "s", "t"),
            add("likes", "t", "u"),
            delete("knows", "s", "t"),
        ]
        per_update = TRICPlusEngine()
        per_update.register_all([pair_query(), chain_query()])
        merged = BatchReport.merge([per_update.on_update(u) for u in updates])
        batched = engine.on_batch(updates)
        assert merged.affected == batched.affected
        assert merged.updates == batched.updates == 3


# ----------------------------------------------------------------------
# Affected-aware broker flushing
# ----------------------------------------------------------------------
class TestAffectedFlush:
    def test_unaffected_watched_queries_are_skipped(self):
        engine = TRICPlusEngine()
        engine.register_all([pair_query(), chain_query()])
        broker = SubscriptionBroker(engine)
        subscription = broker.subscribe("app", ["pair", "chain"])
        # knows lands in pair's terminal view; chain's terminal (knows·likes)
        # stays empty without a likes continuation — the report is tighter
        # than key matching, so only pair is flushed.
        tick = broker.on_update(add("knows", "s", "t"))
        assert tick.flushed == 1 and tick.skipped == 1
        tick = broker.on_update(add("likes", "t", "u"))  # completes chain
        assert tick.flushed == 1 and tick.skipped == 1
        tick = broker.on_update(add("none", "x", "y"))  # touches nothing
        assert tick.flushed == 0 and tick.skipped == 2
        assert broker.queries_skipped == 4
        description = broker.describe()
        assert description["affected_flush"] is True
        assert description["queries_flushed"] == broker.queries_flushed
        # Skipping lost nothing: drive real churn and reconstruct.
        broker.on_batch([add("knows", "s", "t"), add("likes", "t", "u")])
        state = replay_deltas(subscription.drain())
        assert state["pair"] == answer_set(engine, "pair")
        assert state["chain"] == answer_set(engine, "chain")

    def test_flush_everything_baseline_examines_all_watched(self):
        engine = TRICPlusEngine()
        engine.register_all([pair_query(), chain_query()])
        broker = SubscriptionBroker(engine, affected_flush=False)
        broker.subscribe("app", ["pair", "chain"])
        tick = broker.on_update(add("likes", "x", "y"))
        assert tick.flushed == 2 and tick.skipped == 0

    def test_slow_path_skip_never_calls_matches_of(self):
        """A slow-path (non-materialising) engine pays no matches_of diff
        for queries outside the batch's affected set."""
        engine = TRICEngine()
        engine.register_all([pair_query(), chain_query()])
        broker = SubscriptionBroker(engine)
        broker.subscribe("app", ["pair"])
        polled = []
        original = engine.matches_of
        engine.matches_of = lambda qid: polled.append(qid) or original(qid)
        broker.on_update(add("likes", "x", "y"))  # pair unaffected
        assert polled == []
        broker.on_update(add("knows", "s", "t"))  # pair affected
        assert polled == ["pair"]

    def test_external_driving_with_plain_frozenset_flushes_everything(self):
        engine = TRICPlusEngine()
        engine.register(pair_query())
        broker = SubscriptionBroker(engine)
        subscription = broker.subscribe("app", ["pair"])
        engine.on_update(add("knows", "s", "t"))  # outside the broker
        tick = broker.flush()  # conservative: no report, full flush
        assert tick.flushed == 1 and tick.skipped == 0
        assert replay_deltas(subscription.drain())["pair"] == answer_set(
            engine, "pair"
        )

    @given(mixed_update_streams(), st.integers(min_value=1, max_value=5))
    @settings(max_examples=20, deadline=None)
    def test_affected_flush_equals_flush_everything(self, updates, batch_size):
        """Same churn, same subscriptions: the affected-aware broker and the
        flush-everything broker compose to identical per-query states."""
        patterns = [pair_query(), chain_query()]
        states = []
        for affected_flush in (True, False):
            engine = TRICPlusEngine()
            engine.register_all(patterns)
            broker = SubscriptionBroker(engine, affected_flush=affected_flush)
            subscription = broker.subscribe("app", ["pair", "chain"])
            received = []
            for start in range(0, len(updates), batch_size):
                broker.on_batch(updates[start : start + batch_size])
                received.extend(subscription.drain())
            state = replay_deltas(received)
            states.append(
                {q: sorted(state.get(q, set())) for q in ("pair", "chain")}
            )
            for query_id in ("pair", "chain"):
                assert set(states[-1][query_id]) == answer_set(engine, query_id)
        assert states[0] == states[1]


# ----------------------------------------------------------------------
# Shard executors
# ----------------------------------------------------------------------
def _churn_stream():
    updates, live = [], []
    for i in range(40):
        update = add(("knows", "likes")[i % 2], f"v{i % 7}", f"v{(i * 3 + 1) % 7}")
        updates.append(update)
        live.append(update.edge)
        if i % 5 == 4:
            edge = live.pop((i * 7) % len(live))
            updates.append(delete(edge.label, edge.source, edge.target))
    return updates


class TestShardExecutors:
    @pytest.mark.parametrize("executor", ["process"])
    def test_parallel_executors_match_serial_byte_for_byte(self, executor):
        patterns = [pair_query(), chain_query()]
        updates = _churn_stream()
        reference = ShardedEngineGroup("TRIC+", 2)
        reference.register_all(patterns)
        with ShardedEngineGroup("TRIC+", 2, executor=executor) as group:
            group.register_all(patterns)
            for start in range(0, len(updates), 4):
                chunk = updates[start : start + 4]
                assert group.on_batch(chunk) == reference.on_batch(chunk)
                assert group.satisfied_queries() == reference.satisfied_queries()
            for pattern in patterns:
                assert group.matches_of(pattern.query_id) == reference.matches_of(
                    pattern.query_id
                )
                assert group.has_matches(pattern.query_id) == reference.has_matches(
                    pattern.query_id
                )
            description = group.describe()
            assert description["executor"] == executor
            assert sum(description["shard_batches"]) > 0
            assert len(description["shard_batch_ms_mean"]) == 2

    def test_process_executor_broker_delivery_stays_exact(self):
        patterns = [pair_query(), chain_query()]
        updates = _churn_stream()
        with ShardedEngineGroup("TRIC+", 2, executor="process") as group:
            group.register_all(patterns)
            broker = SubscriptionBroker(group)
            subscription = broker.subscribe("app", ["pair", "chain"])
            received = []
            for start in range(0, len(updates), 8):
                broker.on_batch(updates[start : start + 8])
                received.extend(subscription.drain())
            state = replay_deltas(received)
            for pattern in patterns:
                assert state.get(pattern.query_id, set()) == answer_set(
                    group, pattern.query_id
                )

    def test_process_executor_supports_mid_stream_registration(self):
        reference = TRICPlusEngine()
        with ShardedEngineGroup("TRIC+", 2, executor="process") as group:
            for engine in (reference, group):
                engine.register(QueryGraphPattern("q0", [("knows", "?x", "?y")]))
                engine.on_update(add("knows", "a", "b"))
                engine.on_update(add("knows", "a", "b"))  # multigraph copy
                engine.register(QueryGraphPattern("q4", [("knows", "?x", "?y")]))
            assert group.matches_of("q4") == reference.matches_of("q4")
            assert group.satisfied_queries() == reference.satisfied_queries()
            for engine in (reference, group):
                engine.on_update(delete("knows", "a", "b"))
            assert group.matches_of("q4") == reference.matches_of("q4") != []

    def test_invalid_executor_and_factory_combinations_rejected(self):
        for executor in ("greenlet", "thread"):
            with pytest.raises(EngineError, match="options: serial, process"):
                ShardedEngineGroup("TRIC+", 2, executor=executor)
        with pytest.raises(EngineError):
            ShardedEngineGroup(TRICPlusEngine, 2, executor="process")
        # Callable factories stay fine on the in-process executor.
        ShardedEngineGroup(TRICPlusEngine, 2, executor="serial").close()
        # The respawn window has no "off" value.
        with pytest.raises(EngineError, match="respawn_window"):
            ShardedEngineGroup("TRIC+", 2, respawn_window=None)
        # Worker checkpoints follow the size rule alone: there is no cadence.
        with pytest.raises(TypeError, match="worker_snapshot_every"):
            ShardedEngineGroup("TRIC+", 2, worker_snapshot_every=32)

    def test_process_executor_honours_injective_engine_kwargs(self):
        """An explicit injective flag in engine_kwargs must reach process
        workers exactly as it does the in-process shards."""
        diamond = (
            QueryBuilder("diamond")
            .edge("knows", "?x", "?y")
            .edge("knows", "?x", "?z")
            .build()
        )
        updates = [add("knows", "a", "b"), add("knows", "a", "c")]
        answers = {}
        for executor in ("serial", "process"):
            with ShardedEngineGroup(
                "TRIC+", 2, executor=executor, engine_kwargs={"injective": True}
            ) as group:
                group.register(diamond)
                group.on_batch(updates)
                answers[executor] = group.matches_of("diamond")
        assert answers["serial"] == answers["process"]
        # Injective semantics: ?y and ?z must bind distinct vertices.
        assert all(b["y"] != b["z"] for b in answers["serial"])
        assert answers["serial"] != []

    def test_close_is_idempotent_and_context_managed(self):
        group = ShardedEngineGroup("TRIC+", 2)
        group.register(pair_query())
        group.on_batch([add("knows", "a", "b"), add("knows", "b", "c")])
        group.close()
        group.close()
        with ShardedEngineGroup("TRIC+", 2) as serial:
            serial.register(pair_query())
        assert serial.matches_of("pair") == []


# ----------------------------------------------------------------------
# BLOCK backpressure observability (regression)
# ----------------------------------------------------------------------
class TestBlockBackpressure:
    def test_blocked_listener_never_drops_and_is_observable_from_results(self):
        engine = TRICPlusEngine()
        engine.register(pair_query())
        broker = SubscriptionBroker(engine)
        subscription = broker.subscribe("tiny", ["pair"], policy="block", capacity=1)
        updates = []
        for i in range(8):
            updates.append([add("knows", f"s{i}", f"t{i}")])
            if i % 3 == 2:
                updates.append([delete("knows", f"s{i}", f"t{i}")])
        result = replay(broker, updates)
        # Observable from the replay result, not just broker internals:
        assert result.backpressure_events > 0
        assert result.backpressured_subscriptions == ("tiny",)
        assert result.backpressured
        assert result.as_dict()["backpressured_subscriptions"] == ["tiny"]
        # ... and lossless: nothing dropped or coalesced, full reconstruction.
        assert subscription.dropped == 0 and subscription.coalesced == 0
        assert len(subscription.queue) > subscription.capacity
        state = replay_deltas(subscription.drain())
        assert state["pair"] == answer_set(engine, "pair")

    def test_unblocked_replay_reports_no_backpressure(self):
        engine = TRICPlusEngine()
        engine.register(pair_query())
        broker = SubscriptionBroker(engine)
        broker.subscribe(None, ["pair"], policy="block", capacity=64)
        result = replay(broker, [[add("knows", "a", "b")]])
        assert result.backpressure_events == 0
        assert result.backpressured_subscriptions == ()
        assert not result.backpressured
        assert result.queries_flushed >= 1
