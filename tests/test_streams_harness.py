"""Tests for the replay harness, metrics, and reporting helpers."""

from __future__ import annotations

import time

import pytest

from repro import TRICEngine, TRICPlusEngine, add
from repro.graph import GraphStream
from repro.pubsub import SubscriptionBroker
from repro.streams import (
    ReplayResult,
    Timer,
    TimingStats,
    deep_sizeof,
    format_replay_results,
    format_table,
    replay,
)


class TestTimer:
    def test_timer_measures_elapsed_time(self):
        with Timer() as timer:
            time.sleep(0.01)
        assert timer.elapsed >= 0.005
        assert timer.elapsed_ms >= 5.0


class TestTimingStats:
    def test_empty_stats(self):
        stats = TimingStats()
        assert stats.count == 0
        assert stats.mean_ms == 0.0
        assert stats.median_ms == 0.0
        assert stats.p95_ms == 0.0
        assert stats.max_ms == 0.0

    def test_summary_values(self):
        stats = TimingStats()
        stats.extend([0.001, 0.002, 0.003])
        assert stats.count == 3
        assert stats.total_seconds == pytest.approx(0.006)
        assert stats.mean_ms == pytest.approx(2.0)
        assert stats.median_ms == pytest.approx(2.0)
        assert stats.max_ms == pytest.approx(3.0)
        summary = stats.summary()
        assert summary["count"] == 3.0

    def test_p95(self):
        stats = TimingStats()
        stats.extend([0.001] * 99 + [0.1])
        assert stats.p95_ms < 100.0
        assert stats.p95_ms >= 1.0


class TestDeepSizeof:
    def test_containers_count_their_contents(self):
        small = deep_sizeof([1, 2, 3])
        large = deep_sizeof(list(range(1000)))
        assert large > small

    def test_shared_objects_counted_once(self):
        shared = ["payload"] * 1
        assert deep_sizeof([shared, shared]) < 2 * deep_sizeof([shared, list(shared)])

    def test_engine_footprint_grows_with_state(self, checkin_query, checkin_stream):
        engine = TRICEngine()
        engine.register(checkin_query)
        before = deep_sizeof(engine)
        for update in checkin_stream:
            engine.on_update(update)
        assert deep_sizeof(engine) > before


def _ticks(updates, size):
    updates = list(updates)
    return [updates[i : i + size] for i in range(0, len(updates), size)]


def _per_update(updates):
    return _ticks(updates, 1)


class TestReplay:
    def test_replay_collects_metrics_and_matches(self, checkin_query, checkin_stream):
        engine = TRICPlusEngine()
        engine.register(checkin_query)
        result = replay(engine, _per_update(checkin_stream))
        assert isinstance(result, ReplayResult)
        assert result.completed
        assert result.num_updates == len(checkin_stream)
        assert result.updates_processed == len(checkin_stream)
        assert result.matched_updates == 1
        assert result.matches_emitted == 1
        assert result.answering.count == len(checkin_stream)
        assert result.updates_per_s > 0
        assert result.memory_bytes is None
        assert result.as_dict()["engine"] == "TRIC+"

    @pytest.mark.parametrize("through_broker", [False, True], ids=["engine", "broker"])
    def test_every_tick_reaches_on_batch_exactly_once(self, checkin_query, through_broker):
        calls = []

        class Spy(TRICEngine):
            def on_update(self, update):
                calls.append("update")
                return super().on_update(update)

            def on_batch(self, updates):
                calls.append(("batch", len(updates)))
                return super().on_batch(updates)

        engine = Spy()
        engine.register(checkin_query)
        target = SubscriptionBroker(engine) if through_broker else engine
        ticks = [[add("knows", "a", "b")], [add("knows", "b", "c"), add("knows", "c", "d")]]
        result = replay(target, ticks)
        assert calls == [("batch", 1), ("batch", 2)]
        assert result.answering.count == 2
        assert result.updates_processed == 3

    def test_on_tick_sees_every_tick_in_order(self, checkin_query, checkin_stream):
        engine = TRICEngine()
        engine.register(checkin_query)
        seen = []
        replay(
            engine,
            _ticks(checkin_stream, 3),
            on_tick=lambda index, tick, notified: seen.append((index, len(tick), set(notified))),
        )
        assert seen == [(0, 3, set()), (1, 1, {"checkin"})]

    def test_broker_mode_delivers_match_deltas(self, checkin_query, checkin_stream):
        engine = TRICPlusEngine()
        engine.register(checkin_query)
        broker = SubscriptionBroker(engine)
        subscription = broker.subscribe(None, ["checkin"])
        result = replay(broker, _per_update(checkin_stream))
        assert result.engine == "TRIC+"
        assert result.deltas_delivered == 1
        assert result.delta_answers == 1
        deltas = subscription.drain()
        assert [delta.query_id for delta in deltas] == ["checkin"]
        assert deltas[0].added[0] == {"p1": "P1", "p2": "P2", "place": "rio"}
        as_dict = result.as_dict()
        assert as_dict["deltas_delivered"] == 1
        assert as_dict["delta_answers"] == 1

    def test_batched_broker_replay_delivers_deltas(self, checkin_query, checkin_stream):
        engine = TRICPlusEngine()
        engine.register(checkin_query)
        broker = SubscriptionBroker(engine)
        subscription = broker.subscribe(None, ["checkin"])
        result = replay(broker, _ticks(checkin_stream, 2))
        assert result.deltas_delivered == 1
        assert [d.query_id for d in subscription.drain()] == ["checkin"]

    def test_time_budget_stops_the_replay(self, checkin_query):
        engine = TRICEngine()
        engine.register(checkin_query)
        stream = GraphStream([add("knows", f"a{i}", f"b{i}") for i in range(50)])
        result = replay(engine, _per_update(stream), time_budget_s=0.0)
        assert result.timed_out
        assert not result.completed
        assert result.updates_processed < len(stream)
        # The ticks left unprocessed still count towards the stream length.
        assert result.num_updates == len(stream)

    def test_poll_every_decodes_satisfied_answers(self, checkin_query, checkin_stream):
        engine = TRICPlusEngine()
        engine.register(checkin_query)
        result = replay(engine, _per_update(checkin_stream), poll_every=1)
        assert result.polling.count == len(checkin_stream)
        # The final poll rounds see the satisfied query and decode answers.
        assert result.answers_decoded >= 1
        as_dict = result.as_dict()
        assert as_dict["polls"] == result.polling.count
        assert as_dict["answers_decoded"] == result.answers_decoded

    def test_polling_disabled_by_default(self, checkin_query, checkin_stream):
        engine = TRICEngine()
        engine.register(checkin_query)
        result = replay(engine, _per_update(checkin_stream))
        assert result.polling.count == 0
        assert result.answers_decoded == 0

    def test_negative_poll_every_rejected(self):
        with pytest.raises(ValueError):
            replay(TRICEngine(), [], poll_every=-1)

    def test_replay_accepts_plain_sequences(self, checkin_query):
        engine = TRICEngine()
        engine.register(checkin_query)
        result = replay(engine, [[add("knows", "a", "b")]])
        assert result.updates_processed == 1


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(("name", "value"), [("tric", 1), ("inverted", 22)])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "name" in lines[0] and "value" in lines[0]

    def test_format_replay_results(self, checkin_query, checkin_stream):
        engine = TRICEngine()
        engine.register(checkin_query)
        result = replay(engine, _per_update(checkin_stream))
        text = format_replay_results([result])
        assert "TRIC" in text
        assert "answering ms/update" in text
