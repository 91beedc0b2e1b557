"""Batched processing must be answer-equivalent to per-update processing.

The unified delta pipeline promises that driving any engine through
micro-batches (``on_batch``) yields, for every batch window, exactly the
union of the notifications a per-update replay of that window would emit —
and leaves the engine in an identical state (same satisfied set, same
``matches_of`` answers).  These tests replay random mixed add/delete streams
through every engine twice and compare the two drives window by window.
"""

from __future__ import annotations

import random

import pytest

from repro import (
    ENGINE_FACTORIES,
    TRICEngine,
    TRICPlusEngine,
    add,
    create_engine,
    create_sharded_engine,
    delete,
)
from repro.persistence import DurableEngine
from repro.streams import replay

from test_equivalence import _random_query

ALL_ENGINE_NAMES = list(ENGINE_FACTORIES)


def _random_stream(rng: random.Random, num_updates: int, deletion_rate: float):
    labels = ["knows", "likes", "posted"]
    vertices = [f"v{i}" for i in range(8)]
    live = []
    updates = []
    for _ in range(num_updates):
        if live and rng.random() < deletion_rate:
            edge = live.pop(rng.randrange(len(live)))
            updates.append(delete(edge.label, edge.source, edge.target))
        else:
            update = add(rng.choice(labels), rng.choice(vertices), rng.choice(vertices))
            live.append(update.edge)
            updates.append(update)
    return updates


def _ticks(updates, size: int):
    updates = list(updates)
    return [updates[i : i + size] for i in range(0, len(updates), size)]


#: Every engine name, plus a serial and a process shard group and a
#: durable wrapper — each surface that exposes ``on_update``.
SINGLE_UPDATE_TARGETS = ALL_ENGINE_NAMES + ["sharded-serial", "sharded-process", "durable"]


def _single_update_target(target: str, directory):
    if target == "sharded-serial":
        return create_sharded_engine("TRIC+", 2)
    if target == "sharded-process":
        return create_sharded_engine("TRIC+", 2, executor="process")
    if target == "durable":
        return DurableEngine(create_engine("TRIC+"), directory, fsync=False)
    return create_engine(target)


def _random_workload(seed: int, num_queries: int = 8):
    rng = random.Random(seed)
    labels = ["knows", "likes", "posted"]
    vertices = [f"v{i}" for i in range(8)]
    return rng, [_random_query(rng, f"Q{i}", labels, vertices) for i in range(num_queries)]


class TestBatchedEquivalence:
    @pytest.mark.parametrize("engine_name", ALL_ENGINE_NAMES)
    @pytest.mark.parametrize("batch_size", [3, 16, 256])
    def test_batched_drive_equals_per_update_drive(self, engine_name, batch_size):
        rng, queries = _random_workload(seed=5)
        updates = _random_stream(rng, num_updates=100, deletion_rate=0.25)

        per_update = create_engine(engine_name)
        batched = create_engine(engine_name)
        for engine in (per_update, batched):
            engine.register_all(queries)

        for start in range(0, len(updates), batch_size):
            window = updates[start : start + batch_size]
            union = frozenset().union(*(per_update.on_update(u) for u in window))
            assert batched.on_batch(window) == union, f"window at {start}"

        assert batched.satisfied_queries() == per_update.satisfied_queries()
        assert batched.updates_processed == per_update.updates_processed
        for query in queries:
            assert batched.matches_of(query.query_id) == per_update.matches_of(query.query_id)

    @pytest.mark.parametrize("target", SINGLE_UPDATE_TARGETS)
    def test_single_update_batch_equals_on_update(self, target, tmp_path):
        """``on_batch([u])`` and ``on_update(u)`` are the same call: same
        notified ids, affected set and counters, same engine counters."""
        rng, queries = _random_workload(seed=9, num_queries=5)
        updates = _random_stream(rng, num_updates=60, deletion_rate=0.2)
        one_by_one = _single_update_target(target, tmp_path / "one")
        batched = _single_update_target(target, tmp_path / "batched")
        try:
            for engine in (one_by_one, batched):
                engine.register_all(queries)
            for index, update in enumerate(updates):
                expected = one_by_one.on_update(update)
                report = batched.on_batch([update])
                assert report == expected, f"update {index}"
                assert report.affected == expected.affected, f"update {index}"
                assert (report.additions, report.deletions) == (
                    expected.additions,
                    expected.deletions,
                ), f"update {index}"
                assert batched.updates_processed == one_by_one.updates_processed
                assert batched.satisfied_queries() == one_by_one.satisfied_queries()
        finally:
            for engine in (one_by_one, batched):
                if hasattr(engine, "close"):
                    engine.close()


class TestDeletionHotPath:
    def test_counting_deletions_never_rebuild_wholesale(self, monkeypatch):
        """No relation on the stream path is replaced wholesale by a deletion.

        ``Relation.replace_rows`` is the wholesale-rebuild primitive (it
        bumps the epoch and re-buckets every maintained index); with the
        counting delta pipeline it must never run while updates stream
        through an already indexed engine.
        """
        from repro.matching.relation import Relation

        engine = TRICPlusEngine()
        rng, queries = _random_workload(seed=21, num_queries=6)
        engine.register_all(queries)

        def _no_rebuild(*args, **kwargs):  # pragma: no cover - fails the test
            raise AssertionError("counting deletions must not rebuild wholesale")

        monkeypatch.setattr(Relation, "replace_rows", _no_rebuild)
        for update in _random_stream(rng, num_updates=120, deletion_rate=0.4):
            engine.on_update(update)
            for query in queries[:2]:
                engine.matches_of(query.query_id)

    def test_view_indexes_are_patched_not_rebuilt_across_deletions(self):
        engine = TRICPlusEngine()
        rng, queries = _random_workload(seed=23, num_queries=6)
        engine.register_all(queries)
        updates = _random_stream(rng, num_updates=80, deletion_rate=0.0)
        for update in updates:
            engine.on_update(update)
        # The queries probe their terminal views' own maintained indexes;
        # pin the index objects the addition stream created ...
        indexes = {
            (id(view), positions): view.index_map(positions)
            for relations in engine._binding_relations.values()
            for view in relations
            for positions in view.maintained_index_positions
        }
        assert indexes
        for update in updates[:10]:
            edge = update.edge
            engine.on_update(delete(edge.label, edge.source, edge.target))
        # ... and require the very same dict objects after deletions, still
        # exactly bucketing the views' rows (patched in place, not rebuilt).
        for relations in engine._binding_relations.values():
            for view in relations:
                for positions in view.maintained_index_positions:
                    index = view.index_map(positions)
                    assert indexes.get((id(view), positions), index) is index
                    assert set().union(*index.values()) == view.rows

    def test_base_and_materialising_variants_agree_under_churn(self):
        rng, queries = _random_workload(seed=31, num_queries=8)
        updates = _random_stream(rng, num_updates=100, deletion_rate=0.3)
        plain = TRICEngine()
        materialising = TRICPlusEngine()
        for engine in (plain, materialising):
            engine.register_all(queries)
        for update in updates:
            assert plain.on_update(update) == materialising.on_update(update)
        for query in queries:
            assert plain.matches_of(query.query_id) == materialising.matches_of(query.query_id)


class TestBatchedReplay:
    def test_batched_replay_processes_every_update(self, checkin_query, checkin_stream):
        engine = TRICPlusEngine()
        engine.register(checkin_query)
        result = replay(engine, _ticks(checkin_stream, 3))
        assert result.completed
        assert result.updates_processed == len(checkin_stream)
        # ceil(4 / 3) == 2 micro-batches were timed.
        assert result.answering.count == 2
        assert result.matches_emitted == 1

    def test_batched_replay_reports_each_batch_once(self, checkin_query, checkin_stream):
        received = []
        engine = TRICEngine()
        engine.register(checkin_query)
        replay(
            engine,
            _ticks(checkin_stream, len(checkin_stream)),
            on_tick=lambda index, tick, notified: received.append((list(tick), notified)),
        )
        assert len(received) == 1
        tick, matched = received[0]
        assert matched == frozenset({"checkin"})
        assert tick[-1] == list(checkin_stream)[-1]

    def test_batched_and_per_update_replays_agree_on_matches(self):
        rng, queries = _random_workload(seed=41, num_queries=6)
        updates = _random_stream(rng, num_updates=90, deletion_rate=0.2)
        results = {}
        for batch_size in (1, 16):
            engine = TRICPlusEngine()
            engine.register_all(queries)
            replay(engine, _ticks(updates, batch_size))
            results[batch_size] = engine.satisfied_queries()
        assert results[1] == results[16]
