"""Durability & crash recovery: snapshots, journal, supervised shards.

The central recovery property: for every engine (all 8 + sharded groups),
crash at an arbitrary batch boundary or mid-write, restore from snapshot +
journal tail-replay, and the recovered engine's ``matches_of``,
``describe()`` and subsequently delivered ``MatchDelta`` frames are
byte-identical to an engine that never died.  Worker processes SIGKILLed
mid-stream are respawned and restored automatically; repeated deaths
degrade gracefully to in-process execution.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import NaiveEngine, QueryBuilder, add, create_sharded_engine, delete
from repro.core.engine import ContinuousEngine
from repro.engines import ENGINE_FACTORIES
from repro.graph.errors import (
    DuplicateQueryError,
    JournalCorruptError,
    PersistenceError,
    ShardUnavailableError,
    SnapshotCorruptError,
)
from repro.persistence import (
    SNAPSHOT_VERSION,
    DeltaJournal,
    DurableEngine,
    FaultInjector,
    InjectedCrash,
    corrupt_file_tail,
    decode_snapshot,
    encode_snapshot,
    frame_record,
    parse_frames,
    restore_engine,
    truncate_file_tail,
    update_from_payload,
    update_to_payload,
)
from repro.pubsub import ShardedEngineGroup, SubscriptionBroker

ALL_ENGINES = list(ENGINE_FACTORIES)


# ----------------------------------------------------------------------
# Workload helpers
# ----------------------------------------------------------------------
def patterns():
    return [
        QueryBuilder("chain")
        .edge("knows", "?a", "?b")
        .edge("likes", "?b", "?c")
        .build(),
        QueryBuilder("pair").edge("knows", "?x", "?y").build(),
        QueryBuilder("tri").edge("likes", "?x", "?y").edge("likes", "?y", "?z").build(),
    ]


def interleaved_stream(n=60, seed=0):
    """Deterministic add/delete stream over a small label/vertex alphabet."""
    updates = []
    live = []
    for i in range(n):
        update = add(
            ("knows", "likes")[(i + seed) % 2],
            f"v{(i * 5 + seed) % 9}",
            f"v{(i * 3 + 1) % 9}",
        )
        updates.append(update)
        live.append(update.edge)
        if i % 4 == 3:
            edge = live.pop((i * 7 + seed) % len(live))
            updates.append(delete(edge.label, edge.source, edge.target))
    return updates


def batches_of(updates, size):
    return [updates[start : start + size] for start in range(0, len(updates), size)]


def assert_same_answers(left, right):
    for pattern in patterns():
        assert left.matches_of(pattern.query_id) == right.matches_of(
            pattern.query_id
        ), pattern.query_id
    assert left.satisfied_queries() == right.satisfied_queries()


def delta_frames(broker_engine, subscribed, batches):
    """Feed ``batches`` through a broker; return the delivered delta dicts."""
    broker = SubscriptionBroker(broker_engine)
    subscription = broker.subscribe("probe", subscribed)
    frames = []
    for batch in batches:
        broker.on_batch(batch)
        frames.extend(
            json.dumps(delta.as_dict(), sort_keys=True)
            for delta in subscription.drain()
        )
    return frames


@pytest.fixture
def hard_timeout():
    """Hard wall-clock limit so a supervision bug fails loudly, not silently.

    ``signal.alarm`` rather than a pytest plugin: it needs nothing
    installed and survives a deadlocked process pool (the usual failure
    mode of broken worker supervision).
    """
    def _timed_out(signum, frame):  # pragma: no cover - only on deadlock
        raise TimeoutError("process-executor test exceeded its hard timeout")

    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


# ----------------------------------------------------------------------
# Snapshot envelope
# ----------------------------------------------------------------------
class TestSnapshotEnvelope:
    def test_round_trip(self):
        blob = encode_snapshot({"answer": 42})
        assert decode_snapshot(blob) == {"answer": 42}

    def test_truncated_blob_detected(self):
        blob = encode_snapshot(list(range(100)))
        with pytest.raises(SnapshotCorruptError):
            decode_snapshot(blob[: len(blob) // 2])
        with pytest.raises(SnapshotCorruptError):
            decode_snapshot(blob[:4])

    def test_bit_flip_detected(self):
        blob = bytearray(encode_snapshot("payload"))
        blob[-1] ^= 0xFF
        with pytest.raises(SnapshotCorruptError):
            decode_snapshot(bytes(blob))

    def test_bad_magic_and_version_detected(self):
        blob = encode_snapshot("payload")
        with pytest.raises(SnapshotCorruptError):
            decode_snapshot(b"NOTASNAP!" + blob[9:])
        tampered = blob[:9] + b"\xff\xff" + blob[11:]
        with pytest.raises(SnapshotCorruptError):
            decode_snapshot(tampered)

    @pytest.mark.parametrize("old", [1, 2, 3, 4, 5, 6])
    def test_older_envelope_versions_are_refused_with_a_typed_error(self, old):
        """Format 2 dropped the per-query binding copies and the unread
        delta logs, format 3 moved the pickled process shard and dropped
        the group's thread pool, format 4 dropped relation versions,
        format 5 made each trie root share its key's base view, format 6
        dropped the trie nodes' ids, and format 7 made the view registry
        count every live edge and dropped the sharded group's edge history;
        an older payload would unpickle into classes or attributes the code
        no longer has, so it is refused at the envelope, not deserialised."""
        assert SNAPSHOT_VERSION == 7
        blob = encode_snapshot("payload")
        stale = blob[:9] + old.to_bytes(2, "big") + blob[11:]  # valid CRC, old version
        assert len(stale) == len(blob)  # header size unchanged
        with pytest.raises(SnapshotCorruptError, match=f"version {old}"):
            decode_snapshot(stale)
        with pytest.raises(SnapshotCorruptError, match=f"version {old}"):
            ContinuousEngine.restore(stale)

    def test_restore_engine_rejects_non_engines(self):
        with pytest.raises(SnapshotCorruptError):
            restore_engine(encode_snapshot({"not": "an engine"}))

    def test_update_payload_round_trip(self):
        for update in interleaved_stream(12):
            assert update_from_payload(update_to_payload(update)) == update


# ----------------------------------------------------------------------
# Engine snapshot()/restore(): every engine + sharded groups
# ----------------------------------------------------------------------
class TestEngineSnapshotRestore:
    @pytest.mark.parametrize("name", ALL_ENGINES)
    def test_restored_engine_is_behaviourally_identical(self, name):
        updates = interleaved_stream(48)
        engine = ENGINE_FACTORIES[name]()
        engine.register_all(patterns())
        for batch in batches_of(updates[:24], 6):
            engine.on_batch(batch)
        restored = ContinuousEngine.restore(engine.snapshot())
        assert restored.describe() == engine.describe()
        for batch in batches_of(updates[24:], 6):
            assert restored.on_batch(batch) == engine.on_batch(batch)
        assert_same_answers(restored, engine)
        assert restored.describe() == engine.describe()

    @pytest.mark.parametrize("num_shards", [2, 3])
    def test_restored_sharded_group_is_identical(self, num_shards):
        updates = interleaved_stream(40)
        group = ShardedEngineGroup("TRIC+", num_shards, assignment="label")
        group.register_all(patterns())
        for batch in batches_of(updates[:20], 5):
            group.on_batch(batch)
        restored = ContinuousEngine.restore(group.snapshot())
        assert isinstance(restored, ShardedEngineGroup)
        for batch in batches_of(updates[20:], 5):
            assert restored.on_batch(batch) == group.on_batch(batch)
        assert_same_answers(restored, group)

    def test_restored_engine_delivers_identical_match_deltas(self):
        updates = interleaved_stream(40)
        engine = ENGINE_FACTORIES["TRIC+"]()
        engine.register_all(patterns())
        for batch in batches_of(updates[:20], 5):
            engine.on_batch(batch)
        restored = ContinuousEngine.restore(engine.snapshot())
        suffix = batches_of(updates[20:], 5)
        subscribed = [pattern.query_id for pattern in patterns()]
        assert delta_frames(restored, subscribed, suffix) == delta_frames(
            engine, subscribed, suffix
        )


    def test_query_registered_after_a_restore_in_a_fresh_process(self, tmp_path):
        """A snapshot taken in one interpreter and restored in another: a
        query registered after the restore must not displace the restored
        query's trie nodes (the older query would silently answer ``[]``)."""
        chain, _, tri = patterns()
        updates = interleaved_stream(48)
        inputs, blob = tmp_path / "inputs.pkl", tmp_path / "engine.snap"
        inputs.write_bytes(pickle.dumps((chain, tri, updates[:24], updates[24:])))
        prelude = f"""
            import json, pickle
            from repro.core.engine import ContinuousEngine
            from repro.engines import create_engine
            chain, tri, head, tail = pickle.loads(open({str(inputs)!r}, "rb").read())
            """
        take = """
            engine = create_engine("TRIC+")
            engine.register(chain)
            engine.on_batch(head)
            open(BLOB, "wb").write(engine.snapshot())
            """
        restore = """
            engine = ContinuousEngine.restore(open(BLOB, "rb").read())
            engine.register(tri)
            engine.on_batch(tail)
            print(json.dumps({q: engine.matches_of(q) for q in ("chain", "tri")}))
            """
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        for step in (take, restore):
            script = textwrap.dedent(prelude) + textwrap.dedent(step).replace(
                "BLOB", repr(str(blob))
            )
            child = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                timeout=60,
            )
            assert child.returncode == 0, child.stderr
        answers = json.loads(child.stdout)
        oracle = NaiveEngine()
        oracle.register(chain)
        oracle.on_batch(updates[:24])
        oracle.register(tri)
        oracle.on_batch(updates[24:])
        assert answers == {q: oracle.matches_of(q) for q in ("chain", "tri")}
        assert answers["chain"]


# ----------------------------------------------------------------------
# The write-ahead journal
# ----------------------------------------------------------------------
class TestDeltaJournal:
    def test_append_and_replay_round_trip(self, tmp_path):
        journal = DeltaJournal(tmp_path / "j.wal")
        journal.append_register(1, patterns()[0])
        journal.append_batch(2, interleaved_stream(8))
        journal.append_batch(3, interleaved_stream(4, seed=1))
        records, torn = journal.replay()
        assert not torn
        assert [record.op for record in records] == ["register", "batch", "batch"]
        assert records[0].pattern().query_id == "chain"
        assert records[1].updates() == interleaved_stream(8)
        assert records[2].updates() == interleaved_stream(4, seed=1)
        records, _ = journal.replay(after_seq=2)
        assert [record.seq for record in records] == [3]
        journal.close()

    def test_torn_final_record_truncated_not_crashed(self, tmp_path):
        journal = DeltaJournal(tmp_path / "j.wal")
        journal.append_batch(1, interleaved_stream(6))
        journal.append_batch(2, interleaved_stream(6, seed=2))
        intact = journal.size_bytes
        truncate_file_tail(journal.path, 11)  # crash mid-write(2)
        records, torn = journal.replay()
        assert torn
        assert [record.seq for record in records] == [1]
        assert journal.size_bytes < intact
        # The journal stays appendable after the truncation.
        journal.append_batch(2, interleaved_stream(6, seed=2))
        records, torn = journal.replay()
        assert not torn and [record.seq for record in records] == [1, 2]
        journal.close()

    def test_corrupt_final_record_truncated(self, tmp_path):
        journal = DeltaJournal(tmp_path / "j.wal")
        journal.append_batch(1, interleaved_stream(6))
        journal.append_batch(2, interleaved_stream(6, seed=2))
        corrupt_file_tail(journal.path, offset_from_end=4)
        records, torn = journal.replay()
        assert torn and [record.seq for record in records] == [1]
        journal.close()

    def test_interior_corruption_raises(self, tmp_path):
        path = tmp_path / "j.wal"
        with DeltaJournal(path) as journal:
            journal.append_batch(1, interleaved_stream(6))
            journal.append_batch(2, interleaved_stream(6, seed=2))
        data = path.read_bytes()
        first_end = data.index(b"\n") + 1
        damaged = data[: first_end - 10] + b"XX" + data[first_end - 8 :]
        path.write_bytes(damaged)
        with pytest.raises(JournalCorruptError):
            parse_frames(path.read_bytes())

    def test_parse_frames_offsets(self):
        frames = frame_record({"seq": 1, "op": "batch"}) + frame_record(
            {"seq": 2, "op": "batch"}
        )
        records, good, torn = parse_frames(frames)
        assert [record.seq for record in records] == [1, 2]
        assert good == len(frames) and not torn
        records, good, torn = parse_frames(frames + b"garbage")
        assert [record.seq for record in records] == [1, 2] and torn

    def test_closed_journal_refuses_appends(self, tmp_path):
        journal = DeltaJournal(tmp_path / "j.wal")
        journal.close()
        journal.close()  # idempotent
        with pytest.raises(PersistenceError):
            journal.append_batch(1, [])


# ----------------------------------------------------------------------
# Durable recovery: crash between append and apply, torn tails
# ----------------------------------------------------------------------
class TestDurableRecovery:
    @pytest.mark.parametrize("name", ALL_ENGINES)
    def test_crash_at_batch_boundary_every_engine(self, name, tmp_path):
        """Crash between journal append and state apply, mid-stream.

        The journal holds the in-flight batch, so recovery applies it —
        the recovered engine must equal an oracle that never died and
        processed that batch.
        """
        updates = interleaved_stream(48)
        prefix, suffix = batches_of(updates[:24], 6), batches_of(updates[24:], 6)
        factory = ENGINE_FACTORIES[name]
        faults = FaultInjector()
        faults.arm("durable.apply.before", hits=len(prefix) + len(patterns()))
        durable = DurableEngine(
            factory(), tmp_path / "d", snapshot_every=4, faults=faults
        )
        crashed_at = None
        try:
            durable.register_all(patterns())
            for index, batch in enumerate(prefix):
                durable.on_batch(batch)
        except InjectedCrash:
            crashed_at = len(prefix) - 1  # the last batch: journaled, unapplied
        assert crashed_at is not None
        durable.close()

        oracle = factory()
        oracle.register_all(patterns())
        for batch in prefix:  # the oracle never died and applied everything
            oracle.on_batch(batch)

        recovered = DurableEngine.recover(tmp_path / "d", engine_factory=factory)
        assert recovered.recovered and not recovered.truncated_tail
        assert recovered.engine.describe() == oracle.describe()
        for batch in suffix:
            assert recovered.on_batch(batch) == oracle.on_batch(batch)
        assert_same_answers(recovered, oracle)
        assert recovered.engine.describe() == oracle.describe()
        recovered.close()

    @pytest.mark.parametrize("name", ALL_ENGINES)
    def test_torn_final_record_every_engine(self, name, tmp_path):
        """Crash mid-write: the unacknowledged batch is truncated away.

        The oracle never saw the torn batch either (it was never
        acknowledged), so after the client retries it the two histories
        re-converge exactly.
        """
        updates = interleaved_stream(48)
        prefix, suffix = batches_of(updates[:24], 6), batches_of(updates[24:], 6)
        factory = ENGINE_FACTORIES[name]
        durable = DurableEngine(factory(), tmp_path / "d", snapshot_every=4)
        durable.register_all(patterns())
        for batch in prefix[:-1]:
            durable.on_batch(batch)
        durable.on_batch(prefix[-1])
        durable.close()
        truncate_file_tail(durable.journal.path, 13)  # tear the last record

        oracle = factory()
        oracle.register_all(patterns())
        for batch in prefix[:-1]:
            oracle.on_batch(batch)

        recovered = DurableEngine.recover(tmp_path / "d", engine_factory=factory)
        assert recovered.truncated_tail
        assert recovered.engine.describe() == oracle.describe()
        for batch in [prefix[-1]] + suffix:  # the client retries the torn batch
            assert recovered.on_batch(batch) == oracle.on_batch(batch)
        assert_same_answers(recovered, oracle)
        recovered.close()

    def test_sharded_group_recovery(self, tmp_path):
        updates = interleaved_stream(40)
        prefix, suffix = batches_of(updates[:20], 5), batches_of(updates[20:], 5)

        def factory():
            return ShardedEngineGroup("TRIC+", 2, assignment="label")

        durable = DurableEngine(factory(), tmp_path / "d", snapshot_every=3)
        durable.register_all(patterns())
        for batch in prefix:
            durable.on_batch(batch)
        durable.close()

        oracle = factory()
        oracle.register_all(patterns())
        for batch in prefix:
            oracle.on_batch(batch)

        recovered = DurableEngine.recover(tmp_path / "d", engine_factory=factory)
        subscribed = [pattern.query_id for pattern in patterns()]
        assert delta_frames(recovered, subscribed, suffix) == delta_frames(
            oracle, subscribed, suffix
        )
        assert_same_answers(recovered, oracle)
        recovered.close()

    def test_recovered_engine_delivers_identical_match_deltas(self, tmp_path):
        updates = interleaved_stream(40)
        prefix, suffix = batches_of(updates[:20], 5), batches_of(updates[20:], 5)
        factory = ENGINE_FACTORIES["TRIC+"]
        faults = FaultInjector()
        faults.arm("durable.apply.before", hits=len(prefix) + len(patterns()))
        durable = DurableEngine(factory(), tmp_path / "d", faults=faults)
        with pytest.raises(InjectedCrash):
            durable.register_all(patterns())
            for batch in prefix:
                durable.on_batch(batch)
        durable.close()

        oracle = factory()
        oracle.register_all(patterns())
        for batch in prefix:
            oracle.on_batch(batch)

        recovered = DurableEngine.recover(tmp_path / "d", engine_factory=factory)
        subscribed = [pattern.query_id for pattern in patterns()]
        assert delta_frames(recovered, subscribed, suffix) == delta_frames(
            oracle, subscribed, suffix
        )
        recovered.close()

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        crash_batch=st.integers(min_value=0, max_value=7),
        batch_size=st.integers(min_value=1, max_value=9),
        torn_bytes=st.integers(min_value=0, max_value=40),
        snapshot_every=st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
    )
    def test_property_crash_anywhere_recovers_exactly(
        self, tmp_path_factory, seed, crash_batch, batch_size, torn_bytes, snapshot_every
    ):
        """Arbitrary stream, arbitrary crash point, arbitrary torn tail.

        ``torn_bytes == 0`` models a crash at the batch boundary (journal
        record intact: recovery applies it); ``torn_bytes > 0`` tears the
        final record (crash mid-write: recovery truncates it and the
        client retries).  Either way the recovered engine must be
        byte-identical to the never-died oracle over the rest of the
        stream.
        """
        tmp_path = tmp_path_factory.mktemp("wal")
        updates = interleaved_stream(50, seed=seed)
        all_batches = batches_of(updates, batch_size)
        crash_batch = min(crash_batch, len(all_batches) - 1)
        prefix, suffix = all_batches[: crash_batch + 1], all_batches[crash_batch + 1 :]
        factory = ENGINE_FACTORIES["TRIC+"]

        faults = FaultInjector()
        faults.arm("durable.apply.before", hits=len(patterns()) + len(prefix))
        durable = DurableEngine(
            factory(), tmp_path / "d", snapshot_every=snapshot_every, faults=faults
        )
        with pytest.raises(InjectedCrash):
            durable.register_all(patterns())
            for batch in prefix:
                durable.on_batch(batch)
        durable.close()

        journal_size = (tmp_path / "d" / "journal.wal").stat().st_size
        tear = min(torn_bytes, max(0, journal_size - 1))
        if tear > 0:
            truncate_file_tail(tmp_path / "d" / "journal.wal", tear)

        oracle = factory()
        oracle.register_all(patterns())
        recovered = DurableEngine.recover(tmp_path / "d", engine_factory=factory)
        # The oracle processes exactly the batches recovery acknowledged
        # (seq <= recovered._seq); any batch lost to the tear was never
        # acknowledged, so the client retries it on both sides.
        oracle_batches = []
        for index, batch in enumerate(prefix):
            seq = len(patterns()) + index + 1
            if seq <= recovered._seq:
                oracle_batches.append(batch)
            else:
                suffix = [batch] + suffix  # the client retries it
        for batch in oracle_batches:
            oracle.on_batch(batch)
        for batch in suffix:
            assert recovered.on_batch(batch) == oracle.on_batch(batch)
        assert_same_answers(recovered, oracle)
        assert recovered.engine.describe() == oracle.describe()
        recovered.close()


# ----------------------------------------------------------------------
# DurableEngine mechanics
# ----------------------------------------------------------------------
class TestDurableEngineMechanics:
    def test_duplicate_registration_not_journalled(self, tmp_path):
        durable = DurableEngine(ENGINE_FACTORIES["TRIC+"](), tmp_path / "d")
        durable.register(patterns()[0])
        before = durable.journal.records_appended
        with pytest.raises(DuplicateQueryError):
            durable.register(patterns()[0])
        assert durable.journal.records_appended == before
        durable.close()

    def test_recover_needs_snapshot_or_factory(self, tmp_path):
        with pytest.raises(PersistenceError):
            DurableEngine.recover(tmp_path / "missing")

    def test_journal_record_with_an_unknown_op_is_refused(self, tmp_path):
        """Replay knows ``register`` and ``batch`` only: a CRC-valid frame
        with any other op is refused, never replayed as a batch."""
        factory = ENGINE_FACTORIES["TRIC+"]
        with DurableEngine(factory(), tmp_path / "d") as durable:
            durable.register_all(patterns())
            seq = durable.describe()["durability"]["seq"]
            path = durable.journal.path
        updates = [update_to_payload(update) for update in interleaved_stream(4)]
        with open(path, "ab") as handle:
            handle.write(frame_record({"seq": seq + 1, "op": "backfill", "updates": updates}))
        with pytest.raises(JournalCorruptError, match="unknown op 'backfill'"):
            DurableEngine.recover(tmp_path / "d", engine_factory=factory)

    def test_snapshot_every_validated(self, tmp_path):
        with pytest.raises(PersistenceError):
            DurableEngine(ENGINE_FACTORIES["TRIC+"](), tmp_path / "d", snapshot_every=0)

    def test_describe_reports_durability(self, tmp_path):
        with DurableEngine(
            ENGINE_FACTORIES["TRIC+"](), tmp_path / "d", snapshot_every=2
        ) as durable:
            durable.register_all(patterns())
            durable.on_batch(interleaved_stream(8))
            info = durable.describe()
        assert info["engine"] == "TRIC+"
        durability = info["durability"]
        assert durability["seq"] == 4
        assert durability["snapshots_written"] >= 1
        assert durability["fsync"] is True

    def test_close_is_idempotent(self, tmp_path):
        durable = DurableEngine(ENGINE_FACTORIES["TRIC+"](), tmp_path / "d")
        with durable:
            durable.register(patterns()[0])
        durable.close()
        durable.close()

    def test_create_sharded_engine_journal_dir(self, tmp_path):
        engine = create_sharded_engine(
            "TRIC+", 2, journal_dir=str(tmp_path / "d"), snapshot_every=3
        )
        assert isinstance(engine, DurableEngine)
        engine.register_all(patterns())
        engine.on_batch(interleaved_stream(12))
        expected = {
            pattern.query_id: engine.matches_of(pattern.query_id)
            for pattern in patterns()
        }
        engine.close()
        recovered = DurableEngine.recover(
            tmp_path / "d",
            engine_factory=lambda: create_sharded_engine("TRIC+", 2),
        )
        for query_id, matches in expected.items():
            assert recovered.matches_of(query_id) == matches
        recovered.close()

    def test_update_counter_and_per_update_paths(self, tmp_path):
        durable = DurableEngine(ENGINE_FACTORIES["TRIC+"](), tmp_path / "d")
        durable.register_all(patterns())
        updates = interleaved_stream(6)
        reports = [durable.on_update(update) for update in updates]
        assert [report.updates for report in reports] == [1] * len(updates)
        for batch in batches_of(interleaved_stream(6, seed=3), 2):
            durable.on_batch(batch)
        assert durable.updates_processed == 2 * len(updates)
        # One ``batch`` journal record per call, one update each for on_update.
        records, _ = durable.journal.replay()
        batches = [len(record.updates()) for record in records if record.op == "batch"]
        assert batches[: len(updates)] == [1] * len(updates)
        assert len(batches) == len(updates) + len(batches_of(updates, 2))
        durable.close()


# ----------------------------------------------------------------------
# Snapshot generation fallback
# ----------------------------------------------------------------------
def durable_with_generations(directory, extra_tail=True):
    """A closed durable directory holding >= 2 snapshot generations, plus
    the in-memory oracle that saw the same stream."""
    updates = interleaved_stream(40)
    durable = DurableEngine(
        ENGINE_FACTORIES["TRIC+"](), directory, snapshot_every=4
    )
    oracle = ENGINE_FACTORIES["TRIC+"]()
    durable.register_all(patterns())
    oracle.register_all(patterns())
    for batch in batches_of(updates, 4):
        durable.on_batch(batch)
        oracle.on_batch(batch)
    if extra_tail:
        # Land past the last snapshot boundary so the live journal holds
        # a tail the recovery has to bridge.
        tail = [add("knows", "v0", "v2")]
        durable.on_batch(tail)
        oracle.on_batch(tail)
    assert durable.snapshots_written >= 2
    assert (directory / "snapshot.bin.1").exists()
    durable.close()
    return oracle


class TestSnapshotGenerationFallback:
    def test_corrupt_snapshot_falls_back_one_generation(self, tmp_path):
        directory = tmp_path / "d"
        oracle = durable_with_generations(directory)
        snapshot = directory / "snapshot.bin"
        corrupt_file_tail(snapshot, offset_from_end=snapshot.stat().st_size // 2)
        recovered = DurableEngine.recover(directory)
        assert recovered.snapshot_fallback
        assert recovered.describe()["durability"]["snapshot_fallback"]
        assert_same_answers(recovered, oracle)
        # The fallback engine keeps journalling from the recovered seq.
        suffix = [add("likes", "v4", "v5")]
        recovered.on_batch(suffix)
        oracle.on_batch(suffix)
        assert_same_answers(recovered, oracle)
        recovered.close()

    def test_snapshot_lost_mid_rotation_falls_back(self, tmp_path):
        directory = tmp_path / "d"
        oracle = durable_with_generations(directory)
        # A crash between the rotation and the new snapshot's rename
        # leaves no snapshot.bin but a complete previous generation.
        (directory / "snapshot.bin").unlink()
        recovered = DurableEngine.recover(directory)
        assert recovered.snapshot_fallback
        assert_same_answers(recovered, oracle)
        recovered.close()

    def test_both_generations_corrupt_refuses(self, tmp_path):
        directory = tmp_path / "d"
        durable_with_generations(directory)
        for name in ("snapshot.bin", "snapshot.bin.1"):
            path = directory / name
            corrupt_file_tail(path, offset_from_end=path.stat().st_size // 2)
        with pytest.raises(SnapshotCorruptError, match="both snapshot generations"):
            DurableEngine.recover(directory)

    def test_fallback_refuses_unbridgeable_journal_gap(self, tmp_path):
        directory = tmp_path / "d"
        durable_with_generations(directory)
        snapshot = directory / "snapshot.bin"
        corrupt_file_tail(snapshot, offset_from_end=snapshot.stat().st_size // 2)
        # Losing the preserved segment leaves a sequence gap between the
        # previous snapshot and the live journal tail: typed refusal, not
        # a silently stale recovery.
        (directory / "journal.wal.1").unlink()
        with pytest.raises(SnapshotCorruptError, match="bridge|gap"):
            DurableEngine.recover(directory)

    def test_clean_recovery_does_not_touch_previous_generation(self, tmp_path):
        directory = tmp_path / "d"
        oracle = durable_with_generations(directory)
        recovered = DurableEngine.recover(directory)
        assert not recovered.snapshot_fallback
        assert recovered.describe()["durability"]["previous_generation"]
        assert_same_answers(recovered, oracle)
        recovered.close()


# ----------------------------------------------------------------------
# Durable lifecycle races
# ----------------------------------------------------------------------
class TestDurableLifecycleRaces:
    def test_concurrent_close_waits_for_inflight_flush(self, tmp_path):
        """close() during a writer's flush waits, never tears the journal."""
        directory = tmp_path / "d"
        durable = DurableEngine(ENGINE_FACTORIES["TRIC+"](), directory)
        durable.register_all(patterns())
        stream = interleaved_stream(200)
        unexpected = []
        closed = threading.Event()

        def writer():
            index = 0
            while not closed.is_set():
                batch = stream[index % 190 : index % 190 + 4]
                index += 4
                try:
                    durable.on_batch(batch)
                except PersistenceError:
                    break  # closed under us: the typed, expected outcome
                except Exception as error:  # pragma: no cover - bug trap
                    unexpected.append(error)
                    break

        threads = [threading.Thread(target=writer) for _ in range(2)]
        for thread in threads:
            thread.start()
        time.sleep(0.05)
        durable.close()
        closed.set()
        for thread in threads:
            thread.join()
        assert not unexpected
        # Every record the journal holds is whole: no torn tail, no
        # interior damage — the race never interrupted a flush.
        _records, _good, torn = parse_frames(
            (directory / "journal.wal").read_bytes()
        )
        assert not torn

    def test_closed_durable_raises_typed_errors(self, tmp_path):
        durable = DurableEngine(ENGINE_FACTORIES["TRIC+"](), tmp_path / "d")
        durable.register(patterns()[0])
        durable.close()
        with pytest.raises(PersistenceError, match="closed"):
            durable.on_batch([add("knows", "v0", "v1")])
        with pytest.raises(PersistenceError, match="closed"):
            durable.register(patterns()[1])
        with pytest.raises(PersistenceError, match="closed"):
            durable.write_snapshot()

    def test_recover_during_snapshot_replace_leftover_tmp(self, tmp_path):
        """A crash mid-``write_snapshot`` leaves a ``.tmp`` file behind;
        recovery ignores it and resumes from the committed state."""
        directory = tmp_path / "d"
        oracle = durable_with_generations(directory)
        (directory / "snapshot.bin.tmp").write_bytes(b"half-written garbage")
        recovered = DurableEngine.recover(directory)
        assert not recovered.snapshot_fallback
        assert_same_answers(recovered, oracle)
        recovered.close()


# ----------------------------------------------------------------------
# Supervised process shards
# ----------------------------------------------------------------------
class TestSupervisedProcessShards:
    def test_sigkilled_worker_respawned_and_identical(self, hard_timeout):
        updates = interleaved_stream(60)
        oracle = ShardedEngineGroup("TRIC+", 2, executor="serial")
        oracle.register_all(patterns())
        with ShardedEngineGroup("TRIC+", 2, executor="process") as group:
            group.register_all(patterns())
            chunks = batches_of(updates, 6)
            for index, batch in enumerate(chunks):
                assert group.on_batch(batch) == oracle.on_batch(batch)
                if index == 3:
                    group.shards[0].kill_worker()  # mid-stream SIGKILL
                if index == 6:
                    group.shards[1].kill_worker()
            assert_same_answers(group, oracle)
            description = group.describe()
            assert sum(description["shard_respawns"]) >= 2
            assert sum(description["shard_replayed_ops"]) >= 1
            assert description["degraded_shards"] == 0
            supervision = description["per_shard"][0]["supervision"]
            assert supervision["respawns"] >= 1

    def test_sigkilled_worker_delivers_identical_deltas(self, hard_timeout):
        updates = interleaved_stream(40)
        subscribed = [pattern.query_id for pattern in patterns()]
        oracle = ShardedEngineGroup("TRIC+", 2, executor="serial")
        oracle.register_all(patterns())
        broker_o = SubscriptionBroker(oracle)
        sub_o = broker_o.subscribe("probe", subscribed)
        with ShardedEngineGroup("TRIC+", 2, executor="process") as group:
            group.register_all(patterns())
            broker_g = SubscriptionBroker(group)
            sub_g = broker_g.subscribe("probe", subscribed)
            for index, batch in enumerate(batches_of(updates, 5)):
                broker_o.on_batch(batch)
                broker_g.on_batch(batch)
                frames_o = [
                    json.dumps(d.as_dict(), sort_keys=True) for d in sub_o.drain()
                ]
                frames_g = [
                    json.dumps(d.as_dict(), sort_keys=True) for d in sub_g.drain()
                ]
                assert frames_o == frames_g
                if index == 2:
                    group.shards[0].kill_worker()
            assert sum(group.describe()["shard_respawns"]) >= 1

    def test_crashes_interleaved_with_subscription_churn(self, hard_timeout):
        """Worker deaths racing subscribe/unsubscribe churn stay exact.

        Listeners come and go *between* kills; every frame either side
        delivers — including the mid-stream snapshot a late subscriber
        gets — must match the never-crashed oracle's byte for byte.
        """
        updates = interleaved_stream(60)
        subscribed = [pattern.query_id for pattern in patterns()]
        oracle = ShardedEngineGroup("TRIC+", 2, executor="serial")
        oracle.register_all(patterns())
        broker_o = SubscriptionBroker(oracle)
        with ShardedEngineGroup("TRIC+", 2, executor="process") as group:
            group.register_all(patterns())
            broker_g = SubscriptionBroker(group)
            subs = {}  # listener id -> (oracle subscription, group subscription)
            subs["app"] = (
                broker_o.subscribe("app", subscribed),
                broker_g.subscribe("app", subscribed),
            )
            for index, batch in enumerate(batches_of(updates, 5)):
                if index == 2:
                    group.shards[0].kill_worker()
                if index == 3:  # a listener arrives right after a crash
                    subs["late"] = (
                        broker_o.subscribe("late", subscribed[:1]),
                        broker_g.subscribe("late", subscribed[:1]),
                    )
                if index == 5:
                    broker_o.unsubscribe("app")
                    broker_g.unsubscribe("app")
                    del subs["app"]
                    group.shards[1].kill_worker()
                broker_o.on_batch(batch)
                broker_g.on_batch(batch)
                for listener, (sub_o, sub_g) in subs.items():
                    frames_o = [
                        json.dumps(d.as_dict(), sort_keys=True)
                        for d in sub_o.drain()
                    ]
                    frames_g = [
                        json.dumps(d.as_dict(), sort_keys=True)
                        for d in sub_g.drain()
                    ]
                    assert frames_o == frames_g, (listener, index)
            assert_same_answers(group, oracle)
            assert sum(group.describe()["shard_respawns"]) >= 2

    def test_repeated_deaths_degrade_to_in_process(self, hard_timeout):
        updates = interleaved_stream(48)
        oracle = ShardedEngineGroup("TRIC+", 1, executor="serial")
        oracle.register_all(patterns())
        with ShardedEngineGroup(
            "TRIC+", 1, executor="process", max_respawns=1
        ) as group:
            group.register_all(patterns())
            chunks = batches_of(updates, 6)
            for index, batch in enumerate(chunks):
                assert group.on_batch(batch) == oracle.on_batch(batch)
                if index in (1, 3):
                    group.shards[0].kill_worker()
            assert group.shards[0].degraded
            assert group.describe()["degraded_shards"] == 1
            assert_same_answers(group, oracle)

    def test_closed_proxy_raises_typed_error(self, hard_timeout):
        group = ShardedEngineGroup("TRIC+", 2, executor="process")
        group.register_all(patterns())
        group.close()
        with pytest.raises(ShardUnavailableError):
            group.shards[0].matches_of("pair")

    def test_process_group_snapshot_restores_workers(self, hard_timeout):
        updates = interleaved_stream(30)
        with ShardedEngineGroup("TRIC+", 2, executor="process") as group:
            group.register_all(patterns())
            group.on_batch(updates[:15])
            blob = group.snapshot()
            with ContinuousEngine.restore(blob) as restored:
                assert isinstance(restored, ShardedEngineGroup)
                group.on_batch(updates[15:])
                restored.on_batch(updates[15:])
                assert_same_answers(restored, group)


# ----------------------------------------------------------------------
# close() idempotency across executors (regression)
# ----------------------------------------------------------------------
class TestCloseIdempotency:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_double_close_and_context_manager(self, executor, hard_timeout):
        group = ShardedEngineGroup("TRIC+", 2, executor=executor)
        group.register_all(patterns())
        group.on_batch(interleaved_stream(10))
        with group:
            pass  # __exit__ closes once
        group.close()  # explicit second close must not raise
        group.close()


# ----------------------------------------------------------------------
# Fault injector mechanics
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_arm_hits_and_disarm(self):
        faults = FaultInjector()
        faults.arm("p", hits=2)
        faults.reached("p")  # first hit survives
        with pytest.raises(InjectedCrash):
            faults.reached("p")
        faults.reached("p")  # disarmed after firing
        assert faults.hits["p"] == 3
        faults.arm("q")
        faults.disarm("q")
        faults.reached("q")
        faults.arm("q")
        faults.disarm()
        faults.reached("q")
        with pytest.raises(ValueError):
            faults.arm("r", hits=0)

    def test_injected_crash_is_not_an_exception_subclass(self):
        assert not issubclass(InjectedCrash, Exception)
        assert issubclass(InjectedCrash, BaseException)
