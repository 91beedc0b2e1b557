"""Replicated shards: failover reads, promotion, rolling restarts.

The central replication properties:

* Reads served by replicas are byte-identical to the primary's answers
  (every replica read is queued behind the ops forwarded before it).
* A SIGKILLed replica is detached and re-seeded; reads fail over to
  surviving workers with no wrong answers and no errors.
* A SIGKILLed primary promotes the freshest replica and re-runs the
  in-flight batch exactly once — delivered ``MatchDelta`` frames stay
  byte-identical to a never-crashed oracle.
* ``rolling_restart()`` (drain, snapshot, respawn, resume) misses and
  duplicates zero frames, on every executor.
* The respawn budget is a sliding window: only death *bursts* degrade a
  shard; spaced-out deaths decay out of the budget.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import threading
import time
from collections import Counter
from multiprocessing.connection import Connection
from pathlib import Path

import pytest

from repro import NaiveEngine, QueryBuilder, add, delete
from repro.core.engine import ContinuousEngine
from repro.graph.errors import EngineError, PersistenceError, UnknownQueryError
from repro.persistence.workers import (
    ProcessWorker,
    RecoverySource,
    WorkerLost,
    collect,
    encode_frame,
)
from repro.pubsub import ShardedEngineGroup, SubscriptionBroker


# ----------------------------------------------------------------------
# Workload helpers (mirrors tests/test_persistence.py)
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


def frames_of(subscription):
    return [
        json.dumps(delta.as_dict(), sort_keys=True) for delta in subscription.drain()
    ]


def replicated_group(**kwargs):
    kwargs.setdefault("replicas", 1)
    return ShardedEngineGroup("TRIC+", 2, executor="process", **kwargs)


@pytest.fixture
def hard_timeout():
    """Hard wall-clock limit so a supervision bug fails loudly, not silently."""

    def _timed_out(signum, frame):  # pragma: no cover - only on deadlock
        raise TimeoutError("replication test exceeded its hard timeout")

    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


# ----------------------------------------------------------------------
# Construction & validation
# ----------------------------------------------------------------------
class TestConstruction:
    def test_replicas_require_process_executor(self):
        with pytest.raises(EngineError, match="process executor"):
            ShardedEngineGroup("TRIC+", 2, executor="serial", replicas=1)
        with pytest.raises(EngineError, match="non-negative"):
            ShardedEngineGroup("TRIC+", 2, executor="process", replicas=-1)

    def test_replica_pids_are_distinct_live_processes(self, hard_timeout):
        with replicated_group() as group:
            pids = set()
            for shard in group.shards:
                pids.add(shard.worker_pid())
                pids.update(shard.replica_pids())
            assert len(pids) == 4  # 2 primaries + 2 replicas, all distinct
            assert group.describe()["replicas_per_shard"] == 1


# ----------------------------------------------------------------------
# Replica reads
# ----------------------------------------------------------------------
class TestReplicaReads:
    def test_reads_route_to_replicas_and_match_oracle(self, hard_timeout):
        oracle = ShardedEngineGroup("TRIC+", 2, executor="serial")
        oracle.register_all(patterns())
        with replicated_group() as group:
            group.register_all(patterns())
            for batch in batches_of(interleaved_stream(48), 6):
                assert group.on_batch(batch) == oracle.on_batch(batch)
                assert_same_answers(group, oracle)
                for pattern in patterns():
                    assert group.has_matches(pattern.query_id) == oracle.has_matches(
                        pattern.query_id
                    )
            reads = sum(
                info["replicas"]["reads_served"]
                for info in group.replication_statistics()
            )
            assert reads > 0
            for info in group.replication_statistics():
                assert info["replicas"]["lag"] == [0]  # read behind every forward

    def test_reads_fall_back_to_primary_when_replicas_exhausted(self, hard_timeout):
        oracle = ShardedEngineGroup("TRIC+", 2, executor="serial")
        oracle.register_all(patterns())
        with replicated_group() as group:
            group.register_all(patterns())
            group.on_batch(interleaved_stream(24))
            oracle.on_batch(interleaved_stream(24))
            for shard in group.shards:
                shard.kill_replica()
            # Every read between the kill and the re-seed must fail over.
            assert_same_answers(group, oracle)
            group.on_batch([add("knows", "v0", "v1")])
            oracle.on_batch([add("knows", "v0", "v1")])
            assert_same_answers(group, oracle)


    def test_query_registered_after_a_restore_stays_maintained(self, hard_timeout):
        """A replica re-seeded from a snapshot replays a registration made
        after it; the new query's trie nodes must not displace the
        restored query's, or the restored query silently stops gaining
        answers on that replica."""
        chain, _, tri = patterns()
        oracle = NaiveEngine()
        with ShardedEngineGroup("TRIC+", 1, executor="process", replicas=1) as group:
            oracle.register(chain)
            group.register(chain)
            group.snapshot()  # the recovery source re-anchors on this blob
            for engine in (group, oracle):
                engine.register(tri)
                engine.on_batch(interleaved_stream(24))
            group.shards[0].kill_replica()
            # Served by the primary; re-seeds a replica from blob + tail.
            assert group.matches_of("chain") == oracle.matches_of("chain")
            for engine in (group, oracle):
                engine.on_batch([add("knows", "v0", "v1")])
            assert group.shards[0].replica_pids()
            for query_id in ("chain", "tri"):
                assert group.matches_of(query_id) == oracle.matches_of(query_id)
            assert group.matches_of("chain")


# ----------------------------------------------------------------------
# Replica lifecycle: SIGKILL, detach, re-seed
# ----------------------------------------------------------------------
class TestReplicaLifecycle:
    def test_killed_replica_is_detached_and_reseeded(self, hard_timeout):
        oracle = ShardedEngineGroup("TRIC+", 2, executor="serial")
        oracle.register_all(patterns())
        with replicated_group() as group:
            group.register_all(patterns())
            for index, batch in enumerate(batches_of(interleaved_stream(48), 6)):
                assert group.on_batch(batch) == oracle.on_batch(batch)
                if index == 3:
                    group.shards[0].kill_replica()
                assert_same_answers(group, oracle)
            info = group.shards[0].replication_info()
            assert info["replicas"]["deaths"] == 1
            assert info["replicas"]["reseeds"] >= 1
            assert info["replicas"]["attached"] == 1
            assert info["promotions"] == 0
            assert group.describe()["degraded_shards"] == 0

    @pytest.mark.parametrize("tail", ["empty-tail", "snapshot-and-tail"])
    def test_reseeded_replica_serves_correct_reads(self, tail, hard_timeout):
        oracle = ShardedEngineGroup("TRIC+", 2, executor="serial")
        oracle.register_all(patterns())
        with replicated_group() as group:
            group.register_all(patterns())
            group.on_batch(interleaved_stream(24))
            oracle.on_batch(interleaved_stream(24))
            group.snapshot()  # pickling checkpoints: every tail is empty
            if tail == "snapshot-and-tail":
                # Park every shard between two worker snapshots, so the
                # replacement replica needs the snapshot *and* the ops
                # acknowledged after it.
                filler = [add("knows", "v0", "v1"), add("likes", "v1", "v2")]
                group.on_batch(filler)
                oracle.on_batch(filler)
            for info in group.replication_statistics():
                assert info["worker_snapshot"]
                assert bool(info["ops_logged"]) == (tail == "snapshot-and-tail")
            group.shards[0].kill_replica()
            group.shards[1].kill_replica()
            # The next acknowledged op triggers the re-seed...
            suffix = [add("likes", "v1", "v2"), add("likes", "v2", "v3")]
            group.on_batch(suffix)
            oracle.on_batch(suffix)
            # ...and the re-seeded replicas answer at the acknowledged point.
            assert_same_answers(group, oracle)
            for shard in group.shards:
                assert len(shard.replica_pids()) == 1
                replicas = shard.replication_info()["replicas"]
                assert replicas["reseeds"] >= 1
                assert replicas["lag"] == [0]


# ----------------------------------------------------------------------
# Primary failover: promotion
# ----------------------------------------------------------------------
class TestPrimaryFailover:
    def test_killed_primary_promotes_freshest_replica(self, hard_timeout):
        updates = interleaved_stream(60)
        oracle = ShardedEngineGroup("TRIC+", 2, executor="serial")
        oracle.register_all(patterns())
        with replicated_group() as group:
            group.register_all(patterns())
            for index, batch in enumerate(batches_of(updates, 6)):
                assert group.on_batch(batch) == oracle.on_batch(batch)
                if index in (3, 6):
                    group.shards[index % 2].kill_worker()
            assert_same_answers(group, oracle)
            description = group.describe()
            assert sum(description["shard_promotions"]) == 2
            assert sum(description["shard_respawns"]) == 0  # replicas stood in
            assert description["degraded_shards"] == 0

    def test_promotion_delivers_identical_delta_frames(self, hard_timeout):
        subscribed = [pattern.query_id for pattern in patterns()]
        oracle = ShardedEngineGroup("TRIC+", 2, executor="serial")
        oracle.register_all(patterns())
        broker_o = SubscriptionBroker(oracle)
        sub_o = broker_o.subscribe("probe", subscribed)
        with replicated_group() as group:
            group.register_all(patterns())
            broker_g = SubscriptionBroker(group)
            sub_g = broker_g.subscribe("probe", subscribed)
            for index, batch in enumerate(batches_of(interleaved_stream(48), 5)):
                if index == 3:
                    group.shards[0].kill_worker()  # in-flight batch promotes
                broker_o.on_batch(batch)
                broker_g.on_batch(batch)
                assert frames_of(sub_o) == frames_of(sub_g)
            assert sum(group.describe()["shard_promotions"]) >= 1

    def test_primary_and_replica_killed_falls_back_to_respawn(self, hard_timeout):
        updates = interleaved_stream(48)
        oracle = ShardedEngineGroup("TRIC+", 2, executor="serial")
        oracle.register_all(patterns())
        with replicated_group() as group:
            group.register_all(patterns())
            for index, batch in enumerate(batches_of(updates, 6)):
                assert group.on_batch(batch) == oracle.on_batch(batch)
                if index == 3:
                    group.shards[0].kill_replica()
                    group.shards[0].kill_worker()
            assert_same_answers(group, oracle)
            info = group.shards[0].replication_info()
            # The dead replica cannot be promoted; the snapshot+oplog
            # respawn path recovers instead, then replenishes the replica.
            assert info["respawns"] + info["promotions"] >= 1
            assert not info["degraded"]

    def test_promoted_group_survives_pickle_roundtrip(self, hard_timeout):
        oracle = ShardedEngineGroup("TRIC+", 2, executor="serial")
        oracle.register_all(patterns())
        with replicated_group() as group:
            group.register_all(patterns())
            group.on_batch(interleaved_stream(24))
            oracle.on_batch(interleaved_stream(24))
            group.shards[0].kill_worker()
            with pickle.loads(pickle.dumps(group)) as clone:
                assert_same_answers(clone, oracle)
                suffix = [add("knows", "v3", "v4")]
                assert clone.on_batch(suffix) == oracle.on_batch(suffix)
                for shard in clone.shards:
                    assert len(shard.replica_pids()) == 1


# ----------------------------------------------------------------------
# Rolling restarts
# ----------------------------------------------------------------------
class TestRollingRestart:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_zero_loss_across_executors(self, executor, hard_timeout):
        subscribed = [pattern.query_id for pattern in patterns()]
        oracle = ShardedEngineGroup("TRIC+", 2, executor="serial")
        oracle.register_all(patterns())
        broker_o = SubscriptionBroker(oracle)
        sub_o = broker_o.subscribe("probe", subscribed)
        replicas = 1 if executor == "process" else 0
        with ShardedEngineGroup(
            "TRIC+", 2, executor=executor, replicas=replicas
        ) as group:
            group.register_all(patterns())
            broker_g = SubscriptionBroker(group)
            sub_g = broker_g.subscribe("probe", subscribed)
            for index, batch in enumerate(batches_of(interleaved_stream(48), 5)):
                if index in (2, 5):
                    report = group.rolling_restart()
                    assert report["shards"] == 2
                    assert len(report["pause_seconds"]) == 2
                broker_o.on_batch(batch)
                broker_g.on_batch(batch)
                assert frames_of(sub_o) == frames_of(sub_g)
            assert group.rolling_restarts == 2
            assert_same_answers(group, oracle)

    def test_restart_preserves_replicas_and_counters(self, hard_timeout):
        with replicated_group() as group:
            group.register_all(patterns())
            group.on_batch(interleaved_stream(24))
            report = group.rolling_restart()
            assert report["rolling_restarts"] == 1
            for shard in group.shards:
                info = shard.replication_info()
                assert info["restarts"] == 1
                assert info["replicas"]["attached"] == 1

    def test_double_restart_is_sequentially_idempotent(self, hard_timeout):
        with replicated_group() as group:
            group.register_all(patterns())
            group.on_batch(interleaved_stream(24))
            first = group.rolling_restart()
            second = group.rolling_restart()
            assert first["rolling_restarts"] == 1
            assert second["rolling_restarts"] == 2

    def test_concurrent_restart_raises_typed_error(self, hard_timeout):
        with replicated_group() as group:
            group.register_all(patterns())
            group.on_batch(interleaved_stream(24))
            errors = []
            reports = []

            def restart():
                try:
                    reports.append(group.rolling_restart())
                except PersistenceError as error:
                    errors.append(error)

            threads = [threading.Thread(target=restart) for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            # Exactly the overlapping calls fail, each with the typed error.
            assert len(reports) >= 1
            assert len(reports) + len(errors) == 3
            for error in errors:
                assert "already in progress" in str(error)

    def test_restart_on_closed_group_raises(self, hard_timeout):
        group = replicated_group()
        group.register_all(patterns())
        group.close()
        with pytest.raises(PersistenceError, match="closed"):
            group.rolling_restart()


# ----------------------------------------------------------------------
# Sliding-window respawn budget
# ----------------------------------------------------------------------
class TestRespawnWindow:
    def test_spaced_deaths_decay_out_of_the_budget(self, hard_timeout):
        updates = interleaved_stream(36)
        with ShardedEngineGroup(
            "TRIC+",
            1,
            executor="process",
            max_respawns=1,
            respawn_window=0.4,
        ) as group:
            group.register_all(patterns())
            group.on_batch(updates[:12])
            group.shards[0].kill_worker()
            group.on_batch(updates[12:24])  # first respawn
            time.sleep(0.5)  # let the death decay past the window
            group.shards[0].kill_worker()
            group.on_batch(updates[24:])  # budget free again: second respawn
            info = group.shards[0].replication_info()
            assert info["respawns"] == 2
            assert not info["degraded"]

    def test_death_burst_still_degrades(self, hard_timeout):
        updates = interleaved_stream(36)
        with ShardedEngineGroup(
            "TRIC+",
            1,
            executor="process",
            max_respawns=1,
            respawn_window=60.0,
        ) as group:
            group.register_all(patterns())
            group.on_batch(updates[:12])
            group.shards[0].kill_worker()
            group.on_batch(updates[12:24])
            group.shards[0].kill_worker()  # burst: within the window
            group.on_batch(updates[24:])
            info = group.shards[0].replication_info()
            assert info["degraded"]
            # Degraded in-process execution still answers correctly.
            oracle = ShardedEngineGroup("TRIC+", 1, executor="serial")
            oracle.register_all(patterns())
            oracle.on_batch(updates)
            assert_same_answers(group, oracle)


# ----------------------------------------------------------------------
# Engine errors travel back as replies; they are not worker deaths
# ----------------------------------------------------------------------
class TestEngineErrors:
    @pytest.mark.parametrize("replicas", [1, 0], ids=["replica-read", "primary-read"])
    def test_engine_error_is_not_a_worker_death(self, replicas, hard_timeout):
        with ShardedEngineGroup(
            "TRIC+", 1, executor="process", replicas=replicas
        ) as group:
            group.register_all(patterns())
            group.on_batch(interleaved_stream(12))
            shard = group.shards[0]
            pids = (shard.worker_pid(), shard.replica_pids())
            assert len(pids[1]) == replicas
            # The group checks query ids before routing, so go to the shard.
            with pytest.raises(UnknownQueryError):
                shard.matches_of("missing")
            info = shard.replication_info()
            assert (info["respawns"], info["promotions"]) == (0, 0)
            if replicas:
                assert info["replicas"]["deaths"] == 0
                assert info["replicas"]["read_failovers"] == 0
            assert (shard.worker_pid(), shard.replica_pids()) == pids
            oracle = ShardedEngineGroup("TRIC+", 1, executor="serial")
            oracle.register_all(patterns())
            oracle.on_batch(interleaved_stream(12))
            suffix = [add("likes", "v1", "v2"), add("knows", "v2", "v1")]
            assert group.on_batch(suffix) == oracle.on_batch(suffix)
            assert_same_answers(group, oracle)


class TestWorkerPipe:
    def test_interrupted_receive_loses_the_worker(self, hard_timeout, monkeypatch):
        """A receive cut short mid-frame (a signal handler raising) must not
        leave later replies misaligned: the handle is lost instead."""
        worker = ProcessWorker("TRIC+", {})
        try:
            assert worker.call("describe")["queries"] == 0
            reply = worker.submit("describe")

            def interrupted(conn):
                raise KeyboardInterrupt

            monkeypatch.setattr(Connection, "recv", interrupted)
            with pytest.raises(KeyboardInterrupt):
                reply.result()
            monkeypatch.undo()
            with pytest.raises(WorkerLost):
                collect(reply)
            with pytest.raises(WorkerLost):
                worker.call("describe")
        finally:
            worker.shutdown(wait=True)


# ----------------------------------------------------------------------
# Exit and reaping: no worker outlives its group or hangs the interpreter
# ----------------------------------------------------------------------
def python_env():
    """The environment of a child interpreter that imports this checkout."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def running(pid):
    """Whether ``pid`` is still running (a zombie has already exited)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class TestExitAndReaping:
    def test_unclosed_group_exits_promptly_and_quietly(self):
        script = textwrap.dedent(
            """
            from repro import QueryBuilder, add
            from repro.pubsub import ShardedEngineGroup

            group = ShardedEngineGroup("TRIC+", 2, executor="process", replicas=1)
            group.register_all([
                QueryBuilder("chain").edge("knows", "?a", "?b")
                .edge("likes", "?b", "?c").build(),
                QueryBuilder("pair").edge("knows", "?x", "?y").build(),
            ])
            group.on_batch([add("knows", "a", "b"), add("likes", "b", "c")])
            assert group.matches_of("pair") == [{"x": "a", "y": "b"}]
            group.shards[0].kill_worker()
            group.on_batch([add("knows", "c", "d"), add("likes", "d", "e")])
            # exits without close()
            """
        )
        child = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=python_env(),
            timeout=20,
        )
        assert child.returncode == 0, child.stderr
        assert child.stderr == ""

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
    def test_workers_exit_when_their_parent_is_killed(self):
        script = textwrap.dedent(
            """
            import time
            from repro.pubsub import ShardedEngineGroup

            group = ShardedEngineGroup("TRIC+", 2, executor="process", replicas=1)
            pids = [shard.worker_pid() for shard in group.shards]
            pids += [pid for shard in group.shards for pid in shard.replica_pids()]
            print(*pids, flush=True)
            time.sleep(60)
            """
        )
        child = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            text=True,
            env=python_env(),
        )
        try:
            pids = [int(pid) for pid in child.stdout.readline().split()]
        finally:
            child.kill()
            child.wait(timeout=20)
            child.stdout.close()
        assert len(pids) == 4
        try:
            deadline = time.monotonic() + 10
            while any(map(running, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not [pid for pid in pids if running(pid)]
        finally:
            for pid in filter(running, pids):  # an orphan must not outlive the test
                os.kill(pid, signal.SIGKILL)

    def test_restart_and_close_reap_every_worker(self, hard_timeout):
        group = replicated_group()
        try:
            group.register_all(patterns())
            group.on_batch(interleaved_stream(12))
            group.rolling_restart()
            pids = set()
            for shard in group.shards:
                pids.add(shard.worker_pid())
                pids.update(shard.replica_pids())
            assert len(pids) == 4
        finally:
            group.close()
        alive = {child.pid for child in multiprocessing.active_children()}
        assert not pids & alive


# ----------------------------------------------------------------------
# Composed faults: every recovery path in one stream
# ----------------------------------------------------------------------
class _Swappable:
    """Stable engine handle, so a broker survives a snapshot()/restore() swap."""

    def __init__(self, engine):
        self.engine = engine

    def __getattr__(self, attr):
        return getattr(self.engine, attr)


def three_label_stream(n=84):
    updates = []
    live = []
    for i in range(n):
        update = add(
            ("knows", "likes", "follows")[i % 3],
            f"v{(i * 5) % 9}",
            f"v{(i * 3 + 1) % 9}",
        )
        updates.append(update)
        live.append(update.edge)
        if i % 4 == 3:
            edge = live.pop((i * 7) % len(live))
            updates.append(delete(edge.label, edge.source, edge.target))
    return updates


class TestComposedFaults:
    def test_every_recovery_path_in_one_stream(self, hard_timeout):
        """Mid-stream registration, primary and replica kills, a rolling
        restart, a whole-group snapshot/restore swap and degradation,
        interleaved in one run beside a never-faulted serial group and the
        Naive oracle."""
        signal.alarm(10)  # tighter than the fixture: this must stay quick
        registered = patterns() + [
            QueryBuilder("spoke").edge("follows", "?x", "?y").build()
        ]
        late_likes = QueryBuilder("late-likes").edge("likes", "?p", "?q").build()
        late_follows = (
            QueryBuilder("late-follows")
            .edge("follows", "?p", "?q")
            .edge("knows", "?q", "?r")
            .build()
        )
        oracle = ShardedEngineGroup("TRIC+", 2, executor="serial")
        oracle.register_all(registered)
        naive = NaiveEngine()
        naive.register_all(registered)
        broker_o = SubscriptionBroker(oracle)
        sub_o = broker_o.subscribe("probe", [p.query_id for p in registered])
        handle = _Swappable(replicated_group(max_respawns=1))
        try:
            handle.register_all(registered)
            # Shard 1 owns only "knows": both late queries bring it labels
            # none of its queries used, whose edges its registry has counted
            # all along (every shard receives every batch).
            assert [handle.shard_of(p.query_id) for p in registered] == [0, 1, 0, 0]
            broker_g = SubscriptionBroker(handle)
            sub_g = broker_g.subscribe("probe", [p.query_id for p in registered])

            def register_late(pattern):
                registered.append(pattern)
                naive.register(pattern)
                for engine, broker in ((oracle, broker_o), (handle, broker_g)):
                    engine.register(pattern)
                    broker.subscribe_queries("probe", [pattern.query_id])
                assert handle.shard_of(pattern.query_id) == 1
                # A late query starts from the graph as it stands.
                assert handle.matches_of(pattern.query_id) == naive.matches_of(
                    pattern.query_id
                )

            def kill_shard_1_outright():
                handle.shards[1].kill_replica()
                handle.shards[1].kill_worker()

            def swap_through_snapshot():
                restored = ShardedEngineGroup.restore(handle.snapshot())
                handle.engine.close()
                handle.engine = restored

            steps = {
                2: lambda: register_late(late_likes),
                4: lambda: handle.shards[0].kill_worker(),  # promotes
                6: lambda: handle.shards[1].kill_replica(),  # reseeds
                8: lambda: handle.rolling_restart(),
                10: swap_through_snapshot,
                12: kill_shard_1_outright,  # nothing to promote: respawn
                14: kill_shard_1_outright,  # budget spent: degrade
                16: lambda: register_late(late_follows),  # on the degraded shard
                18: lambda: handle.rolling_restart(),
            }
            for index, batch in enumerate(batches_of(three_label_stream(), 5)):
                if index == 10:
                    before_swap = handle.replication_statistics()
                steps.get(index, lambda: None)()
                broker_o.on_batch(batch)
                broker_g.on_batch(batch)
                naive.on_batch(batch)
                assert frames_of(sub_o) == frames_of(sub_g), index
                for pattern in registered:
                    expected = naive.matches_of(pattern.query_id)
                    assert handle.matches_of(pattern.query_id) == expected, (
                        index,
                        pattern.query_id,
                    )
                    assert oracle.matches_of(pattern.query_id) == expected
                assert handle.satisfied_queries() == oracle.satisfied_queries()
            assert index >= 18
            assert before_swap[0]["promotions"] == 1
            assert before_swap[1]["replicas"]["reseeds"] >= 1
            assert [info["restarts"] for info in before_swap] == [1, 1]
            after = handle.replication_statistics()
            assert [info["degraded"] for info in after] == [False, True]
            assert after[1]["respawns"] == 1
            assert after[0]["replicas"]["attached"] == 1
        finally:
            handle.engine.close()


# ----------------------------------------------------------------------
# One way to build a worker: what crosses the command channel
# ----------------------------------------------------------------------
#: The ops that change a worker's state (recorded, forwarded, replayed).
STATE_CHANGING = ("register", "batch")


@pytest.fixture
def frame_log(monkeypatch):
    """Every frame sent to a worker process and every blob pulled from
    one, in order: ``(worker, op, frame)`` and ``(worker, "blob", blob)``."""
    log = []
    submit_frame, snapshot = ProcessWorker.submit_frame, ProcessWorker.snapshot

    def logged_submit_frame(worker, frame):
        log.append((worker, pickle.loads(frame)[0], frame))
        return submit_frame(worker, frame)

    def logged_snapshot(worker):
        blob = snapshot(worker)
        log.append((worker, "blob", blob))
        return blob

    monkeypatch.setattr(ProcessWorker, "submit_frame", logged_submit_frame)
    monkeypatch.setattr(ProcessWorker, "snapshot", logged_snapshot)
    return log


def logged_for(frame_log, pid, ops):
    """The payloads of ``ops`` logged for the worker with ``pid``, in order."""
    return [
        payload for worker, op, payload in frame_log if op in ops and worker.pid() == pid
    ]


def assert_checkpoints_follow_the_size_rule(frame_log, pid):
    """Walk one primary's log: a blob is pulled right after the op whose
    frame brought the tail's bytes up to the last blob's (a missing blob
    weighs nothing), and at no other time."""
    tail = blob = 0
    due = False
    for worker, op, payload in frame_log:
        if worker.pid() != pid:
            continue
        if op == "blob":
            assert due, "a snapshot was pulled before the tail outweighed the last one"
            tail, blob, due = 0, len(payload), False
        elif op in STATE_CHANGING:
            assert not due, "a due checkpoint was skipped"
            tail += len(payload)
            due = tail >= blob
    assert not due, "a due checkpoint was skipped"


class TestCommandAccounting:
    def test_snapshots_are_pulled_only_by_the_size_rule_and_pickling(
        self, hard_timeout, frame_log
    ):
        """Every worker is built from the shard's recovery source, so
        constructing a replicated group and restoring one pull no snapshot
        at all; a fault-free stream pulls one exactly when a shard's tail
        of acknowledged frames weighs as much as its last snapshot."""

        def issued(op):
            return sum(1 for _, logged, _ in frame_log if logged == op)

        with replicated_group() as group:
            assert issued("snapshot") == issued("restore") == 0
            group.register_all(patterns())
            for update in interleaved_stream(60):
                group.on_batch([update])
            for shard in group.shards:
                assert_checkpoints_follow_the_size_rule(frame_log, shard.worker_pid())
            checkpoints = [info["checkpoints"] for info in group.replication_statistics()]
            assert min(checkpoints) >= 2  # the rule fired after the first one
            assert issued("snapshot") == issued("blob") == sum(checkpoints)
            assert issued("restore") == 0
            blob = group.snapshot()  # pickling checkpoints each shard once
            assert issued("snapshot") == sum(checkpoints) + 2
            frame_log.clear()
            with ContinuousEngine.restore(blob) as restored:
                assert_same_answers(restored, group)
                # 2 primaries + 2 replicas restored from the pickled blobs.
                assert issued("restore") == 4
                assert issued("snapshot") == 0

    def test_one_frame_per_batch_forward_and_read(self, hard_timeout, frame_log):
        """Pins the round trips of a fault-free 2x1 stream: one ``batch``
        frame per shard batch on the primary and a forward of those same
        bytes per replica (each op is encoded once), exactly one command
        per replica read, no ``pid`` round trip, and snapshots only at
        the checkpoints."""
        with replicated_group() as group:
            assert not [op for _, op, _ in frame_log if op == "pid"]
            group.register_all(patterns())
            for update in interleaved_stream(60):
                group.on_batch([update])
            reads = [pattern.query_id for pattern in patterns()] * 3
            for query_id in reads:
                group.matches_of(query_id)
            counts = Counter((worker.pid(), op) for worker, op, _ in frame_log)
            statistics = group.replication_statistics()
            batches = group.describe()["shard_batches"]
            for shard, shard_batches, info in zip(group.shards, batches, statistics):
                primary, (replica,) = shard.worker_pid(), shard.replica_pids()
                assert counts[primary, "batch"] == shard_batches
                assert counts[replica, "batch"] == shard_batches  # the forwards
                ran = logged_for(frame_log, primary, STATE_CHANGING)
                forwarded = logged_for(frame_log, replica, STATE_CHANGING)
                assert len(ran) == len(forwarded) == info["seq"]
                assert all(left is right for left, right in zip(ran, forwarded))
                assert counts[primary, "snapshot"] == info["checkpoints"] >= 1
                assert counts[replica, "snapshot"] == 0
            replica_pids = {pid for shard in group.shards for pid in shard.replica_pids()}
            reads_by_pid = {pid: n for (pid, op), n in counts.items() if op == "matches_of"}
            assert sum(reads_by_pid.values()) == len(reads)
            assert set(reads_by_pid) <= replica_pids


# ----------------------------------------------------------------------
# The size rule: replay and checkpoint cost stay bounded by the state
# ----------------------------------------------------------------------
class TestSizeTriggeredCheckpoints:
    def test_tail_stays_lighter_than_the_snapshot(self, hard_timeout, frame_log):
        """After every acknowledged op the tail weighs less than the blob,
        so a replay covers at most one snapshot's worth of ops; and every
        pulled blob but the last was paid for by at least as many bytes of
        acknowledged frames (checkpoints cost amortised O(1) per op byte)."""
        with replicated_group() as group:
            group.register_all(patterns())
            for update in interleaved_stream(120):
                group.on_batch([update])
                for info in group.replication_statistics():
                    assert not info["degraded"]
                    assert info["tail_bytes"] < info["snapshot_bytes"]
            for shard, info in zip(group.shards, group.replication_statistics()):
                pid = shard.worker_pid()
                blobs = [len(blob) for blob in logged_for(frame_log, pid, ("blob",))]
                frames = logged_for(frame_log, pid, STATE_CHANGING)
                acknowledged = sum(len(frame) for frame in frames)
                assert len(frames) == info["seq"]
                assert len(blobs) == info["checkpoints"] >= 2
                assert blobs[-1] == info["snapshot_bytes"]
                assert sum(blobs[:-1]) <= acknowledged
                assert 0 < info["ops_logged"] < info["seq"]

    def test_respawn_replays_the_tail_after_the_last_checkpoint(self, hard_timeout):
        updates = interleaved_stream(60)
        oracle = NaiveEngine()
        oracle.register_all(patterns())
        with ShardedEngineGroup("TRIC+", 1, executor="process") as group:
            group.register_all(patterns())
            for batch in batches_of(updates, 3):
                group.on_batch(batch)
                oracle.on_batch(batch)
            info = group.replication_statistics()[0]
            assert info["ops_logged"] and info["checkpoints"] >= 2
            group.shards[0].kill_worker()
            suffix = [add("knows", "v0", "v1")]
            group.on_batch(suffix)
            oracle.on_batch(suffix)
            assert_same_answers(group, oracle)
            after = group.replication_statistics()[0]
            assert after["respawns"] == 1
            assert after["replayed_ops"] == info["ops_logged"]


class TestRecoverySource:
    @pytest.mark.parametrize("in_process", [False, True], ids=["process", "local"])
    def test_worker_built_from_a_long_tail_reaches_the_sequence(
        self, in_process, hard_timeout
    ):
        """A tail far longer than the forward window is replayed through
        it: the new worker lands on the acknowledged sequence with the
        primary's answers."""
        source = RecoverySource("TRIC+", {})
        primary = source.build(in_process=True)
        ops = [("register", (pattern,)) for pattern in patterns()]
        ops += [("batch", ([update],)) for update in interleaved_stream(120)]
        for op, args in ops:
            frame = encode_frame(op, args)
            collect(primary.submit_frame(frame))
            source.record(frame)
        assert source.seq == len(ops) >= 100
        worker = source.build(in_process=in_process)
        try:
            assert worker.applied_seq == source.seq
            for pattern in patterns():
                assert worker.call("matches_of", pattern.query_id) == primary.call(
                    "matches_of", pattern.query_id
                )
        finally:
            worker.shutdown(wait=True)

    def test_a_failing_replayed_op_loses_the_worker(self, hard_timeout):
        source = RecoverySource("TRIC+", {})
        frame = encode_frame("register", (patterns()[1],))
        source.record(frame)
        source.record(frame)  # registering one id twice fails on replay
        with pytest.raises(WorkerLost, match="after seq 1"):
            source.build()
