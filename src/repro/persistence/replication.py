"""Shard supervision: one primary worker, its replicas, one recovery source.

A process-executor shard (see :mod:`repro.pubsub.sharding`) is a
:class:`ShardSupervisor`: *policy* over one primary worker handle, a
:class:`ReplicaSet` of replica handles and the shard's
:class:`~repro.persistence.workers.RecoverySource`.  How a worker is made
and spoken to lives in :mod:`repro.persistence.workers`; this module only
decides which worker serves what, and what happens when one is lost.

Replication is asynchronous but loss-free: an op is forwarded to replicas
only **after** the primary acknowledged it, so a promoted replica (drained
of its queued ops) is exactly the primary's acknowledged state, and the
in-flight batch the dead primary never acknowledged is re-run exactly once
— byte-identical to a never-crashed shard.  Each state-changing op is
encoded into one frame, and the primary, every replica and the recovery
tail receive those same bytes.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple, TypeVar

from ..core.engine import BatchReport
from ..graph.elements import Update
from ..graph.errors import PersistenceError, ShardUnavailableError
from ..query.pattern import QueryGraphPattern
from .workers import (
    ProcessWorker,
    RecoverySource,
    Reply,
    Worker,
    WorkerLost,
    collect,
    encode_frame,
)

__all__ = ["ReplicaSet", "ShardSupervisor"]

T = TypeVar("T")

#: A batch in flight on a primary: its encoded frame and the pending reply.
PendingBatch = Tuple[bytes, Reply]


# ----------------------------------------------------------------------
# Replica sets
# ----------------------------------------------------------------------
class ReplicaSet:
    """Up to ``target`` replica workers tailing one primary's acknowledged ops.

    The owner (a :class:`ShardSupervisor`) calls :meth:`forward` after every
    op the primary acknowledged — the op is submitted asynchronously to
    every replica, whose FIFO command channel preserves the log order.
    A replica that dies is *detached*; :meth:`replenish` builds a
    replacement from the shard's recovery source, like every other worker.
    """

    def __init__(self, target: int) -> None:
        self.target = target
        self.replicas: List[ProcessWorker] = []
        self._rr = 0
        self.reads_served = 0
        self.read_failovers = 0
        self.reseeds = 0
        self.deaths = 0

    # -- membership ------------------------------------------------------
    def replenish(self, source: RecoverySource, initial: bool = False) -> None:
        """Bring the set back up to ``target`` replicas built from ``source``.

        A newcomer that dies while being built ends the attempt quietly —
        the next interaction replenishes.
        """
        while len(self.replicas) < self.target:
            try:
                replica = source.build()
            except WorkerLost:
                return
            self.replicas.append(replica)
            if not initial:
                self.reseeds += 1

    def _detach(self, replica: ProcessWorker) -> None:
        self.replicas.remove(replica)
        self.deaths += 1
        replica.shutdown()

    # -- the replication stream ------------------------------------------
    def forward(self, seq: int, frame: bytes) -> None:
        """Ship one primary-acknowledged op frame to every live replica (async)."""
        for replica in list(self.replicas):
            replica.forward(seq, frame)
            if not replica.ack():
                self._detach(replica)

    # -- reads -----------------------------------------------------------
    def read(self, op: str, args: Tuple) -> Tuple[bool, object]:
        """Serve one read from a replica: ``(served, result)``.

        Round-robin over the live replicas.  The read is sent at once,
        queued on the chosen replica's FIFO pipe behind every op forwarded
        before it, so it answers at the primary's acknowledged sequence —
        byte-identical to the primary's answer; the forward replies and then
        the read's are consumed in that order.  A replica that dies, or
        whose forwarded op failed, is detached and the read fails over to
        the next; ``(False, None)`` means no replica could serve (fall back
        to the primary).
        """
        while self.replicas:
            replica = self.replicas[self._rr % len(self.replicas)]
            self._rr += 1
            reply = replica.submit(op, *args)
            if replica.drain():
                try:
                    result = collect(reply)
                except WorkerLost:
                    pass
                else:
                    self.reads_served += 1
                    return True, result
            self._detach(replica)
            self.read_failovers += 1
        return False, None

    # -- promotion -------------------------------------------------------
    def promote(self) -> Optional[ProcessWorker]:
        """Detach and return the freshest fully-drained replica.

        Called when the primary died.  Every surviving replica is drained
        — the ops queued on its channel were acknowledged by the primary
        before being forwarded, so applying them is always safe — and the
        one with the highest applied sequence wins the journal-seq
        comparison.  ``None``: no replica survived.
        """
        best: Optional[ProcessWorker] = None
        for replica in list(self.replicas):
            if not replica.drain():
                self._detach(replica)
            elif best is None or replica.applied_seq > best.applied_seq:
                best = replica
        if best is not None:
            self.replicas.remove(best)
        return best

    # -- introspection and fault injection -------------------------------
    def statistics(self, primary_seq: int) -> Optional[Dict[str, object]]:
        """Counters and per-replica journal-seq lag behind the primary
        (cheap: no waiting).  ``None``: this shard keeps no replicas."""
        if not self.target:
            return None
        for replica in list(self.replicas):
            if not replica.ack():
                self._detach(replica)
        return {
            "target": self.target,
            "attached": len(self.replicas),
            "reads_served": self.reads_served,
            "read_failovers": self.read_failovers,
            "reseeds": self.reseeds,
            "deaths": self.deaths,
            "lag": [
                max(0, primary_seq - replica.applied_seq) for replica in self.replicas
            ],
        }

    def pids(self) -> List[int]:
        """OS pids of the live replica workers."""
        return [replica.pid() for replica in self.replicas]

    def kill(self, index: int = 0) -> None:
        """SIGKILL one replica worker (fault injection; tests, tooling)."""
        if not self.replicas:
            raise ShardUnavailableError("no replica attached to kill")
        self.replicas[index % len(self.replicas)].kill()

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Retire the set: shut every replica down and reap it, keep none
        from now on."""
        self.target = 0
        for replica in self.replicas:
            replica.shutdown(wait=True)
        self.replicas.clear()


# ----------------------------------------------------------------------
# The shard supervisor
# ----------------------------------------------------------------------
class ShardSupervisor:
    """Supervised, engine-shaped front of one shard living in worker processes.

    State-changing commands run on the primary; once it replied, the op's
    frame is recorded in the recovery source and forwarded to the replicas.
    The source re-anchors on a fresh primary snapshot as soon as its tail's
    bytes reach the last snapshot's, so a replay covers about one
    snapshot's worth of ops.  Reads round-robin across the replicas,
    failing over to the primary.

    A worker death (``SIGKILL``, OOM, crash) is recovered, not propagated:
    the freshest replica is promoted, else a worker is respawned from the
    recovery source (bounded backoff), else — after ``max_respawns`` deaths
    inside ``respawn_window`` seconds — the same source is built into an
    in-process worker and the shard runs on serially in the parent:
    *degraded*, slower, but alive.  Either way the in-flight command is
    re-run **exactly once** (see :meth:`finish_batch`).
    """

    def __init__(
        self,
        engine_name: str,
        engine_kwargs: Dict[str, object],
        *,
        max_respawns: int = 3,
        replicas: int = 0,
        respawn_window: float = 60.0,
        query_ids: Sequence[str] = (),
        blob: Optional[bytes] = None,
    ) -> None:
        """``query_ids`` and ``blob``: a restored shard's registered ids and
        engine snapshot (see :meth:`__getstate__`); a new shard has neither."""
        self.name = engine_name
        self._query_ids: List[str] = list(query_ids)
        self.max_respawns = max_respawns
        #: Sliding window (seconds) over which worker deaths count against
        #: ``max_respawns`` — only death *bursts* degrade the shard.
        self.respawn_window = respawn_window
        self.replica_target = replicas
        self.respawns = 0
        self.promotions = 0
        self.restarts = 0
        self.replayed_ops = 0
        self.degraded = False
        self._respawn_times: List[float] = []
        self._closed = False
        self._source = RecoverySource(engine_name, engine_kwargs, blob)
        self._primary: Worker = self._source.build()
        self._replicas = ReplicaSet(self.replica_target)
        self._replicas.replenish(self._source, initial=True)

    # -- pickling (group snapshots) --------------------------------------
    def __getstate__(self) -> Dict[str, object]:
        """Pickle as constructor arguments: configuration, query ids and
        the engine's snapshot blob — never workers or the op tail.
        Checkpointing here is what lets a whole process-executor group be
        snapshotted by the durability layer like any engine."""
        self._checkpoint()
        source = self._source
        return {
            "engine_name": self.name,
            "engine_kwargs": source.engine_kwargs,
            "max_respawns": self.max_respawns,
            "replicas": self.replica_target,
            "respawn_window": self.respawn_window,
            "query_ids": self._query_ids,
            "blob": source.blob,
        }

    def __setstate__(self, state: Dict[str, object]) -> None:
        """Unpickle through the constructor: a restored shard is built by
        the same call as a new one."""
        self.__init__(**state)

    # -- command channel (supervised) ------------------------------------
    def _supervised(self, command: Callable[[Worker], T]) -> T:
        """Run ``command`` on the primary, recovering until it lands."""
        while True:
            if self._closed:
                raise ShardUnavailableError(f"process shard {self.name!r} is closed")
            try:
                return command(self._primary)
            except WorkerLost:
                self._recover()

    def _run(self, frame: bytes):
        return self._supervised(lambda primary: collect(primary.submit_frame(frame)))

    def _execute(self, op: str, *args):
        return self._run(encode_frame(op, args))

    def _checkpoint(self) -> None:
        self._supervised(self._source.checkpoint)

    def _acknowledge(self, frame: bytes) -> None:
        """Record one state-changing command the primary replied to, and
        replicate it; checkpoint once the tail outweighs the snapshot.

        Ops reach the recovery source and the replicas strictly *after*
        the primary acknowledged them — the invariant promotion relies on:
        a drained replica equals the primary's acknowledged state, never
        more.  A degraded shard has no worker left to lose, so it stops
        recording.
        """
        if self.degraded:
            return
        source = self._source
        self._replicas.forward(source.record(frame), frame)
        self._replicas.replenish(source)
        if source.tail_bytes >= source.snapshot_bytes:
            self._checkpoint()

    def _mutate(self, op: str, *args):
        frame = encode_frame(op, args)
        result = self._run(frame)
        self._acknowledge(frame)
        return result

    def start_batch(self, updates: Sequence[Update]) -> PendingBatch:
        """Send a batch command without waiting (the concurrent fan-out).

        Pair with :meth:`finish_batch`, which collects the reply *and*
        supervises: a worker that died before or during the batch is
        recovered there and the batch re-run exactly once.
        """
        if self._closed:
            raise ShardUnavailableError(f"process shard {self.name!r} is closed")
        frame = encode_frame("batch", (list(updates),))
        return frame, self._primary.submit_frame(frame)

    def finish_batch(
        self, pending: PendingBatch
    ) -> Tuple[BatchReport, FrozenSet[str], float]:
        """Collect a :meth:`start_batch` reply, recovering a dead worker.

        The exactly-once argument: the worker's reply and its state mutation
        live in the same process, so either both survived (reply collected,
        batch acknowledged) or both died (a worker at the pre-batch state
        takes over, batch re-run once via the supervised channel).
        """
        frame, reply = pending
        try:
            result = collect(reply)
        except WorkerLost:
            self._recover()
            result = self._run(frame)
        self._acknowledge(frame)
        return result

    # -- supervision policy ----------------------------------------------
    def _recover(self) -> None:
        """Replace a lost primary: promote, else respawn, else degrade."""
        self._primary.shutdown()
        replacement = self._promoted() or self._respawned()
        if replacement is None:
            replacement = self._source.build(in_process=True)
            self.replayed_ops += len(self._source.tail)
            self.degraded = True
            # Replicas of a worker that no longer exists serve no reads.
            self._replicas.close()
        self._primary = replacement
        self._replicas.replenish(self._source)

    def _promoted(self) -> Optional[Worker]:
        """The freshest replica, brought to the acknowledged sequence.

        ``promote`` drains it first and ``catch_up`` refuses it on a
        sequence gap against the recovery tail.  Re-anchoring the recovery
        source on it proves it alive (an idle replica may have died
        unobserved).  A replica lost on the way is dropped and the
        next-freshest one tried.
        """
        while True:
            replica = self._replicas.promote()
            if replica is None:
                return None
            behind = self._source.seq - replica.applied_seq
            try:
                self._source.catch_up(replica)
                self._source.checkpoint(replica)
            except WorkerLost:
                replica.shutdown()
                continue
            self.promotions += 1
            self.replayed_ops += behind
            return replica

    def _respawned(self) -> Optional[Worker]:
        """A worker respawned from the recovery source, budget permitting."""
        while True:
            # Sliding-window budget: deaths older than the window no longer
            # count, so a long-lived deployment only degrades on a death
            # *burst*, not on slow attrition.
            now = time.monotonic()
            self._respawn_times = [
                stamp
                for stamp in self._respawn_times
                if now - stamp < self.respawn_window
            ]
            if len(self._respawn_times) >= self.max_respawns:
                return None
            self.respawns += 1
            self._respawn_times.append(now)
            # 50ms, 100ms, 200ms, ... capped — enough to ride out a
            # transient (OOM-killer sweep, cgroup hiccup) without turning
            # a hard failure into a long hang.
            time.sleep(min(1.0, 0.05 * (2 ** (len(self._respawn_times) - 1))))
            try:
                worker = self._source.build()
            except WorkerLost:
                continue
            self.replayed_ops += len(self._source.tail)
            return worker

    def restart(self) -> None:
        """One rolling-restart step: checkpoint, build the replacement,
        swap, retire the old worker.

        The synchronous snapshot pull *is* the drain (the command channel
        is FIFO) and leaves the replay tail empty.  The replacement worker
        is built *before* the old one is shut down, so a failed restart
        leaves the shard serving on the old worker.
        """
        self._checkpoint()
        try:
            replacement = self._source.build(in_process=self.degraded)
        except WorkerLost as error:
            raise PersistenceError(
                f"rolling restart of shard {self.name!r} could not seed the "
                "replacement worker; the old worker kept serving"
            ) from error
        retired, self._primary = self._primary, replacement
        retired.shutdown(wait=True)
        self.restarts += 1

    # -- fault injection and introspection -------------------------------
    def worker_pid(self) -> Optional[int]:
        """OS pid of the live primary worker (``None`` once degraded)."""
        return self._supervised(lambda primary: primary.pid())

    def kill_worker(self) -> None:
        """SIGKILL the primary worker process (fault injection).  The next
        command observes the death and recovers — exactly the path a real
        worker crash takes."""
        self._supervised(lambda primary: primary.kill())

    def replica_pids(self) -> List[int]:
        """OS pids of the live replica workers (empty without replicas)."""
        return self._replicas.pids()

    def kill_replica(self, index: int = 0) -> None:
        """SIGKILL one replica worker (fault injection).  The death is
        observed at the replica's next interaction (a read or a forwarded
        op): it is detached and replaced from the recovery source."""
        self._replicas.kill(index)

    def replication_info(self) -> Dict[str, object]:
        """The shard's supervision report (cheap: no worker IPC)."""
        source = self._source
        seq = source.seq
        return {
            "respawns": self.respawns,
            "promotions": self.promotions,
            "restarts": self.restarts,
            "replayed_ops": self.replayed_ops,
            "degraded": self.degraded,
            "ops_logged": len(source.tail),
            "tail_bytes": source.tail_bytes,
            "worker_snapshot": source.blob is not None,
            "snapshot_bytes": source.snapshot_bytes,
            "checkpoints": source.checkpoints,
            "seq": seq,
            "replicas": self._replicas.statistics(seq),
        }

    # -- the engine surface the group needs ------------------------------
    @property
    def num_queries(self) -> int:
        return len(self._query_ids)

    @property
    def queries(self) -> Tuple[str, ...]:
        """Ids registered on this shard (patterns live in the worker)."""
        return tuple(self._query_ids)

    def register(self, pattern: QueryGraphPattern) -> None:
        self._mutate("register", pattern)
        self._query_ids.append(pattern.query_id)

    def _read(self, op: str, *args):
        """Serve a read from a replica when one can, else from the primary."""
        served, result = self._replicas.read(op, args)
        if served:
            return result
        self._replicas.replenish(self._source)
        return self._execute(op, *args)

    def matches_of(self, query_id: str) -> List[Dict[str, str]]:
        return self._read("matches_of", query_id)

    def has_matches(self, query_id: str) -> bool:
        return self._read("has_matches", query_id)

    def answer_delta_source(self, query_id: str) -> None:
        return None  # the maintained relation lives in the worker's address space

    def describe(self) -> Dict[str, object]:
        info = dict(self._read("describe"))
        info["supervision"] = self.replication_info()
        return info

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._replicas.close()
        self._primary.shutdown(wait=True)
