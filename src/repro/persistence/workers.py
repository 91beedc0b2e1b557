"""Shard workers: the command runtime, the worker handle, the recovery source.

A process-executor shard (see :mod:`repro.pubsub.sharding`) keeps its
engine in a worker process driven over picklable command frames.  This
module is everything that knows how such a worker is made and spoken to:
:class:`ShardHost` (the engine plus its command dispatcher, on either side
of the process boundary), the parent-side handles :class:`ProcessWorker` /
:class:`LocalWorker`, :func:`collect` (the single place a dead worker
process is told apart from an engine error), and :class:`RecoverySource`,
which owns the one policy every worker is made by: *a worker is brought to
sequence N by restoring a snapshot and replaying the acknowledged ops
after it*.  Who serves what, and what happens on a loss, is policy and
lives in :mod:`repro.persistence.replication`.
"""

from __future__ import annotations

import contextlib
import os
import signal
import time
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Deque, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..core.engine import BatchReport, ContinuousEngine
from ..graph.elements import Update
from ..graph.errors import EngineError, ShardUnavailableError

__all__ = [
    "WORKER_FAILURES",
    "ProcessWorker",
    "RecoverySource",
    "Worker",
    "WorkerLost",
    "collect",
    "run_batch",
    "silent_backfill",
]

#: Exceptions that mean "the worker process died" (vs. an engine error,
#: which travels back through the future as the engine's own exception).
WORKER_FAILURES = (BrokenProcessPool, BrokenPipeError, EOFError)


class WorkerLost(Exception):
    """This worker cannot serve: its process died, or it cannot be brought
    to the acknowledged sequence.  Never escapes the supervision layer."""


def silent_backfill(engine: ContinuousEngine, updates: Sequence[Update]) -> None:
    """Replay ``updates`` into ``engine`` without touching its satisfied-set.

    Registration backfill must not mark queries satisfied (a query only
    enters the satisfied-set through a later notification), exactly like
    the engines' own registration-time view recomputation.  Used by the
    in-process shards and by the shard workers, primary and replica alike.
    """
    satisfied_before = engine.satisfied_queries()
    engine.on_batch(updates)
    engine._satisfied.clear()
    engine._satisfied.update(satisfied_before)


def run_batch(
    engine: ContinuousEngine, updates: Sequence[Update]
) -> Tuple[BatchReport, FrozenSet[str], float]:
    """One shard's share of a micro-batch: its report, the satisfied-set
    it leaves behind, and the engine seconds spent."""
    start = time.perf_counter()
    if len(updates) == 1:
        report = engine.on_update(updates[0])
    else:
        report = engine.on_batch(updates)
    return report, engine.satisfied_queries(), time.perf_counter() - start


# ----------------------------------------------------------------------
# Worker runtime (the same on both sides of the process boundary)
# ----------------------------------------------------------------------
class ShardHost:
    """One shard engine and the dispatcher of its command frames.

    The framing is deliberately narrow: operands are the repository's
    picklable value types (:class:`~repro.graph.elements.Update`,
    :class:`~repro.query.pattern.QueryGraphPattern`, query-id strings,
    snapshot blobs) and replies are plain data (a
    :class:`~repro.core.engine.BatchReport` with its satisfied-set and
    wall-clock seconds, binding dictionaries, frozensets, description
    dictionaries) — never live relations or views, which stay with the
    engine.  ``snapshot`` ships the engine's full state as a checksummed
    blob and ``restore`` replaces the engine with one rebuilt from such a
    blob; the two exist purely for supervision and replication.
    """

    def __init__(self, engine_name: str, engine_kwargs: Dict[str, object]) -> None:
        from ..engines import create_engine

        self.engine = create_engine(engine_name, **engine_kwargs)

    def run(self, op: str, args: Tuple) -> object:
        engine = self.engine
        if op == "batch":
            return run_batch(engine, args[0])
        if op == "register":
            engine.register(args[0])
            return None
        if op == "backfill":
            silent_backfill(engine, args[0])
            return None
        if op == "matches_of":
            return engine.matches_of(args[0])
        if op == "has_matches":
            return engine.has_matches(args[0])
        if op == "describe":
            return engine.describe()
        if op == "snapshot":
            return engine.snapshot()
        if op == "restore":
            self.engine = ContinuousEngine.restore(args[0])
            return None
        raise EngineError(f"unknown shard command: {op!r}")  # pragma: no cover


#: The host owned by this worker process (one engine per single-worker
#: pool; every command of that shard is executed against it).
_WORKER_HOST: Optional[ShardHost] = None


def _worker_init(engine_name: str, engine_kwargs: Dict[str, object]) -> None:
    """Pool initializer: build this worker's engine inside the process.

    Workers ignore SIGINT/SIGTERM: a terminal signal aimed at the serving
    process (or its whole process group — a ^C) must not kill the shards
    out from under the parent's graceful shutdown; the parent ends workers
    through the pool's shutdown path (and supervised respawn / promotion
    handles any worker that dies anyway).
    """
    global _WORKER_HOST
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    _WORKER_HOST = ShardHost(engine_name, engine_kwargs)


def _worker_call(op: str, args: Tuple) -> object:
    """Execute one command frame against this worker process's host."""
    if op == "pid":
        return os.getpid()
    if _WORKER_HOST is None:
        raise ShardUnavailableError("process shard used before initialization")
    return _WORKER_HOST.run(op, args)


# ----------------------------------------------------------------------
# Worker handles (parent side)
# ----------------------------------------------------------------------
def collect(future: Future) -> object:
    """Result of a submitted command; a dead worker raises :class:`WorkerLost`,
    engine-level exceptions travel through unchanged."""
    try:
        return future.result()
    except WORKER_FAILURES as error:
        raise WorkerLost(f"shard worker process died: {error!r}") from error


class Worker:
    """What the supervision layer asks of a shard worker, wherever it runs."""

    #: Sequence number of the last acknowledged op this worker is known to
    #: hold (its position in the primary's acknowledged-ops stream).
    applied_seq = 0

    def submit(self, op: str, *args) -> Future:
        """Send one command without waiting; :func:`collect` the reply."""
        raise NotImplementedError

    def call(self, op: str, *args) -> object:
        """Run one command to completion."""
        return collect(self.submit(op, *args))

    def snapshot(self) -> bytes:
        """The engine's full state as a checksummed blob."""
        return self.call("snapshot")

    def pid(self) -> Optional[int]:
        """OS pid of the worker process (``None``: it has none)."""
        return None

    def kill(self) -> None:
        """SIGKILL the worker process, if it has one (fault injection)."""

    def shutdown(self, wait: bool = False) -> None:
        """Release the worker process, if it has one."""


class LocalWorker(Worker):
    """A shard engine in the parent's own address space, worker-shaped.

    What a degraded shard runs on: commands execute synchronously and come
    back as already-completed futures, so callers written against
    :class:`ProcessWorker` need no second code path.
    """

    def __init__(self, engine_name: str, engine_kwargs: Dict[str, object]) -> None:
        self._host = ShardHost(engine_name, engine_kwargs)

    def submit(self, op: str, *args) -> Future:
        future: Future = Future()
        try:
            future.set_result(self._host.run(op, args))
        except Exception as error:
            future.set_exception(error)
        return future


class ProcessWorker(Worker):
    """Parent-side handle of one worker process hosting a shard engine.

    The process sits behind a single-worker pool, so commands land on the
    same long-lived engine in submission order.  The process is started by
    the first command, not by the constructor.
    """

    def __init__(self, engine_name: str, engine_kwargs: Dict[str, object]) -> None:
        self._pool = ProcessPoolExecutor(
            max_workers=1,
            initializer=_worker_init,
            initargs=(engine_name, engine_kwargs),
        )
        #: Forwarded-but-not-yet-acknowledged ops: (seq, future), FIFO.
        self._pending: Deque[Tuple[int, Future]] = deque()
        self._pid: Optional[int] = None

    def submit(self, op: str, *args) -> Future:
        # A pool already known broken fails the returned future instead of
        # raising here, so death is observed in one place: collect().
        try:
            return self._pool.submit(_worker_call, op, args)
        except WORKER_FAILURES as error:
            failed: Future = Future()
            failed.set_exception(error)
            return failed

    # -- the replication stream ------------------------------------------
    def forward(self, seq: int, op: str, args: Tuple) -> None:
        """Ship acknowledged op number ``seq`` asynchronously (FIFO)."""
        self._pending.append((seq, self.submit(op, *args)))

    def ack(self) -> bool:
        """Advance ``applied_seq`` over finished forwards without waiting.
        ``False``: a forwarded op failed — the worker died or diverged
        from its primary — and it must not serve again."""
        return self._settle(wait=False)

    def drain(self) -> bool:
        """Block until every forwarded op is applied (``False`` as above)."""
        return self._settle(wait=True)

    def _settle(self, wait: bool) -> bool:
        pending = self._pending
        while pending and (wait or pending[0][1].done()):
            seq, future = pending.popleft()
            try:
                future.result()
            except Exception:
                return False
            self.applied_seq = seq
        return True

    # -- the process -----------------------------------------------------
    def pid(self) -> int:
        """OS pid of the worker process (one round trip, then cached)."""
        if self._pid is None:
            self._pid = self.call("pid")
        return self._pid

    def kill(self) -> None:
        with contextlib.suppress(ProcessLookupError):  # already dead and reaped
            os.kill(self.pid(), signal.SIGKILL)

    def shutdown(self, wait: bool = False) -> None:
        self._pool.shutdown(wait=wait)


# ----------------------------------------------------------------------
# The recovery source
# ----------------------------------------------------------------------
class RecoverySource:
    """What any worker of one shard is made from.

    ``blob`` is the last snapshot pulled from the primary (``None``: a new
    shard, whose workers start from an empty engine), ``snapshot_seq`` the
    acknowledged sequence it covers, and ``tail`` the state-changing
    commands the primary acknowledged since, in order — entry ``i`` is op
    number ``snapshot_seq + i + 1``.  The tail doubles as the replication
    stream's history: it is what bridges a replica to the current sequence.
    """

    def __init__(
        self,
        engine_name: str,
        engine_kwargs: Dict[str, object],
        blob: Optional[bytes] = None,
    ) -> None:
        self.engine_name = engine_name
        self.engine_kwargs = dict(engine_kwargs)
        self.blob = blob
        self.snapshot_seq = 0
        self.tail: List[Tuple[str, Tuple]] = []

    @property
    def seq(self) -> int:
        """Sequence number of the last acknowledged state-changing command."""
        return self.snapshot_seq + len(self.tail)

    def record(self, op: str, args: Tuple) -> int:
        """Log one command the primary just acknowledged; returns its seq."""
        self.tail.append((op, args))
        return self.seq

    def checkpoint(self, primary: Worker) -> None:
        """Re-anchor on a snapshot pulled from ``primary``; truncate the tail.

        The pull is synchronous on a FIFO channel, so the blob sits exactly
        at the acknowledged sequence.  If the primary dies during the pull
        the source is left untouched: it still covers every acknowledged op.
        """
        self.blob = primary.snapshot()
        self.snapshot_seq = self.seq
        self.tail.clear()

    def build(self, in_process: bool = False) -> Worker:
        """A new worker at the acknowledged sequence: spawn, restore the
        blob, replay the tail.  Raises :class:`WorkerLost` (the half-built
        worker already shut down) if it dies on the way."""
        kind = LocalWorker if in_process else ProcessWorker
        worker = kind(self.engine_name, self.engine_kwargs)
        try:
            if self.blob is not None:
                worker.call("restore", self.blob)
            worker.applied_seq = self.snapshot_seq
            self.catch_up(worker)
        except WorkerLost:
            worker.shutdown()
            raise
        return worker

    def catch_up(self, worker: Worker) -> None:
        """Replay onto ``worker`` the acknowledged ops after its
        ``applied_seq``.  A worker that predates the snapshot is refused:
        the ops that would bridge it have been truncated."""
        if worker.applied_seq < self.snapshot_seq:
            raise WorkerLost(
                f"worker at seq {worker.applied_seq} predates the recovery "
                f"snapshot at seq {self.snapshot_seq}"
            )
        for op, args in self.tail[worker.applied_seq - self.snapshot_seq :]:
            worker.call(op, *args)
            worker.applied_seq += 1
