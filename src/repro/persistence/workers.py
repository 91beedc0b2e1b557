"""Shard workers: the command runtime, the worker handle, the recovery source.

A process-executor shard (see :mod:`repro.pubsub.sharding`) keeps its
engine in a worker process driven over picklable command frames on one
duplex pipe.  This module is everything that knows how such a worker is
made and spoken to: :class:`ShardHost` (the engine plus its command
dispatcher, on either side of the process boundary), the parent-side
handles :class:`ProcessWorker` / :class:`LocalWorker` and their
:class:`Reply`, :func:`collect` (the single place a dead worker process is
told apart from an engine error), and :class:`RecoverySource`, which owns
the one policy every worker is made by: *a worker is brought to sequence N
by restoring a snapshot and replaying the acknowledged ops after it*.  Who
serves what, and what happens on a loss, is policy and lives in
:mod:`repro.persistence.replication`.

A command travels as a *frame*: the pickled ``(op, args)`` pair
(:func:`encode_frame`).  A state-changing op (``register`` or ``batch``) is
encoded once, and those same bytes go to the primary, to every replica and
into the recovery tail.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import pickle
import signal
import time
from collections import deque
from multiprocessing import util
from typing import Deque, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..core.engine import BatchReport, ContinuousEngine
from ..graph.elements import Update
from ..graph.errors import EngineError

__all__ = [
    "WORKER_FAILURES",
    "ProcessWorker",
    "RecoverySource",
    "Reply",
    "Worker",
    "WorkerLost",
    "collect",
    "encode_frame",
    "run_batch",
]

#: Exceptions that mean "the worker's pipe is gone" — EOF or a reset on
#: ``recv``, a broken pipe on ``send`` — as opposed to an engine error,
#: which travels back as a reply and re-raises with its own type.
WORKER_FAILURES = (EOFError, OSError)

#: Forwarded ops a replica may hold unconfirmed before :meth:`ProcessWorker.ack`
#: waits for the oldest.  Bounds the replies a lagging replica can pile up
#: in its pipe, so neither side ever blocks on a full pipe while the other
#: blocks on its own (a Linux socket pair with default buffers holds ~270
#: small frames per direction).
FORWARD_WINDOW = 32

#: Why a handle is lost when a ``send``/``recv`` on its pipe is cut short by
#: anything but a transport failure (see :class:`ProcessWorker`).
_INTERRUPTED = "shard worker pipe interrupted mid-frame"


def encode_frame(op: str, args: Tuple) -> bytes:
    """One command as the bytes a worker's pipe carries."""
    return pickle.dumps((op, args), protocol=pickle.HIGHEST_PROTOCOL)


class WorkerLost(Exception):
    """This worker cannot serve: its process died, or it cannot be brought
    to the acknowledged sequence.  Never escapes the supervision layer."""


def run_batch(
    engine: ContinuousEngine, updates: Sequence[Update]
) -> Tuple[BatchReport, FrozenSet[str], float]:
    """One shard's share of a micro-batch: its report, the satisfied-set
    it leaves behind, and the engine seconds spent."""
    start = time.perf_counter()
    report = engine.on_batch(updates)
    return report, engine.satisfied_queries(), time.perf_counter() - start


# ----------------------------------------------------------------------
# Worker runtime (the same on both sides of the process boundary)
# ----------------------------------------------------------------------
class ShardHost:
    """One shard engine and the dispatcher of its command frames.

    The ops: ``register`` and ``batch`` change the engine's state (the
    only frames replicas and the recovery tail carry); ``matches_of``,
    ``has_matches`` and ``describe`` read it.  The framing is deliberately
    narrow: operands are the repository's picklable value types
    (:class:`~repro.graph.elements.Update`,
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


def _worker_main(conn, engine_name: str, engine_kwargs: Dict[str, object]) -> None:
    """A worker process: build the engine, then answer command frames in order.

    A frame is an :func:`encode_frame` ``(op, args)`` pair; the reply is
    ``(True, result)`` or ``(False, exception)``.  The worker exits on the
    exit frame ``None`` or when the parent's end of the pipe is gone.
    Workers ignore SIGINT/SIGTERM: a terminal signal aimed at the serving
    process (or its whole process group — a ^C) must not kill the shards
    out from under the parent's graceful shutdown; the parent ends workers
    through the exit frame (and supervised respawn / promotion handles any
    worker that dies anyway).
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    host = ShardHost(engine_name, engine_kwargs)
    try:
        while True:
            frame = conn.recv()
            if frame is None:
                return
            op, args = frame
            try:
                reply = (True, host.run(op, args))
            except Exception as error:
                reply = (False, error)
            conn.send(reply)
    except WORKER_FAILURES:
        return  # the parent hung up


def _hang_up(conn) -> None:
    """Send the exit frame and close the parent's end of a worker's pipe.

    Registered as a :class:`multiprocessing.util.Finalize` with an exit
    priority, so a handle nobody shut down is still hung up before
    multiprocessing joins its children at interpreter exit — the workers
    ignore SIGTERM, and without the exit frame that join would wait forever.
    """
    with contextlib.suppress(*WORKER_FAILURES):
        conn.send(None)
    conn.close()


# ----------------------------------------------------------------------
# Worker handles (parent side)
# ----------------------------------------------------------------------
class Reply:
    """The reply to one submitted command.

    :meth:`result` waits for it and re-raises the command's exception;
    :meth:`done` says whether it arrived, without waiting.  A
    :class:`LocalWorker` hands out replies already settled; a
    :class:`ProcessWorker` settles its replies in submission order as they
    come off the pipe.
    """

    __slots__ = ("_worker", "_ok", "_value")

    def __init__(
        self, worker: Optional["ProcessWorker"] = None, ok: bool = True, value=None
    ) -> None:
        #: The handle still owing this reply (``None`` once settled).
        self._worker = worker
        self._ok = ok
        self._value = value

    def _settle(self, ok: bool, value) -> None:
        self._worker = None
        self._ok = ok
        self._value = value

    def done(self) -> bool:
        return self._worker is None or self._worker._poll(self)

    def result(self) -> object:
        if self._worker is not None:
            self._worker._wait(self)
        if self._ok:
            return self._value
        raise self._value


def collect(reply: Reply) -> object:
    """Result of a submitted command; a dead worker raises :class:`WorkerLost`,
    engine-level exceptions travel through unchanged."""
    try:
        return reply.result()
    except WORKER_FAILURES as error:
        raise WorkerLost(f"shard worker process died: {error!r}") from error


class Worker:
    """What the supervision layer asks of a shard worker, wherever it runs.

    Besides single commands, a worker takes the replication stream:
    :meth:`forward` ships acknowledged op frames without waiting and
    :meth:`ack` / :meth:`drain` advance :attr:`applied_seq` over their
    replies.  Bringing a worker to a sequence and replicating to it are
    this one mechanism (see :meth:`RecoverySource.catch_up`).
    """

    def __init__(self) -> None:
        #: Sequence number of the last acknowledged op this worker is known
        #: to hold (its position in the primary's acknowledged-ops stream).
        self.applied_seq = 0
        #: Forwarded-but-not-yet-acknowledged ops: (seq, reply), FIFO.
        self._pending: Deque[Tuple[int, Reply]] = deque()

    def submit_frame(self, frame: bytes) -> Reply:
        """Send one encoded command without waiting; :func:`collect` the reply."""
        raise NotImplementedError

    def submit(self, op: str, *args) -> Reply:
        """Encode and send one command without waiting."""
        return self.submit_frame(encode_frame(op, args))

    def call(self, op: str, *args) -> object:
        """Run one command to completion."""
        return collect(self.submit(op, *args))

    def snapshot(self) -> bytes:
        """The engine's full state as a checksummed blob."""
        return self.call("snapshot")

    # -- the replication stream ------------------------------------------
    def forward(self, seq: int, frame: bytes) -> None:
        """Ship acknowledged op number ``seq`` without waiting (FIFO)."""
        self._pending.append((seq, self.submit_frame(frame)))

    def ack(self) -> bool:
        """Advance ``applied_seq`` over finished forwards, waiting only
        while more than :data:`FORWARD_WINDOW` are outstanding.  ``False``:
        a forwarded op failed — the worker died or diverged from its
        primary — and it must not serve again."""
        return self._settle(wait=False)

    def drain(self) -> bool:
        """Block until every forwarded op is applied (``False`` as above)."""
        return self._settle(wait=True)

    def _settle(self, wait: bool) -> bool:
        pending = self._pending
        while pending and (
            wait or len(pending) > FORWARD_WINDOW or pending[0][1].done()
        ):
            seq, reply = pending.popleft()
            try:
                reply.result()
            except Exception:
                return False
            self.applied_seq = seq
        return True

    # -- the process -----------------------------------------------------
    def pid(self) -> Optional[int]:
        """OS pid of the worker process (``None``: it has none)."""
        return None

    def kill(self) -> None:
        """SIGKILL the worker process, if it has one (fault injection)."""

    def shutdown(self, wait: bool = False) -> None:
        """Release the worker process, if it has one."""


class LocalWorker(Worker):
    """A shard engine in the parent's own address space, worker-shaped.

    What a degraded shard runs on: frames are decoded and executed
    synchronously and come back as already-settled replies, so callers
    written against :class:`ProcessWorker` need no second code path.
    """

    def __init__(self, engine_name: str, engine_kwargs: Dict[str, object]) -> None:
        super().__init__()
        self._host = ShardHost(engine_name, engine_kwargs)

    def submit_frame(self, frame: bytes) -> Reply:
        try:
            return Reply(value=self._host.run(*pickle.loads(frame)))
        except Exception as error:
            return Reply(ok=False, value=error)


class ProcessWorker(Worker):
    """Parent-side handle of one worker process hosting a shard engine.

    The process is forked by the constructor and the parent holds one
    duplex pipe to it: commands are sent in order, the worker answers them
    in order, and each reply settles the oldest :class:`Reply` still
    waiting — no parent-side thread in between.  One thread drives a
    handle; it is not safe to share one between threads.

    A transport failure (EOF or a reset on ``recv``, a broken pipe on
    ``send``) fails every in-flight reply with that error, and every later
    :meth:`submit` returns a failed reply instead of raising, so a death is
    observed in one place: :func:`collect`.  A ``send``/``recv`` cut short
    by anything else (a signal handler raising mid-frame) loses the handle
    the same way before the exception propagates: the framing can no
    longer be trusted.
    """

    def __init__(self, engine_name: str, engine_kwargs: Dict[str, object]) -> None:
        super().__init__()
        context = multiprocessing.get_context("fork")
        conn, child_conn = context.Pipe()
        # Workers forked later inherit this end; they close their copies,
        # so this worker still sees EOF once the parent's end is gone.
        util.register_after_fork(conn, type(conn).close)
        self._process = context.Process(
            target=_worker_main,
            args=(child_conn, engine_name, engine_kwargs),
        )
        self._process.start()
        child_conn.close()
        self._conn = conn
        self._hang_up = util.Finalize(self, _hang_up, args=(conn,), exitpriority=10)
        #: Submitted commands whose reply has not arrived yet, oldest first.
        self._in_flight: Deque[Reply] = deque()
        #: The transport failure this worker was lost to (``None``: alive).
        self._lost: Optional[BaseException] = None

    def submit_frame(self, frame: bytes) -> Reply:
        if self._lost is None:
            try:
                self._conn.send_bytes(frame)
            except WORKER_FAILURES as error:
                self._lose(error)
            except BaseException:
                self._lose(EOFError(_INTERRUPTED))
                raise
            else:
                reply = Reply(self)
                self._in_flight.append(reply)
                return reply
        return Reply(ok=False, value=self._lost)

    # -- the pipe --------------------------------------------------------
    def _receive(self) -> None:
        """Read the next reply off the pipe into the oldest waiting handle."""
        try:
            ok, value = self._conn.recv()
        except WORKER_FAILURES as error:
            self._lose(error)
            return
        except BaseException:
            self._lose(EOFError(_INTERRUPTED))
            raise
        self._in_flight.popleft()._settle(ok, value)

    def _wait(self, reply: Reply) -> None:
        while reply._worker is not None:
            self._receive()

    def _poll(self, reply: Reply) -> bool:
        while reply._worker is not None and self._conn.poll():
            self._receive()
        return reply._worker is None

    def _lose(self, error: BaseException) -> None:
        """Fail every in-flight reply with ``error`` and hang up (once)."""
        if self._lost is None:
            # Keep no frame of the failed send/recv: through this handle they
            # would form a reference cycle pinning the pickle buffers.
            self._lost = error.with_traceback(None)
        while self._in_flight:
            self._in_flight.popleft()._settle(False, self._lost)
        self._hang_up()

    # -- the process -----------------------------------------------------
    def pid(self) -> int:
        """OS pid of the worker process."""
        return self._process.pid

    def kill(self) -> None:
        self._process.kill()

    def shutdown(self, wait: bool = False) -> None:
        """Fail what is in flight, send the exit frame and close the pipe;
        ``wait``: also reap the process."""
        self._lose(EOFError("shard worker was shut down"))
        if wait:
            self._process.join()


# ----------------------------------------------------------------------
# The recovery source
# ----------------------------------------------------------------------
class RecoverySource:
    """What any worker of one shard is made from.

    ``blob`` is the last snapshot pulled from the primary (``None``: a new
    shard, whose workers start from an empty engine), ``snapshot_seq`` the
    acknowledged sequence it covers, and ``tail`` the frames of the
    state-changing commands the primary acknowledged since, in order —
    entry ``i`` is op number ``snapshot_seq + i + 1`` — and ``tail_bytes``
    their total length.  The tail doubles as the replication stream's
    history: it is what bridges a replica to the current sequence.

    The owner re-anchors the source (:meth:`checkpoint`) once the tail
    weighs as much as the blob (``tail_bytes >= snapshot_bytes``; a missing
    blob weighs nothing): a replay is then bounded by about one snapshot's
    worth of ops, and a snapshot of ``B`` bytes is pulled only after ``B``
    bytes of acknowledged ops, so checkpointing costs amortised O(1) per
    op byte whatever the state's size.
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
        self.tail: List[bytes] = []
        self.tail_bytes = 0
        #: Snapshots pulled into this source.
        self.checkpoints = 0

    @property
    def seq(self) -> int:
        """Sequence number of the last acknowledged state-changing command."""
        return self.snapshot_seq + len(self.tail)

    @property
    def snapshot_bytes(self) -> int:
        """Length of the blob (0 while there is none)."""
        return 0 if self.blob is None else len(self.blob)

    def record(self, frame: bytes) -> int:
        """Log one command frame the primary just acknowledged; returns its seq."""
        self.tail.append(frame)
        self.tail_bytes += len(frame)
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
        self.tail_bytes = 0
        self.checkpoints += 1

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
        ``applied_seq``, through its forward window.  A worker that
        predates the snapshot is refused (the ops that would bridge it have
        been truncated), and so is one on which a replayed op fails."""
        if worker.applied_seq < self.snapshot_seq:
            raise WorkerLost(
                f"worker at seq {worker.applied_seq} predates the recovery "
                f"snapshot at seq {self.snapshot_seq}"
            )
        start = worker.applied_seq - self.snapshot_seq
        for seq, frame in enumerate(self.tail[start:], worker.applied_seq + 1):
            worker.forward(seq, frame)
            if not worker.ack():
                break
        else:
            if worker.drain():
                return
        raise WorkerLost(
            f"replaying the recovery tail failed after seq {worker.applied_seq}"
        )
