"""Build a workload's serving stack and drive it, closed or open loop.

One driver process, one thread.  The stack is what ``repro-serve`` runs:
``create_sharded_engine("TRIC+", ...)`` (optionally under a
``DurableEngine`` or as a process-sharded, replicated group) ->
``SubscriptionBroker`` -> ``MatchDelta.as_dict()`` + ``json.dumps`` into a
null sink.  Traced and untraced passes run this same code; only the tracer
differs.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.engine import ContinuousEngine
from repro.engines import create_engine, create_sharded_engine
from repro.persistence import DurableEngine
from repro.persistence.snapshots import (
    decode_snapshot,
    read_snapshot_file,
    write_snapshot_file,
)
from repro.pubsub.broker import SubscriptionBroker

from .tracing import NULL_TRACER
from .workloads import Inputs

__all__ = [
    "ENGINE",
    "Stack",
    "PassRecord",
    "OpenLoopResult",
    "build_stack",
    "timed_setups",
    "closed_loop",
    "open_loop",
    "run_open_pass",
    "backlog_growing",
    "checkpoint_and_recover",
    "peak_rss_mb",
]

#: Engine under test (the paper's best engine, ``repro-serve``'s default).
ENGINE = "TRIC+"

#: Span name of the outermost ``on_batch`` per stack kind.
ENGINE_SPAN = {
    "bare": "core.engine.on_batch",
    "durable": "persistence.durable.on_batch",
    "sharded": "pubsub.sharding.on_batch",
}

_CLOCK = time.perf_counter


def _close(engine) -> None:
    """Close an engine if it holds resources (bare engines do not)."""
    close = getattr(engine, "close", None)
    if close is not None:
        close()


class TimedEngine:
    """Timing proxy handed to ``DurableEngine`` as its inner engine.

    ``DurableEngine.on_batch`` journals, applies and sometimes snapshots in
    one public call; spanning the inner ``on_batch`` from here is what
    turns journal time into *outer minus inner* without touching ``src/``.
    Pickles as the wrapped engine plus nothing (snapshots must not carry
    the tracer).
    """

    def __init__(self, engine: ContinuousEngine, tracer) -> None:
        self.engine = engine
        self.tracer = tracer

    def on_batch(self, updates):
        with self.tracer.span("core.engine.on_batch"):
            return self.engine.on_batch(updates)

    def register(self, pattern) -> None:
        self.engine.register(pattern)

    def __getattr__(self, attr: str):
        if attr in ("engine", "tracer"):  # unpickling: not set yet
            raise AttributeError(attr)
        return getattr(self.engine, attr)

    def __getstate__(self):
        return {"engine": self.engine}

    def __setstate__(self, state) -> None:
        self.engine = state["engine"]
        self.tracer = NULL_TRACER


@dataclass
class Stack:
    """One built serving stack and what its set-up cost."""

    engine: object
    broker: SubscriptionBroker
    listeners: list
    directory: Path
    setup_s: float
    register_s: float

    def close(self) -> None:
        _close(self.engine)
        shutil.rmtree(self.directory, ignore_errors=True)


def build_stack(inputs: Inputs, directory: Path, tracer=NULL_TRACER) -> Stack:
    """Timed set-up: engine/group construction, worker spawn, replica
    seeding, journal open, ``register_all`` and the initial subscribes."""
    workload = inputs.workload
    directory = Path(directory)
    shutil.rmtree(directory, ignore_errors=True)
    start = _CLOCK()
    if workload.stack == "sharded":
        engine = create_sharded_engine(ENGINE, 2, executor="process", replicas=1)
    elif workload.stack == "durable" and tracer.enabled:
        engine = DurableEngine(
            TimedEngine(create_engine(ENGINE), tracer),
            directory,
            snapshot_every=workload.snapshot_every,
            fsync=True,
        )
        write_snapshot = engine.write_snapshot

        def traced_write_snapshot() -> None:
            with tracer.span("persistence.snapshots.write"):
                write_snapshot()

        engine.write_snapshot = traced_write_snapshot
    elif workload.stack == "durable":
        engine = create_sharded_engine(
            ENGINE,
            1,
            journal_dir=str(directory),
            snapshot_every=workload.snapshot_every,
            journal_fsync=True,
        )
    else:
        engine = create_sharded_engine(ENGINE, 1)
    try:
        registering = _CLOCK()
        engine.register_all(inputs.queries)
        register_s = _CLOCK() - registering
        broker = SubscriptionBroker(engine, default_policy="block", default_capacity=1 << 20)
        listeners = [
            broker.subscribe(f"listener{index}", ids)
            for index, ids in enumerate(inputs.subscribed)
        ]
    except BaseException:
        _close(engine)
        raise
    return Stack(engine, broker, listeners, directory, _CLOCK() - start, register_s)


def timed_setups(inputs: Inputs, directory: Path, tracer=NULL_TRACER):
    """Build ``setup_rounds`` stacks, keep the last; returns it with every
    round's ``setup_s`` (set-up is measured several times per pass because
    a single sample of a 20 ms set-up is mostly noise)."""
    samples: List[float] = []
    stack: Optional[Stack] = None
    for _ in range(max(1, inputs.workload.setup_rounds)):
        if stack is not None:
            stack.close()
        gc.collect()
        stack = build_stack(inputs, directory, tracer)
        samples.append(stack.setup_s)
    return stack, samples


@dataclass
class PassRecord:
    """What one pass over the stream produced and cost."""

    lines: List[str] = field(default_factory=list)
    frames: list = field(default_factory=list)
    #: Tick index each frame was drained in (``len(ticks)`` = final drain).
    frame_ticks: List[int] = field(default_factory=list)
    #: Sorted notified ids of the first ``verify_ticks`` ticks.
    notified: List[List[str]] = field(default_factory=list)
    read_latencies: List[float] = field(default_factory=list)
    tick_latencies: List[float] = field(default_factory=list)
    wall_s: float = 0.0
    affected_total: int = 0
    affected_known: int = 0
    notified_total: int = 0
    encoded_bytes: int = 0
    lag_ops_max: int = 0


def _tick_runner(stack: Stack, inputs: Inputs, tracer, record: PassRecord):
    """``(run_tick, final_drain)``: ``run_tick(index)`` returns the clock at
    which the tick's last frame was encoded; ``final_drain()`` delivers what
    the last tick's churn queued (un-mute snapshots)."""
    engine = stack.engine
    broker = stack.broker
    listeners = stack.listeners
    ticks = inputs.ticks
    churn = inputs.churn
    reads = inputs.reads
    verify_ticks = inputs.workload.verify_ticks
    engine_span = ENGINE_SPAN[inputs.workload.stack]
    span = tracer.span
    dumps = json.dumps
    lines = record.lines
    frames_out = record.frames
    frame_ticks = record.frame_ticks
    replication = getattr(engine, "replication_statistics", None)
    listener_of = {
        query_id: listeners[index]
        for index, ids in enumerate(inputs.subscribed)
        for query_id in ids
    }

    def deliver(index: int) -> float:
        with span("pubsub.broker.drain"):
            frames = []
            for listener in listeners:
                frames.extend(listener.drain())
        with span("pubsub.serve.encode"):
            for frame in frames:
                lines.append(dumps(frame.as_dict(), sort_keys=True))
        delivered = _CLOCK()
        frames_out.extend(frames)
        frame_ticks.extend([index] * len(frames))
        return delivered

    def final_drain() -> None:
        tracer.tick = len(ticks)
        with span("tick"):
            deliver(len(ticks))
        tracer.tick = -1

    def run_tick(index: int) -> float:
        tracer.tick = index
        with span("tick"):
            with span(engine_span):
                report = engine.on_batch(ticks[index])
            with span("pubsub.broker.flush"):
                broker.flush(report)
            delivered = deliver(index)
            affected = getattr(report, "affected", None)
            if affected is not None:
                record.affected_total += len(affected)
                record.affected_known += 1
            record.notified_total += len(report)
            if index < verify_ticks:
                record.notified.append(sorted(report))
            events = churn.get(index)
            if events:
                with span("pubsub.broker.churn"):
                    for action, query_id in events:
                        listener = listener_of[query_id]
                        if action == "mute":
                            broker.unsubscribe_queries(listener, [query_id])
                        else:
                            broker.subscribe_queries(listener, [query_id])
            polls = reads.get(index)
            if polls:
                for query_id in polls:
                    started = _CLOCK()
                    with span("read"):
                        engine.matches_of(query_id)
                    record.read_latencies.append(_CLOCK() - started)
            if replication is not None:
                for shard in replication():
                    replicas = shard.get("replicas")
                    if replicas and replicas.get("lag"):
                        record.lag_ops_max = max(record.lag_ops_max, max(replicas["lag"]))
        return delivered

    return run_tick, final_drain


def closed_loop(stack: Stack, inputs: Inputs, tracer=NULL_TRACER) -> PassRecord:
    """Next tick sent when the previous tick's last frame is encoded (and
    its polls answered).  ``wall_s`` covers ingest through the last encoded
    frame; the post-stream read probe of read-less workloads is outside it."""
    record = PassRecord()
    run_tick, final_drain = _tick_runner(stack, inputs, tracer, record)
    gc.collect()
    start = _CLOCK()
    previous = start
    for index in range(len(inputs.ticks)):
        run_tick(index)
        now = _CLOCK()
        record.tick_latencies.append(now - previous)
        previous = now
    final_drain()
    record.wall_s = _CLOCK() - start
    matches_of = stack.engine.matches_of
    for query_id in inputs.probe:
        started = _CLOCK()
        with tracer.span("read"):
            matches_of(query_id)
        record.read_latencies.append(_CLOCK() - started)
    record.encoded_bytes = sum(len(line) for line in record.lines)
    return record


@dataclass
class OpenLoopResult:
    #: Per tick: due time -> last frame encoded.
    latencies: List[float]
    #: Per tick: how late the generator started it.
    lateness: List[float]
    #: Per tick: whole periods it started late, i.e. how many later ticks
    #: became due while it was still queued.
    backlog: List[int]


def open_loop(
    num_ticks: int,
    rate_hz: float,
    run_tick: Callable[[int], float],
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> OpenLoopResult:
    """Tick ``i`` is due at ``t0 + i / rate`` and timed *from its due time*,
    so a slow tick's stall is charged to the ticks queued behind it."""
    period = 1.0 / rate_hz
    result = OpenLoopResult([], [], [])
    t0 = clock()
    for index in range(num_ticks):
        due = t0 + index * period
        now = clock()
        if now < due:
            sleep(due - now)
            now = clock()
        late = max(0.0, now - due)
        result.lateness.append(late)
        result.backlog.append(int(late * rate_hz + 1e-9))
        result.latencies.append(run_tick(index) - due)
    return result


def backlog_growing(backlog: Sequence[int]) -> bool:
    """Whether the open-loop pass failed to keep up: it ended with at least
    a twentieth of its ticks queued *and* the queue still growing.

    Growth compares the last tenth of the pass with the tenth before it.  A
    stall that is draining, or a hot final stretch that hovers a few ticks
    deep, is not a failure (its cost shows in the latencies); a rate the
    stack cannot sustain ends deep and deeper than before.
    """
    tenth = max(1, len(backlog) // 10)
    tail = backlog[-tenth:]
    before = backlog[-2 * tenth : -tenth] or [0]
    grew = sum(tail) / len(tail) > sum(before) / len(before) + 1.0
    return grew and backlog[-1] >= max(2.0, 0.05 * len(backlog))


def run_open_pass(stack: Stack, inputs: Inputs, tracer=NULL_TRACER):
    record = PassRecord()
    run_tick, final_drain = _tick_runner(stack, inputs, tracer, record)
    gc.collect()
    start = _CLOCK()
    result = open_loop(len(inputs.ticks), inputs.workload.tick_rate_hz, run_tick)
    final_drain()
    record.wall_s = _CLOCK() - start
    record.tick_latencies = result.latencies
    return record, result


# ----------------------------------------------------------------------
# Checkpoint + recover epilogue (every workload)
# ----------------------------------------------------------------------
def _directory_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.rglob("*") if path.is_file())


def _answers(engine, query_ids: Sequence[str]) -> Dict[str, list]:
    return {query_id: engine.matches_of(query_id) for query_id in query_ids}


def checkpoint_and_recover(stack: Stack, inputs: Inputs, tracer=NULL_TRACER) -> Dict[str, object]:
    """Put the final state on disk, bring it back, compare.

    ``durable``: ``close()`` then ``DurableEngine.recover`` (snapshot load +
    journal tail replay); disk bytes are the journal segments plus both
    snapshot generations.  ``bare`` / ``sharded``: ``engine.snapshot()``
    written with the repository's atomic, fsynced snapshot writer, then
    ``ContinuousEngine.restore`` (for the group this respawns and re-seeds
    every worker).  Leaves the stack closed.
    """
    workload = inputs.workload
    watched = sorted(query_id for ids in inputs.subscribed for query_id in ids)
    engine = stack.engine
    directory = stack.directory
    final = _answers(engine, watched)
    satisfied = engine.satisfied_queries()
    out: Dict[str, object] = {"final_answers": final, "snapshot_s": 0.0, "replayed_records": 0}
    if workload.stack == "durable":
        engine.close()
        out["disk_bytes"] = _directory_bytes(directory)
        started = _CLOCK()
        recovered = DurableEngine.recover(
            directory,
            engine_factory=lambda: create_engine(ENGINE),
            snapshot_every=workload.snapshot_every,
            fsync=True,
        )
        out["recover_s"] = _CLOCK() - started
        out["replayed_records"] = recovered.replayed_records
        snapshot_path = directory / "snapshot.bin"
        out["snapshot_bytes"] = snapshot_path.stat().st_size if snapshot_path.exists() else 0
        if tracer.enabled and snapshot_path.exists():
            started = _CLOCK()
            decode_snapshot(read_snapshot_file(snapshot_path))
            out["restore_s"] = _CLOCK() - started
    else:
        directory.mkdir(parents=True, exist_ok=True)
        snapshot_path = directory / "snapshot.bin"
        started = _CLOCK()
        write_snapshot_file(snapshot_path, engine.snapshot())
        out["snapshot_s"] = _CLOCK() - started
        out["disk_bytes"] = out["snapshot_bytes"] = snapshot_path.stat().st_size
        started = _CLOCK()
        recovered = ContinuousEngine.restore(read_snapshot_file(snapshot_path))
        out["recover_s"] = out["restore_s"] = _CLOCK() - started
    try:
        out["recovered_ok"] = (
            _answers(recovered, watched) == final
            and recovered.satisfied_queries() == satisfied
        )
    finally:
        _close(recovered)
    return out


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def _status_fields(pid: str) -> Dict[str, str]:
    fields: Dict[str, str] = {}
    try:
        with open(f"/proc/{pid}/status", encoding="ascii", errors="replace") as handle:
            for line in handle:
                key, _, value = line.partition(":")
                if key in ("PPid", "VmHWM"):
                    fields[key] = value.strip()
    except OSError:
        pass
    return fields


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its live descendants, in MB.

    Sums ``VmHWM`` over the process tree (driver + shard and replica
    workers), so it has to be sampled while the workers are alive.  Falls
    back to ``RUSAGE_SELF + RUSAGE_CHILDREN`` where ``/proc`` is missing.
    """
    try:
        table = {pid: _status_fields(pid) for pid in os.listdir("/proc") if pid.isdigit()}
    except OSError:
        table = {}
    me = str(os.getpid())
    if "VmHWM" not in table.get(me, {}):
        import resource

        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return (own + children) / 1024.0
    family = {me}
    grew = True
    while grew:
        grew = False
        for pid, fields in table.items():
            if pid not in family and fields.get("PPid") in family:
                family.add(pid)
                grew = True
    total_kb = 0
    for pid in family:
        value = table[pid].get("VmHWM", "0 kB").split()
        total_kb += int(value[0]) if value else 0
    return total_kb / 1024.0
