"""What one child process does: a measured repeat, a traced repeat, or the
reference replays of the correctness gate.  Each returns a plain dict that
the parent aggregates (see ``cli.py``)."""

from __future__ import annotations

import dataclasses
import pickle
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.persistence.journal import DeltaJournal

from .driver import (
    Stack,
    backlog_growing,
    build_stack,
    checkpoint_and_recover,
    closed_loop,
    peak_rss_mb,
    run_open_pass,
    timed_setups,
)
from .tracing import Tracer, durations, median, self_times, tail_percentile
from .verify import (
    fold_frames,
    fold_matches_final,
    frames_digest,
    naive_prefix_digest,
    prefix_digest,
    reference_digest,
)
from .workloads import WORKLOADS, Inputs, generate

__all__ = ["measure_repeat", "trace_repeat", "verify_reference"]


def _generate(workload_name: str, seed: int, max_updates: Optional[int]):
    started = time.perf_counter()
    inputs = generate(WORKLOADS[workload_name], seed)
    if max_updates:
        inputs = inputs.prefix(max_updates)
    return inputs, time.perf_counter() - started


def _lost_frames(stack: Stack) -> Dict[str, int]:
    stats = [listener.describe() for listener in stack.listeners]
    return {
        "delivered": sum(s["delivered"] for s in stats),
        "dropped": sum(s["dropped"] for s in stats),
        "coalesced": sum(s["coalesced"] for s in stats),
    }


def _watched_answers(stack: Stack, inputs: Inputs) -> Dict[str, list]:
    return {
        query_id: stack.engine.matches_of(query_id)
        for ids in inputs.subscribed
        for query_id in ids
    }


def _latency_summary(samples: List[float]) -> Dict[str, float]:
    q, tail = tail_percentile(samples)
    return {
        "p50_ms": median(samples) * 1e3,
        "tail_ms": tail * 1e3,
        "tail_q": q,
        "samples": len(samples),
    }


def _fold_checks(record, inputs: Inputs, final_answers) -> Dict[str, object]:
    checkpoint = min(inputs.workload.verify_ticks, len(inputs.ticks))
    state, muted, at_checkpoint, muted_then = fold_frames(
        record.frames, record.frame_ticks, inputs, checkpoint
    )
    return {
        "fold_ok": fold_matches_final(state, muted, final_answers, inputs),
        "prefix_digest": prefix_digest(record.notified, at_checkpoint, muted_then, inputs),
        "frames_digest": frames_digest(record.lines),
    }


def measure_repeat(
    workload_name: str,
    seed: int,
    workdir: Path,
    *,
    corrupt: bool = False,
    max_updates: Optional[int] = None,
) -> Dict[str, object]:
    """One untraced repeat: set-up, closed-loop pass, checkpoint/recover,
    then on a fresh stack the open-loop pass; verification last."""
    inputs, generate_s = _generate(workload_name, seed, max_updates)
    workload = inputs.workload
    updates = inputs.num_updates

    stack, setup_samples = timed_setups(inputs, workdir / "closed")
    try:
        closed = closed_loop(stack, inputs)
        rss = peak_rss_mb()
        lost = _lost_frames(stack)
        epilogue = checkpoint_and_recover(stack, inputs)
    finally:
        stack.close()
    final_answers = epilogue.pop("final_answers")

    stack, more_setups = timed_setups(inputs, workdir / "open")
    try:
        opened, open_result = run_open_pass(stack, inputs)
        rss = max(rss, peak_rss_mb())
        open_lost = _lost_frames(stack)
        open_answers = _watched_answers(stack, inputs)
    finally:
        stack.close()

    if corrupt:
        # Test hook: lose the last frame and damage the encoded stream.
        if closed.frames:
            closed.frames.pop()
            closed.frame_ticks.pop()
        closed.lines.append("#")
    closed_checks = _fold_checks(closed, inputs, final_answers)
    open_checks = _fold_checks(opened, inputs, open_answers)
    growing = backlog_growing(open_result.backlog)
    return {
        "workload": workload.name,
        "seed": seed,
        "fingerprint": inputs.fingerprint,
        "structure_fingerprint": inputs.structure_fingerprint,
        "updates": updates,
        "ticks": len(inputs.ticks),
        "generate_s": generate_s,
        "setup_samples": setup_samples + more_setups,
        "updates_per_s": updates / closed.wall_s,
        "closed_wall_s": closed.wall_s,
        "closed_tick": _latency_summary(closed.tick_latencies),
        "read": _latency_summary(closed.read_latencies),
        "frames": len(closed.lines),
        "recover_s": epilogue["recover_s"],
        "disk_bytes_per_update": epilogue["disk_bytes"] / updates,
        "recovered_ok": bool(epilogue["recovered_ok"]),
        "delivery": _latency_summary(open_result.latencies),
        "lateness_p50_ms": median(open_result.lateness) * 1e3,
        "backlog_max_ticks": max(open_result.backlog),
        "backlog_end_ticks": open_result.backlog[-1],
        "backlog_growing": growing,
        "open_wall_s": opened.wall_s,
        "peak_rss_mb": rss,
        "lost_frames": lost["dropped"] + lost["coalesced"]
        + open_lost["dropped"] + open_lost["coalesced"],
        "closed": closed_checks,
        "open": open_checks,
        "ops": {
            "closed_ticks": len(inputs.ticks),
            "closed_reads": len(closed.read_latencies),
            "open_ticks": len(inputs.ticks),
            "open_reads": len(opened.read_latencies),
        },
    }


def verify_reference(
    workload_name: str, seed: int, workdir: Path, *, max_updates: Optional[int] = None
) -> Dict[str, object]:
    """The oracle side of the gate: ``Naive`` prefix, and for the stacks
    that are not a bare engine the bare ``TRIC+`` frame digest."""
    inputs, _ = _generate(workload_name, seed, max_updates)
    digest, verify_s, verify_ticks = naive_prefix_digest(inputs)
    out: Dict[str, object] = {
        "prefix_digest": digest,
        "verify_s": verify_s,
        "verify_ticks": verify_ticks,
        "reference_digest": None,
    }
    if inputs.workload.stack != "bare":
        out["reference_digest"], _ = reference_digest(inputs, workdir / "reference")
    return out


# ----------------------------------------------------------------------
# Traced repeat -> per-layer metrics
# ----------------------------------------------------------------------
def _shards(description: Dict[str, object]) -> List[Dict[str, object]]:
    return list(description.get("per_shard") or [description])


def _summed(description, key: str, nested: Optional[str] = None) -> float:
    """Sum a ``describe()`` counter over shards; absent keys count as 0, so a
    key a later change removes reports 0 instead of failing the run."""
    total = 0.0
    for shard in _shards(description):
        source = shard.get(nested, {}) if nested else shard
        value = source.get(key, 0) if isinstance(source, dict) else 0
        total += value if isinstance(value, (int, float)) else 0
    return total


def _standalone_journal_s(inputs: Inputs, directory: Path) -> float:
    """The same batches through a standalone journal, same fsync policy."""
    directory.mkdir(parents=True, exist_ok=True)
    journal = DeltaJournal(directory / "standalone.wal", fsync=True)
    try:
        started = time.perf_counter()
        for seq, tick in enumerate(inputs.ticks, start=1):
            journal.append_batch(seq, tick)
        return time.perf_counter() - started
    finally:
        journal.close()


def trace_repeat(
    workload_name: str,
    seed: int,
    workdir: Path,
    *,
    out_dir: Optional[Path] = None,
    max_updates: Optional[int] = None,
) -> Dict[str, object]:
    """One untraced and one traced closed-loop pass, a traced open-loop
    pass, and the standalone baselines; returns ``{"metrics": {...}}``."""
    inputs, generate_s = _generate(workload_name, seed, max_updates)
    inputs = dataclasses.replace(
        inputs, workload=dataclasses.replace(inputs.workload, setup_rounds=1)
    )
    kind = inputs.workload.stack
    updates = inputs.num_updates

    stack = build_stack(inputs, workdir / "untraced")
    try:
        untraced = closed_loop(stack, inputs)
    finally:
        stack.close()

    tracer = Tracer()
    stack = build_stack(inputs, workdir / "traced", tracer)
    try:
        traced = closed_loop(stack, inputs, tracer)
        description = stack.engine.describe()
        broker = stack.broker
        flushed, skipped = broker.queries_flushed, broker.queries_skipped
        lost = _lost_frames(stack)
        statistics = getattr(stack.engine, "replication_statistics", lambda: [])()
        epilogue = checkpoint_and_recover(stack, inputs, tracer)
    finally:
        stack.close()
    register_s = stack.register_s

    open_tracer = Tracer()
    stack = build_stack(inputs, workdir / "open", open_tracer)
    try:
        _, open_result = run_open_pass(stack, inputs, open_tracer)
    finally:
        stack.close()

    spans = tracer.spans
    own = self_times(spans)
    tick_s = sum(durations(spans, "tick"))
    share = lambda seconds: seconds / tick_s if tick_s else 0.0  # noqa: E731
    engine_ticks = durations(spans, "core.engine.on_batch")
    flush_ticks = durations(spans, "pubsub.broker.flush")
    read_spans = durations(spans, "read")
    read_in_ticks = sum(
        end - start for name, start, end, parent, _ in spans if name == "read" and parent >= 0
    )
    frames = len(traced.lines)

    m: Dict[str, float] = {}
    shard_seconds = [float(s) for s in description.get("shard_batch_seconds", [])]
    engine_s = sum(shard_seconds) if kind == "sharded" else own.get("core.engine.on_batch", 0.0)
    m["core.engine.register_s"] = register_s
    m["core.engine.on_batch_s"] = engine_s
    m["core.engine.on_batch_share"] = share(engine_s)
    m["core.engine.on_batch_p50_ms"] = median(engine_ticks) * 1e3
    m["core.engine.on_batch_p99_ms"] = tail_percentile(engine_ticks)[1] * 1e3
    m["core.engine.affected_per_tick"] = (
        traced.affected_total / traced.affected_known if traced.affected_known else 0.0
    )
    m["core.engine.notified_total"] = traced.notified_total
    m["core.tric.trie_nodes"] = _summed(description, "trie_nodes")
    m["core.tric.base_view_rows"] = _summed(description, "base_view_rows")
    m["matching.answers.materialized_queries"] = _summed(description, "materialized_queries")
    m["matching.answers.answer_rows"] = _summed(description, "materialized_answer_rows")
    in_process_reads = kind != "sharded"
    m["core.engine.matches_of_s"] = sum(read_spans) if in_process_reads else 0.0
    m["core.engine.matches_of_calls"] = len(read_spans) if in_process_reads else 0
    m["graph.interning.live_ids"] = _summed(description, "live_ids", "interner")
    m["graph.interning.bytes_estimate"] = _summed(description, "bytes_estimate", "interner")

    m["pubsub.broker.flush_s"] = own.get("pubsub.broker.flush", 0.0)
    m["pubsub.broker.flush_share"] = share(m["pubsub.broker.flush_s"])
    m["pubsub.broker.flush_p99_ms"] = tail_percentile(flush_ticks)[1] * 1e3
    m["pubsub.broker.queries_flushed"] = flushed
    m["pubsub.broker.queries_skipped"] = skipped
    m["pubsub.broker.skip_ratio"] = skipped / (flushed + skipped) if flushed + skipped else 0.0
    m["pubsub.broker.frames_delivered"] = lost["delivered"]
    m["pubsub.broker.frames_dropped"] = lost["dropped"]
    m["pubsub.broker.frames_coalesced"] = lost["coalesced"]
    m["pubsub.broker.drain_s"] = own.get("pubsub.broker.drain", 0.0)
    m["pubsub.broker.churn_s"] = own.get("pubsub.broker.churn", 0.0)

    m["pubsub.serve.encode_s"] = own.get("pubsub.serve.encode", 0.0)
    m["pubsub.serve.encode_share"] = share(m["pubsub.serve.encode_s"])
    m["pubsub.serve.bytes_per_frame"] = traced.encoded_bytes / frames if frames else 0.0
    m["pubsub.serve.frames_per_s"] = frames / traced.wall_s

    durable = kind == "durable"
    m["persistence.durable.on_batch_s"] = sum(durations(spans, "persistence.durable.on_batch"))
    m["persistence.durable.self_s"] = own.get("persistence.durable.on_batch", 0.0)
    m["persistence.durable.self_share"] = share(m["persistence.durable.self_s"])
    m["persistence.journal.append_s"] = (
        _standalone_journal_s(inputs, workdir / "journal") if durable else 0.0
    )
    m["persistence.journal.fsyncs"] = (
        description.get("durability", {}).get("seq", 0) if durable else 0
    )
    m["persistence.snapshots.snapshot_s"] = (
        sum(durations(spans, "persistence.snapshots.write")) if durable else epilogue["snapshot_s"]
    )
    m["persistence.snapshots.snapshot_bytes"] = epilogue.get("snapshot_bytes", 0)
    m["persistence.snapshots.restore_s"] = epilogue.get("restore_s", 0.0)
    m["persistence.durable.replayed_records"] = epilogue["replayed_records"]

    sharded = kind == "sharded"
    group_s = sum(durations(spans, "pubsub.sharding.on_batch"))
    m["pubsub.sharding.on_batch_s"] = group_s
    m["pubsub.sharding.shard_busy_s"] = sum(shard_seconds)
    m["pubsub.sharding.fanout_overhead_share"] = (
        1.0 - max(shard_seconds) / group_s if sharded and group_s and shard_seconds else 0.0
    )
    m["pubsub.sharding.shard_calls"] = sum(description.get("shard_batches", []))
    mean_busy = sum(shard_seconds) / len(shard_seconds) if shard_seconds else 0.0
    m["pubsub.sharding.shard_skew"] = max(shard_seconds) / mean_busy if mean_busy else 0.0
    m["pubsub.sharding.command_bytes_per_tick"] = (
        sum(len(pickle.dumps(tick)) for tick in inputs.ticks) / len(inputs.ticks)
        if sharded
        else 0.0
    )
    if sharded:
        _, bare_wall_s = reference_digest(inputs, workdir / "reference")
        # Ratio of throughputs on the same stream; base: bare in-process TRIC+.
        m["pubsub.sharding.speedup_vs_unsharded_x"] = bare_wall_s / untraced.wall_s
    else:
        m["pubsub.sharding.speedup_vs_unsharded_x"] = 0.0
    m["pubsub.sharding.respawns"] = sum(description.get("shard_respawns", []))

    replicas = [s["replicas"] for s in statistics if s.get("replicas")]
    m["persistence.replication.read_s"] = sum(read_spans) if sharded else 0.0
    m["persistence.replication.reads"] = sum(r["reads_served"] for r in replicas)
    m["persistence.replication.read_share"] = share(read_in_ticks) if sharded else 0.0
    m["persistence.replication.lag_ops_max"] = traced.lag_ops_max
    m["persistence.replication.failovers"] = sum(
        r["read_failovers"] for r in replicas
    ) + sum(s["promotions"] for s in statistics)

    m["bench.generate_s"] = generate_s
    m["bench.driver.closed_tick_p50_ms"] = median(untraced.tick_latencies) * 1e3
    m["bench.driver.closed_tick_p99_ms"] = tail_percentile(untraced.tick_latencies)[1] * 1e3
    m["bench.driver.delivery_p99_ms"] = tail_percentile(open_result.latencies)[1] * 1e3
    m["bench.driver.backlog_max_ticks"] = max(open_result.backlog)
    m["bench.driver.backlog_end_ticks"] = open_result.backlog[-1]
    m["bench.trace_overhead_pct"] = 100.0 * (traced.wall_s - untraced.wall_s) / untraced.wall_s
    m["bench.reconcile_gap_pct"] = 100.0 * own.get("tick", 0.0) / tick_s if tick_s else 0.0

    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(out_dir / "spans.jsonl")
        open_tracer.write(out_dir / "spans_open.jsonl")
    return {
        "workload": workload_name,
        "seed": seed,
        "fingerprint": inputs.fingerprint,
        "updates": updates,
        "ticks": len(inputs.ticks),
        "recovered_ok": bool(epilogue["recovered_ok"]),
        "frames_digest": frames_digest(traced.lines),
        "untraced_digest": frames_digest(untraced.lines),
        "tick_s": tick_s,
        "layer_self_s": {name: seconds for name, seconds in sorted(own.items())},
        "metrics": m,
        "ops": {"ticks": 3 * len(inputs.ticks)},
    }
