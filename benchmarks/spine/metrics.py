"""Declared metrics: names, units, direction, bounds.

``BENCHMARK.json`` is generated from these tables (``python -m
benchmarks.spine manifest``) and the unit tests assert the two agree, so a
metric cannot be emitted without being declared or the other way round.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

__all__ = ["END_TO_END", "PER_LAYER", "RUN_SECONDS", "manifest"]

#: How long one run measures (closed- and open-loop passes of all repeats).
RUN_SECONDS = 26

#: (name, unit, better, bound).  Bounds are shares of the parent's median.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("updates_per_s", "upd/s", "higher", 0.20),
    ("delivery_p50_ms", "ms", "lower", 0.25),
    ("read_p50_ms", "ms", "lower", 0.25),
    ("read_p99_ms", "ms", "lower", 0.25),
    ("recover_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.07),
    ("disk_bytes_per_update", "B/upd", "lower", 0.01),
]

#: (name, unit, better).  The prefix is the owning module.
PER_LAYER: List[Tuple[str, str, str]] = [
    # core.engine / core.tric
    ("core.engine.register_s", "s", "lower"),
    ("core.engine.on_batch_s", "s", "lower"),
    ("core.engine.on_batch_share", "ratio", "lower"),
    ("core.engine.on_batch_p50_ms", "ms", "lower"),
    ("core.engine.on_batch_p99_ms", "ms", "lower"),
    ("core.engine.affected_per_tick", "count", "lower"),
    ("core.engine.notified_total", "count", "lower"),
    ("core.tric.trie_nodes", "count", "lower"),
    ("core.tric.base_view_rows", "count", "lower"),
    # matching.answers
    ("matching.answers.materialized_queries", "count", "lower"),
    ("matching.answers.answer_rows", "count", "lower"),
    ("core.engine.matches_of_s", "s", "lower"),
    ("core.engine.matches_of_calls", "count", "higher"),
    # graph.interning
    ("graph.interning.live_ids", "count", "lower"),
    ("graph.interning.bytes_estimate", "B", "lower"),
    # pubsub.broker / pubsub.deltas
    ("pubsub.broker.flush_s", "s", "lower"),
    ("pubsub.broker.flush_share", "ratio", "lower"),
    ("pubsub.broker.flush_p99_ms", "ms", "lower"),
    ("pubsub.broker.queries_flushed", "count", "lower"),
    ("pubsub.broker.queries_skipped", "count", "higher"),
    ("pubsub.broker.skip_ratio", "ratio", "higher"),
    ("pubsub.broker.frames_delivered", "count", "higher"),
    ("pubsub.broker.frames_dropped", "count", "lower"),
    ("pubsub.broker.frames_coalesced", "count", "lower"),
    ("pubsub.broker.drain_s", "s", "lower"),
    ("pubsub.broker.churn_s", "s", "lower"),
    # pubsub.serve (encode)
    ("pubsub.serve.encode_s", "s", "lower"),
    ("pubsub.serve.encode_share", "ratio", "lower"),
    ("pubsub.serve.bytes_per_frame", "B", "lower"),
    ("pubsub.serve.frames_per_s", "1/s", "higher"),
    # persistence.durable / persistence.journal
    ("persistence.durable.on_batch_s", "s", "lower"),
    ("persistence.durable.self_s", "s", "lower"),
    ("persistence.durable.self_share", "ratio", "lower"),
    ("persistence.journal.append_s", "s", "lower"),
    ("persistence.journal.fsyncs", "count", "lower"),
    # persistence.snapshots
    ("persistence.snapshots.snapshot_s", "s", "lower"),
    ("persistence.snapshots.snapshot_bytes", "B", "lower"),
    ("persistence.snapshots.restore_s", "s", "lower"),
    ("persistence.durable.replayed_records", "count", "lower"),
    # pubsub.sharding
    ("pubsub.sharding.on_batch_s", "s", "lower"),
    ("pubsub.sharding.shard_busy_s", "s", "lower"),
    ("pubsub.sharding.fanout_overhead_share", "ratio", "lower"),
    ("pubsub.sharding.shard_calls", "count", "lower"),
    ("pubsub.sharding.shard_skew", "ratio", "lower"),
    ("pubsub.sharding.command_bytes_per_tick", "B", "lower"),
    ("pubsub.sharding.speedup_vs_unsharded_x", "x", "higher"),
    ("pubsub.sharding.respawns", "count", "lower"),
    # persistence.replication
    ("persistence.replication.read_s", "s", "lower"),
    ("persistence.replication.reads", "count", "higher"),
    ("persistence.replication.read_share", "ratio", "lower"),
    ("persistence.replication.lag_ops_max", "count", "lower"),
    ("persistence.replication.failovers", "count", "lower"),
    # harness (validity only)
    ("bench.generate_s", "s", "lower"),
    ("bench.driver.closed_tick_p50_ms", "ms", "lower"),
    ("bench.driver.closed_tick_p99_ms", "ms", "lower"),
    # Demoted from end-to-end: the open-loop tail does not repeat within a
    # tenth on this host (see README, "What was demoted").
    ("bench.driver.delivery_p99_ms", "ms", "lower"),
    ("bench.driver.backlog_max_ticks", "count", "lower"),
    ("bench.driver.backlog_end_ticks", "count", "lower"),
    ("bench.trace_overhead_pct", "%", "lower"),
    ("bench.reconcile_gap_pct", "%", "lower"),
    ("baselines.naive.verify_s", "s", "lower"),
    ("baselines.naive.verify_ticks", "count", "higher"),
]


def manifest(workloads) -> Dict[str, object]:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/spine/run.py"],
        "paths": ["benchmarks/spine"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }
