"""Experiment configurations for the paper's evaluation (Section 6.1).

The paper's baseline configuration is: SNB stream, ``|QDB| = 5000`` queries,
average query size ``l = 5``, selectivity ``σ = 25 %``, overlap ``o = 35 %``,
graph sizes from 10K to 10M edges, and a 24-hour time budget per algorithm.

Running that verbatim on a pure-Python laptop-scale build is unrepresentative
(a single Python process, no JIT), so every experiment is parameterised by a
``scale`` factor applied to the stream length, the query-database size and
the per-engine time budget.  ``scale=1.0`` corresponds to the repository's *reference* size
(already much smaller than the paper's raw numbers); the pytest benchmark
suite uses a smaller scale so the whole figure set regenerates in minutes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Dict, Sequence, Tuple

from ..graph.errors import BenchmarkError
from ..pubsub.sharding import SHARD_EXECUTORS

__all__ = [
    "ExperimentConfig",
    "REFERENCE_NUM_UPDATES",
    "REFERENCE_NUM_QUERIES",
    "REFERENCE_TIME_BUDGET_S",
    "DEFAULT_BENCH_SCALE",
    "bench_scale_from_env",
]

#: Reference sizes at ``scale = 1.0`` (already scaled down from the paper).
REFERENCE_NUM_UPDATES = 20_000
REFERENCE_NUM_QUERIES = 1_000
REFERENCE_TIME_BUDGET_S = 120.0

#: Scale used by the pytest benchmark suite unless overridden via the
#: ``REPRO_BENCH_SCALE`` environment variable.
DEFAULT_BENCH_SCALE = 0.05


def bench_scale_from_env(default: float = DEFAULT_BENCH_SCALE) -> float:
    """Scale factor for the pytest benchmarks (``REPRO_BENCH_SCALE`` env var)."""
    raw = os.environ.get("REPRO_BENCH_SCALE")
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError as exc:
        raise BenchmarkError(f"invalid REPRO_BENCH_SCALE value: {raw!r}") from exc
    if value <= 0:
        raise BenchmarkError("REPRO_BENCH_SCALE must be positive")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs of a single experiment run (one figure of the paper)."""

    experiment_id: str
    dataset: str = "snb"
    engines: Tuple[str, ...] = ("TRIC", "TRIC+", "INV", "INV+", "INC", "INC+", "GraphDB")
    scale: float = 1.0
    num_updates: int = REFERENCE_NUM_UPDATES
    num_queries: int = REFERENCE_NUM_QUERIES
    avg_edges: int = 5
    selectivity: float = 0.25
    overlap: float = 0.35
    time_budget_s: float = REFERENCE_TIME_BUDGET_S
    seed: int = 17
    measure_memory: bool = False
    #: Number of measurement points along the x axis (graph-size sweeps).
    num_points: int = 5
    #: Stream updates per engine call: 1 replays per-update, larger values
    #: drive the engines through answer-equivalent micro-batches.
    batch_size: int = 1
    #: When positive, poll ``matches_of`` for every satisfied query each
    #: ``poll_every`` processed updates — the workload on which the
    #: answer-materialising ``+`` engines (TRIC+/INV+/INC+) separate from
    #: their base variants (0 disables polling, the paper's original
    #: notification-only protocol).
    poll_every: int = 0
    #: When positive, run the replay in *subscription mode*: a
    #: :class:`~repro.pubsub.broker.SubscriptionBroker` delivers match
    #: deltas for ``subscribe`` queries picked evenly across the registered
    #: query database (the k-of-n serving workload) instead of the
    #: poll-every-satisfied-query loop.
    subscribe: int = 0
    #: Number of engine shards the query database is partitioned across
    #: (1 = the unsharded engines the paper evaluates).
    shards: int = 1
    #: Shard fan-out executor (``serial`` or ``process``; only meaningful
    #: with ``shards > 1``).
    executor: str = "serial"

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise BenchmarkError("scale must be positive")
        if self.num_points <= 0:
            raise BenchmarkError("num_points must be positive")
        if self.batch_size < 1:
            raise BenchmarkError("batch_size must be at least 1")
        if self.poll_every < 0:
            raise BenchmarkError("poll_every must not be negative")
        if self.subscribe < 0:
            raise BenchmarkError("subscribe must not be negative")
        if self.shards < 1:
            raise BenchmarkError("shards must be at least 1")
        if self.executor not in SHARD_EXECUTORS:
            raise BenchmarkError(
                f"unknown executor {self.executor!r}; options: "
                + ", ".join(SHARD_EXECUTORS)
            )

    # ------------------------------------------------------------------
    # Scaled sizes
    # ------------------------------------------------------------------
    @property
    def scaled_num_updates(self) -> int:
        """Stream length after applying the scale factor (at least 200)."""
        return max(200, int(self.num_updates * self.scale))

    @property
    def scaled_num_queries(self) -> int:
        """Query-database size after applying the scale factor (at least 20)."""
        return max(20, int(self.num_queries * self.scale))

    @property
    def scaled_time_budget_s(self) -> float:
        """Per-engine time budget after applying the scale factor (≥ 2 s)."""
        return max(2.0, self.time_budget_s * self.scale)

    def with_scale(self, scale: float) -> "ExperimentConfig":
        """Copy of this configuration at a different scale."""
        return replace(self, scale=scale)

    def with_overrides(self, **overrides) -> "ExperimentConfig":
        """Copy of this configuration with arbitrary field overrides."""
        return replace(self, **overrides)

    def describe(self) -> Dict[str, object]:
        """Flat description used in reports."""
        return {
            "experiment": self.experiment_id,
            "dataset": self.dataset,
            "engines": ", ".join(self.engines),
            "scale": self.scale,
            "updates": self.scaled_num_updates,
            "queries": self.scaled_num_queries,
            "avg_edges": self.avg_edges,
            "selectivity": self.selectivity,
            "overlap": self.overlap,
            "time_budget_s": round(self.scaled_time_budget_s, 1),
            "seed": self.seed,
            "batch_size": self.batch_size,
            "poll_every": self.poll_every,
            "subscribe": self.subscribe,
            "shards": self.shards,
            "executor": self.executor,
        }
