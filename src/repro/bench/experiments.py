"""Experiment harness regenerating every figure of the paper's evaluation.

Each ``experiment_fig*`` function reproduces one figure/table of Section 6:
it builds the dataset stream and query workload for that experiment, replays
the stream through the engines under evaluation, and returns an
:class:`ExperimentResult` whose series correspond to the lines of the figure
(answering time per update, indexing time per query, or memory footprint,
as a function of the figure's x axis).

Graph-size sweeps (Figs. 12a, 12f, 13a, 14a–c) are produced from a *single*
replay per engine: the per-update latency samples are checkpointed at the
x-axis positions, which is equivalent to the paper's measurement (average
answering time while the graph grows) without re-running the stream once per
point.  Parameter sweeps (Figs. 12b–e, 13b) run one replay per parameter
value.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..datasets import BioGridConfig, BioGridGenerator, SNBConfig, SNBGenerator, TaxiConfig, TaxiGenerator
from ..engines import create_engine, create_sharded_engine
from ..graph.errors import BenchmarkError
from ..graph.stream import GraphStream
from ..pubsub.broker import SubscriptionBroker
from ..query.generator import QueryWorkload, QueryWorkloadConfig, QueryWorkloadGenerator
from ..streams.metrics import deep_sizeof
from ..streams.report import format_table
from ..streams.runner import ReplayResult, replay
from .configs import ExperimentConfig

__all__ = [
    "SeriesPoint",
    "ExperimentResult",
    "EXPERIMENTS",
    "experiment_ids",
    "run_experiment",
    "build_stream",
    "build_workload",
    "pick_subscribed_queries",
]


# ----------------------------------------------------------------------
# Result containers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SeriesPoint:
    """One measurement: an engine at one x-axis position of a figure."""

    x: object
    engine: str
    answering_ms: float
    indexing_ms_per_query: float = 0.0
    memory_mb: Optional[float] = None
    timed_out: bool = False
    updates_processed: int = 0
    matched_updates: int = 0


@dataclass
class ExperimentResult:
    """All series of one regenerated figure."""

    experiment_id: str
    title: str
    x_label: str
    config: ExperimentConfig
    points: List[SeriesPoint] = field(default_factory=list)
    metric: str = "answering_ms"

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def engines(self) -> List[str]:
        """Engines appearing in the result, in first-seen order."""
        seen: List[str] = []
        for point in self.points:
            if point.engine not in seen:
                seen.append(point.engine)
        return seen

    def x_values(self) -> List[object]:
        """X-axis values in first-seen order."""
        seen: List[object] = []
        for point in self.points:
            if point.x not in seen:
                seen.append(point.x)
        return seen

    def value_of(self, point: SeriesPoint) -> Optional[float]:
        """The metric value of ``point`` for this experiment's metric."""
        if self.metric == "answering_ms":
            return point.answering_ms
        if self.metric == "indexing_ms_per_query":
            return point.indexing_ms_per_query
        if self.metric == "memory_mb":
            return point.memory_mb
        raise BenchmarkError(f"unknown metric: {self.metric}")

    def series(self) -> Dict[str, List[Tuple[object, Optional[float], bool]]]:
        """Per-engine series: list of ``(x, value, timed_out)`` tuples."""
        result: Dict[str, List[Tuple[object, Optional[float], bool]]] = {}
        for point in self.points:
            result.setdefault(point.engine, []).append(
                (point.x, self.value_of(point), point.timed_out)
            )
        return result

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def to_table(self) -> str:
        """Text table with one row per x value and one column per engine."""
        engines = self.engines()
        headers = [self.x_label] + engines
        rows = []
        by_key = {(p.x, p.engine): p for p in self.points}
        for x in self.x_values():
            row: List[object] = [x]
            for engine in engines:
                point = by_key.get((x, engine))
                if point is None:
                    row.append("-")
                    continue
                value = self.value_of(point)
                cell = "-" if value is None else f"{value:.3f}"
                if point.timed_out:
                    cell += "*"
                row.append(cell)
            rows.append(row)
        legend = {
            "answering_ms": "answering time (ms/update)",
            "indexing_ms_per_query": "indexing time (ms/query)",
            "memory_mb": "memory (MB)",
        }[self.metric]
        header = f"{self.experiment_id}: {self.title}\nmetric: {legend}  (* = time budget exceeded)"
        return header + "\n" + format_table(headers, rows)


# ----------------------------------------------------------------------
# Workload construction helpers
# ----------------------------------------------------------------------
def build_stream(dataset: str, num_updates: int, seed: int) -> GraphStream:
    """Build the update stream of ``dataset`` with entity pools sized to fit."""
    if dataset == "snb":
        config = SNBConfig(
            num_updates=num_updates,
            seed=seed,
            num_persons=max(50, num_updates // 20),
            num_forums=max(10, num_updates // 100),
            num_places=max(10, num_updates // 150),
            num_tags=max(10, num_updates // 150),
        )
        return SNBGenerator(config).stream()
    if dataset == "taxi":
        config = TaxiConfig(
            num_updates=num_updates,
            seed=seed,
            num_taxis=max(30, num_updates // 40),
            num_drivers=max(40, num_updates // 30),
            grid_size=max(6, int(num_updates ** 0.5) // 8),
        )
        return TaxiGenerator(config).stream()
    if dataset == "biogrid":
        # Keep the per-protein interaction density close to the real dump
        # (~16 interactions per protein at 1M edges / 63K proteins would blow
        # up all-variable path views at toy scale, so the scaled stream keeps
        # a few interactions per protein instead).
        config = BioGridConfig(
            num_updates=num_updates,
            seed=seed,
            num_proteins=max(80, num_updates // 6),
        )
        return BioGridGenerator(config).stream()
    raise BenchmarkError(f"unknown dataset: {dataset!r}")


def build_workload(
    stream: GraphStream,
    *,
    num_queries: int,
    avg_edges: int,
    selectivity: float,
    overlap: float,
    seed: int,
) -> QueryWorkload:
    """Sample the query database for an experiment from ``stream``."""
    graph = stream.to_graph()
    config = QueryWorkloadConfig(
        num_queries=num_queries,
        avg_edges=avg_edges,
        selectivity=selectivity,
        overlap=overlap,
        seed=seed,
    )
    return QueryWorkloadGenerator(graph, config).generate()


def pick_subscribed_queries(query_ids: Sequence[str], k: int) -> List[str]:
    """``k`` query ids spread evenly across the sorted query database.

    The deterministic k-of-n selection used by subscription-mode replays
    (``ExperimentConfig.subscribe``) and ``repro-serve``.
    """
    ordered = sorted(query_ids)
    k = max(1, min(k, len(ordered)))
    stride = len(ordered) / k
    return [ordered[int(index * stride)] for index in range(k)]


def _replay_engine(
    engine_name: str,
    workload: QueryWorkload,
    stream: GraphStream,
    *,
    time_budget_s: float,
    measure_memory: bool,
    batch_size: int = 1,
    poll_every: int = 0,
    subscribe: int = 0,
    shards: int = 1,
    executor: str = "serial",
) -> ReplayResult:
    """Index the workload and replay the stream in ``batch_size`` ticks.

    With ``shards > 1`` the query database is partitioned across a
    :class:`~repro.pubsub.sharding.ShardedEngineGroup` (fanning batches out
    under ``executor``); with ``subscribe > 0`` the replay runs in
    subscription mode (a broker delivering match deltas for ``subscribe``
    evenly picked queries).
    """
    engine = create_sharded_engine(engine_name, shards, executor=executor)
    try:
        engine.register_all(workload.queries)
        target = engine
        if subscribe > 0:
            target = SubscriptionBroker(engine)
            target.subscribe(None, pick_subscribed_queries(list(engine.queries), subscribe))
        updates = list(stream)
        result = replay(
            target,
            (updates[i : i + batch_size] for i in range(0, len(updates), batch_size)),
            poll_every=poll_every,
            time_budget_s=time_budget_s,
        )
        if measure_memory:
            result.memory_bytes = deep_sizeof(engine)
    finally:
        if hasattr(engine, "close"):
            engine.close()
    return result


def _checkpoint_positions(total: int, num_points: int) -> List[int]:
    """Evenly spaced checkpoint positions (update counts) along a stream."""
    num_points = max(1, min(num_points, total))
    return [max(1, round(total * (i + 1) / num_points)) for i in range(num_points)]


def _running_mean_ms(
    samples: Sequence[float],
    upto_updates: int,
    batch_size: int = 1,
    total_updates: int | None = None,
) -> float:
    """Mean per-update latency over the first ``upto_updates`` updates, in ms.

    With ``batch_size > 1`` each sample covers a whole micro-batch, so the
    window is ``ceil(upto_updates / batch_size)`` samples and the mean is
    normalised by the updates those samples actually cover (every window
    batch is full except possibly the stream's final one, capped by
    ``total_updates``) — not by ``upto_updates``, which would bias
    checkpoints that fall inside a batch.
    """
    if batch_size > 1:
        num_samples = -(-upto_updates // batch_size)
        window = samples[:num_samples]
        updates_covered = len(window) * batch_size
        if total_updates is not None:
            updates_covered = min(updates_covered, total_updates)
    else:
        window = samples[:upto_updates]
        updates_covered = len(window)
    if not window or not updates_covered:
        return 0.0
    return sum(window) / updates_covered * 1e3


# ----------------------------------------------------------------------
# Generic experiment shapes
# ----------------------------------------------------------------------
def _graph_size_sweep(
    config: ExperimentConfig, *, title: str, dataset: str | None = None
) -> ExperimentResult:
    """Answering time as the graph grows (Figs. 12a, 12f, 13a, 14a, 14b, 14c)."""
    dataset = dataset or config.dataset
    stream = build_stream(dataset, config.scaled_num_updates, config.seed)
    workload = build_workload(
        stream,
        num_queries=config.scaled_num_queries,
        avg_edges=config.avg_edges,
        selectivity=config.selectivity,
        overlap=config.overlap,
        seed=config.seed + 1,
    )
    result = ExperimentResult(
        experiment_id=config.experiment_id,
        title=title,
        x_label="graph size (edges)",
        config=config,
    )
    checkpoints = _checkpoint_positions(len(stream), config.num_points)
    for engine_name in config.engines:
        run = _replay_engine(
            engine_name,
            workload,
            stream,
            time_budget_s=config.scaled_time_budget_s,
            measure_memory=config.measure_memory,
            batch_size=config.batch_size,
            poll_every=config.poll_every,
            subscribe=config.subscribe,
            shards=config.shards,
            executor=config.executor,
        )
        samples = run.answering.samples
        for checkpoint in checkpoints:
            reached = checkpoint <= run.updates_processed
            result.points.append(
                SeriesPoint(
                    x=checkpoint,
                    engine=engine_name,
                    answering_ms=_running_mean_ms(
                        samples, checkpoint, config.batch_size, run.updates_processed
                    ),
                    memory_mb=(
                        run.memory_bytes / (1024 * 1024)
                        if run.memory_bytes is not None
                        else None
                    ),
                    timed_out=not reached,
                    updates_processed=min(checkpoint, run.updates_processed),
                    matched_updates=run.matched_updates,
                )
            )
    return result


def _parameter_sweep(
    config: ExperimentConfig,
    *,
    title: str,
    x_label: str,
    values: Sequence[object],
    workload_override: Callable[[ExperimentConfig, object], Dict[str, object]],
) -> ExperimentResult:
    """Answering time as one workload parameter varies (Figs. 12b–12e)."""
    stream = build_stream(config.dataset, config.scaled_num_updates, config.seed)
    result = ExperimentResult(
        experiment_id=config.experiment_id,
        title=title,
        x_label=x_label,
        config=config,
    )
    for value in values:
        overrides = workload_override(config, value)
        workload = build_workload(
            stream,
            num_queries=overrides.get("num_queries", config.scaled_num_queries),
            avg_edges=overrides.get("avg_edges", config.avg_edges),
            selectivity=overrides.get("selectivity", config.selectivity),
            overlap=overrides.get("overlap", config.overlap),
            seed=config.seed + 1,
        )
        for engine_name in config.engines:
            run = _replay_engine(
                engine_name,
                workload,
                stream,
                time_budget_s=config.scaled_time_budget_s,
                measure_memory=False,
                batch_size=config.batch_size,
                poll_every=config.poll_every,
                subscribe=config.subscribe,
                shards=config.shards,
                executor=config.executor,
            )
            result.points.append(
                SeriesPoint(
                    x=value,
                    engine=engine_name,
                    answering_ms=run.answering_time_ms_per_update,
                    timed_out=run.timed_out,
                    updates_processed=run.updates_processed,
                    matched_updates=run.matched_updates,
                )
            )
    return result


# ----------------------------------------------------------------------
# Figure 12 — SNB dataset
# ----------------------------------------------------------------------
def experiment_fig12a(config: ExperimentConfig) -> ExperimentResult:
    """Fig. 12(a): answering time vs. graph size, SNB baseline configuration."""
    return _graph_size_sweep(config, title="SNB — influence of graph size")


def experiment_fig12b(config: ExperimentConfig) -> ExperimentResult:
    """Fig. 12(b): answering time vs. selectivity σ (10 %–30 %)."""
    return _parameter_sweep(
        config,
        title="SNB — influence of selectivity σ",
        x_label="selectivity σ",
        values=(0.10, 0.15, 0.20, 0.25, 0.30),
        workload_override=lambda cfg, value: {"selectivity": value},
    )


def experiment_fig12c(config: ExperimentConfig) -> ExperimentResult:
    """Fig. 12(c): answering time vs. query database size |QDB|."""
    base = config.scaled_num_queries
    values = [max(10, base // 5), max(10, (base * 3) // 5), base]
    return _parameter_sweep(
        config,
        title="SNB — influence of query database size",
        x_label="|QDB| (queries)",
        values=values,
        workload_override=lambda cfg, value: {"num_queries": value},
    )


def experiment_fig12d(config: ExperimentConfig) -> ExperimentResult:
    """Fig. 12(d): answering time vs. average query size l (3, 5, 7, 9)."""
    return _parameter_sweep(
        config,
        title="SNB — influence of average query size l",
        x_label="l (edges/query)",
        values=(3, 5, 7, 9),
        workload_override=lambda cfg, value: {"avg_edges": value},
    )


def experiment_fig12e(config: ExperimentConfig) -> ExperimentResult:
    """Fig. 12(e): answering time vs. query overlap o (25 %–65 %)."""
    return _parameter_sweep(
        config,
        title="SNB — influence of query overlap o",
        x_label="overlap o",
        values=(0.25, 0.35, 0.45, 0.55, 0.65),
        workload_override=lambda cfg, value: {"overlap": value},
    )


def experiment_fig12f(config: ExperimentConfig) -> ExperimentResult:
    """Fig. 12(f): answering time vs. graph size on the larger SNB stream.

    The inverted-index baselines exhaust the time budget first, reproducing
    the paper's "timed out" asterisks.
    """
    return _graph_size_sweep(config, title="SNB (large) — influence of graph size")


# ----------------------------------------------------------------------
# Figure 13 — scalability, indexing, and memory
# ----------------------------------------------------------------------
def experiment_fig13a(config: ExperimentConfig) -> ExperimentResult:
    """Fig. 13(a): answering time on the largest SNB stream (TRIC/TRIC+/GraphDB)."""
    return _graph_size_sweep(config, title="SNB (extra large) — TRIC vs TRIC+ vs GraphDB")


def experiment_fig13b(config: ExperimentConfig) -> ExperimentResult:
    """Fig. 13(b): query insertion (indexing) time as |QDB| grows.

    Queries are registered in batches; the per-query indexing time of each
    batch is reported at the resulting query-database size.
    """
    stream = build_stream(config.dataset, config.scaled_num_updates, config.seed)
    workload = build_workload(
        stream,
        num_queries=config.scaled_num_queries,
        avg_edges=config.avg_edges,
        selectivity=config.selectivity,
        overlap=config.overlap,
        seed=config.seed + 1,
    )
    num_batches = min(5, max(1, config.num_points))
    batch_size = max(1, len(workload.queries) // num_batches)
    result = ExperimentResult(
        experiment_id=config.experiment_id,
        title="SNB — query insertion time",
        x_label="|QDB| after batch (queries)",
        config=config,
        metric="indexing_ms_per_query",
    )
    for engine_name in config.engines:
        engine = create_engine(engine_name)
        registered = 0
        for start in range(0, len(workload.queries), batch_size):
            batch = workload.queries[start : start + batch_size]
            if not batch:
                continue
            started = time.perf_counter()
            engine.register_all(batch)
            elapsed = time.perf_counter() - started
            registered += len(batch)
            result.points.append(
                SeriesPoint(
                    x=registered,
                    engine=engine_name,
                    answering_ms=0.0,
                    indexing_ms_per_query=elapsed / len(batch) * 1e3,
                )
            )
    return result


def experiment_fig13c(config: ExperimentConfig) -> ExperimentResult:
    """Fig. 13(c): memory requirements per engine across the three datasets."""
    result = ExperimentResult(
        experiment_id=config.experiment_id,
        title="Memory requirements (SNB, TAXI, BioGRID)",
        x_label="dataset",
        config=config,
        metric="memory_mb",
    )
    for dataset in ("snb", "taxi", "biogrid"):
        stream = build_stream(dataset, config.scaled_num_updates, config.seed)
        workload = build_workload(
            stream,
            num_queries=config.scaled_num_queries,
            avg_edges=config.avg_edges,
            selectivity=config.selectivity,
            overlap=config.overlap,
            seed=config.seed + 1,
        )
        for engine_name in config.engines:
            run = _replay_engine(
                engine_name,
                workload,
                stream,
                time_budget_s=config.scaled_time_budget_s,
                measure_memory=True,
                batch_size=config.batch_size,
                poll_every=config.poll_every,
                subscribe=config.subscribe,
                shards=config.shards,
                executor=config.executor,
            )
            memory_mb = (
                run.memory_bytes / (1024 * 1024) if run.memory_bytes is not None else None
            )
            result.points.append(
                SeriesPoint(
                    x=dataset,
                    engine=engine_name,
                    answering_ms=run.answering_time_ms_per_update,
                    memory_mb=memory_mb,
                    timed_out=run.timed_out,
                    updates_processed=run.updates_processed,
                )
            )
    return result


# ----------------------------------------------------------------------
# Figure 14 — TAXI and BioGRID datasets
# ----------------------------------------------------------------------
def experiment_fig14a(config: ExperimentConfig) -> ExperimentResult:
    """Fig. 14(a): answering time vs. graph size on the TAXI dataset."""
    return _graph_size_sweep(config, title="TAXI — influence of graph size", dataset="taxi")


def experiment_fig14b(config: ExperimentConfig) -> ExperimentResult:
    """Fig. 14(b): answering time vs. graph size on BioGRID (stress test)."""
    return _graph_size_sweep(config, title="BioGRID — influence of graph size", dataset="biogrid")


def experiment_fig14c(config: ExperimentConfig) -> ExperimentResult:
    """Fig. 14(c): BioGRID at larger scale (TRIC, TRIC+, GraphDB only)."""
    return _graph_size_sweep(
        config, title="BioGRID (large) — TRIC vs TRIC+ vs GraphDB", dataset="biogrid"
    )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_ALL_ENGINES = ("TRIC", "TRIC+", "INV", "INV+", "INC", "INC+", "GraphDB")
_TRIO = ("TRIC", "TRIC+", "GraphDB")

#: experiment id -> (default configuration, experiment function)
EXPERIMENTS: Dict[str, Tuple[ExperimentConfig, Callable[[ExperimentConfig], ExperimentResult]]] = {
    "fig12a": (ExperimentConfig("fig12a", engines=_ALL_ENGINES), experiment_fig12a),
    "fig12b": (ExperimentConfig("fig12b", engines=_ALL_ENGINES), experiment_fig12b),
    "fig12c": (ExperimentConfig("fig12c", engines=_ALL_ENGINES), experiment_fig12c),
    "fig12d": (ExperimentConfig("fig12d", engines=_ALL_ENGINES), experiment_fig12d),
    "fig12e": (ExperimentConfig("fig12e", engines=_ALL_ENGINES), experiment_fig12e),
    "fig12f": (
        ExperimentConfig("fig12f", engines=_ALL_ENGINES, num_updates=60_000, time_budget_s=240.0),
        experiment_fig12f,
    ),
    "fig13a": (
        ExperimentConfig("fig13a", engines=_TRIO, num_updates=120_000, time_budget_s=240.0),
        experiment_fig13a,
    ),
    "fig13b": (ExperimentConfig("fig13b", engines=_ALL_ENGINES), experiment_fig13b),
    "fig13c": (
        ExperimentConfig("fig13c", engines=_ALL_ENGINES, measure_memory=True),
        experiment_fig13c,
    ),
    "fig14a": (
        ExperimentConfig("fig14a", dataset="taxi", engines=_ALL_ENGINES, time_budget_s=60.0),
        experiment_fig14a,
    ),
    "fig14b": (
        ExperimentConfig(
            "fig14b", dataset="biogrid", engines=_ALL_ENGINES, avg_edges=3, time_budget_s=240.0
        ),
        experiment_fig14b,
    ),
    "fig14c": (
        ExperimentConfig(
            "fig14c",
            dataset="biogrid",
            engines=_TRIO,
            num_updates=60_000,
            avg_edges=3,
            time_budget_s=240.0,
        ),
        experiment_fig14c,
    ),
}


def experiment_ids() -> List[str]:
    """All known experiment identifiers (one per figure of the paper)."""
    return list(EXPERIMENTS)


def run_experiment(experiment_id: str, *, scale: float | None = None, **overrides) -> ExperimentResult:
    """Run one experiment by id, optionally rescaled or with field overrides."""
    entry = EXPERIMENTS.get(experiment_id)
    if entry is None:
        raise BenchmarkError(
            f"unknown experiment {experiment_id!r}; known: {', '.join(EXPERIMENTS)}"
        )
    config, function = entry
    if scale is not None:
        config = config.with_scale(scale)
    if overrides:
        config = config.with_overrides(**overrides)
    return function(config)
