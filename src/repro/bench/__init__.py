"""Benchmark harness regenerating every figure of the paper's evaluation."""

from .configs import (
    DEFAULT_BENCH_SCALE,
    ExperimentConfig,
    bench_scale_from_env,
)
from .experiments import (
    EXPERIMENTS,
    ExperimentResult,
    SeriesPoint,
    build_stream,
    build_workload,
    experiment_ids,
    run_experiment,
)
from .figures import FIGURES, FigureSpec
from .runner import main, render_experiment
from .workloads import (
    SCENARIOS,
    ChurnEvent,
    SyntheticWorkload,
    WorkloadSpec,
    generate_workload,
    run_workload,
    scenario_names,
    scenario_spec,
)

__all__ = [
    "SCENARIOS",
    "ChurnEvent",
    "SyntheticWorkload",
    "WorkloadSpec",
    "generate_workload",
    "run_workload",
    "scenario_names",
    "scenario_spec",
    "ExperimentConfig",
    "DEFAULT_BENCH_SCALE",
    "bench_scale_from_env",
    "EXPERIMENTS",
    "ExperimentResult",
    "SeriesPoint",
    "experiment_ids",
    "run_experiment",
    "build_stream",
    "build_workload",
    "FIGURES",
    "FigureSpec",
    "render_experiment",
    "main",
]
