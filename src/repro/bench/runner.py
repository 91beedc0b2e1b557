"""Command-line entry point regenerating the paper's figures.

Usage (installed as the ``repro-bench`` console script)::

    repro-bench --list
    repro-bench --experiment fig12a --scale 0.05
    repro-bench --all --scale 0.02 --output results/

Each experiment prints the regenerated series as a text table (one column per
engine, one row per x-axis value, ``*`` marking engines that exhausted the
time budget — the paper's "timed out" asterisks) together with the paper's
observation for that figure, and can optionally write the tables to files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from ..engines import ANSWER_MATERIALISING_ENGINES, ENGINE_FACTORIES, ENGINE_STRATEGIES
from ..pubsub.serve import parse_subscribe_spec
from ..pubsub.sharding import SHARD_EXECUTORS
from .configs import DEFAULT_BENCH_SCALE
from .experiments import EXPERIMENTS, ExperimentResult, experiment_ids, run_experiment
from .figures import FIGURES
from .workloads import SCENARIOS, generate_workload, run_workload

__all__ = ["main", "build_parser", "render_experiment"]


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the figures of 'Efficient Continuous Multi-Query "
        "Processing over Graph Streams' (EDBT 2020).",
    )
    parser.add_argument("--experiment", "-e", action="append", dest="experiments",
                        help="experiment id (e.g. fig12a); may be repeated")
    parser.add_argument("--all", action="store_true", help="run every experiment")
    parser.add_argument("--list", action="store_true", help="list experiment ids and exit")
    parser.add_argument("--list-engines", action="store_true",
                        help="list the engine matrix (base vs answer-materialising '+' "
                        "variants) and exit")
    parser.add_argument("--workload", "-w", action="append", dest="workloads",
                        metavar="NAME",
                        help="run a named synthetic scenario workload (see "
                        "--list-workloads) through the selected engines, every "
                        "run verified byte-identical against the Naive string "
                        "oracle; may be repeated")
    parser.add_argument("--list-workloads", action="store_true",
                        help="list the synthetic scenario workloads and exit")
    parser.add_argument("--engines", default=None, metavar="CSV",
                        help="comma-separated engine subset for --workload runs "
                        "(default: every engine)")
    parser.add_argument("--scale", type=float, default=None,
                        help="scale factor applied to stream/query sizes and time budgets "
                        f"(default: experiment default; benchmarks use {DEFAULT_BENCH_SCALE})")
    parser.add_argument("--batch-size", type=int, default=None,
                        help="stream updates per engine call (default 1: per-update replay; "
                        "larger values drive the engines through answer-equivalent "
                        "micro-batches)")
    parser.add_argument("--poll-every", type=int, default=None,
                        help="poll matches_of for every satisfied query each N processed "
                        "updates (default 0: notification-only replay; polling is the "
                        "workload that separates the answer-materialising '+' engines "
                        "from their base variants)")
    parser.add_argument("--subscribe", type=parse_subscribe_spec, default=None,
                        metavar="K[-of-N]",
                        help="subscription-mode replay: a broker delivers match deltas "
                        "for K queries picked evenly across the registered query "
                        "database (the serving workload that subsumes --poll-every "
                        "for applications watching specific queries)")
    parser.add_argument("--shards", type=int, default=None,
                        help="partition the query database across N independent engine "
                        "shards (default 1: the paper's unsharded engines)")
    parser.add_argument("--executor", default=None,
                        choices=SHARD_EXECUTORS,
                        help="shard fan-out executor (with --shards > 1): serial "
                        "in-process loop or one worker process per shard "
                        "(default serial)")
    parser.add_argument("--output", type=Path, default=None,
                        help="directory to write one .txt report per experiment")
    parser.add_argument("--profile", action="store_true",
                        help="run each experiment under cProfile and print the top-25 "
                        "functions by cumulative time (verifies what is on the hot "
                        "path); also profiles a broker-subscribed pass of the "
                        "experiment so flush/delivery cost is visible")
    return parser


def render_experiment(result: ExperimentResult) -> str:
    """Render an experiment result plus the paper's expectation for that figure."""
    spec = FIGURES.get(result.experiment_id)
    lines = [result.to_table()]
    if spec is not None:
        lines.append("")
        lines.append(f"paper ({spec.figure}, {spec.dataset}, varying {spec.varied}):")
        lines.append(f"  {spec.paper_observation}")
        lines.append(f"expected shape: {spec.expected_shape}")
    lines.append("")
    lines.append("configuration: " + ", ".join(f"{k}={v}" for k, v in result.config.describe().items()))
    return "\n".join(lines)


def run_workloads(
    names: Sequence[str],
    engine_names: Sequence[str],
    *,
    scale: Optional[float] = None,
    shards: int = 1,
    executor: str = "serial",
) -> int:
    """Run named scenario workloads through engines, oracle-verified.

    Every engine's transcript (per-tick notified ids + final answers) must
    be byte-identical to the ``Naive`` string oracle's; a divergent engine
    fails the run with exit code 1.
    """
    for name in names:
        spec = SCENARIOS[name]
        if scale is not None:
            spec = spec.scaled(scale)
        workload = generate_workload(spec)
        description = workload.describe()
        print(
            f"=== workload {name} ({description['updates']} updates, "
            f"{description['ticks']} ticks, {description['queries']} queries, "
            f"fingerprint {description['fingerprint']}) ==="
        )
        oracle = run_workload(workload, "Naive", shards=1)
        header = f"{'engine':10s} {'upd/s':>10s} {'p50 ms':>9s} {'p95 ms':>9s} {'p99 ms':>9s}  oracle"
        print(header)
        divergent = False
        for engine_name in engine_names:
            if engine_name == "Naive":
                result = oracle
            else:
                result = run_workload(workload, engine_name, shards=shards, executor=executor)
            identical = result.transcript == oracle.transcript
            divergent = divergent or not identical
            print(
                f"{engine_name:10s} {result.updates_per_s:10.0f} "
                f"{result.answering.p50_ms:9.3f} {result.answering.p95_ms:9.3f} "
                f"{result.answering.p99_ms:9.3f}  "
                f"{'identical' if identical else 'DIVERGED'}"
            )
        print()
        if divergent:
            print(f"workload {name}: engine output diverged from the oracle", file=sys.stderr)
            return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list:
        for experiment_id in experiment_ids():
            spec = FIGURES[experiment_id]
            print(f"{experiment_id:8s} {spec.figure:14s} {spec.dataset:18s} varying {spec.varied}")
        return 0

    if args.list_engines:
        for name, strategy in ENGINE_STRATEGIES.items():
            tier = "answers" if name in ANSWER_MATERIALISING_ENGINES else "base"
            print(f"{name:8s} {tier:8s} {strategy}")
        return 0

    if args.list_workloads:
        for name, spec in SCENARIOS.items():
            print(f"{name:14s} {spec.description}")
        return 0

    engine_names: List[str] = list(ENGINE_FACTORIES)
    if args.engines is not None:
        engine_names = [name.strip() for name in args.engines.split(",") if name.strip()]
        unknown = [name for name in engine_names if name not in ENGINE_FACTORIES]
        if unknown or not engine_names:
            print(
                f"unknown engine(s): {', '.join(unknown) or '(none given)'}; "
                f"available engines: {', '.join(ENGINE_FACTORIES)}",
                file=sys.stderr,
            )
            return 2

    if args.workloads:
        unknown = [name for name in args.workloads if name not in SCENARIOS]
        if unknown:
            print(
                f"unknown workload(s): {', '.join(unknown)}; "
                f"available workloads: {', '.join(SCENARIOS)}",
                file=sys.stderr,
            )
            return 2
        if args.shards is not None and args.shards < 1:
            print("--shards must be at least 1", file=sys.stderr)
            return 2
        return run_workloads(
            args.workloads,
            engine_names,
            scale=args.scale,
            shards=args.shards or 1,
            executor=args.executor or "serial",
        )

    selected: List[str]
    if args.all:
        selected = experiment_ids()
    elif args.experiments:
        selected = list(args.experiments)
    else:
        parser.print_help()
        return 2

    unknown = [e for e in selected if e not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment id(s): {', '.join(unknown)}", file=sys.stderr)
        return 2

    if args.output is not None:
        args.output.mkdir(parents=True, exist_ok=True)

    overrides = {}
    if args.batch_size is not None:
        if args.batch_size < 1:
            print("--batch-size must be at least 1", file=sys.stderr)
            return 2
        overrides["batch_size"] = args.batch_size
    if args.poll_every is not None:
        if args.poll_every < 0:
            print("--poll-every must not be negative", file=sys.stderr)
            return 2
        overrides["poll_every"] = args.poll_every
    if args.subscribe is not None:
        # Parsed as "K" or "K-of-N"; the N part is informational here
        # (subscribed queries are picked evenly across the registered
        # query database).
        subscribe, _ = args.subscribe
        if subscribe < 0:
            print("--subscribe must not be negative", file=sys.stderr)
            return 2
        overrides["subscribe"] = subscribe
    if args.shards is not None:
        if args.shards < 1:
            print("--shards must be at least 1", file=sys.stderr)
            return 2
        overrides["shards"] = args.shards
    if args.executor is not None:
        overrides["executor"] = args.executor

    for experiment_id in selected:
        print(f"=== running {experiment_id} ===", flush=True)
        if args.profile:
            import cProfile
            import pstats

            profiler = cProfile.Profile()
            profiler.enable()
            result = run_experiment(experiment_id, scale=args.scale, **overrides)
            profiler.disable()
        else:
            result = run_experiment(experiment_id, scale=args.scale, **overrides)
        report = render_experiment(result)
        print(report)
        print()
        if args.profile:
            print(f"--- profile: {experiment_id} (top 25 by cumulative time) ---")
            pstats.Stats(profiler).sort_stats("cumulative").print_stats(25)
            if not overrides.get("subscribe"):
                # A broker-subscribed pass of the same experiment, so the
                # flush/delivery cost (AnswerDeltaTracker.collect, the
                # affected-aware SubscriptionBroker.flush) shows up in the
                # top-25 instead of being invisible in engine-only replays.
                subscribed = dict(overrides, subscribe=5)
                profiler = cProfile.Profile()
                profiler.enable()
                run_experiment(experiment_id, scale=args.scale, **subscribed)
                profiler.disable()
                print(
                    f"--- profile: {experiment_id} broker-subscribed "
                    "(top 25 by cumulative time) ---"
                )
                pstats.Stats(profiler).sort_stats("cumulative").print_stats(25)
        if args.output is not None:
            path = args.output / f"{experiment_id}.txt"
            path.write_text(report + "\n", encoding="utf-8")
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation
    raise SystemExit(main())
