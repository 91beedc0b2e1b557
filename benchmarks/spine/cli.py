"""Command line of the measurement spine.

Contract mode (what ``BENCHMARK.json`` runs)::

    python3 benchmarks/spine/run.py --workload W --seed N --seconds S --trace 0|1

prints, as the last line of stdout, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1``).

Developer mode (``PYTHONPATH=src python -m benchmarks.spine <command>``)::

    run    [--workload W] [--seed N] [--seconds S] [--out DIR]   end-to-end table
    trace  [--workload W] [--seed N] [--out DIR]                 per-layer table + spans.jsonl
    agree  [--seed N] [--seconds S]                              A/A check of two full sets
    manifest                                                     print BENCHMARK.json
    pin                                                          rewrite pins.json (default seed)

Every repeat runs in a fresh child process under an address-space limit and
a wall-clock timeout; a blown guard fails that repeat's operations and the
run goes on.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .metrics import END_TO_END, PER_LAYER, RUN_SECONDS, manifest
from .tracing import median
from .verify import PINS_PATH, check_pins, load_pins
from .workloads import DEFAULT_SEED, WORKLOADS, generate, workload_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"

#: Address-space limit of every child (workers inherit it).
ADDRESS_SPACE_BYTES = 4 << 30
#: Wall-clock limits: one child, and a whole contract-mode run.
CHILD_TIMEOUT_S = 90.0
RUN_DEADLINE_S = 170.0
#: ``bench.reconcile_gap_pct`` above this fails the traced run.
RECONCILE_LIMIT_PCT = 5.0


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------
def child_main(spec_json: str) -> int:
    """Entry of a child process: run one mode, print its result as JSON."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))
    from . import measure

    spec = json.loads(spec_json)
    workdir = Path(spec["workdir"])
    try:
        if spec["mode"] == "measure":
            result = measure.measure_repeat(
                spec["workload"], spec["seed"], workdir, corrupt=spec.get("corrupt", False)
            )
        elif spec["mode"] == "trace":
            out_dir = Path(spec["out_dir"]) if spec.get("out_dir") else None
            result = measure.trace_repeat(spec["workload"], spec["seed"], workdir, out_dir=out_dir)
        else:
            result = measure.verify_reference(spec["workload"], spec["seed"], workdir)
    except MemoryError:
        result = {"error": "memory guard: address-space limit reached"}
    except Exception as error:  # boundary: report, the parent fails the ops
        import traceback

        traceback.print_exc()
        result = {"error": f"{type(error).__name__}: {error}"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run_child(spec: Dict[str, object], timeout_s: float = CHILD_TIMEOUT_S) -> Dict[str, object]:
    """Run one child to completion (or kill its whole process group)."""
    workdir = RESULTS / "tmp" / f"{os.getpid()}-{spec['mode']}-{time.monotonic_ns()}"
    workdir.mkdir(parents=True, exist_ok=True)
    spec = dict(spec, workdir=str(workdir))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.spine", "--child", json.dumps(spec)],
        stdout=subprocess.PIPE,
        cwd=str(ROOT),
        env=env,
        start_new_session=True,
        text=True,
    )
    try:
        stdout, _ = process.communicate(timeout=max(1.0, timeout_s))
    except subprocess.TimeoutExpired:
        stdout = ""
    finally:
        # The child's workers share its session: end whatever is left.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        process.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return {"error": f"time guard: no result within {timeout_s:.0f}s (exit {process.returncode})"}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": f"child exited {process.returncode} without a result"}


# ----------------------------------------------------------------------
# One workload, untraced: end-to-end metrics
# ----------------------------------------------------------------------
def _planned_ops(workload_name: str, seed: int, max_updates: Optional[int]) -> int:
    inputs = generate(WORKLOADS[workload_name], seed)
    if max_updates:
        inputs = inputs.prefix(max_updates)
    reads = sum(len(polls) for polls in inputs.reads.values())
    return 2 * (len(inputs.ticks) + reads) + len(inputs.probe)


def run_workload(
    workload_name: str, seed: int, seconds: float, *, corrupt: bool = False
) -> Dict[str, object]:
    """All repeats of one workload plus the reference child, aggregated."""
    repeats = max(1, int(seconds / WORKLOADS[workload_name].nominal_repeat_s))
    deadline = time.monotonic() + RUN_DEADLINE_S
    spec = {"workload": workload_name, "seed": seed}
    remaining = lambda: min(CHILD_TIMEOUT_S, deadline - time.monotonic())  # noqa: E731

    runs = []
    for index in range(repeats):
        runs.append(
            run_child(dict(spec, mode="measure", corrupt=corrupt and index == 0), remaining())
        )
    reference = run_child(dict(spec, mode="verify"), remaining())
    return aggregate_runs(workload_name, seed, runs, reference)


def aggregate_runs(
    workload_name: str,
    seed: int,
    runs: Sequence[Dict[str, object]],
    reference: Dict[str, object],
    *,
    max_updates: Optional[int] = None,
) -> Dict[str, object]:
    """Medians over the repeats, operations attempted/failed, every check."""
    good = [run for run in runs if "error" not in run]
    attempted = failed = 0
    problems: List[str] = []
    for run in runs:
        if "error" in run:
            planned = _planned_ops(workload_name, seed, max_updates)
            attempted += planned
            failed += planned
            problems.append(run["error"])
            continue
        ops = run["ops"]
        attempted += sum(ops.values())
        if run["backlog_growing"]:
            failed += ops["open_ticks"]
            problems.append("open-loop backlog still growing at the end")
        if run["lost_frames"]:
            failed += run["lost_frames"]
            problems.append(f"{run['lost_frames']} frames dropped or coalesced under block")
    if "error" in reference:
        problems.append(f"reference: {reference['error']}")
        failed += 1
    pins = load_pins()
    for run in good:
        closed, opened = run["closed"], run["open"]
        checks = {
            "fold of delivered frames != final matches_of (closed)": closed["fold_ok"],
            "fold of delivered frames != final matches_of (open)": opened["fold_ok"],
            "closed- and open-loop frame digests differ": closed["frames_digest"] == opened["frames_digest"],
            "recovered engine != closed engine": run["recovered_ok"],
        }
        if "error" not in reference:
            checks["Naive disagrees on the verified prefix (closed)"] = (
                closed["prefix_digest"] == reference["prefix_digest"]
            )
            checks["Naive disagrees on the verified prefix (open)"] = (
                opened["prefix_digest"] == reference["prefix_digest"]
            )
            if reference["reference_digest"] is not None:
                checks["frames differ from the bare TRIC+ replay"] = (
                    closed["frames_digest"] == reference["reference_digest"]
                )
        if max_updates is None:
            broken = check_pins(
                workload_name, seed, run["structure_fingerprint"], run["fingerprint"],
                closed["frames_digest"], pins,
            )
            checks[f"pins.json mismatch: {', '.join(broken)}"] = not broken
        for message, passed in checks.items():
            if not passed:
                failed += 1
                problems.append(message)

    summary: Dict[str, object] = {
        "workload": workload_name,
        "seed": seed,
        "repeats": len(runs),
        "attempted": max(1, attempted),
        "failed": failed,
        "correct": failed == 0 and bool(good),
        "problems": sorted(set(problems)),
        "reference": reference,
        "metrics": {},
        "detail": {},
    }
    if not good:
        return summary
    first = good[0]
    summary.update(
        fingerprint=first["fingerprint"],
        structure_fingerprint=first["structure_fingerprint"],
        frames_digest=first["closed"]["frames_digest"],
        updates=first["updates"],
        ticks=first["ticks"],
        frames=first["frames"],
    )
    samples = {
        "setup_s": [s for run in good for s in run["setup_samples"]],
        "updates_per_s": [run["updates_per_s"] for run in good],
        "delivery_p50_ms": [run["delivery"]["p50_ms"] for run in good],
        "read_p50_ms": [run["read"]["p50_ms"] for run in good],
        "read_p99_ms": [run["read"]["tail_ms"] for run in good],
        "recover_s": [run["recover_s"] for run in good],
        "peak_rss_mb": [run["peak_rss_mb"] for run in good],
        "disk_bytes_per_update": [run["disk_bytes_per_update"] for run in good],
    }
    units = {name: unit for name, unit, _, _ in END_TO_END}
    for name, values in samples.items():
        summary["metrics"][name] = {"value": median(values), "unit": units[name]}
        summary["detail"][name] = {"min": min(values), "max": max(values), "samples": len(values)}
    summary["detail"]["delivery_p50_ms"].update(ticks=first["delivery"]["samples"])
    summary["detail"]["read_p99_ms"].update(
        tail_q=first["read"]["tail_q"], reads=first["read"]["samples"]
    )
    summary["detail"]["harness"] = {
        "generate_s": median([run["generate_s"] for run in good]),
        "closed_wall_s": median([run["closed_wall_s"] for run in good]),
        "open_wall_s": median([run["open_wall_s"] for run in good]),
        "closed_tick_p50_ms": median([run["closed_tick"]["p50_ms"] for run in good]),
        "lateness_p50_ms": median([run["lateness_p50_ms"] for run in good]),
        "delivery_tail_ms": median([run["delivery"]["tail_ms"] for run in good]),
        "delivery_tail_q": first["delivery"]["tail_q"],
        "backlog_max_ticks": max(run["backlog_max_ticks"] for run in good),
        "backlog_end_ticks": max(run["backlog_end_ticks"] for run in good),
    }
    return summary


# ----------------------------------------------------------------------
# One workload, traced: per-layer metrics
# ----------------------------------------------------------------------
def trace_workload(
    workload_name: str, seed: int, *, out_dir: Optional[Path] = None
) -> Dict[str, object]:
    spec = {"workload": workload_name, "seed": seed}
    traced = run_child(dict(spec, mode="trace", out_dir=str(out_dir) if out_dir else None))
    reference = run_child(dict(spec, mode="verify"), RUN_DEADLINE_S - CHILD_TIMEOUT_S)
    return aggregate_trace(workload_name, seed, traced, reference)


def aggregate_trace(
    workload_name: str,
    seed: int,
    traced: Dict[str, object],
    reference: Dict[str, object],
    *,
    max_updates: Optional[int] = None,
) -> Dict[str, object]:
    """Per-layer metrics of one traced child plus the oracle's numbers."""
    summary: Dict[str, object] = {
        "workload": workload_name,
        "seed": seed,
        "metrics": {},
        "problems": [],
        "traced": traced,
    }
    problems: List[str] = summary["problems"]
    if "error" in traced:
        planned = _planned_ops(workload_name, seed, max_updates)
        summary.update(attempted=planned, failed=planned, correct=False)
        problems.append(traced["error"])
        return summary
    values = dict(traced["metrics"])
    if "error" in reference:
        problems.append(f"reference: {reference['error']}")
        values["baselines.naive.verify_s"] = 0.0
        values["baselines.naive.verify_ticks"] = 0
    else:
        values["baselines.naive.verify_s"] = reference["verify_s"]
        values["baselines.naive.verify_ticks"] = reference["verify_ticks"]
        if reference["reference_digest"] not in (None, traced["frames_digest"]):
            problems.append("frames differ from the bare TRIC+ replay")
    if not traced["recovered_ok"]:
        problems.append("recovered engine != closed engine")
    if traced["frames_digest"] != traced["untraced_digest"]:
        problems.append("traced and untraced frame digests differ")
    if values["bench.reconcile_gap_pct"] > RECONCILE_LIMIT_PCT:
        problems.append(
            f"layer self-times miss the tick spans by {values['bench.reconcile_gap_pct']:.1f}%"
        )
    for name, unit, _ in PER_LAYER:
        summary["metrics"][name] = {"value": values.get(name, 0), "unit": unit}
    summary.update(
        attempted=max(1, traced["ops"]["ticks"]),
        failed=len(problems),
        correct=not problems,
    )
    return summary


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def provenance(seed: int) -> Dict[str, object]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": {name: dataclasses.asdict(w) for name, w in WORKLOADS.items()},
    }


def _write_result(out_dir: Path, kind: str, seed: int, summaries: Sequence[Dict[str, object]]) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{kind}-seed{seed}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    record = dict(provenance(seed), kind=kind, results=list(summaries))
    path.write_text(json.dumps(record, indent=2, sort_keys=True), encoding="utf-8")
    return path


def _print_table(summaries: Sequence[Dict[str, object]], names: Sequence[str]) -> None:
    header = ["metric", "unit"] + [summary["workload"] for summary in summaries]
    rows = []
    for name in names:
        cells = [summary["metrics"].get(name) for summary in summaries]
        unit = next((cell["unit"] for cell in cells if cell), "")
        rows.append(
            [name, unit] + [f"{cell['value']:.6g}" if cell else "absent" for cell in cells]
        )
    widths = [max(len(str(row[i])) for row in [header] + rows) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)))


def _report(summaries: Sequence[Dict[str, object]], names: Sequence[str]) -> int:
    _print_table(summaries, names)
    status = 0
    for summary in summaries:
        print(
            f"{summary['workload']}: attempted={summary['attempted']} "
            f"failed={summary['failed']} correct={summary['correct']}"
        )
        for name, detail in summary.get("detail", {}).items():
            if "samples" in detail:
                extra = "".join(
                    f" {key}={detail[key]}" for key in ("tail_q", "ticks", "reads") if key in detail
                )
                print(
                    f"  {name}: min={detail['min']:.6g} max={detail['max']:.6g} "
                    f"samples={detail['samples']}{extra}"
                )
        for problem in summary["problems"]:
            print(f"  PROBLEM: {problem}")
        if not summary["correct"]:
            status = 1
    return status


def _selected(args) -> List[str]:
    return [args.workload] if args.workload else workload_names()


def command_run(args) -> int:
    summaries = [
        run_workload(name, args.seed, args.seconds, corrupt=args.corrupt_frame)
        for name in _selected(args)
    ]
    status = _report(summaries, [name for name, *_ in END_TO_END])
    print(f"result file: {_write_result(Path(args.out), 'run', args.seed, summaries)}")
    return status


def command_trace(args) -> int:
    out = Path(args.out)
    summaries = [
        trace_workload(name, args.seed, out_dir=out / f"trace-{name}-seed{args.seed}")
        for name in _selected(args)
    ]
    status = _report(summaries, [name for name, *_ in PER_LAYER])
    for summary in summaries:
        traced = summary["traced"]
        if "layer_self_s" in traced:
            print(f"{summary['workload']}: self time by span (sum of tick spans {traced['tick_s']:.4f} s)")
            for span_name, seconds in traced["layer_self_s"].items():
                print(f"  {span_name:34s} {seconds:10.4f} s")
    print(f"result file: {_write_result(out, 'trace', args.seed, summaries)}")
    return status


def command_agree(args) -> int:
    """A/A: two full sets back to back; every end-to-end metric of every
    workload must agree within its own bound, with zero failed operations."""
    sets = [
        {name: run_workload(name, args.seed, args.seconds) for name in workload_names()}
        for _ in range(2)
    ]
    status = 0
    print(f"{'workload':16s} {'metric':24s} {'first':>12s} {'second':>12s} {'worse by':>9s} {'bound':>6s}")
    for workload_name in workload_names():
        first, second = sets[0][workload_name], sets[1][workload_name]
        for summary in (first, second):
            if not summary["correct"]:
                status = 1
                print(f"{workload_name}: failed={summary['failed']} {summary['problems']}")
        for name, _, better, bound in END_TO_END:
            a = first["metrics"].get(name, {}).get("value")
            b = second["metrics"].get(name, {}).get("value")
            if not a or not b:
                status = 1
                print(f"{workload_name:16s} {name:24s} missing")
                continue
            worse = (b - a) / a if better == "lower" else (a - b) / a
            breach = abs(worse) > bound
            status |= int(breach)
            print(
                f"{workload_name:16s} {name:24s} {a:12.6g} {b:12.6g} {worse:+9.2%} {bound:6.0%}"
                + ("  BREACH" if breach else "")
            )
    _write_result(Path(args.out), "agree", args.seed, [s[w] for s in sets for w in workload_names()])
    return status


def command_pin(args) -> int:
    pins = {}
    for name in workload_names():
        summary = run_workload(name, DEFAULT_SEED, WORKLOADS[name].nominal_repeat_s)
        structural = [p for p in summary["problems"] if not p.startswith("pins.json")]
        if structural or "frames_digest" not in summary:
            print(f"{name}: not pinned: {summary['problems']}")
            return 1
        pins[name] = {
            "structure_fingerprint": summary["structure_fingerprint"],
            "fingerprint": summary["fingerprint"],
            "frames_digest": summary["frames_digest"],
            "frames": summary["frames"],
            "updates": summary["updates"],
            "ticks": summary["ticks"],
        }
    PINS_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {PINS_PATH}")
    return 0


def command_manifest(args) -> int:
    print(json.dumps(manifest(WORKLOADS.values()), indent=2))
    return 0


def command_contract(args) -> int:
    """The ``BENCHMARK.json`` protocol: one workload, one JSON line."""
    if args.trace:
        summary = trace_workload(args.workload, args.seed)
    else:
        summary = run_workload(args.workload, args.seed, args.seconds)
    for problem in summary["problems"]:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    if not summary["metrics"]:
        print("no repeat produced a result", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "correct": bool(summary["correct"]),
                "attempted": int(summary["attempted"]),
                "failed": int(summary["failed"]),
                "metrics": summary["metrics"],
            }
        )
    )
    return 0 if summary["correct"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="benchmarks.spine", description=__doc__.split("\n\n")[0])
    commands = {
        "run": command_run,
        "trace": command_trace,
        "agree": command_agree,
        "manifest": command_manifest,
        "pin": command_pin,
    }
    parser.add_argument("command", nargs="?", choices=sorted(commands), default=None)
    parser.add_argument("--workload", choices=workload_names(), default=None)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS),
                        help="measured time per workload; sets the number of repeats")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="contract mode: 1 = traced run, per-layer metrics")
    parser.add_argument("--out", default=str(RESULTS), help="directory for result files")
    parser.add_argument("--corrupt-frame", action="store_true",
                        help="test hook: damage one delivered frame; the run must fail")
    parser.set_defaults(commands=commands)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) == 2 and argv[0] == "--child":
        return child_main(argv[1])
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is not None:
        return args.commands[args.command](args)
    if args.workload is None:
        parser.error("give a command (run, trace, agree, ...) or --workload for contract mode")
    return command_contract(args)
