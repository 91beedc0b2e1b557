"""Unit tests of the measurement harness itself (tier-1, a few seconds).

They test the benchmark's arithmetic and plumbing, not the program: the
percentile rule, span self-times, open-loop accounting on a fake clock,
that declared and emitted metric names agree, and a 200-update smoke of
each workload's stack.
"""

from __future__ import annotations

import dataclasses
import json
import re
import signal
from pathlib import Path

import pytest

from . import cli, driver, measure, metrics, tracing, verify, workloads

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(autouse=True)
def hard_timeout():
    """No harness test may hang tier-1 (process shards included)."""

    def expired(signum, frame):
        raise TimeoutError("harness test exceeded its hard timeout")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "count, expected_q",
    [(1100, 0.99), (1000, 0.99), (999, 0.95), (200, 0.95), (199, 0.9),
     (100, 0.9), (99, 0.75), (40, 0.75), (39, 0.5), (1, 0.5)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(count, expected_q):
    samples = [float(value) for value in range(1, count + 1)]
    q, value = tracing.tail_percentile(samples)
    assert q == expected_q
    if q != 0.5:
        assert sum(1 for sample in samples if sample > value) >= 10
        assert value == tracing.percentile(samples, q)


def test_percentile_and_median():
    assert tracing.percentile([5.0, 1.0, 3.0, 2.0, 4.0], 0.5) == 3.0
    assert tracing.percentile(list(range(1, 101)), 0.99) == 99
    assert tracing.median([4.0, 1.0, 3.0, 2.0]) == 2.5
    assert tracing.median([]) == 0.0


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_is_span_minus_children():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    tracer.tick = 7
    with tracer.span("tick"):
        clock.advance(1.0)
        with tracer.span("outer"):
            clock.advance(2.0)
            with tracer.span("inner"):
                clock.advance(4.0)
            clock.advance(8.0)
        with tracer.span("inner"):
            clock.advance(16.0)
        clock.advance(32.0)
    own = tracing.self_times(tracer.spans)
    assert own == {"tick": 33.0, "outer": 10.0, "inner": 20.0}
    assert sum(own.values()) == sum(tracing.durations(tracer.spans, "tick"))
    assert tracing.durations(tracer.spans, "inner") == [4.0, 16.0]
    assert [span[3] for span in tracer.spans] == [-1, 0, 1, 0]
    assert {span[4] for span in tracer.spans} == {7}


def test_null_tracer_records_nothing():
    with tracing.NULL_TRACER.span("anything"):
        pass
    assert not tracing.NULL_TRACER.enabled and not tracing.NULL_TRACER.spans


# ----------------------------------------------------------------------
# Open loop
# ----------------------------------------------------------------------
def _fake_open_loop(costs, rate_hz=10.0):
    clock = FakeClock()

    def sleep(seconds):
        clock.advance(seconds)

    def run_tick(index):
        clock.advance(costs[index])
        return clock()

    return driver.open_loop(len(costs), rate_hz, run_tick, clock=clock, sleep=sleep)


def test_open_loop_times_each_tick_from_its_due_time():
    # 10 Hz: due at 0.0, 0.1, 0.2, ...  Tick 1 stalls for 0.35 s.
    result = _fake_open_loop([0.01, 0.35, 0.01, 0.01, 0.01, 0.01])
    assert result.latencies == pytest.approx([0.01, 0.35, 0.26, 0.17, 0.08, 0.01])
    assert result.lateness == pytest.approx([0.0, 0.0, 0.25, 0.16, 0.07, 0.0])
    # Tick 2 started 2.5 periods late: ticks 3 and 4 came due behind it.
    assert result.backlog == [0, 0, 2, 1, 0, 0]
    assert not driver.backlog_growing(result.backlog)


def test_open_loop_detects_a_backlog_that_keeps_growing():
    sustainable = _fake_open_loop([0.05] * 200)
    assert max(sustainable.backlog) == 0
    assert not driver.backlog_growing(sustainable.backlog)
    overloaded = _fake_open_loop([0.15] * 200)
    assert overloaded.backlog[-1] > overloaded.backlog[100] > 0
    assert driver.backlog_growing(overloaded.backlog)
    # A late stall that is draining is not growth.
    draining = _fake_open_loop([0.01] * 180 + [1.5] + [0.01] * 19)
    assert max(draining.backlog) >= 10
    assert not driver.backlog_growing(draining.backlog)


# ----------------------------------------------------------------------
# Declared vs emitted
# ----------------------------------------------------------------------
def test_benchmark_json_is_the_generated_manifest():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert declared == metrics.manifest(workloads.WORKLOADS.values())
    assert list(declared) == ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in declared[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert len(declared["workloads"]) == 4 and len(declared["end_to_end"]) == 8
    assert all(len(entry["why"]) <= 200 and "\n" not in entry["why"] for entry in declared["workloads"])
    for entry in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("lower", "higher")
    assert all(0 < entry["bound"] <= 0.25 for entry in declared["end_to_end"])
    setup = declared["end_to_end"][0]
    assert (setup["name"], setup["unit"], setup["better"]) == ("setup_s", "s", "lower")
    assert setup["bound"] == max(entry["bound"] for entry in declared["end_to_end"])


def test_emitted_metrics_equal_declared_and_a_corrupt_frame_fails(tmp_path, monkeypatch):
    name, seed = "skew_churn", 5
    quick = dataclasses.replace(workloads.WORKLOADS[name], setup_rounds=1, probe_reads=45)
    monkeypatch.setitem(workloads.WORKLOADS, name, quick)
    reference = measure.verify_reference(name, seed, tmp_path, max_updates=100)
    run = measure.measure_repeat(name, seed, tmp_path, max_updates=100)
    summary = cli.aggregate_runs(name, seed, [run], reference, max_updates=100)
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1
    assert set(summary["metrics"]) == {entry[0] for entry in metrics.END_TO_END}
    assert all(cell["value"] > 0 for cell in summary["metrics"].values())

    traced = measure.trace_repeat(name, seed, tmp_path, out_dir=tmp_path / "out", max_updates=100)
    summary = cli.aggregate_trace(name, seed, traced, reference, max_updates=100)
    assert summary["correct"], summary["problems"]
    assert set(summary["metrics"]) == {entry[0] for entry in metrics.PER_LAYER}
    assert summary["metrics"]["bench.reconcile_gap_pct"]["value"] <= cli.RECONCILE_LIMIT_PCT
    spans = [json.loads(line) for line in (tmp_path / "out" / "spans.jsonl").open()]
    assert {"id", "name", "start", "end", "parent", "tick"} == set(spans[0])

    bad = measure.measure_repeat(name, seed, tmp_path, max_updates=100, corrupt=True)
    summary = cli.aggregate_runs(name, seed, [bad], reference, max_updates=100)
    assert not summary["correct"] and summary["failed"] >= 1


def test_a_blown_guard_fails_the_repeats_operations():
    reference = {"error": "time guard: no result within 1s"}
    summary = cli.aggregate_runs("skew_churn", 5, [{"error": "memory guard"}], reference, max_updates=100)
    assert not summary["correct"] and summary["metrics"] == {}
    assert summary["failed"] >= summary["attempted"] >= 1


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def test_seed_relabels_without_changing_structure():
    workload = workloads.WORKLOADS["skew_churn"]
    first, second = workloads.generate(workload, 1), workloads.generate(workload, 2)
    again = workloads.generate(workload, 1)
    assert first.fingerprint == again.fingerprint != second.fingerprint
    assert first.structure_fingerprint == second.structure_fingerprint
    shape = lambda inputs: [  # noqa: E731
        [(u.kind, u.edge.label, len(u.edge.source), len(u.edge.target)) for u in tick]
        for tick in inputs.ticks
    ]
    assert shape(first) == shape(second)
    mapping = workloads.relabelling([f"n{i}" for i in range(120)] + ["person7", "person9"], 3)
    assert sorted(mapping) == sorted(mapping.values())
    assert all(
        len(old) == len(new) and old.rstrip("0123456789") == new.rstrip("0123456789")
        for old, new in mapping.items()
    )


def test_pins_cover_every_workload():
    pins = verify.load_pins()
    assert set(pins) == set(workloads.WORKLOADS)
    for name, workload in workloads.WORKLOADS.items():
        if workload.stack == "bare":  # cheap to regenerate inside tier-1
            inputs = workloads.generate(workload, workloads.DEFAULT_SEED)
            assert pins[name]["fingerprint"] == inputs.fingerprint
            assert pins[name]["structure_fingerprint"] == inputs.structure_fingerprint


# ----------------------------------------------------------------------
# 200-update smoke of every stack
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", workloads.workload_names())
def test_stack_smoke(name, tmp_path):
    inputs = workloads.generate(workloads.WORKLOADS[name], 3).prefix(200)
    stack = driver.build_stack(inputs, tmp_path / "stack")
    try:
        record = driver.closed_loop(stack, inputs)
        epilogue = driver.checkpoint_and_recover(stack, inputs)
    finally:
        stack.close()
    assert len(record.tick_latencies) == len(inputs.ticks)
    assert len(record.read_latencies) == inputs.num_reads
    assert epilogue["recovered_ok"] and epilogue["disk_bytes"] > 0 and epilogue["recover_s"] > 0
    state, muted, _, _ = verify.fold_frames(record.frames, record.frame_ticks, inputs, 1)
    assert verify.fold_matches_final(state, muted, epilogue["final_answers"], inputs)
    if inputs.workload.stack != "bare":
        digest, _ = verify.reference_digest(inputs, tmp_path / "reference")
        assert digest == verify.frames_digest(record.lines)
