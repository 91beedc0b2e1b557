"""The synthetic workload generator: determinism, validity, CLI plumbing.

The generator's whole value is its determinism contract — identical
:class:`~repro.bench.workloads.WorkloadSpec` + seed must produce a
byte-identical stream, query set and churn plan on every run and every
Python version (generation draws only from ``random.Random.random()``,
the one stdlib primitive with a cross-version stability guarantee).  The
property tests here re-generate under hypothesis-sampled specs, and the
golden fingerprints pin the published scenarios so an accidental change
to the sampling order (which would silently re-draw every committed BENCH
number) fails loudly.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.runner import main
from repro.bench.workloads import (
    SCENARIOS,
    WorkloadSpec,
    generate_workload,
    run_workload,
    scenario_spec,
)
from repro.graph.errors import BenchmarkError
from repro.streams.metrics import TimingStats


#: SHA-256 of each published scenario's canonical serialisation.  These
#: are the cross-run *and* cross-Python-version determinism pins: if one
#: changes, every committed ``scenario_matrix`` number regenerated after
#: that change silently measures a different workload.
GOLDEN_FINGERPRINTS = {
    "insert_heavy": "5c6eef6c793ee044a3b71f268ff3cb2ebc97d57283cff706c51911a9894bd767",
    "delete_heavy": "1dac86014d2d36ea8435a9016a2236a08f5b1e4f7e16329959c372e9a96a2734",
    "bursty": "f2b101a79ca041894193124b38d5e660a8668ebd34316151713149acd94aa546",
    "high_skew": "55764725e408ab18d94bd9bb30e2f1bed663681671b8349242dc0befa0e8ea03",
    "churn_heavy": "23842ebbb70759992dc169c7016c9fa4d322b2c77d4e8240df88013837f5dcf8",
    "soak": "63e936e7a07faef38b85af98354db862cbff33754f881b07e2ce3103684191da",
}


#: Hypothesis strategy over the generator's knob space (kept small enough
#: that a generated workload is cheap, wide enough to cross every branch:
#: deletions on/off, skew on/off, bursts on/off, churn on/off, literal
#: pinning up to always-on).
workload_specs = st.builds(
    WorkloadSpec,
    seed=st.integers(min_value=0, max_value=2**32),
    num_updates=st.integers(min_value=1, max_value=300),
    num_queries=st.integers(min_value=1, max_value=12),
    num_vertices=st.integers(min_value=2, max_value=60),
    num_labels=st.integers(min_value=1, max_value=6),
    delete_ratio=st.sampled_from([0.0, 0.2, 0.45, 0.9]),
    skew=st.sampled_from([0.0, 0.6, 1.5]),
    burstiness=st.sampled_from([0.0, 0.3]),
    mean_batch_size=st.integers(min_value=1, max_value=8),
    chain_weight=st.sampled_from([0.0, 1.0, 3.0]),
    star_weight=st.sampled_from([0.0, 1.0]),
    cycle_weight=st.sampled_from([1.0, 2.0]),
    query_length_mean=st.integers(min_value=1, max_value=4),
    query_length_spread=st.integers(min_value=0, max_value=2),
    label_selectivity=st.sampled_from([0.25, 0.5, 1.0]),
    literal_ratio=st.sampled_from([0.0, 0.3, 1.0]),
    subscription_churn=st.sampled_from([0.0, 0.5]),
)


class TestGeneratorDeterminism:
    @settings(max_examples=40, deadline=None)
    @given(workload_specs)
    def test_identical_spec_is_byte_identical(self, spec):
        """Same spec + seed => byte-identical workload, fingerprint included."""
        first = generate_workload(spec)
        second = generate_workload(spec)
        assert first.serialize() == second.serialize()
        assert first.fingerprint() == second.fingerprint()

    @settings(max_examples=15, deadline=None)
    @given(workload_specs)
    def test_different_seed_changes_the_workload(self, spec):
        """The seed is live: a different seed re-draws the stream."""
        sibling = spec.with_overrides(seed=spec.seed + 1)
        assert generate_workload(spec).fingerprint() != generate_workload(sibling).fingerprint()

    def test_golden_scenario_fingerprints(self):
        """The published scenarios are pinned byte for byte.

        This is the cross-Python-version half of the determinism
        property: CI runs this file on multiple interpreter versions
        against the same constants.
        """
        assert set(GOLDEN_FINGERPRINTS) == set(SCENARIOS)
        for name, expected in GOLDEN_FINGERPRINTS.items():
            assert generate_workload(SCENARIOS[name]).fingerprint() == expected, name


class TestGeneratedStreamValidity:
    @settings(max_examples=25, deadline=None)
    @given(workload_specs)
    def test_stream_shape_and_tick_plan(self, spec):
        """The stream has the requested length, a consistent tick plan, and
        every deletion cancels an edge that is live at that point."""
        workload = generate_workload(spec)
        assert len(workload.stream) == spec.num_updates
        assert sum(workload.batches) == spec.num_updates
        assert all(size >= 1 for size in workload.batches)
        assert sum(len(tick) for tick in workload.iter_ticks()) == spec.num_updates
        live: dict = {}
        for update in workload.stream:
            key = (update.edge.label, update.edge.source, update.edge.target)
            if update.is_addition:
                live[key] = live.get(key, 0) + 1
            else:
                assert live.get(key, 0) > 0, f"deletion of non-live edge {key}"
                live[key] -= 1

    @settings(max_examples=25, deadline=None)
    @given(workload_specs)
    def test_query_database_validity(self, spec):
        """Every generated pattern is well-formed with at least one variable."""
        workload = generate_workload(spec)
        assert len(workload.queries) == spec.num_queries
        assert len({pattern.query_id for pattern in workload.queries}) == spec.num_queries
        for pattern in workload.queries:
            assert pattern.num_edges >= 1
            assert pattern.variables(), f"{pattern.query_id} has no variables"

    @settings(max_examples=25, deadline=None)
    @given(workload_specs)
    def test_churn_plan_is_consistent(self, spec):
        """Churn events target real queries/ticks and always apply cleanly
        (never unsubscribe an unsubscribed query or double-subscribe)."""
        workload = generate_workload(spec)
        if spec.subscription_churn == 0.0:
            assert workload.churn == ()
            return
        query_ids = {pattern.query_id for pattern in workload.queries}
        subscribed: set = set()
        for event in workload.churn:
            assert 0 <= event.tick < workload.num_ticks
            assert event.query_id in query_ids
            if event.action == "subscribe":
                assert event.query_id not in subscribed
                subscribed.add(event.query_id)
            else:
                assert event.action == "unsubscribe"
                assert event.query_id in subscribed
                subscribed.discard(event.query_id)


class TestSpecValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"num_updates": 0},
            {"num_queries": 0},
            {"num_vertices": 1},
            {"num_labels": 0},
            {"delete_ratio": -0.1},
            {"delete_ratio": 0.95},
            {"skew": -1.0},
            {"burstiness": 1.0},
            {"mean_batch_size": 0},
            {"chain_weight": 0.0, "star_weight": 0.0, "cycle_weight": 0.0},
            {"star_weight": -1.0},
            {"query_length_mean": 0},
            {"query_length_spread": -1},
            {"label_selectivity": 0.0},
            {"label_selectivity": 1.5},
            {"literal_ratio": -0.5},
            {"subscription_churn": 2.0},
        ],
    )
    def test_bad_knobs_raise(self, overrides):
        with pytest.raises(BenchmarkError):
            WorkloadSpec(**overrides)

    def test_scaled_applies_floors(self):
        tiny = WorkloadSpec(num_updates=1000, num_queries=50, num_vertices=500).scaled(0.001)
        assert tiny.num_updates == 200
        assert tiny.num_queries == 10
        assert tiny.num_vertices == 40
        with pytest.raises(BenchmarkError):
            WorkloadSpec().scaled(0.0)

    def test_scenario_spec_lookup(self):
        assert scenario_spec("soak").name == "soak"
        with pytest.raises(BenchmarkError, match="available workloads"):
            scenario_spec("nope")


class TestWorkloadRun:
    def test_run_produces_metrics_and_transcript(self):
        workload = generate_workload(WorkloadSpec(seed=3, num_updates=120, num_queries=6))
        result = run_workload(workload, "TRIC+")
        assert result.num_updates == 120
        assert result.completed
        assert result.updates_per_s > 0
        assert result.answering.count == workload.num_ticks
        assert result.transcript
        assert len(result.transcript_digest()) == 64

    def test_sharded_run_matches_unsharded(self):
        workload = generate_workload(
            WorkloadSpec(seed=9, num_updates=150, num_queries=8, delete_ratio=0.3)
        )
        unsharded = run_workload(workload, "INC+")
        sharded = run_workload(workload, "INC+", shards=2)
        assert unsharded.transcript == sharded.transcript


class TestRunnerCli:
    def test_list_workloads(self, capsys):
        assert main(["--list-workloads"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out

    def test_unknown_workload_exits_2_with_options(self, capsys):
        assert main(["--workload", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "unknown workload" in err
        assert "insert_heavy" in err

    def test_unknown_engine_exits_2_with_options(self, capsys):
        assert main(["--workload", "insert_heavy", "--engines", "TRIC,Bogus"]) == 2
        err = capsys.readouterr().err
        assert "unknown engine" in err
        assert "TRIC+" in err

    def test_workload_run_is_oracle_checked(self, capsys):
        code = main(
            ["--workload", "insert_heavy", "--scale", "0.01", "--engines", "TRIC+,Naive"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "identical" in out
        assert "DIVERGED" not in out


class TestTimingPercentiles:
    def test_p50_p99(self):
        stats = TimingStats()
        stats.extend((index + 1) / 1000.0 for index in range(100))  # 1ms..100ms
        assert stats.p50_ms == pytest.approx(50.0, abs=1.0)
        assert stats.p95_ms == pytest.approx(95.0, abs=1.0)
        assert stats.p99_ms == pytest.approx(99.0, abs=1.0)
        summary = stats.summary()
        assert {"p50_ms", "p95_ms", "p99_ms"} <= set(summary)

    def test_empty_stats_are_zero(self):
        stats = TimingStats()
        assert stats.p50_ms == 0.0
        assert stats.p99_ms == 0.0
