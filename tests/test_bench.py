"""Tests for the benchmark harness (configs, experiments, figures, CLI)."""

from __future__ import annotations

import pytest

from repro.bench import (
    EXPERIMENTS,
    FIGURES,
    ExperimentConfig,
    bench_scale_from_env,
    build_stream,
    build_workload,
    experiment_ids,
    render_experiment,
    run_experiment,
)
from repro.bench.runner import build_parser, main
from repro.graph.errors import BenchmarkError


class TestExperimentConfig:
    def test_scaling_applies_to_sizes_and_budget(self):
        config = ExperimentConfig("x", num_updates=10_000, num_queries=1_000, time_budget_s=100.0)
        scaled = config.with_scale(0.1)
        assert scaled.scaled_num_updates == 1_000
        assert scaled.scaled_num_queries == 100
        assert scaled.scaled_time_budget_s == pytest.approx(10.0)

    def test_scaling_has_floors(self):
        config = ExperimentConfig("x").with_scale(0.0001)
        assert config.scaled_num_updates >= 200
        assert config.scaled_num_queries >= 20
        assert config.scaled_time_budget_s >= 2.0

    def test_invalid_scale_rejected(self):
        with pytest.raises(BenchmarkError):
            ExperimentConfig("x", scale=0)

    def test_with_overrides(self):
        config = ExperimentConfig("x").with_overrides(dataset="taxi", avg_edges=3)
        assert config.dataset == "taxi"
        assert config.avg_edges == 3

    def test_describe_is_flat(self):
        description = ExperimentConfig("x").describe()
        assert description["experiment"] == "x"
        assert "updates" in description


class TestScaleFromEnv:
    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert bench_scale_from_env(0.5) == 0.5

    def test_parses_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.25")
        assert bench_scale_from_env() == 0.25

    def test_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "huge")
        with pytest.raises(BenchmarkError):
            bench_scale_from_env()
        monkeypatch.setenv("REPRO_BENCH_SCALE", "-1")
        with pytest.raises(BenchmarkError):
            bench_scale_from_env()


class TestWorkloadBuilders:
    def test_build_stream_for_every_dataset(self):
        for dataset in ("snb", "taxi", "biogrid"):
            stream = build_stream(dataset, 300, seed=1)
            assert len(stream) == 300

    def test_build_stream_unknown_dataset(self):
        with pytest.raises(BenchmarkError):
            build_stream("imdb", 300, seed=1)

    def test_build_workload(self):
        stream = build_stream("snb", 400, seed=1)
        workload = build_workload(
            stream, num_queries=25, avg_edges=4, selectivity=0.2, overlap=0.3, seed=2
        )
        assert len(workload) == 25


class TestExperimentRegistry:
    def test_every_figure_has_an_experiment_and_a_spec(self):
        expected = {
            "fig12a", "fig12b", "fig12c", "fig12d", "fig12e", "fig12f",
            "fig13a", "fig13b", "fig13c", "fig14a", "fig14b", "fig14c",
        }
        assert set(experiment_ids()) == expected
        assert set(FIGURES) == expected

    def test_unknown_experiment_raises(self):
        with pytest.raises(BenchmarkError):
            run_experiment("fig99")

    def test_registry_configs_use_known_datasets(self):
        for config, _ in EXPERIMENTS.values():
            assert config.dataset in {"snb", "taxi", "biogrid"}


class TestRunningASmallExperiment:
    @pytest.fixture(scope="class")
    def tiny_result(self):
        # A deliberately tiny run exercising the full experiment pipeline.
        return run_experiment(
            "fig12a",
            scale=0.01,
            engines=("TRIC+", "INV"),
            num_points=2,
            time_budget_s=500.0,
        )

    def test_result_structure(self, tiny_result):
        assert tiny_result.experiment_id == "fig12a"
        assert set(tiny_result.engines()) == {"TRIC+", "INV"}
        assert len(tiny_result.x_values()) == 2
        assert all(point.answering_ms >= 0 for point in tiny_result.points)

    def test_series_and_table_rendering(self, tiny_result):
        series = tiny_result.series()
        assert set(series) == {"TRIC+", "INV"}
        table = tiny_result.to_table()
        assert "fig12a" in table and "TRIC+" in table

    def test_render_experiment_includes_paper_context(self, tiny_result):
        text = render_experiment(tiny_result)
        assert "paper" in text
        assert "configuration:" in text

    @pytest.mark.parametrize("experiment_id", ["fig12a", "fig12b"])
    def test_sweeps_forward_the_shard_executor(self, monkeypatch, experiment_id):
        """Graph-size (fig12a) and parameter (fig12b) sweeps both hand
        ``--executor`` to the sharded engine factory."""
        import repro.bench.experiments as experiments

        calls = []
        real = experiments.create_sharded_engine

        def recording(engine_name, shards, **kwargs):
            calls.append(kwargs)
            # Build serially: the test checks the forwarding, not the pool.
            return real(engine_name, shards, **dict(kwargs, executor="serial"))

        monkeypatch.setattr(experiments, "create_sharded_engine", recording)
        run_experiment(
            experiment_id,
            scale=0.01,
            engines=("TRIC",),
            num_points=1,
            shards=2,
            executor="process",
        )
        assert calls
        assert all(kwargs.get("executor") == "process" for kwargs in calls)

    def test_replay_engine_measures_memory_on_request(self):
        from repro.bench.experiments import _replay_engine

        stream = build_stream("snb", 200, seed=1)
        workload = build_workload(
            stream, num_queries=20, avg_edges=3, selectivity=0.2, overlap=0.3, seed=2
        )
        measured = _replay_engine(
            "TRIC+", workload, stream, time_budget_s=60.0, measure_memory=True
        )
        assert measured.completed
        assert measured.memory_bytes is not None and measured.memory_bytes > 0
        unmeasured = _replay_engine(
            "TRIC+", workload, stream, time_budget_s=60.0, measure_memory=False
        )
        assert unmeasured.memory_bytes is None

    def test_indexing_experiment(self):
        result = run_experiment(
            "fig13b", scale=0.01, engines=("TRIC", "INV"), num_points=2
        )
        assert result.metric == "indexing_ms_per_query"
        assert all(p.indexing_ms_per_query >= 0 for p in result.points)


class TestCLI:
    def test_list_option(self, capsys):
        assert main(["--list"]) == 0
        captured = capsys.readouterr()
        assert "fig12a" in captured.out

    def test_no_arguments_prints_help(self, capsys):
        assert main([]) == 2

    def test_unknown_experiment_is_an_error(self, capsys):
        assert main(["--experiment", "fig99"]) == 2

    def test_parser_accepts_scale_and_output(self, tmp_path):
        parser = build_parser()
        args = parser.parse_args(["-e", "fig12a", "--scale", "0.5", "--output", str(tmp_path)])
        assert args.experiments == ["fig12a"]
        assert args.scale == 0.5
