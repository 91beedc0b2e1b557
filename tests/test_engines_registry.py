"""Tests for the engine registry."""

from __future__ import annotations

import pytest

from repro import (
    CLUSTERING_ENGINES,
    ENGINE_FACTORIES,
    PAPER_ENGINES,
    available_engines,
    create_engine,
    create_engines,
    create_sharded_engine,
)
from repro.core.engine import ContinuousEngine
from repro.graph.errors import EngineError


class TestRegistry:
    def test_all_paper_engines_are_available(self):
        assert set(PAPER_ENGINES) <= set(available_engines())
        assert set(CLUSTERING_ENGINES) <= set(PAPER_ENGINES)

    def test_create_engine_returns_named_instances(self):
        for name in available_engines():
            engine = create_engine(name)
            assert isinstance(engine, ContinuousEngine)
            assert engine.name == name

    def test_create_engine_forwards_kwargs(self):
        engine = create_engine("TRIC", injective=True)
        assert engine.injective

    def test_unknown_engine_raises(self):
        with pytest.raises(EngineError):
            create_engine("Postgres")

    def test_create_engines_builds_a_mapping(self):
        engines = create_engines(("TRIC", "INV"))
        assert set(engines) == {"TRIC", "INV"}
        assert engines["TRIC"].name == "TRIC"

    def test_default_set_is_the_paper_set(self):
        engines = create_engines()
        assert set(engines) == set(PAPER_ENGINES)

    def test_registry_has_exactly_the_documented_engines(self):
        assert set(ENGINE_FACTORIES) == {
            "TRIC",
            "TRIC+",
            "INV",
            "INV+",
            "INC",
            "INC+",
            "GraphDB",
            "Naive",
        }


class TestCreateShardedEngine:
    @pytest.mark.parametrize(
        "args, kwargs",
        [
            ((0,), {}),
            ((-2,), {}),
            ((1,), {"replicas": -1}),
            ((1,), {"executor": "thread"}),
            ((1,), {"assignment": "bogus"}),
        ],
        ids=[
            "zero-shards",
            "negative-shards",
            "negative-replicas",
            "thread-executor",
            "bogus-assignment",
        ],
    )
    def test_invalid_options_raise_even_for_one_shard(self, args, kwargs):
        with pytest.raises(EngineError):
            create_sharded_engine("TRIC+", *args, **kwargs)
