"""Engine registry: build any of the eight registered engines by name.

The benchmark harness, the examples, and the tests all construct engines
through this registry so that the set of algorithms under evaluation is
defined in exactly one place.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from .baselines.graphdb_engine import GraphDBEngine
from .baselines.inc import INCEngine, INCPlusEngine
from .baselines.inv import INVEngine, INVPlusEngine
from .baselines.naive import NaiveEngine
from .core.engine import ContinuousEngine
from .core.tric import TRICEngine, TRICPlusEngine
from .graph.errors import EngineError

__all__ = [
    "ENGINE_FACTORIES",
    "ENGINE_STRATEGIES",
    "PAPER_ENGINES",
    "CLUSTERING_ENGINES",
    "ANSWER_MATERIALISING_ENGINES",
    "available_engines",
    "create_engine",
    "create_engines",
    "create_sharded_engine",
]

#: Engine name -> zero-argument-friendly factory (keyword args forwarded).
ENGINE_FACTORIES: Dict[str, Callable[..., ContinuousEngine]] = {
    "TRIC": TRICEngine,
    "TRIC+": TRICPlusEngine,
    "INV": INVEngine,
    "INV+": INVPlusEngine,
    "INC": INCEngine,
    "INC+": INCPlusEngine,
    "GraphDB": GraphDBEngine,
    "Naive": NaiveEngine,
}

#: One-line strategy of each engine — the re-differentiated matrix surfaced
#: by ``repro-bench --list-engines`` (base engines probe existence and join
#: on demand; ``+`` engines additionally materialise polled answer sets).
ENGINE_STRATEGIES: Dict[str, str] = {
    "TRIC": "trie-clustered covering paths, delta joins, witness-probe notifications",
    "TRIC+": "TRIC + maintained answer relations (O(answer) matches_of, O(1) invalidation)",
    "INV": "inverted edge indexes, full path re-materialization per update",
    "INV+": "INV + cached answer sets (patched on additions, recomputed on deletions)",
    "INC": "INV indexes with update-seeded incremental path joins",
    "INC+": "INC + cached answer sets (patched on additions, recomputed on deletions)",
    "GraphDB": "embedded property-graph store, affected queries re-executed per batch",
    "Naive": "full re-evaluation oracle (correctness reference)",
}

#: The seven algorithms compared throughout the paper's evaluation.
PAPER_ENGINES = ("TRIC", "TRIC+", "INV", "INV+", "INC", "INC+", "GraphDB")

#: The engines that exploit clustering / trie sharing.
CLUSTERING_ENGINES = ("TRIC", "TRIC+")

#: The re-differentiated ``+`` tier: base algorithm + maintained answer
#: materialisation for ``matches_of`` (see ``repro.matching.answers``).
ANSWER_MATERIALISING_ENGINES = ("TRIC+", "INV+", "INC+")


def available_engines() -> List[str]:
    """Names of every engine the registry can build."""
    return list(ENGINE_FACTORIES)


def create_engine(name: str, **kwargs) -> ContinuousEngine:
    """Instantiate the engine called ``name`` (e.g. ``"TRIC+"``).

    Keyword arguments (such as ``injective=True``) are forwarded to the
    engine constructor.
    """
    factory = ENGINE_FACTORIES.get(name)
    if factory is None:
        raise EngineError(
            f"unknown engine {name!r}; available engines: {', '.join(ENGINE_FACTORIES)}"
        )
    return factory(**kwargs)


def create_engines(names=PAPER_ENGINES, **kwargs) -> Dict[str, ContinuousEngine]:
    """Instantiate several engines at once, keyed by name."""
    return {name: create_engine(name, **kwargs) for name in names}


def create_sharded_engine(
    name: str,
    num_shards: int = 1,
    *,
    assignment: str = "hash",
    executor: str = "serial",
    journal_dir: "str | None" = None,
    snapshot_every: "int | None" = None,
    journal_fsync: bool = True,
    replicas: int = 0,
    respawn_window: float = 60.0,
    **kwargs,
) -> ContinuousEngine:
    """Engine ``name``, sharded across ``num_shards`` instances when > 1.

    With ``num_shards == 1`` (and no replicas) this is exactly
    :func:`create_engine`; otherwise the query database is partitioned
    across independent engine instances behind a
    :class:`~repro.pubsub.sharding.ShardedEngineGroup` (``assignment`` is
    ``"hash"`` or ``"label"``; ``executor`` is ``"serial"`` or
    ``"process"`` and decides how a batch fans out to the relevant
    shards).  Keyword arguments are forwarded to the underlying engine
    factory either way.

    ``replicas`` (process executor only) attaches that many replica
    workers to every shard: they are built from the shard's recovery
    source, tail its acknowledged-ops log, absorb ``matches_of`` /
    ``has_matches`` / ``describe`` traffic, and stand in for a dead
    primary via promotion.  A single-shard engine with replicas is still
    built as a (one-shard) group, since replication lives in the shard
    supervisor.  ``respawn_window`` bounds how long (seconds) worker
    deaths count against the shard's respawn budget.

    ``journal_dir`` makes the result durable: the engine (or the whole
    sharded group) is wrapped in a
    :class:`~repro.persistence.durable.DurableEngine` that write-ahead
    journals every registration and micro-batch into that directory
    (fsync-on-batch unless ``journal_fsync`` is off) and snapshots the
    full state every ``snapshot_every`` records, so
    :meth:`DurableEngine.recover <repro.persistence.durable.DurableEngine.recover>`
    resumes byte-identically after a crash.
    """
    from .pubsub.sharding import ShardedEngineGroup, check_group_options

    check_group_options(num_shards, assignment, executor, replicas)
    if journal_dir is not None:
        from .persistence import DurableEngine

        engine = create_sharded_engine(
            name,
            num_shards,
            assignment=assignment,
            executor=executor,
            replicas=replicas,
            respawn_window=respawn_window,
            **kwargs,
        )
        return DurableEngine(
            engine, journal_dir, snapshot_every=snapshot_every, fsync=journal_fsync
        )
    if num_shards == 1 and not replicas:
        return create_engine(name, **kwargs)
    if name not in ENGINE_FACTORIES:
        raise EngineError(
            f"unknown engine {name!r}; available engines: {', '.join(ENGINE_FACTORIES)}"
        )
    injective = bool(kwargs.pop("injective", False))
    return ShardedEngineGroup(
        name,
        num_shards,
        assignment=assignment,
        executor=executor,
        injective=injective,
        engine_kwargs=kwargs,
        replicas=replicas,
        respawn_window=respawn_window,
    )
