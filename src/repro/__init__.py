"""Continuous multi-query processing over graph streams.

A faithful, pure-Python reproduction of *"Efficient Continuous Multi-Query
Processing over Graph Streams"* (Zervakis et al., EDBT 2020): the TRIC /
TRIC+ trie-clustering engines, the INV / INC inverted-index baselines, an
embedded property-graph database baseline, synthetic dataset generators for
the paper's three workloads, and a benchmark harness regenerating every
figure of the paper's evaluation.

Quickstart
----------
>>> from repro import QueryBuilder, TRICEngine, add
>>> engine = TRICEngine()
>>> engine.register(
...     QueryBuilder("checkin")
...     .edge("knows", "?a", "?b")
...     .edge("checksIn", "?a", "?place")
...     .edge("checksIn", "?b", "?place")
...     .build()
... )
>>> engine.on_update(add("knows", "alice", "bob")) == frozenset()
True
>>> engine.on_update(add("checksIn", "alice", "rio")) == frozenset()
True
>>> sorted(engine.on_update(add("checksIn", "bob", "rio")))
['checkin']
"""

from .baselines import (
    GraphDBEngine,
    INCEngine,
    INCPlusEngine,
    INVEngine,
    INVPlusEngine,
    NaiveEngine,
)
from .core import BatchReport, ContinuousEngine, TRICEngine, TRICPlusEngine
from .engines import (
    ANSWER_MATERIALISING_ENGINES,
    CLUSTERING_ENGINES,
    ENGINE_FACTORIES,
    ENGINE_STRATEGIES,
    PAPER_ENGINES,
    available_engines,
    create_engine,
    create_engines,
    create_sharded_engine,
)
from .graph import (
    Edge,
    Graph,
    GraphStream,
    ReproError,
    Update,
    UpdateKind,
    add,
    delete,
)
from .persistence import (
    DeltaJournal,
    DurableEngine,
    FaultInjector,
    InjectedCrash,
)
from .pubsub import (
    MatchDelta,
    OverflowPolicy,
    ShardedEngineGroup,
    Subscription,
    SubscriptionBroker,
)
from .query import (
    CoveringPath,
    QueryBuilder,
    QueryGraphPattern,
    QueryWorkload,
    QueryWorkloadConfig,
    QueryWorkloadGenerator,
    covering_paths,
    generate_workload,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # graph model
    "Edge",
    "Update",
    "UpdateKind",
    "Graph",
    "GraphStream",
    "add",
    "delete",
    "ReproError",
    # query model
    "QueryBuilder",
    "QueryGraphPattern",
    "CoveringPath",
    "covering_paths",
    "QueryWorkload",
    "QueryWorkloadConfig",
    "QueryWorkloadGenerator",
    "generate_workload",
    # engines
    "BatchReport",
    "ContinuousEngine",
    "TRICEngine",
    "TRICPlusEngine",
    "INVEngine",
    "INVPlusEngine",
    "INCEngine",
    "INCPlusEngine",
    "GraphDBEngine",
    "NaiveEngine",
    "ENGINE_FACTORIES",
    "ENGINE_STRATEGIES",
    "PAPER_ENGINES",
    "CLUSTERING_ENGINES",
    "ANSWER_MATERIALISING_ENGINES",
    "available_engines",
    "create_engine",
    "create_engines",
    "create_sharded_engine",
    # pub/sub serving layer
    "SubscriptionBroker",
    "Subscription",
    "MatchDelta",
    "OverflowPolicy",
    "ShardedEngineGroup",
    # durability & crash recovery
    "DurableEngine",
    "DeltaJournal",
    "FaultInjector",
    "InjectedCrash",
]
