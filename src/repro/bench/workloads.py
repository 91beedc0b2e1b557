"""Seeded synthetic workload generator + the scenario matrix.

Every committed benchmark so far replays the same SNB-derived streams, so
"fast" has meant "fast on fig12a".  This module opens the workload space:
a :class:`WorkloadSpec` is a declarative, fully deterministic description
of a synthetic graph stream *and* its query set *and* its subscription
churn plan, controlled by the knobs that probe the system's known soft
spots:

``delete_ratio``
    fraction of stream updates that delete a currently-live edge (the
    lazy-deletion caches of INV+/INC+ and the counting maintenance of
    TRIC are exercised here),
``skew``
    Zipf exponent of the vertex-endpoint distribution — high skew
    concentrates the stream on a few hub vertices, growing dense
    adjacency buckets,
``burstiness`` / ``mean_batch_size``
    the micro-batch (tick) size distribution: ``0`` replays constant
    batches, higher values interleave long bursts with idle single-update
    ticks,
``query shape / length``
    chain vs star vs cycle weights and the edge-count distribution of the
    generated query database,
``label_selectivity``
    the fraction of the label alphabet queries draw from — low values
    concentrate every query on a few hot labels (worst case for
    label-affinity shard assignment and affected-query reports),
``subscription_churn``
    probability per tick of a mid-stream subscribe/unsubscribe event
    (the broker's watch set never settles).

Determinism is a *contract*, not an accident: generation draws exclusively
from ``random.Random.random()`` — the one primitive the stdlib guarantees
stable across Python versions — so an identical spec produces a
byte-identical workload on every run and every interpreter
(:meth:`SyntheticWorkload.fingerprint` is the hash the property tests pin).

On top of the generator, :data:`SCENARIOS` names the published scenario
matrix rows (insert-heavy, delete-heavy, bursty, high-skew, churn-heavy
subscriptions, soak) and :func:`run_workload` replays one workload through
one engine — broker-subscribed when the spec churns subscriptions —
measuring throughput and p50/p95/p99 tick latency and capturing an
*oracle transcript* (per-tick notified ids + final answers of every query,
canonically serialised) so every engine x scenario cell can be asserted
byte-identical to the string oracle (``Naive``), the golden-reference
principle of the benchmark design notes in SNIPPETS.md.
"""

from __future__ import annotations

import hashlib
import json
import random
from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..graph.elements import Update, add, delete
from ..graph.errors import BenchmarkError
from ..graph.stream import GraphStream
from ..pubsub.broker import SubscriptionBroker
from ..query.pattern import QueryGraphPattern
from ..streams.runner import ReplayResult, replay

__all__ = [
    "WorkloadSpec",
    "ChurnEvent",
    "SyntheticWorkload",
    "SCENARIOS",
    "scenario_names",
    "scenario_spec",
    "generate_workload",
    "run_workload",
]

_SHAPES = ("chain", "star", "cycle")


# ----------------------------------------------------------------------
# Deterministic sampling primitives
# ----------------------------------------------------------------------
# Only Random.random() is guaranteed stable across Python versions, so
# every draw below is derived from it (randrange/choice/shuffle are
# explicitly *not* covered by that guarantee).
def _rand_index(rng: random.Random, n: int) -> int:
    """Uniform index in ``[0, n)`` derived from ``rng.random()`` alone."""
    return min(int(rng.random() * n), n - 1)


class _ZipfSampler:
    """Zipf-distributed index sampler over ``0..n-1`` via inverse CDF.

    ``skew = 0`` degenerates to uniform; larger exponents concentrate the
    mass on the low indexes.  Weights are precomputed once so sampling is
    one ``random()`` plus one bisect.
    """

    def __init__(self, n: int, skew: float) -> None:
        if n <= 0:
            raise BenchmarkError("sampler population must be positive")
        self._n = n
        if skew <= 0.0:
            self._cumulative: Optional[List[float]] = None
            return
        cumulative: List[float] = []
        total = 0.0
        for index in range(n):
            total += 1.0 / (index + 1) ** skew
            cumulative.append(total)
        self._cumulative = cumulative

    def sample(self, rng: random.Random) -> int:
        if self._cumulative is None:
            return _rand_index(rng, self._n)
        target = rng.random() * self._cumulative[-1]
        return min(bisect_right(self._cumulative, target), self._n - 1)


# ----------------------------------------------------------------------
# Specification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadSpec:
    """Declarative description of one synthetic workload.

    Instances are immutable and hashable; :func:`generate_workload` maps a
    spec to a byte-identical :class:`SyntheticWorkload` on every run.
    """

    #: Scenario name (reports, BENCH sections, ``repro-bench --workload``).
    name: str = "custom"
    #: Master seed; every stream/query/churn draw derives from it.
    seed: int = 7
    #: Stream length in updates.
    num_updates: int = 2_000
    #: Query-database size.
    num_queries: int = 40
    #: Vertex pool size (identifiers ``n0`` .. ``n{V-1}``).
    num_vertices: int = 400
    #: Edge-label alphabet size (labels ``rel0`` .. ``rel{L-1}``).
    num_labels: int = 8
    #: Fraction of updates that delete a live edge (0 = insert-only).
    delete_ratio: float = 0.0
    #: Zipf exponent of the endpoint-vertex distribution (0 = uniform).
    skew: float = 0.0
    #: Tick-size dispersion in [0, 1): probability that a tick is a burst
    #: of ``2..10 x mean_batch_size`` updates instead of ``1..mean`` ones.
    burstiness: float = 0.0
    #: Mean updates per tick (micro-batch) when ``burstiness`` is 0.
    mean_batch_size: int = 1
    #: Relative weights of the three query classes.
    chain_weight: float = 1.0
    star_weight: float = 1.0
    cycle_weight: float = 1.0
    #: Query sizes are uniform in ``[mean - spread, mean + spread]``.
    query_length_mean: int = 3
    query_length_spread: int = 1
    #: Fraction of the label alphabet a query's edges draw from (low =
    #: every query concentrated on the same few hot labels).
    label_selectivity: float = 1.0
    #: Probability that a query vertex is pinned to a literal identifier.
    literal_ratio: float = 0.2
    #: Probability per tick of one subscribe/unsubscribe churn event.
    subscription_churn: float = 0.0
    #: One-line description shown by ``repro-bench --list-workloads``.
    description: str = ""

    def __post_init__(self) -> None:
        if self.num_updates < 1:
            raise BenchmarkError("num_updates must be positive")
        if self.num_queries < 1:
            raise BenchmarkError("num_queries must be positive")
        if self.num_vertices < 2:
            raise BenchmarkError("num_vertices must be at least 2")
        if self.num_labels < 1:
            raise BenchmarkError("num_labels must be positive")
        if not 0.0 <= self.delete_ratio <= 0.9:
            raise BenchmarkError("delete_ratio must lie in [0, 0.9]")
        if self.skew < 0.0:
            raise BenchmarkError("skew must not be negative")
        if not 0.0 <= self.burstiness < 1.0:
            raise BenchmarkError("burstiness must lie in [0, 1)")
        if self.mean_batch_size < 1:
            raise BenchmarkError("mean_batch_size must be at least 1")
        weights = (self.chain_weight, self.star_weight, self.cycle_weight)
        if any(w < 0 for w in weights) or sum(weights) <= 0:
            raise BenchmarkError("query shape weights must be non-negative and not all zero")
        if self.query_length_mean < 1:
            raise BenchmarkError("query_length_mean must be at least 1")
        if self.query_length_spread < 0:
            raise BenchmarkError("query_length_spread must not be negative")
        if not 0.0 < self.label_selectivity <= 1.0:
            raise BenchmarkError("label_selectivity must lie in (0, 1]")
        if not 0.0 <= self.literal_ratio <= 1.0:
            raise BenchmarkError("literal_ratio must lie in [0, 1]")
        if not 0.0 <= self.subscription_churn <= 1.0:
            raise BenchmarkError("subscription_churn must lie in [0, 1]")

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def scaled(self, scale: float) -> "WorkloadSpec":
        """Copy of this spec with stream/query/vertex sizes rescaled.

        The same floors as :class:`~repro.bench.configs.ExperimentConfig`
        apply so smoke scales stay meaningful.
        """
        if scale <= 0:
            raise BenchmarkError("scale must be positive")
        return replace(
            self,
            num_updates=max(200, int(self.num_updates * scale)),
            num_queries=max(10, int(self.num_queries * scale)),
            num_vertices=max(40, int(self.num_vertices * scale)),
        )

    def with_overrides(self, **overrides) -> "WorkloadSpec":
        """Copy of this spec with arbitrary field overrides."""
        return replace(self, **overrides)

    def describe(self) -> Dict[str, object]:
        """Flat description used in reports and BENCH sections."""
        return {
            "name": self.name,
            "seed": self.seed,
            "updates": self.num_updates,
            "queries": self.num_queries,
            "vertices": self.num_vertices,
            "labels": self.num_labels,
            "delete_ratio": self.delete_ratio,
            "skew": self.skew,
            "burstiness": self.burstiness,
            "mean_batch_size": self.mean_batch_size,
            "shape_weights": [self.chain_weight, self.star_weight, self.cycle_weight],
            "query_length": [
                max(1, self.query_length_mean - self.query_length_spread),
                self.query_length_mean + self.query_length_spread,
            ],
            "label_selectivity": self.label_selectivity,
            "literal_ratio": self.literal_ratio,
            "subscription_churn": self.subscription_churn,
        }


@dataclass(frozen=True)
class ChurnEvent:
    """One mid-stream subscription change, anchored to a tick index.

    ``action`` is ``"subscribe"`` or ``"unsubscribe"``; the event applies
    *after* tick ``tick`` has been flushed.
    """

    tick: int
    action: str
    query_id: str


@dataclass
class SyntheticWorkload:
    """A generated workload: stream + tick plan + queries + churn plan."""

    spec: WorkloadSpec
    stream: GraphStream
    #: Updates per tick; sums to ``len(stream)``.
    batches: Tuple[int, ...]
    queries: List[QueryGraphPattern]
    churn: Tuple[ChurnEvent, ...] = ()

    @property
    def num_ticks(self) -> int:
        """Number of micro-batches the stream replays in."""
        return len(self.batches)

    def iter_ticks(self) -> Iterator[List[Update]]:
        """Yield the stream tick by tick, following the batch plan."""
        updates = list(self.stream)
        position = 0
        for size in self.batches:
            yield updates[position : position + size]
            position += size

    def churn_at(self, tick: int) -> List[ChurnEvent]:
        """The churn events that apply after ``tick`` (usually 0 or 1)."""
        return [event for event in self.churn if event.tick == tick]

    # ------------------------------------------------------------------
    # Canonical serialisation
    # ------------------------------------------------------------------
    def serialize(self) -> str:
        """Canonical JSON of the whole workload (the determinism surface)."""
        payload = {
            "spec": self.spec.describe(),
            "updates": [
                [
                    "+" if update.is_addition else "-",
                    update.edge.label,
                    update.edge.source,
                    update.edge.target,
                ]
                for update in self.stream
            ],
            "batches": list(self.batches),
            "queries": [
                [
                    pattern.query_id,
                    [
                        [edge.label, str(edge.source), str(edge.target)]
                        for edge in pattern.edges
                    ],
                ]
                for pattern in self.queries
            ],
            "churn": [
                [event.tick, event.action, event.query_id] for event in self.churn
            ],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def fingerprint(self) -> str:
        """SHA-256 of the canonical serialisation (pinned by tests)."""
        return hashlib.sha256(self.serialize().encode("utf-8")).hexdigest()

    def describe(self) -> Dict[str, object]:
        """Summary dictionary used in reports."""
        stats = self.stream.statistics()
        return {
            **self.spec.describe(),
            "ticks": self.num_ticks,
            "additions": stats.num_additions,
            "deletions": stats.num_deletions,
            "distinct_vertices": stats.num_vertices,
            "churn_events": len(self.churn),
            "fingerprint": self.fingerprint()[:16],
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SyntheticWorkload({self.spec.name!r}, updates={len(self.stream)}, "
            f"ticks={self.num_ticks}, queries={len(self.queries)})"
        )


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------
def _generate_stream(spec: WorkloadSpec, rng: random.Random) -> Tuple[List[Update], List[int]]:
    """Sample the update stream tick by tick, recording the tick plan.

    Deletions target a uniformly random *live* edge via swap-remove, so a
    delete always cancels exactly one earlier addition and the live-edge
    count is an invariant the tests can assert on.
    """
    vertex_sampler = _ZipfSampler(spec.num_vertices, spec.skew)
    updates: List[Update] = []
    batches: List[int] = []
    live: List[Tuple[str, str, str]] = []
    while len(updates) < spec.num_updates:
        if spec.burstiness > 0.0 and rng.random() < spec.burstiness:
            size = spec.mean_batch_size * (2 + _rand_index(rng, 9))
        else:
            size = 1 + _rand_index(rng, spec.mean_batch_size)
        size = min(size, spec.num_updates - len(updates))
        batches.append(size)
        for _ in range(size):
            if live and rng.random() < spec.delete_ratio:
                victim = _rand_index(rng, len(live))
                label, source, target = live[victim]
                live[victim] = live[-1]
                live.pop()
                updates.append(delete(label, source, target))
            else:
                label = f"rel{_rand_index(rng, spec.num_labels)}"
                source = f"n{vertex_sampler.sample(rng)}"
                target = f"n{vertex_sampler.sample(rng)}"
                live.append((label, source, target))
                updates.append(add(label, source, target))
    return updates, batches


def _sample_query_length(spec: WorkloadSpec, rng: random.Random) -> int:
    low = max(1, spec.query_length_mean - spec.query_length_spread)
    high = spec.query_length_mean + spec.query_length_spread
    return low + _rand_index(rng, high - low + 1)


def _sample_shape(spec: WorkloadSpec, rng: random.Random) -> str:
    weights = (spec.chain_weight, spec.star_weight, spec.cycle_weight)
    target = rng.random() * sum(weights)
    cumulative = 0.0
    for shape, weight in zip(_SHAPES, weights):
        cumulative += weight
        if target < cumulative:
            return shape
    return _SHAPES[-1]


def _generate_queries(spec: WorkloadSpec, rng: random.Random) -> List[QueryGraphPattern]:
    """Sample the query database over the synthetic label/vertex alphabet."""
    label_pool = max(1, round(spec.num_labels * spec.label_selectivity))
    vertex_sampler = _ZipfSampler(spec.num_vertices, spec.skew)

    def pick_label() -> str:
        return f"rel{_rand_index(rng, label_pool)}"

    def pick_term(variable_index: int) -> str:
        if rng.random() < spec.literal_ratio:
            return f"n{vertex_sampler.sample(rng)}"
        return f"?w{variable_index}"

    queries: List[QueryGraphPattern] = []
    for index in range(spec.num_queries):
        shape = _sample_shape(spec, rng)
        length = _sample_query_length(spec, rng)
        triples: List[Tuple[str, str, str]] = []
        if shape == "chain":
            terms = [pick_term(i) for i in range(length + 1)]
            for position in range(length):
                triples.append((pick_label(), terms[position], terms[position + 1]))
        elif shape == "star":
            hub = pick_term(0)
            for position in range(length):
                leaf = pick_term(position + 1)
                if rng.random() < 0.5:
                    triples.append((pick_label(), hub, leaf))
                else:
                    triples.append((pick_label(), leaf, hub))
        else:  # cycle
            length = max(2, length)
            terms = [pick_term(i) for i in range(length)]
            for position in range(length):
                triples.append(
                    (pick_label(), terms[position], terms[(position + 1) % length])
                )
        # A pattern must contain at least one variable; re-point the first
        # endpoint when literal pinning grounded the whole sample.
        if not any(term.startswith("?") for triple in triples for term in triple[1:]):
            label, _, target = triples[0]
            triples[0] = (label, "?w0", target)
        queries.append(
            QueryGraphPattern(f"W{index}", triples, name=f"{shape}-W{index}")
        )
    return queries


def _generate_churn(
    spec: WorkloadSpec, rng: random.Random, num_ticks: int, query_ids: Sequence[str]
) -> Tuple[ChurnEvent, ...]:
    """Sample the subscribe/unsubscribe plan against the generated QDB.

    The plan is stateful so it always applies cleanly: an unsubscribe only
    targets a query the plan currently has subscribed, a subscribe only an
    unsubscribed one.  Ticks with no live subscription always subscribe.
    """
    if spec.subscription_churn <= 0.0:
        return ()
    events: List[ChurnEvent] = []
    subscribed: List[str] = []
    unsubscribed: List[str] = list(query_ids)
    for tick in range(num_ticks):
        if rng.random() >= spec.subscription_churn:
            continue
        want_unsubscribe = bool(subscribed) and rng.random() < 0.5
        if want_unsubscribe:
            index = _rand_index(rng, len(subscribed))
            query_id = subscribed.pop(index)
            unsubscribed.append(query_id)
            events.append(ChurnEvent(tick, "unsubscribe", query_id))
        elif unsubscribed:
            index = _rand_index(rng, len(unsubscribed))
            query_id = unsubscribed.pop(index)
            subscribed.append(query_id)
            events.append(ChurnEvent(tick, "subscribe", query_id))
    return tuple(events)


def generate_workload(spec: WorkloadSpec) -> SyntheticWorkload:
    """Materialise ``spec`` into a byte-identical :class:`SyntheticWorkload`.

    Stream, query set and churn plan each derive from their own child seed
    of the spec's master seed, so changing one knob family (e.g. the query
    shape weights) does not reshuffle the others.
    """
    # String seeds are hashed through sha512 by Random.seed (version 2),
    # which — unlike tuple seeds, which fall back to PYTHONHASHSEED-
    # randomised hash() — is stable across processes and Python versions.
    stream_rng = random.Random(f"workload:{spec.seed}:stream")
    query_rng = random.Random(f"workload:{spec.seed}:queries")
    churn_rng = random.Random(f"workload:{spec.seed}:churn")
    updates, batches = _generate_stream(spec, stream_rng)
    queries = _generate_queries(spec, query_rng)
    churn = _generate_churn(
        spec, churn_rng, len(batches), [pattern.query_id for pattern in queries]
    )
    return SyntheticWorkload(
        spec=spec,
        stream=GraphStream(updates, name=spec.name),
        batches=tuple(batches),
        queries=queries,
        churn=churn,
    )


# ----------------------------------------------------------------------
# The scenario matrix
# ----------------------------------------------------------------------
#: The published scenario matrix rows.  Every engine runs every scenario
#: in ``benchmarks/bench_scenarios.py`` with the transcript asserted
#: byte-identical to the string oracle; the last cells measured before that
#: benchmark stopped writing files stay in the ``scenario_matrix`` section
#: of the frozen ``BENCH_hotpath.json`` record.
SCENARIOS: Dict[str, WorkloadSpec] = {
    "insert_heavy": WorkloadSpec(
        name="insert_heavy",
        seed=101,
        num_updates=2_400,
        num_queries=48,
        delete_ratio=0.0,
        mean_batch_size=4,
        description="append-only stream, mixed shapes (the paper's default regime)",
    ),
    "delete_heavy": WorkloadSpec(
        name="delete_heavy",
        seed=102,
        num_updates=2_400,
        num_queries=48,
        delete_ratio=0.45,
        mean_batch_size=4,
        description="45% live-edge deletions: counting maintenance + invalidation",
    ),
    "bursty": WorkloadSpec(
        name="bursty",
        seed=103,
        num_updates=2_400,
        num_queries=48,
        burstiness=0.25,
        mean_batch_size=8,
        delete_ratio=0.15,
        description="long micro-batch bursts between idle single-update ticks",
    ),
    "high_skew": WorkloadSpec(
        name="high_skew",
        seed=104,
        num_updates=2_400,
        num_queries=48,
        skew=1.2,
        delete_ratio=0.1,
        mean_batch_size=4,
        description="Zipf(1.2) hub vertices: dense adjacency buckets, star hot spots",
    ),
    "churn_heavy": WorkloadSpec(
        name="churn_heavy",
        seed=105,
        num_updates=2_000,
        num_queries=40,
        delete_ratio=0.35,
        mean_batch_size=4,
        subscription_churn=0.4,
        label_selectivity=0.5,
        description="mid-stream subscribe/unsubscribe churn over hot labels",
    ),
    "soak": WorkloadSpec(
        name="soak",
        seed=106,
        num_updates=6_000,
        num_queries=24,
        num_vertices=1_200,
        delete_ratio=0.48,
        mean_batch_size=16,
        skew=0.6,
        description="long add/delete soak: interner growth + lazy-cache convergence",
    ),
}


def scenario_names() -> List[str]:
    """Names of the published scenarios, in matrix order."""
    return list(SCENARIOS)


def scenario_spec(name: str) -> WorkloadSpec:
    """The spec of one named scenario (raises with the available options)."""
    spec = SCENARIOS.get(name)
    if spec is None:
        raise BenchmarkError(
            f"unknown workload {name!r}; available workloads: {', '.join(SCENARIOS)}"
        )
    return spec


# ----------------------------------------------------------------------
# Replay + oracle transcript
# ----------------------------------------------------------------------
def _transcript(engine, per_tick_notified: List[List[str]]) -> str:
    """Canonical transcript: notified ids per tick + every final answer."""
    answers = {
        query_id: engine.matches_of(query_id) for query_id in sorted(engine.queries)
    }
    return json.dumps(
        {"ticks": per_tick_notified, "answers": answers},
        sort_keys=True,
        separators=(",", ":"),
    )


def run_workload(
    workload: SyntheticWorkload,
    engine_name: str,
    *,
    shards: int = 1,
    executor: str = "serial",
) -> ReplayResult:
    """Replay ``workload`` through engine ``engine_name`` and measure it.

    The stream is driven tick by tick along the workload's batch plan.
    When the spec churns subscriptions the replay runs broker-subscribed:
    each churn event creates or tears down a single-query subscription
    *between* ticks, exactly as the generated plan dictates.  The result
    carries the canonical transcript for oracle comparison.
    """
    from ..engines import create_sharded_engine

    engine = create_sharded_engine(engine_name, shards, executor=executor)
    try:
        engine.register_all(workload.queries)
        broker = SubscriptionBroker(engine) if workload.churn else None
        subscriptions: Dict[str, str] = {}  # query id -> subscription name
        per_tick_notified: List[List[str]] = []

        def on_tick(index: int, tick: Sequence[Update], notified) -> None:
            per_tick_notified.append(sorted(notified))
            if broker is None:
                return
            for event in workload.churn_at(index):
                if event.action == "subscribe":
                    name = f"churn-{event.query_id}-{index}"
                    broker.subscribe(name, [event.query_id])
                    subscriptions[event.query_id] = name
                else:
                    name = subscriptions.pop(event.query_id, None)
                    if name is not None:
                        broker.unsubscribe(name)

        result = replay(broker or engine, workload.iter_ticks(), on_tick=on_tick)
        result.transcript = _transcript(engine, per_tick_notified)
    finally:
        if hasattr(engine, "close"):
            engine.close()
    return result
