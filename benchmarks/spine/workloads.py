"""The four frozen workloads and their seeded input generation.

A workload's *structure* (which edges arrive in which tick, which queries
are registered, who subscribes, when reads and subscription churn happen)
comes from the repository's own generators under a frozen
``structure_seed``.  The benchmark's ``--seed`` then picks one member of
that structure's isomorphism class: every vertex identifier is renamed by a
seeded, length-preserving permutation, so interning order, hash layout,
sort order and every delivered frame differ between seeds while the amount
of matching work does not.  The reason is measured, not aesthetic: at fixed
sizes the throughput of these generators varies 2.7x (SNB) to 3.5x (Zipf
skew) between structural seeds, which would drown any bound below 25 %.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.experiments import build_stream, build_workload, pick_subscribed_queries
from repro.bench.workloads import WorkloadSpec, generate_workload
from repro.graph.elements import Edge, Update
from repro.query.pattern import QueryGraphPattern

__all__ = ["Workload", "Inputs", "WORKLOADS", "DEFAULT_SEED", "generate", "workload_names"]

#: Seed of the pinned baseline (``pins.json`` holds its fingerprints/digests).
DEFAULT_SEED = 11


@dataclass(frozen=True)
class Workload:
    """Frozen parameters of one workload (sizes calibrated on the 2-core box)."""

    name: str
    why: str
    #: ``bare`` (engine + broker), ``durable`` (DurableEngine on top) or
    #: ``sharded`` (2 process shards, 1 replica each).
    stack: str
    structure_seed: int
    #: Keyword arguments of ``WorkloadSpec`` — or, for the SNB workload,
    #: ``updates`` / ``queries`` / ``tick_size``.
    source: Dict[str, object]
    #: Queries subscribed (evenly spread over the sorted ids; 0 = all).  The
    #: read-probed workloads subscribe an odd number so that the median read
    #: is one query's cost, not the gap between two queries' costs.
    subscribe: int
    listeners: int
    #: ``reads_per_poll`` ``matches_of`` calls every ``reads_every``-th tick;
    #: 0 means no interleaved reads, and ``probe_reads`` polls of the final
    #: state after the stream instead.
    reads_every: int
    reads_per_poll: int
    probe_reads: int
    #: Fixed open-loop arrival rate: about 45 % of the tick capacity measured
    #: over the *last tenth* of the stream, where the graph is largest and a
    #: tick dearest (on the two growing-graph workloads that is a quarter of
    #: the average capacity).  The host drifts by 20 % and has spells at half
    #: speed; a rate set from the average capacity overruns the end of the
    #: stream on a slow day.
    tick_rate_hz: float
    #: Ticks the ``Naive`` oracle replays.
    verify_ticks: int
    #: Stacks built (and torn down) per pass for the ``setup_s`` median.
    setup_rounds: int
    #: Calibrated wall time of one repeat (closed + open pass with set-up);
    #: ``--seconds`` divided by this is the number of repeats.
    nominal_repeat_s: float
    #: ``DurableEngine`` snapshot cadence in journal records.
    snapshot_every: Optional[int] = None


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="snb_multiquery",
            why="paper regime: many overlapping queries, additions only; view maintenance and joins do the work",
            stack="bare",
            structure_seed=2,
            source={"updates": 4400, "queries": 180, "tick_size": 4},
            subscribe=9,
            listeners=1,
            reads_every=0,
            reads_per_poll=0,
            probe_reads=207,
            tick_rate_hz=180.0,
            verify_ticks=60,
            setup_rounds=7,
            nominal_repeat_s=9.3,
        ),
        Workload(
            name="skew_churn",
            why="same engine layers on Zipf hubs with 40% deletions: dense buckets, counting deletes, invalidation",
            stack="bare",
            structure_seed=2,
            source=dict(
                num_updates=3300, num_queries=96, num_vertices=800, skew=1.0,
                delete_ratio=0.4, mean_batch_size=4,
            ),
            subscribe=9,
            listeners=1,
            reads_every=0,
            reads_per_poll=0,
            probe_reads=1197,
            tick_rate_hz=350.0,
            verify_ticks=150,
            setup_rounds=7,
            nominal_repeat_s=6.2,
        ),
        Workload(
            name="serve_durable",
            why="tiny ticks, every query subscribed, fsynced journal and snapshots: per-tick overhead dominates joins",
            stack="durable",
            structure_seed=5,
            source=dict(
                num_updates=5000, num_queries=200, num_vertices=4000,
                delete_ratio=0.35, mean_batch_size=2, subscription_churn=0.2,
            ),
            subscribe=0,
            listeners=4,
            reads_every=4,
            reads_per_poll=4,
            probe_reads=0,
            tick_rate_hz=620.0,
            verify_ticks=400,
            setup_rounds=3,
            nominal_repeat_s=8.0,
            snapshot_every=500,
        ),
        Workload(
            name="sharded_rw",
            why="writes beside replica reads over 2 process shards: fan-out, pickled frames, snapshot-diff flush over IPC",
            stack="sharded",
            structure_seed=1,
            source=dict(
                num_updates=2000, num_queries=80, num_vertices=800,
                delete_ratio=0.2, mean_batch_size=4,
            ),
            subscribe=20,
            listeners=1,
            reads_every=4,
            reads_per_poll=4,
            probe_reads=0,
            tick_rate_hz=130.0,
            verify_ticks=150,
            setup_rounds=2,
            nominal_repeat_s=9.7,
        ),
    )
}


def workload_names() -> List[str]:
    return list(WORKLOADS)


@dataclass
class Inputs:
    """Everything one pass replays, generated from (workload, seed)."""

    workload: Workload
    seed: int
    ticks: List[List[Update]]
    queries: List[QueryGraphPattern]
    #: Query ids per listener at subscribe time.
    subscribed: List[List[str]]
    #: tick index -> [(action, query id)] applied after that tick's frames;
    #: ``mute`` unsubscribes the query from its listener, ``unmute``
    #: re-subscribes it (with an initial snapshot frame).
    churn: Dict[int, List[Tuple[str, str]]] = field(default_factory=dict)
    #: tick index -> query ids polled with ``matches_of`` after that tick.
    reads: Dict[int, List[str]] = field(default_factory=dict)
    #: Polls of the final state after the stream (workloads without
    #: interleaved reads).
    probe: List[str] = field(default_factory=list)
    structure_fingerprint: str = ""
    fingerprint: str = ""

    @property
    def num_updates(self) -> int:
        return sum(len(tick) for tick in self.ticks)

    @property
    def num_reads(self) -> int:
        return sum(len(polls) for polls in self.reads.values()) + len(self.probe)

    def prefix(self, num_updates: int) -> "Inputs":
        """The same inputs cut to about ``num_updates`` (smoke tests)."""
        ticks: List[List[Update]] = []
        total = 0
        for tick in self.ticks:
            if total >= num_updates:
                break
            ticks.append(tick)
            total += len(tick)
        keep = len(ticks)
        return Inputs(
            workload=self.workload,
            seed=self.seed,
            ticks=ticks,
            queries=self.queries,
            subscribed=self.subscribed,
            churn={tick: events for tick, events in self.churn.items() if tick < keep},
            reads={tick: polls for tick, polls in self.reads.items() if tick < keep},
            probe=self.probe[:num_updates],
            structure_fingerprint=self.structure_fingerprint,
            fingerprint=self.fingerprint,
        )


# ----------------------------------------------------------------------
# Structure (frozen seed) -> relabelled inputs (benchmark seed)
# ----------------------------------------------------------------------
def _structure(workload: Workload):
    """Ticks, queries and churn plan from the repository's generators."""
    source = dict(workload.source)
    if "tick_size" in source:
        stream = build_stream("snb", source["updates"], workload.structure_seed)
        queries = build_workload(
            stream,
            num_queries=source["queries"],
            avg_edges=5,
            selectivity=0.25,
            overlap=0.35,
            seed=workload.structure_seed + 1,
        ).queries
        updates = list(stream)
        size = source["tick_size"]
        ticks = [updates[start : start + size] for start in range(0, len(updates), size)]
        return ticks, list(queries), ()
    generated = generate_workload(
        WorkloadSpec(name=workload.name, seed=workload.structure_seed, **source)
    )
    return list(generated.iter_ticks()), list(generated.queries), generated.churn


def _shuffled(items: Sequence[str], rng: random.Random) -> List[str]:
    """Fisher-Yates on ``rng.random()`` alone (stable across Pythons)."""
    result = list(items)
    for index in range(len(result) - 1, 0, -1):
        other = min(int(rng.random() * (index + 1)), index)
        result[index], result[other] = result[other], result[index]
    return result


def relabelling(vertex_ids: Sequence[str], seed: int) -> Dict[str, str]:
    """Seeded permutation of ``vertex_ids`` within (prefix, length) classes.

    Keeping the alphabetic prefix keeps an SNB ``person`` a person; keeping
    the length keeps journal, snapshot and frame sizes identical between
    seeds, so ``disk_bytes_per_update`` does not move with the seed.
    """
    classes: Dict[Tuple[str, int], List[str]] = {}
    for vertex in sorted(set(vertex_ids)):
        classes.setdefault((vertex.rstrip("0123456789"), len(vertex)), []).append(vertex)
    rng = random.Random(f"spine:{seed}:relabel")
    mapping: Dict[str, str] = {}
    for key in sorted(classes):
        members = classes[key]
        mapping.update(zip(members, _shuffled(members, rng)))
    return mapping


def _serialize(ticks, queries, subscribed, churn, reads, probe) -> str:
    payload = {
        "ticks": [
            [
                ["+" if update.is_addition else "-", update.edge.label,
                 update.edge.source, update.edge.target]
                for update in tick
            ]
            for tick in ticks
        ],
        "queries": [
            [q.query_id, [[e.label, str(e.source), str(e.target)] for e in q.edges]]
            for q in queries
        ],
        "subscribed": subscribed,
        "churn": sorted((tick, events) for tick, events in churn.items()),
        "reads": sorted((tick, polls) for tick, polls in reads.items()),
        "probe": probe,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _fingerprint(*parts) -> str:
    return hashlib.sha256(_serialize(*parts).encode("utf-8")).hexdigest()


def generate(workload: Workload, seed: int) -> Inputs:
    """The inputs of ``workload`` under benchmark seed ``seed``."""
    ticks, queries, churn_plan = _structure(workload)
    query_ids = sorted(q.query_id for q in queries)
    chosen = (
        query_ids
        if workload.subscribe == 0
        else pick_subscribed_queries(query_ids, workload.subscribe)
    )
    subscribed = [chosen[index :: workload.listeners] for index in range(workload.listeners)]

    # The generator's churn plan tracks a set that starts empty and only
    # ever adds what is absent / removes what is present.  Read as the
    # *muted* set of an everything-subscribed start, every event is
    # effective: plan "subscribe" mutes, plan "unsubscribe" un-mutes.
    churn: Dict[int, List[Tuple[str, str]]] = {}
    watched = set(chosen)
    for event in churn_plan:
        if event.query_id in watched:
            action = "mute" if event.action == "subscribe" else "unmute"
            churn.setdefault(event.tick, []).append((action, event.query_id))

    reads: Dict[int, List[str]] = {}
    cursor = 0
    if workload.reads_every:
        for tick in range(workload.reads_every - 1, len(ticks), workload.reads_every):
            reads[tick] = [
                chosen[(cursor + offset) % len(chosen)]
                for offset in range(workload.reads_per_poll)
            ]
            cursor += workload.reads_per_poll
    probe = [chosen[index % len(chosen)] for index in range(workload.probe_reads)]

    structure_fingerprint = _fingerprint(ticks, queries, subscribed, churn, reads, probe)

    mapping = relabelling(
        [vertex for tick in ticks for update in tick for vertex in update.edge.endpoints()],
        seed,
    )
    rename = lambda vertex: mapping.get(vertex, vertex)  # noqa: E731
    ticks = [
        [
            Update(
                Edge(update.edge.label, rename(update.edge.source), rename(update.edge.target)),
                update.kind,
                update.timestamp,
            )
            for update in tick
        ]
        for tick in ticks
    ]
    queries = [
        QueryGraphPattern(
            q.query_id,
            [(e.label, rename(str(e.source)), rename(str(e.target))) for e in q.edges],
            name=q.name,
        )
        for q in queries
    ]
    return Inputs(
        workload=workload,
        seed=seed,
        ticks=ticks,
        queries=queries,
        subscribed=subscribed,
        churn=churn,
        reads=reads,
        probe=probe,
        structure_fingerprint=structure_fingerprint,
        fingerprint=_fingerprint(ticks, queries, subscribed, churn, reads, probe),
    )
