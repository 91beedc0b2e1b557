"""Hot-path benchmark: interned vertices + maintained adjacency indexes.

The seed implementation paid two avoidable costs on every probe of the
matching layer: vertex tuples carried full identifier strings, and the
prefix/edge-view hash indexes behind ``extend_path_rows`` and
``_delta_against_parent`` were rebuilt from the full view whenever no
:class:`JoinCache` was active (and the cache itself re-bucketed raw string
tuples).  The current pipeline dictionary-encodes the vertex universe at the
stream boundary and keeps every index *maintained* — patched in place by the
relation's own mutations, never rebuilt — so each probe is O(bucket).

This benchmark replays the same workloads through the current engines and
through ``Legacy*`` engine subclasses that reproduce the seed behaviour
(``NullInterner`` string rows + per-call index builds + a local stand-in
for the removed ``JoinCache``), asserts answer equivalence, and writes the
measured throughputs to ``BENCH_hotpath.json`` at the repository root so
later PRs have a performance trajectory.

Two further workloads target the re-differentiated ``+`` tier (answer
materialisation, see ``src/repro/matching/answers.py``): a
``matches_of``-heavy polling stream and a deletion-invalidation stream,
each comparing every base engine against its ``+`` variant with
byte-identical answers required.

The serving-layer sections measure the pub/sub tier: ``subscription_delivery``
(broker k-of-n delta delivery vs ``poll_every`` polling), ``affected_flush``
(the BatchReport-consulting broker vs PR 4's flush-everything broker), and
``parallel_shards`` (the serial/process shard fan-out executors vs
PR 4's per-run serialized fan-out, with answers asserted byte-identical
across every executor x shard-count cell; the host CPU count is recorded —
process-executor wall-clock wins need real cores, and this grid keeps the
overheads honest on any host).

Run directly (the file name keeps it out of the default tier-1 collection)::

    PYTHONPATH=src python -m pytest benchmarks/bench_hotpath.py -q -s
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.bench.configs import bench_scale_from_env
from repro.bench.experiments import build_stream, build_workload
from repro.core.engine import ContinuousEngine
from repro.core.tric import TRICEngine, TRICPlusEngine
from repro.pubsub import ShardedEngineGroup
from repro.engines import create_engine
from repro.graph.interning import NullInterner
from repro.graph.elements import Update, delete
from repro.matching.plans import bindings_to_dicts
from repro.matching.relation import Relation, Row
from repro.matching.views import EDGE_VIEW_SCHEMA, EdgeViewRegistry
from repro.query.generator import QueryWorkload
from repro.streams import StreamRunner
from repro.streams.report import format_table

#: Where the committed performance trajectory lives (repository root).
RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_hotpath.json"

#: Default scale (overridable via ``REPRO_BENCH_SCALE``).  The hot-path
#: asymmetry only shows once the graph has real density: below ~0.3 the
#: views are so small that fixed per-update overheads dominate both sides.
DEFAULT_SCALE = 0.5

#: Deletion-heavy workload shape (mirrors benchmarks/bench_deletions.py).
DELETION_PRESSURE = 0.45
WARMUP_EDGES = 50

#: Ceiling for the deletion-heavy comparison: the *legacy* invalidation
#: path re-materialises every affected query's full answer set per
#: deletion, which grows combinatorially with graph density — above this
#: scale the seed side alone runs for hours.  The no-regression property
#: being asserted is scale-insensitive, so the deletion workload is capped
#: while the addition workload runs at full requested scale.
DELETION_SCALE_CAP = 0.25


#: Scale cap and poll cadence for the matches_of / invalidation workloads:
#: the *base* engines re-derive every polled answer set from scratch (INV
#: and INC re-materialise full paths per poll), which grows far faster than
#: the maintained-answer side — the capped scale keeps the base side of the
#: comparison tractable while the asserted property is scale-insensitive.
POLLING_SCALE_CAP = 0.2
MAX_POLLED_QUERIES = 20

#: Base engine -> its answer-materialising ``+`` variant.
ENGINE_PAIRS = (("TRIC", "TRIC+"), ("INV", "INV+"), ("INC", "INC+"))

#: Scale from which the strict "`+` beats base" assertion applies: below
#: it the polled answer sets are so small that maintainer upkeep and fixed
#: per-update overheads drown the differential and the ratio is timer
#: noise either way, so CI smoke scales only guard against gross
#: regressions (answer byte-identity stays asserted at every scale).  The
#: committed ``BENCH_hotpath.json`` is generated at the default scale,
#: where the strict property holds for every pair on the polling workload
#: (and for the counted-maintenance TRIC pair on the invalidation one).
STRICT_PAIR_SCALE = 0.1
PAIR_NOISE_TOLERANCE = 1.5


# ----------------------------------------------------------------------
# Legacy engines: the seed hot path, byte for byte
# ----------------------------------------------------------------------
def build_row_index(rows, key_positions) -> Dict[Tuple, List[Row]]:
    """The seed's hash-join build phase (removed from ``src/``): bucket
    ``rows`` by their key columns, from scratch, on every call."""
    index: Dict[Tuple, List[Row]] = {}
    for row in rows:
        key = tuple(row[i] for i in key_positions)
        index.setdefault(key, []).append(row)
    return index


class _SeedJoinCache:
    """Local stand-in for the seed's ``JoinCache`` (removed from ``src/``).

    Build-side hash tables keyed by ``(relation uid, key columns)``,
    patched by replaying the relation's signed delta log — the behaviour
    the seed's ``+`` variants relied on before maintained indexes made it
    redundant.
    """

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        # cache key -> [index, version, log_position, epoch]
        self._entries: Dict[Tuple[int, Tuple[int, ...]], List] = {}

    def build_index(self, relation: Relation, key_positions: Tuple[int, ...]):
        cache_key = (relation.uid, key_positions)
        entry = self._entries.get(cache_key)
        if entry is not None and entry[3] == relation.epoch:
            index, version, log_position, _ = entry
            if version != relation.version:
                for row, sign in relation.deltas_since(log_position):
                    key = tuple(row[i] for i in key_positions)
                    if sign > 0:
                        index.setdefault(key, []).append(row)
                    else:
                        bucket = index.get(key)
                        if bucket is not None:
                            try:
                                bucket.remove(row)
                            except ValueError:  # pragma: no cover - defensive
                                pass
                            if not bucket:
                                del index[key]
                entry[1] = relation.version
                entry[2] = relation.log_length
            return index
        index = build_row_index(relation.rows, key_positions)
        relation.track_deltas()  # this cache is a reader of the relation's log
        self._entries[cache_key] = [
            index, relation.version, relation.log_length, relation.epoch
        ]
        return index


class _LegacyEdgeViewRegistry(EdgeViewRegistry):
    """Seed-style registry: no birth-time adjacency indexes on the views."""

    def register(self, key):
        view = self._views.get(key)
        if view is None:
            view = Relation(EDGE_VIEW_SCHEMA)
            self._views[key] = view
            self._keys_by_label.setdefault(key.label, set()).add(key)
        return view


class LegacyTRICEngine(TRICEngine):
    """TRIC with the seed probe strategy and the string vertex pipeline.

    Every overridden method is the seed implementation verbatim: hash
    indexes over prefix/edge views are rebuilt per call (or fetched from the
    JoinCache when caching is enabled), and rows carry raw identifier
    strings via :class:`NullInterner`.
    """

    name = "TRIC(legacy)"

    def __init__(self, *, cache: bool = False, **kwargs) -> None:
        super().__init__(**kwargs)
        self._join_cache = _SeedJoinCache() if cache else None
        self._views = _LegacyEdgeViewRegistry(interner=NullInterner())

    def _extend_rows(self, rows, base):
        if self._join_cache is not None:
            index = self._join_cache.build_index(base, (0,))
        else:
            index = build_row_index(base.rows, (0,))
        extended: List[Row] = []
        for row in rows:
            bucket = index.get((row[-1],))
            if bucket:
                extended.extend(row + (base_row[1],) for base_row in bucket)
        return extended

    def _delta_against_parent(self, node, new_rows):
        parent_view = node.parent.view
        last_position = parent_view.arity - 1
        if self._join_cache is not None:
            index = self._join_cache.build_index(parent_view, (last_position,))
        elif len(new_rows) > 1:
            index = build_row_index(parent_view.rows, (last_position,))
        else:
            source, target = new_rows[0]
            return [
                parent_row + (target,)
                for parent_row in parent_view.rows
                if parent_row[-1] == source
            ]
        delta: List[Row] = []
        for source, target in new_rows:
            bucket = index.get((source,))
            if bucket:
                delta.extend(parent_row + (target,) for parent_row in bucket)
        return delta

    def _direct_dead_rows(self, node, removed_rows):
        position = node.depth - 1
        view = node.view
        if self._join_cache is not None:
            index = self._join_cache.build_index(view, (position, position + 1))
            dead: List[Row] = []
            for pair in removed_rows:
                dead.extend(index.get(pair, ()))
            return dead
        return [
            row for row in view.rows if (row[position], row[position + 1]) in removed_rows
        ]

    def _propagate_removals(self, node, removed, affected_queries):
        removed_prefixes = set(removed)
        for child in node.children.values():
            child_view = child.view
            if not child_view:
                continue
            if self._join_cache is not None:
                prefix_positions = tuple(range(child_view.arity - 1))
                index = self._join_cache.build_index(child_view, prefix_positions)
                dead: List[Row] = []
                for prefix in removed_prefixes:
                    dead.extend(index.get(prefix, ()))
            else:
                dead = [row for row in child_view.rows if row[:-1] in removed_prefixes]
            child_removed = child.remove_rows(dead)
            if not child_removed:
                continue
            affected_queries.update(query_id for query_id, _ in child.query_paths)
            self._propagate_removals(child, child_removed, affected_queries)

    # The seed joined per-call binding relations (``bindings_from_rows`` +
    # ``natural_join``); the per-query cached copies its ``+`` tier kept on
    # top are gone from ``src/``, so both legacy tiers join from the rows.
    def _evaluate_affected(self, affected):
        matched = set()
        for query_id, path_deltas in affected.items():
            deltas: Dict[int, List[Row]] = {}
            for path_index, rows in path_deltas:
                deltas.setdefault(path_index, []).extend(rows)
            full_rows = [relation.rows for relation in self._binding_relations[query_id]]
            new_bindings = self._plans[query_id].evaluate_delta(
                deltas, full_rows, injective=self.injective
            )
            if new_bindings:
                matched.add(query_id)
        return frozenset(matched)

    def matches_of(self, query_id):
        self._require_known(query_id)
        full_rows = [relation.rows for relation in self._binding_relations[query_id]]
        bindings = self._plans[query_id].evaluate_full(full_rows, injective=self.injective)
        return bindings_to_dicts(bindings)

    def has_matches(self, query_id):
        # The seed re-checked deletion-time satisfaction by materialising
        # the query's full answer set; the current engines' witness probe
        # must not leak into the legacy baseline.
        return bool(self.matches_of(query_id))


class LegacyTRICPlusEngine(LegacyTRICEngine):
    """Seed TRIC+: legacy probes backed by the seed-style join cache."""

    name = "TRIC+(legacy)"

    def __init__(self, **kwargs) -> None:
        super().__init__(cache=True, **kwargs)


_FACTORIES = {
    ("TRIC", "legacy"): LegacyTRICEngine,
    ("TRIC", "current"): TRICEngine,
    ("TRIC+", "legacy"): LegacyTRICPlusEngine,
    ("TRIC+", "current"): TRICPlusEngine,
}


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def _addition_heavy_workload(scale: float) -> tuple[List[Update], QueryWorkload]:
    """A fig12a-style SNB addition stream with the paper's baseline knobs."""
    num_updates = max(400, int(8_000 * scale))
    stream = build_stream("snb", num_updates, seed=17)
    workload = build_workload(
        stream,
        num_queries=max(20, int(400 * scale)),
        avg_edges=5,
        selectivity=0.25,
        overlap=0.35,
        seed=18,
    )
    return list(stream), workload


def _deletion_heavy_workload(scale: float) -> tuple[List[Update], QueryWorkload]:
    """The addition stream interleaved with ~45 % deletions after warm-up."""
    additions, workload = _addition_heavy_workload(scale)
    rng = random.Random(7)
    live: List = []
    updates: List[Update] = []
    for update in additions:
        updates.append(update)
        live.append(update.edge)
        if len(live) > WARMUP_EDGES and rng.random() < DELETION_PRESSURE:
            edge = live.pop(rng.randrange(len(live)))
            updates.append(delete(edge.label, edge.source, edge.target))
    return updates, workload


def _replay(factory, updates: Sequence[Update], workload, *, repeats: int = 3):
    """Best-of-N replay on fresh engines; returns (seconds, satisfied ids)."""
    best, satisfied = float("inf"), frozenset()
    for _ in range(repeats):
        engine = factory()
        runner = StreamRunner(engine)
        runner.index_queries(workload.queries)
        start = time.perf_counter()
        runner.replay(updates)
        best = min(best, time.perf_counter() - start)
        satisfied = engine.satisfied_queries()
    return best, satisfied


def _measure(updates, workload, *, repeats: int) -> Dict[str, Dict[str, float]]:
    """legacy-vs-current timings for TRIC and TRIC+ on one workload."""
    results: Dict[str, Dict[str, float]] = {}
    for engine_name in ("TRIC", "TRIC+"):
        timings = {}
        satisfied = {}
        for variant in ("legacy", "current"):
            elapsed, sat = _replay(
                _FACTORIES[(engine_name, variant)], updates, workload, repeats=repeats
            )
            timings[variant] = elapsed
            satisfied[variant] = sat
        # The legacy pipeline must agree with the current one, answer for answer.
        assert satisfied["legacy"] == satisfied["current"], engine_name
        results[engine_name] = {
            "legacy_s": round(timings["legacy"], 4),
            "current_s": round(timings["current"], 4),
            "legacy_updates_per_s": round(len(updates) / timings["legacy"], 1),
            "current_updates_per_s": round(len(updates) / timings["current"], 1),
            "speedup": round(timings["legacy"] / timings["current"], 2),
        }
    return results


def _print_results(title: str, num_updates: int, results: Dict[str, Dict[str, float]]) -> None:
    rows = [
        (
            name,
            f"{r['legacy_s']:.3f}",
            f"{r['current_s']:.3f}",
            f"{r['current_updates_per_s']:.0f}",
            f"{r['speedup']:.2f}x",
        )
        for name, r in results.items()
    ]
    print()
    print(f"{title} ({num_updates} updates)")
    print(format_table(("engine", "legacy (s)", "current (s)", "updates/s", "speedup"), rows))


def _write_json(payload: Dict) -> None:
    existing = {}
    if RESULT_PATH.exists():
        try:
            existing = json.loads(RESULT_PATH.read_text(encoding="utf-8"))
        except (ValueError, OSError):
            existing = {}
    existing.update(payload)
    RESULT_PATH.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# ----------------------------------------------------------------------
# Benchmarks (pytest entry points)
# ----------------------------------------------------------------------
def _repeats_for(scale: float) -> int:
    """Best-of-3 at smoke scales (noise), single run once the gap is wide."""
    return 3 if scale < 0.3 else 1


def test_addition_hot_path_beats_the_seed():
    """Interned + indexed probes are >=2x the seed throughput on additions."""
    scale = bench_scale_from_env(default=DEFAULT_SCALE)
    updates, workload = _addition_heavy_workload(scale)
    results = _measure(updates, workload, repeats=_repeats_for(scale))
    _print_results("addition-heavy SNB stream (fig12a-style)", len(updates), results)
    _write_json(
        {
            "additions_fig12a": {
                "scale": scale,
                "num_updates": len(updates),
                "num_queries": len(workload.queries),
                "engines": results,
            }
        }
    )
    # The >=2x claim holds from ~scale 0.3 upward (the committed
    # BENCH_hotpath.json is generated at the default scale, where the gap
    # is an order of magnitude).  At CI smoke scales the views are tiny and
    # fixed per-update overheads flatten the ratio, so only answer
    # equivalence plus no-regression is asserted there.
    floor = 2.0 if scale >= 0.3 else 1.0
    for engine_name, r in results.items():
        assert r["speedup"] >= floor, (
            f"{engine_name}: addition-heavy speedup {r['speedup']:.2f}x < {floor}x "
            f"(legacy {r['legacy_s']:.3f}s vs current {r['current_s']:.3f}s)"
        )


def test_deletion_hot_path_does_not_regress():
    """Deletion-heavy streams must not regress vs the seed pipeline (<5 %)."""
    scale = min(bench_scale_from_env(default=DEFAULT_SCALE), DELETION_SCALE_CAP)
    updates, workload = _deletion_heavy_workload(scale)
    num_deletions = sum(1 for update in updates if update.is_deletion)
    results = _measure(updates, workload, repeats=_repeats_for(scale))
    _print_results(
        f"deletion-heavy SNB stream ({num_deletions} deletions)", len(updates), results
    )
    _write_json(
        {
            "deletions": {
                "scale": scale,
                "num_updates": len(updates),
                "num_deletions": num_deletions,
                "num_queries": len(workload.queries),
                "engines": results,
            }
        }
    )
    for engine_name, r in results.items():
        assert r["current_s"] <= r["legacy_s"] * 1.05, (
            f"{engine_name}: deletion-heavy path regressed "
            f"(legacy {r['legacy_s']:.3f}s vs current {r['current_s']:.3f}s)"
        )


# ----------------------------------------------------------------------
# Re-differentiated `+` tier: matches_of polling and deletion invalidation
# ----------------------------------------------------------------------
def _poll_cadence(num_updates: int) -> int:
    """Poll every ~1.25 % of the stream, at least every 5 updates."""
    return max(5, num_updates // 80)


def _drive_with_polls(
    engine_name: str,
    updates: Sequence[Update],
    workload,
    *,
    poll_every: int,
    repeats: int,
):
    """Replay with periodic ``matches_of`` polling; best-of-N total time.

    After every ``poll_every`` updates the first ``MAX_POLLED_QUERIES``
    currently satisfied queries (sorted, so both sides of a comparison poll
    the same ids) are polled.  Returns ``(best seconds, polls, answers,
    answer log)`` where the answer log is the concatenated per-round
    ``(query id, matches_of result)`` pairs — compared byte for byte
    between a base engine and its ``+`` variant.
    """
    best = float("inf")
    log: List = []
    polls = answers = 0
    for _ in range(repeats):
        engine = create_engine(engine_name)
        runner = StreamRunner(engine)
        runner.index_queries(workload.queries)
        log = []
        polls = answers = 0
        start = time.perf_counter()
        for index in range(0, len(updates), poll_every):
            engine.on_batch(updates[index : index + poll_every])
            for query_id in sorted(engine.satisfied_queries())[:MAX_POLLED_QUERIES]:
                matches = engine.matches_of(query_id)
                polls += 1
                answers += len(matches)
                log.append((query_id, matches))
        best = min(best, time.perf_counter() - start)
    return best, polls, answers, log


def _measure_pairs(updates, workload, *, repeats: int) -> Dict[str, Dict[str, float]]:
    """Base-vs-`+` timings (and answer identity) on one polled workload."""
    poll_every = _poll_cadence(len(updates))
    results: Dict[str, Dict[str, float]] = {}
    for base_name, plus_name in ENGINE_PAIRS:
        base_s, polls, answers, base_log = _drive_with_polls(
            base_name, updates, workload, poll_every=poll_every, repeats=repeats
        )
        plus_s, _, _, plus_log = _drive_with_polls(
            plus_name, updates, workload, poll_every=poll_every, repeats=repeats
        )
        # The materialised answers must be byte-identical to the base
        # engine's freshly joined ones, round for round.
        assert json.dumps(base_log) == json.dumps(plus_log), base_name
        results[base_name] = {
            "base_s": round(base_s, 4),
            "plus_s": round(plus_s, 4),
            "speedup": round(base_s / plus_s, 2),
            "poll_every": poll_every,
            "polls": polls,
            "answers_decoded": answers,
        }
    return results


def _print_pair_results(title: str, num_updates: int, results: Dict[str, Dict]) -> None:
    rows = [
        (
            f"{name} vs {name}+",
            f"{r['base_s']:.3f}",
            f"{r['plus_s']:.3f}",
            r["polls"],
            f"{r['speedup']:.2f}x",
        )
        for name, r in results.items()
    ]
    print()
    print(f"{title} ({num_updates} updates)")
    print(format_table(("pair", "base (s)", "+ (s)", "polls", "speedup"), rows))


def test_matches_of_polling_plus_engines_beat_base():
    """Answer materialisation beats per-poll joins on a matches_of-heavy stream."""
    scale = min(bench_scale_from_env(default=DEFAULT_SCALE), POLLING_SCALE_CAP)
    updates, workload = _addition_heavy_workload(scale)
    results = _measure_pairs(updates, workload, repeats=_repeats_for(scale))
    _print_pair_results("matches_of-heavy SNB stream", len(updates), results)
    _write_json(
        {
            "matches_of_polling": {
                "scale": scale,
                "num_updates": len(updates),
                "num_queries": len(workload.queries),
                "pairs": results,
            }
        }
    )
    ceiling = 1.0 if scale >= STRICT_PAIR_SCALE else PAIR_NOISE_TOLERANCE
    for base_name, r in results.items():
        assert r["plus_s"] < r["base_s"] * ceiling, (
            f"{base_name}+: polling workload not faster than {base_name} "
            f"({r['plus_s']:.3f}s vs {r['base_s']:.3f}s)"
        )


def test_deletion_invalidation_plus_engines_beat_base():
    """Maintained answers beat re-derivation under deletions + polling."""
    scale = min(bench_scale_from_env(default=DEFAULT_SCALE), POLLING_SCALE_CAP)
    updates, workload = _deletion_heavy_workload(scale)
    num_deletions = sum(1 for update in updates if update.is_deletion)
    results = _measure_pairs(updates, workload, repeats=_repeats_for(scale))
    _print_pair_results(
        f"deletion-invalidation SNB stream ({num_deletions} deletions)",
        len(updates),
        results,
    )
    _write_json(
        {
            "deletion_invalidation": {
                "scale": scale,
                "num_updates": len(updates),
                "num_deletions": num_deletions,
                "num_queries": len(workload.queries),
                "pairs": results,
            }
        }
    )
    # Under deletion churn the tiers differ by maintenance strategy: TRIC+
    # patches its counted answer relations with negative deltas, so it must
    # beat base TRIC strictly; INV+/INC+ are recompute-style caches whose
    # entries are dirtied by almost every deletion round, so they converge
    # to their base engines here (their strict win is the polling workload)
    # and are held to a no-regression bound instead.
    strict = scale >= STRICT_PAIR_SCALE
    for base_name, r in results.items():
        if strict and base_name == "TRIC":
            assert r["plus_s"] < r["base_s"], (
                f"TRIC+: invalidation workload not faster than TRIC "
                f"({r['plus_s']:.3f}s vs {r['base_s']:.3f}s)"
            )
        else:
            assert r["plus_s"] <= r["base_s"] * PAIR_NOISE_TOLERANCE, (
                f"{base_name}+: invalidation workload regressed vs {base_name} "
                f"({r['plus_s']:.3f}s vs {r['base_s']:.3f}s)"
            )


# ----------------------------------------------------------------------
# Subscription delivery vs poll_every polling (the pub/sub serving layer)
# ----------------------------------------------------------------------
#: Queries a serving listener subscribes to (the k of k-of-n) and the shard
#: counts the broker is exercised over.
SUBSCRIBED_QUERIES = 5
SHARD_COUNTS = (1, 2, 4)


def _drive_poll_all(updates: Sequence[Update], workload, *, poll_every: int, repeats: int):
    """poll_every baseline: decode every satisfied query's answers per round."""
    best = float("inf")
    polls = answers = 0
    engine = None
    for _ in range(repeats):
        engine = create_engine("TRIC+")
        runner = StreamRunner(engine)
        runner.index_queries(workload.queries)
        polls = answers = 0
        start = time.perf_counter()
        for index in range(0, len(updates), poll_every):
            engine.on_batch(updates[index : index + poll_every])
            for query_id in sorted(engine.satisfied_queries()):
                answers += len(engine.matches_of(query_id))
                polls += 1
        best = min(best, time.perf_counter() - start)
    return best, polls, answers, engine


def _drive_subscribed(
    updates: Sequence[Update], workload, *, shards: int, poll_every: int, repeats: int
):
    """Subscription mode: broker-delivered match deltas for k-of-n queries."""
    from repro.engines import create_sharded_engine
    from repro.bench.experiments import pick_subscribed_queries
    from repro.pubsub import SubscriptionBroker, replay_deltas

    best = float("inf")
    received: List = []
    engine = None
    subscribed: List[str] = []
    for _ in range(repeats):
        engine = create_sharded_engine("TRIC+", shards)
        runner = StreamRunner(engine)
        runner.index_queries(workload.queries)
        broker = SubscriptionBroker(engine)
        subscribed = pick_subscribed_queries(list(engine.queries), SUBSCRIBED_QUERIES)
        subscription = broker.subscribe("bench", subscribed)
        received = []
        start = time.perf_counter()
        for index in range(0, len(updates), poll_every):
            broker.on_batch(updates[index : index + poll_every])
            received.extend(subscription.drain())
        best = min(best, time.perf_counter() - start)
    state = replay_deltas(received)
    reconstructed = {
        query_id: sorted(state.get(query_id, set())) for query_id in subscribed
    }
    return best, received, reconstructed, subscribed, engine


def test_subscription_delivery_beats_polling():
    """Broker-delivered k-of-n match deltas beat polling every satisfied query.

    Also the sharding equivalence gate: the reconstructed per-query states
    (cumulative delivered deltas) must be byte-identical across 1, 2 and 4
    shards and equal to a fresh ``matches_of`` on every side.
    """
    scale = min(bench_scale_from_env(default=DEFAULT_SCALE), POLLING_SCALE_CAP)
    updates, workload = _deletion_heavy_workload(scale)
    poll_every = _poll_cadence(len(updates))
    repeats = _repeats_for(scale)

    poll_s, polls, answers_decoded, poll_engine = _drive_poll_all(
        updates, workload, poll_every=poll_every, repeats=repeats
    )

    per_shard: Dict[str, Dict[str, float]] = {}
    reconstructions: Dict[int, str] = {}
    deltas_delivered = 0
    subscribed: List[str] = []
    for shards in SHARD_COUNTS:
        sub_s, received, reconstructed, subscribed, engine = _drive_subscribed(
            updates, workload, shards=shards, poll_every=poll_every, repeats=repeats
        )
        # Byte-identity gate 1: delivered deltas compose to fresh matches_of
        # on the engine that produced them *and* on the polling baseline.
        for query_id in subscribed:
            expected = [
                tuple(sorted(b.items())) for b in engine.matches_of(query_id)
            ]
            assert reconstructed[query_id] == sorted(set(expected)), (shards, query_id)
            baseline = [
                tuple(sorted(b.items())) for b in poll_engine.matches_of(query_id)
            ]
            assert sorted(set(baseline)) == reconstructed[query_id], (shards, query_id)
        reconstructions[shards] = json.dumps(
            {q: [list(map(list, key)) for key in rows] for q, rows in reconstructed.items()},
            sort_keys=True,
        )
        deltas_delivered = len(received)
        per_shard[str(shards)] = round(sub_s, 4)

    # Byte-identity gate 2: identical reconstructions across shard counts.
    assert len(set(reconstructions.values())) == 1, "sharded answers diverged"

    results = {
        "TRIC+": {
            "poll_all_s": round(poll_s, 4),
            "polls": polls,
            "answers_decoded": answers_decoded,
            "subscribe_s": per_shard,
            "subscribed": len(subscribed),
            "deltas_delivered": deltas_delivered,
            "speedup_vs_poll": round(poll_s / float(per_shard["1"]), 2),
        }
    }
    print()
    print(
        f"subscription vs polling ({len(updates)} updates, poll_every={poll_every}, "
        f"{len(subscribed)}-of-{len(workload.queries)} subscribed)"
    )
    rows = [
        (
            "TRIC+",
            f"{poll_s:.3f}",
            *(f"{per_shard[str(s)]:.3f}" for s in SHARD_COUNTS),
            f"{results['TRIC+']['speedup_vs_poll']:.2f}x",
        )
    ]
    print(
        format_table(
            ("engine", "poll-all (s)", "sub x1 (s)", "sub x2 (s)", "sub x4 (s)", "speedup"),
            rows,
        )
    )
    _write_json(
        {
            "subscription_delivery": {
                "scale": scale,
                "num_updates": len(updates),
                "num_queries": len(workload.queries),
                "poll_every": poll_every,
                "engines": results,
            }
        }
    )
    # Delivering deltas for k watched queries must beat decoding every
    # satisfied query's full answer set each round.  At the committed scale
    # this holds for *every* shard count (the replay is single-threaded, so
    # sharding adds serialized fan-out overhead and can only lose ground
    # here — its win is per-shard parallelism and index locality at real
    # deployment scale); below the strict scale the answer sets are tiny
    # and fixed per-shard overheads dominate, so CI smokes hold only the
    # unsharded comparison to a noise bound (identity stays asserted above).
    strict = scale >= STRICT_PAIR_SCALE
    for shards in SHARD_COUNTS if strict else (1,):
        sub_s = float(per_shard[str(shards)])
        ceiling = 1.0 if strict else PAIR_NOISE_TOLERANCE
        assert sub_s < poll_s * ceiling, (
            f"subscription mode (x{shards}) not cheaper than polling "
            f"({sub_s:.3f}s vs {poll_s:.3f}s)"
        )


# ----------------------------------------------------------------------
# Affected-aware flushing vs PR 4's flush-everything broker
# ----------------------------------------------------------------------
#: Engines compared on the affected-flush workload: the slow path (base
#: TRIC snapshot-diffs matches_of for every flushed query) is where
#: skipping pays most; the fast path (TRIC+ delta-log reads) shows the
#: remaining per-query bookkeeping being skipped too.
AFFECTED_FLUSH_ENGINES = ("TRIC", "TRIC+")

#: Watched queries for the affected-flush comparison: a dashboard-style
#: listener over a quarter of the query database, driven per update — the
#: tick shape where "most ticks touch few watched queries" and PR 4's
#: flush-everything broker pays per-watched-query work every single tick.
AFFECTED_WATCHED_QUERIES = 20


def _drive_broker_subscribed(
    engine_name: str,
    updates: Sequence[Update],
    workload,
    *,
    affected_flush: bool,
    batch_size: int,
    repeats: int,
    shards: int = 1,
    executor: str = "serial",
    watched: int = SUBSCRIBED_QUERIES,
    group_factory=None,
):
    """Replay through a subscribed broker; best-of-N seconds plus state.

    ``batch_size == 1`` drives per-update ticks (``broker.on_update``),
    larger values micro-batch ticks.  Returns ``(best seconds,
    reconstructed states, subscribed ids, flush counters, engine)`` — the
    reconstruction (fold of every delivered delta) is what the
    byte-identity assertions compare across brokers, executors and shard
    counts.  ``group_factory`` swaps in a custom sharded-group class (the
    per-run fan-out baseline).
    """
    from repro.bench.experiments import pick_subscribed_queries
    from repro.engines import create_sharded_engine
    from repro.pubsub import SubscriptionBroker, replay_deltas

    best = float("inf")
    received: List = []
    engine = None
    broker = None
    subscribed: List[str] = []
    for _ in range(repeats):
        if engine is not None and hasattr(engine, "close"):
            engine.close()
        if group_factory is not None:
            engine = group_factory()
        else:
            engine = create_sharded_engine(engine_name, shards, executor=executor)
        runner = StreamRunner(engine)
        runner.index_queries(workload.queries)
        broker = SubscriptionBroker(engine, affected_flush=affected_flush)
        subscribed = pick_subscribed_queries(list(engine.queries), watched)
        subscription = broker.subscribe("bench", subscribed)
        received = []
        start = time.perf_counter()
        if batch_size == 1:
            for update in updates:
                broker.on_update(update)
                received.extend(subscription.drain())
        else:
            for index in range(0, len(updates), batch_size):
                broker.on_batch(updates[index : index + batch_size])
                received.extend(subscription.drain())
        best = min(best, time.perf_counter() - start)
    state = replay_deltas(received)
    reconstructed = {
        query_id: sorted(state.get(query_id, set())) for query_id in subscribed
    }
    counters = {
        "flushes": broker.flushes,
        "queries_flushed": broker.queries_flushed,
        "queries_skipped": broker.queries_skipped,
    }
    return best, reconstructed, subscribed, counters, engine


def test_affected_flush_beats_flush_everything():
    """Consulting the BatchReport beats flushing every watched query per tick.

    Per-update ticks over the deletion-heavy stream with a dashboard-style
    listener (20 of the ~80 queries watched) are exactly the shape the
    report targets: most ticks touch few (often none) of the watched
    queries, so the flush-everything broker pays per-watched-query work —
    a full ``matches_of`` snapshot diff per tick on the slow path — that
    the affected-aware broker provably skips.  Delivered states must stay
    byte-identical, and equal to a fresh ``matches_of``, on both sides.
    """
    scale = min(bench_scale_from_env(default=DEFAULT_SCALE), POLLING_SCALE_CAP)
    updates, workload = _deletion_heavy_workload(scale)
    repeats = _repeats_for(scale)

    results: Dict[str, Dict[str, object]] = {}
    for engine_name in AFFECTED_FLUSH_ENGINES:
        flush_all_s, state_all, subscribed, _, _ = _drive_broker_subscribed(
            engine_name,
            updates,
            workload,
            affected_flush=False,
            batch_size=1,
            repeats=repeats,
            watched=AFFECTED_WATCHED_QUERIES,
        )
        affected_s, state_affected, _, counters, engine = _drive_broker_subscribed(
            engine_name,
            updates,
            workload,
            affected_flush=True,
            batch_size=1,
            repeats=repeats,
            watched=AFFECTED_WATCHED_QUERIES,
        )
        # Byte-identity: skipping flushes must not change what is delivered.
        assert state_affected == state_all, engine_name
        for query_id in subscribed:
            fresh = sorted(
                {tuple(sorted(b.items())) for b in engine.matches_of(query_id)}
            )
            assert state_affected[query_id] == fresh, (engine_name, query_id)
        results[engine_name] = {
            "flush_all_s": round(flush_all_s, 4),
            "affected_s": round(affected_s, 4),
            "speedup": round(flush_all_s / affected_s, 2),
            "queries_flushed": counters["queries_flushed"],
            "queries_skipped": counters["queries_skipped"],
        }
    print()
    print(
        f"affected-aware flush vs flush-everything ({len(updates)} per-update "
        f"ticks, {AFFECTED_WATCHED_QUERIES} watched)"
    )
    rows = [
        (
            name,
            f"{r['flush_all_s']:.3f}",
            f"{r['affected_s']:.3f}",
            r["queries_skipped"],
            f"{r['speedup']:.2f}x",
        )
        for name, r in results.items()
    ]
    print(
        format_table(
            ("engine", "flush-all (s)", "affected (s)", "skipped", "speedup"), rows
        )
    )
    _write_json(
        {
            "affected_flush": {
                "scale": scale,
                "num_updates": len(updates),
                "num_queries": len(workload.queries),
                "batch_size": 1,
                "subscribed": AFFECTED_WATCHED_QUERIES,
                "engines": results,
            }
        }
    )
    # The skip accounting itself must show the workload shape: most ticks
    # touch few watched queries.
    for engine_name, r in results.items():
        assert r["queries_skipped"] > r["queries_flushed"], engine_name
    # >=1.5x on the slow path at the committed scale (the affected set
    # spares a full matches_of diff per skipped query per tick); the
    # fast path must at least never regress.  Smoke scales only guard
    # against gross regression (tiny answer sets flatten the ratio).
    strict = scale >= STRICT_PAIR_SCALE
    floor = 1.5 if strict else 1.0 / PAIR_NOISE_TOLERANCE
    assert results["TRIC"]["speedup"] >= floor, (
        f"affected-aware flushing only {results['TRIC']['speedup']:.2f}x vs "
        f"flush-everything on TRIC (target {floor}x)"
    )
    assert results["TRIC+"]["speedup"] >= (1.0 if strict else 1.0 / PAIR_NOISE_TOLERANCE), (
        f"affected-aware flushing regressed on TRIC+ "
        f"({results['TRIC+']['speedup']:.2f}x)"
    )


# ----------------------------------------------------------------------
# Parallel shard fan-out: serial vs process executors
# ----------------------------------------------------------------------
SHARD_EXECUTORS_BENCHED = ("serial", "process")

#: Micro-batch size for the executor grid: large enough that per-batch
#: shard work dominates dispatch overhead (the regime sharded serving
#: targets — repro-serve and the harness batch their ticks), and the
#: regime where the per-run fan-out baseline pays one shard call per
#: add/delete run instead of one per batch.
PARALLEL_BATCH_SIZE = 128

#: Tolerated wall-clock ratio vs the per-run fan-out baseline for the
#: process executor on a single-CPU host, where its IPC cost buys nothing
#: back (no second core to overlap on) — the bound that keeps the IPC
#: overhead honest instead of pretending a parallelism win.
PROCESS_SINGLE_CPU_FLOOR = 0.5


class _PerRunFanOutGroup(ShardedEngineGroup):
    """PR 4's fan-out, byte for byte: one shard call per per-kind run.

    The current group hands every shard its whole label-relevant batch
    subsequence in a single call; this baseline reverts to the base-class
    ``on_batch`` (split into per-kind runs, fan each run out separately),
    which is what made sharding a pure wall-clock loss in PR 4.
    """

    on_batch = ContinuousEngine.on_batch


def test_parallel_shard_fanout():
    """Concurrent shard execution, byte-identical across executors x shards.

    PR 4 measured that per-run serialized fan-out makes sharding a
    wall-clock *loss*.  This PR attacks both halves: batches now reach each
    shard as one call (run splitting happens inside the shard), and the
    call layer is a pluggable executor.  The grid records
    serial/process x 1/2/4 shards on the deletion-heavy
    subscription workload against the PR 4 per-run baseline, asserts every
    cell reconstructs the same answer states byte for byte, and gates the
    in-process executor on beating that baseline (fan-out scaling >= 1 —
    sharded ticks no longer pay the per-run fan-out tax).  True
    multi-core speedup needs more than one CPU by definition; the host's
    CPU count is committed with the numbers, and on a multi-core host the
    process executor must additionally beat serial fan-out outright.
    """
    scale = min(bench_scale_from_env(default=DEFAULT_SCALE), POLLING_SCALE_CAP)
    updates, workload = _deletion_heavy_workload(scale)
    batch_size = PARALLEL_BATCH_SIZE
    repeats = _repeats_for(scale)
    cpus = os.cpu_count() or 1

    timings: Dict[str, Dict[str, float]] = {"per_run": {}}
    shard_calls: Dict[str, Dict[str, int]] = {"per_run": {}}
    reconstructions: Dict[Tuple[str, int], str] = {}

    def run_cell(executor, shards, group_factory=None):
        seconds, reconstructed, subscribed, _, engine = _drive_broker_subscribed(
            "TRIC+",
            updates,
            workload,
            affected_flush=True,
            batch_size=batch_size,
            repeats=repeats,
            shards=shards,
            executor=executor,
            group_factory=group_factory,
        )
        for query_id in subscribed:
            fresh = sorted(
                {tuple(sorted(b.items())) for b in engine.matches_of(query_id)}
            )
            assert reconstructed[query_id] == fresh, (executor, shards, query_id)
        calls = 0
        if hasattr(engine, "shard_statistics"):
            calls = sum(engine.describe()["shard_batches"])
        if hasattr(engine, "close"):
            engine.close()
        reconstructions[(executor, shards)] = json.dumps(
            {
                q: [list(map(list, key)) for key in rows]
                for q, rows in reconstructed.items()
            },
            sort_keys=True,
        )
        return round(seconds, 4), calls

    for executor in SHARD_EXECUTORS_BENCHED:
        timings[executor] = {}
        shard_calls[executor] = {}
        for shards in SHARD_COUNTS:
            if shards == 1 and executor != "serial":
                continue  # one shard is the unsharded engine; executor moot
            timings[executor][str(shards)], shard_calls[executor][str(shards)] = (
                run_cell(executor, shards)
            )
    for shards in (2, 4):
        timings["per_run"][str(shards)], shard_calls["per_run"][str(shards)] = (
            run_cell(
                "per-run",
                shards,
                group_factory=lambda shards=shards: _PerRunFanOutGroup(
                    "TRIC+", shards, assignment="hash"
                ),
            )
        )
    assert len(set(reconstructions.values())) == 1, (
        "answers diverged across executors/shard counts"
    )

    unsharded_s = timings["serial"]["1"]
    fanout_speedup = {
        executor: {
            shards: round(timings["per_run"][shards] / seconds, 2)
            for shards, seconds in shard_timings.items()
            if shards != "1"
        }
        for executor, shard_timings in timings.items()
        if executor != "per_run"
    }
    scaling_vs_unsharded = {
        executor: {
            shards: round(unsharded_s / seconds, 2)
            for shards, seconds in shard_timings.items()
            if shards != "1"
        }
        for executor, shard_timings in timings.items()
    }
    print()
    print(
        f"parallel shard fan-out ({len(updates)} updates, batch={batch_size}, "
        f"{SUBSCRIBED_QUERIES} subscribed, {cpus} cpu(s); "
        "fan-out scaling = per-run baseline / executor time)"
    )
    rows = []
    for executor in ("per_run",) + SHARD_EXECUTORS_BENCHED:
        shard_timings = timings[executor]
        rows.append(
            (
                executor,
                f"{shard_timings['1']:.3f}" if "1" in shard_timings else "-",
                f"{shard_timings['2']:.3f}",
                f"{shard_timings['4']:.3f}",
                *(
                    (
                        f"{fanout_speedup[executor][s]:.2f}x"
                        if executor in fanout_speedup
                        else "1.00x"
                    )
                    for s in ("2", "4")
                ),
            )
        )
    print(
        format_table(
            ("executor", "x1 (s)", "x2 (s)", "x4 (s)", "fan-out x2", "fan-out x4"),
            rows,
        )
    )
    _write_json(
        {
            "parallel_shards": {
                "scale": scale,
                "num_updates": len(updates),
                "num_queries": len(workload.queries),
                "batch_size": batch_size,
                "subscribed": SUBSCRIBED_QUERIES,
                "cpus": cpus,
                "seconds": timings,
                "shard_calls": shard_calls,
                "fanout_speedup_vs_per_run": fanout_speedup,
                "scaling_vs_unsharded": scaling_vs_unsharded,
            }
        }
    )
    # Deterministic gate on the mechanism itself: the single-call fan-out
    # issues one shard call per batch per relevant shard, where the
    # per-run baseline issues one per add/delete *run* — the overhead that
    # made PR 4's sharding a wall-clock loss.  (Timer-free, so it holds at
    # every scale.)
    for shards in ("2", "4"):
        current = shard_calls["serial"][shards]
        assert shard_calls["process"][shards] == current, "call counts diverged"
        assert shard_calls["per_run"][shards] >= 4 * current, (
            f"per-run baseline at x{shards} no longer pays per-run fan-out "
            f"({shard_calls['per_run'][shards]} vs {current} calls) — "
            "baseline broken?"
        )
    strict = scale >= STRICT_PAIR_SCALE
    if strict:
        for shards in ("2", "4"):
            # The in-process executor must at least match PR 4's per-run
            # fan-out (parity within timer noise): sharded ticks no longer
            # pay the per-run fan-out tax.
            assert fanout_speedup["serial"][shards] >= 0.85, (
                f"serial fan-out at x{shards} behind the per-run "
                f"baseline ({fanout_speedup['serial'][shards]:.2f}x)"
            )
            # The process executor's IPC must stay bounded everywhere, and
            # on a real multi-core host it must win outright.
            floor = 1.0 if cpus >= 2 else PROCESS_SINGLE_CPU_FLOOR
            assert fanout_speedup["process"][shards] >= floor, (
                f"process fan-out at x{shards} below its floor "
                f"({fanout_speedup['process'][shards]:.2f}x < {floor}x, "
                f"{cpus} cpu(s))"
            )


# ----------------------------------------------------------------------
# Durability: journal overhead and snapshot/restore latency
# ----------------------------------------------------------------------
#: Micro-batch size for the durability comparison — one journal append
#: (and, with fsync on, one ``fsync``) per batch of this many additions.
DURABILITY_BATCH_SIZE = 32


def test_durability_overhead():
    """What the write-ahead journal costs, and what a restore buys back.

    Replays the addition-heavy stream three ways — no journal, journal
    without fsync, journal with fsync-per-batch (the durability contract) —
    asserting the per-batch reports byte-identical across all three, then
    times a full snapshot write and a cold ``DurableEngine.recover`` of the
    final state.  The recovered engine must answer byte-identically to the
    engine that never stopped.  No speed gate: fsync cost is storage
    hardware, not code — the committed numbers ARE the deliverable.
    """
    import shutil
    import tempfile

    from repro.persistence import DurableEngine

    scale = min(bench_scale_from_env(default=DEFAULT_SCALE), POLLING_SCALE_CAP)
    updates, workload = _addition_heavy_workload(scale)
    repeats = _repeats_for(scale)
    batch_size = DURABILITY_BATCH_SIZE

    def drive(mode: str, directory):
        best = float("inf")
        reports: List = []
        engine = None
        for _ in range(repeats):
            shutil.rmtree(directory, ignore_errors=True)
            plain = create_engine("TRIC+")
            if mode == "plain":
                engine = plain
            else:
                engine = DurableEngine(
                    plain, directory, fsync=(mode == "journal_fsync")
                )
            runner = StreamRunner(engine)
            runner.index_queries(workload.queries)
            reports = []
            start = time.perf_counter()
            for index in range(0, len(updates), batch_size):
                reports.append(engine.on_batch(updates[index : index + batch_size]))
            best = min(best, time.perf_counter() - start)
        return best, reports, engine

    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch) / "durability"
        plain_s, plain_reports, _ = drive("plain", directory)
        nofsync_s, nofsync_reports, _ = drive("journal_nofsync", directory)
        fsync_s, fsync_reports, durable = drive("journal_fsync", directory)

        # Journaling must be behaviourally invisible, report for report.
        assert plain_reports == nofsync_reports == fsync_reports
        journal_bytes = durable.journal.size_bytes

        start = time.perf_counter()
        durable.write_snapshot()
        snapshot_s = time.perf_counter() - start
        snapshot_bytes = (directory / "snapshot.bin").stat().st_size
        durable.close()

        start = time.perf_counter()
        recovered = DurableEngine.recover(directory)
        restore_s = time.perf_counter() - start
        assert recovered.satisfied_queries() == durable.satisfied_queries()
        for query_id in sorted(recovered.satisfied_queries())[:MAX_POLLED_QUERIES]:
            assert recovered.matches_of(query_id) == durable.matches_of(query_id)
        recovered.close()

    results = {
        "TRIC+": {
            "plain_s": round(plain_s, 4),
            "journal_s": round(nofsync_s, 4),
            "journal_fsync_s": round(fsync_s, 4),
            "plain_updates_per_s": round(len(updates) / plain_s, 1),
            "journal_updates_per_s": round(len(updates) / nofsync_s, 1),
            "journal_fsync_updates_per_s": round(len(updates) / fsync_s, 1),
            "fsync_overhead": round(fsync_s / plain_s, 2),
            "journal_bytes": journal_bytes,
            "snapshot_s": round(snapshot_s, 4),
            "snapshot_bytes": snapshot_bytes,
            "restore_s": round(restore_s, 4),
        }
    }
    print()
    print(
        f"durability overhead ({len(updates)} additions, journal append per "
        f"{batch_size}-update batch)"
    )
    rows = [
        (
            "TRIC+",
            f"{plain_s:.3f}",
            f"{nofsync_s:.3f}",
            f"{fsync_s:.3f}",
            f"{snapshot_s * 1000:.1f}",
            f"{restore_s * 1000:.1f}",
        )
    ]
    print(
        format_table(
            (
                "engine",
                "no journal (s)",
                "journal (s)",
                "journal+fsync (s)",
                "snapshot (ms)",
                "restore (ms)",
            ),
            rows,
        )
    )
    _write_json(
        {
            "durability": {
                "scale": scale,
                "num_updates": len(updates),
                "num_queries": len(workload.queries),
                "batch_size": batch_size,
                "engines": results,
            }
        }
    )


# ----------------------------------------------------------------------
# Replication: replica read scaling, failover & rolling-restart pauses
# ----------------------------------------------------------------------
#: Replica counts per shard for the read-throughput grid.
REPLICA_COUNTS = (0, 1, 2)
#: Read rounds over the polled query subset per grid cell.
REPLICA_READ_ROUNDS = 3
#: Primary kills (and rolling restarts) sampled for the pause percentiles.
FAILOVER_SAMPLES = 3


def _pause_percentiles(samples: Sequence[float]) -> Dict[str, float]:
    ordered = sorted(samples)

    def pick(q: float) -> float:
        return round(ordered[min(len(ordered) - 1, int(q * len(ordered)))], 6)

    return {"p50": pick(0.5), "p90": pick(0.9), "max": round(ordered[-1], 6)}


def test_replication_reads_and_pauses():
    """Replica read scaling plus failover and rolling-restart pauses.

    Three measurements over the deletion-heavy stream on the process
    executor: (1) ``matches_of`` read throughput at 0/1/2 replicas per
    shard — with replicas attached the reads must actually be served by
    them, and every cell's answers must be byte-identical; (2) the pause
    a SIGKILLed primary imposes on the next batch (replica promotion vs
    the 0-replica snapshot-respawn path); (3) the pause of a full
    ``rolling_restart()``.  No speed gate — replica reads pay one IPC
    round-trip either way, so single-host throughput parity plus the
    mechanics assertions (reads served by replicas, promotions not
    respawns, zero degraded shards) are the deliverable, and the
    committed pause percentiles are the paper-facing numbers.
    """
    scale = min(bench_scale_from_env(default=DEFAULT_SCALE), POLLING_SCALE_CAP)
    updates, workload = _deletion_heavy_workload(scale)
    batch_size = PARALLEL_BATCH_SIZE
    cpus = os.cpu_count() or 1

    def build_group(replicas):
        group = ShardedEngineGroup("TRIC+", 2, executor="process", replicas=replicas)
        group.register_all(workload.queries)
        for index in range(0, len(updates), batch_size):
            group.on_batch(updates[index : index + batch_size])
        return group

    def answers_of(group, queries):
        return json.dumps(
            {
                query_id: [
                    sorted(map(list, sorted(binding.items())))
                    for binding in group.matches_of(query_id)
                ]
                for query_id in queries
            },
            sort_keys=True,
        )

    # -- read throughput at 0/1/2 replicas per shard -------------------
    read_grid: Dict[str, Dict[str, float]] = {}
    answers: Dict[int, str] = {}
    for replicas in REPLICA_COUNTS:
        group = build_group(replicas)
        queries = sorted(group.queries)[:MAX_POLLED_QUERIES]
        reads = 0
        start = time.perf_counter()
        for _ in range(REPLICA_READ_ROUNDS):
            for query_id in queries:
                group.matches_of(query_id)
                reads += 1
        read_s = time.perf_counter() - start
        answers[replicas] = answers_of(group, queries)
        served = sum(
            info["replicas"]["reads_served"]
            for info in group.replication_statistics()
            if info["replicas"] is not None
        )
        if replicas:
            assert served >= reads, "replica reads not routed to replicas"
        read_grid[str(replicas)] = {
            "seconds": round(read_s, 4),
            "reads": reads,
            "reads_per_s": round(reads / read_s, 1),
            "served_by_replicas": served,
        }
        group.close()
    assert len(set(answers.values())) == 1, "replica answers diverged"

    # -- failover pause: SIGKILL a primary, time the next batch --------
    def sample_failover(replicas):
        group = build_group(replicas)
        tick = updates[:batch_size]
        baseline = time.perf_counter()
        group.on_batch(tick)
        baseline = time.perf_counter() - baseline
        pauses = []
        for index in range(FAILOVER_SAMPLES):
            group.shards[index % 2].kill_worker()
            start = time.perf_counter()
            group.on_batch(tick)
            pauses.append(time.perf_counter() - start)
        stats = group.replication_statistics()
        promotions = sum(info["promotions"] for info in stats)
        respawns = sum(info["respawns"] for info in stats)
        degraded = group.describe()["degraded_shards"]
        group.close()
        return baseline, pauses, promotions, respawns, degraded

    promote_base, promote_pauses, promotions, promote_respawns, degraded = (
        sample_failover(replicas=1)
    )
    assert promotions == FAILOVER_SAMPLES, "primary kills did not promote"
    assert promote_respawns == 0, "promotion fell back to respawn"
    assert degraded == 0
    respawn_base, respawn_pauses, _, respawns, degraded = sample_failover(replicas=0)
    assert respawns == FAILOVER_SAMPLES, "primary kills did not respawn"
    assert degraded == 0

    # -- rolling-restart pause -----------------------------------------
    group = build_group(replicas=1)
    restart_pauses = []
    for _ in range(FAILOVER_SAMPLES):
        report = group.rolling_restart()
        restart_pauses.extend(report["pause_seconds"])
    assert group.rolling_restarts == FAILOVER_SAMPLES
    queries = sorted(group.queries)[:MAX_POLLED_QUERIES]
    assert answers_of(group, queries) == answers[1], "restart changed answers"
    group.close()

    print()
    print(
        f"replication ({len(updates)} updates, 2 shards, {cpus} cpu(s); "
        f"reads over {MAX_POLLED_QUERIES} queries x {REPLICA_READ_ROUNDS} rounds)"
    )
    rows = [
        (
            f"x{replicas}",
            f"{read_grid[str(replicas)]['seconds']:.3f}",
            f"{read_grid[str(replicas)]['reads_per_s']:.0f}",
            str(read_grid[str(replicas)]["served_by_replicas"]),
        )
        for replicas in REPLICA_COUNTS
    ]
    print(format_table(("replicas", "read (s)", "reads/s", "via replicas"), rows))
    rows = [
        ("promote (1 replica)", *(f"{p * 1000:.1f}" for p in sorted(promote_pauses))),
        ("respawn (0 replicas)", *(f"{p * 1000:.1f}" for p in sorted(respawn_pauses))),
        (
            "rolling restart/shard",
            *(f"{p * 1000:.1f}" for p in sorted(restart_pauses)[:FAILOVER_SAMPLES]),
        ),
    ]
    print(format_table(("pause (ms, sorted)", "fastest", "mid", "slowest"), rows))
    _write_json(
        {
            "replication": {
                "scale": scale,
                "num_updates": len(updates),
                "num_queries": len(workload.queries),
                "batch_size": batch_size,
                "cpus": cpus,
                "shards": 2,
                "read_throughput": read_grid,
                "failover_pause_s": {
                    "batch_baseline_s": round(promote_base, 6),
                    "promote": _pause_percentiles(promote_pauses),
                    "respawn": _pause_percentiles(respawn_pauses),
                    "promotions": promotions,
                    "respawns": respawns,
                },
                "rolling_restart_pause_s": dict(
                    _pause_percentiles(restart_pauses),
                    restarts=FAILOVER_SAMPLES,
                    baseline_s=round(respawn_base, 6),
                ),
            }
        }
    )
