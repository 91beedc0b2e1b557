"""Deletion-heavy stream benchmark: the counting delta pipeline under churn.

The seed implementation handled a deletion by rebuilding every affected
sub-trie from the base views and dropping the TRIC+ caches wholesale.  The
unified delta pipeline instead propagates deletions down the tries as
negative deltas (counting-based incremental maintenance) and patches every
cache through the views' signed delta logs; the legacy rebuild strategy has
since been removed entirely (the last seed-vs-current comparison is frozen
in ``BENCH_hotpath.json``).  This benchmark replays a deletion-heavy
SNB stream (~45 % deletions after warm-up) through the base and
answer-materialising engine tiers and through micro-batch sizes
{1, 16, 256}, printing the total answering time of each configuration and
asserting answer equivalence throughout.

Run directly (the file name keeps it out of the default tier-1 collection)::

    PYTHONPATH=src python -m pytest benchmarks/bench_deletions.py -q -s
"""

from __future__ import annotations

import random
import time
from typing import List

from repro.bench.configs import bench_scale_from_env
from repro.bench.experiments import build_stream, build_workload
from repro.engines import create_engine
from repro.graph.elements import Update, delete
from repro.query.generator import QueryWorkload
from repro.streams import replay
from repro.streams.report import format_table

#: Batch sizes compared by the micro-batch benchmark.
BATCH_SIZES = (1, 16, 256)

#: Probability of retracting a live edge after each addition (post warm-up).
DELETION_PRESSURE = 0.45

#: Additions kept live before deletions start.
WARMUP_EDGES = 50


def _deletion_heavy_workload(scale: float) -> tuple[List[Update], QueryWorkload]:
    """An SNB stream interleaved with deletions of random live edges."""
    num_additions = max(400, int(8_000 * scale))
    stream = build_stream("snb", num_additions, seed=17)
    workload = build_workload(
        stream,
        num_queries=max(20, int(400 * scale)),
        avg_edges=5,
        selectivity=0.25,
        overlap=0.35,
        seed=18,
    )
    rng = random.Random(7)
    live, updates = [], []
    for update in stream:
        updates.append(update)
        live.append(update.edge)
        if len(live) > WARMUP_EDGES and rng.random() < DELETION_PRESSURE:
            edge = live.pop(rng.randrange(len(live)))
            updates.append(delete(edge.label, edge.source, edge.target))
    return updates, workload


def _replay(
    engine_name: str, updates, workload, *, batch_size: int = 1, repeats: int = 1, **engine_kwargs
):
    """Replay the stream ``repeats`` times on fresh engines; keep the best time.

    Best-of-N damps scheduler/GC noise, which matters when the timing feeds
    an assertion on CI runners at tiny scales.
    """
    best, satisfied = float("inf"), frozenset()
    ticks = [updates[i : i + batch_size] for i in range(0, len(updates), batch_size)]
    for _ in range(repeats):
        engine = create_engine(engine_name, **engine_kwargs)
        engine.register_all(workload.queries)
        start = time.perf_counter()
        replay(engine, ticks)
        best = min(best, time.perf_counter() - start)
        satisfied = engine.satisfied_queries()
    return best, satisfied


def test_deletion_heavy_tiers_agree():
    """Base and answer-materialising tiers agree under deletion churn.

    The counting delta pipeline drives both tiers; timings are printed for
    the trajectory, equivalence of the satisfied sets is the assertion.
    """
    scale = bench_scale_from_env()
    updates, workload = _deletion_heavy_workload(scale)
    num_deletions = sum(1 for update in updates if update.is_deletion)

    rows = []
    results = {}
    for engine_name in ("TRIC", "TRIC+", "INV", "INV+", "INC", "INC+"):
        elapsed, satisfied = _replay(engine_name, updates, workload, repeats=3)
        results[engine_name] = (elapsed, satisfied)
        rows.append((engine_name, f"{elapsed:.3f}", len(satisfied)))

    print()
    print(
        f"deletion-heavy SNB stream: {len(updates)} updates "
        f"({num_deletions} deletions), |QDB| = {len(workload.queries)}"
    )
    print(format_table(("engine", "total answering (s)", "satisfied"), rows))

    reference = results["TRIC"][1]
    for engine_name, (_, satisfied) in results.items():
        # Answer equivalence across engines and tiers is non-negotiable.
        assert satisfied == reference, engine_name


def test_micro_batch_sizes_are_answer_equivalent():
    """Batch sizes {1, 16, 256} agree on answers; timings are reported."""
    scale = bench_scale_from_env()
    updates, workload = _deletion_heavy_workload(scale)

    rows = []
    satisfied_by_batch = {}
    for batch_size in BATCH_SIZES:
        for engine_name in ("TRIC+", "INV+", "GraphDB"):
            elapsed, satisfied = _replay(
                engine_name, updates, workload, batch_size=batch_size
            )
            satisfied_by_batch.setdefault(engine_name, {})[batch_size] = satisfied
            rows.append((engine_name, batch_size, f"{elapsed:.3f}", len(satisfied)))

    print()
    print(format_table(("engine", "batch size", "total answering (s)", "satisfied"), rows))

    for engine_name, by_batch in satisfied_by_batch.items():
        reference = by_batch[BATCH_SIZES[0]]
        for batch_size, satisfied in by_batch.items():
            assert satisfied == reference, (
                f"{engine_name}: batch size {batch_size} changed the answers"
            )
