"""The scenario matrix: every engine x every synthetic scenario, oracle-gated.

Every other benchmark replays the same SNB-derived streams, so until now
"fast" has meant "fast on fig12a".  This benchmark runs each of the 8
engines through every scenario of the seeded synthetic workload generator
(``repro.bench.workloads``) — insert-heavy, delete-heavy, bursty,
high-skew, churn-heavy subscriptions, and a long add/delete soak — and
gates every cell on the golden-reference principle: the replay transcript
(per-tick notified ids + the final answer set of every query) must be
**byte-identical** to the string oracle's (``Naive``, full re-evaluation).
A cell that is fast but wrong fails the suite, not the assertion
tolerance.

Each scenario prints one summary line naming the fastest oracle-identical
engine (throughput over the summed tick latencies).  Nothing is written to
disk: the ``scenario_matrix`` section of ``BENCH_hotpath.json`` is a frozen
record of the last cells measured before the matrix stopped writing it.

Environment knobs (all optional):

``REPRO_BENCH_SCALE``
    Global size multiplier (CI smoke uses 0.05-0.1).
``REPRO_SCENARIO_ENGINES``
    Comma-separated engine subset, e.g. ``TRIC+,INV``.
``REPRO_SCENARIO_SCENARIOS``
    Comma-separated scenario subset, e.g. ``insert_heavy,churn_heavy``.

Run directly (the file name keeps it out of the default tier-1
collection)::

    PYTHONPATH=src python -m pytest benchmarks/bench_scenarios.py -q -s
"""

from __future__ import annotations

import os
from typing import Dict, List

from repro.bench.configs import bench_scale_from_env
from repro.bench.workloads import SCENARIOS, generate_workload, run_workload
from repro.engines import ENGINE_FACTORIES
from repro.graph.errors import BenchmarkError

#: The string oracle every cell is gated against.
ORACLE = "Naive"

#: Default scale: the full matrix is 8 engines x 6 scenarios with Naive
#: re-evaluating the whole query database per tick, so the committed
#: numbers run at a moderate scale and CI smoke goes smaller still.
DEFAULT_SCALE = 0.5


def _csv_env(variable: str, default: List[str], universe: List[str]) -> List[str]:
    raw = os.environ.get(variable, "").strip()
    if not raw:
        return default
    names = [name.strip() for name in raw.split(",") if name.strip()]
    unknown = [name for name in names if name not in universe]
    if unknown:
        raise BenchmarkError(
            f"{variable} names unknown entries {unknown}; available: {', '.join(universe)}"
        )
    return names


def test_scenario_matrix_oracle_verified():
    """Every engine x scenario cell must replay byte-identical to the oracle."""
    scale = bench_scale_from_env(default=DEFAULT_SCALE)
    engines = _csv_env(
        "REPRO_SCENARIO_ENGINES", list(ENGINE_FACTORIES), list(ENGINE_FACTORIES)
    )
    scenario_names = _csv_env(
        "REPRO_SCENARIO_SCENARIOS", list(SCENARIOS), list(SCENARIOS)
    )

    for scenario_name in scenario_names:
        spec = SCENARIOS[scenario_name].scaled(scale)
        workload = generate_workload(spec)
        oracle_result = run_workload(workload, ORACLE)
        oracle_digest = oracle_result.transcript_digest()

        throughput: Dict[str, float] = {ORACLE: oracle_result.updates_per_s}
        for engine_name in engines:
            if engine_name == ORACLE:
                continue
            result = run_workload(workload, engine_name)
            # The golden-reference gate: byte identity, not tolerance.
            assert result.transcript == oracle_result.transcript, (
                f"{engine_name} diverged from the {ORACLE} oracle on "
                f"scenario {scenario_name!r} (digest {result.transcript_digest()[:16]} "
                f"vs {oracle_digest[:16]})"
            )
            throughput[engine_name] = result.updates_per_s

        fastest = max(throughput, key=throughput.__getitem__)
        print(
            f"[{scenario_name}] {len(workload.stream)} updates / "
            f"{workload.num_ticks} ticks, {len(workload.queries)} queries — "
            f"all {len(throughput)} engines oracle-identical; fastest: {fastest} "
            f"({throughput[fastest]:.0f} upd/s)"
        )
