"""Traffic monitoring over a taxi-ride stream (paper Section 1, use case ii).

Continuous queries over the synthetic NYC-style taxi stream watch for
operational patterns as rides arrive:

* ``hot-zone-roundtrip`` — a ride that picks up and drops off in the same
  zone (circling traffic),
* ``airport-cash``      — rides to the airport zone paid in cash,
* ``double-shift``      — a driver sharing shifts with another driver while
  both operate rides that pick up in the same zone.

The example replays the scaled TAXI dataset through several engines and
prints a small comparison table (the per-figure benchmarks do the same at
larger scale for Fig. 14a).

Run with::

    python examples/traffic_monitoring.py
"""

from __future__ import annotations

from repro import QueryBuilder, create_engine
from repro.datasets import TaxiConfig, TaxiGenerator
from repro.streams import format_replay_results, replay

AIRPORT_ZONE = "zone_0_0"


def build_queries():
    """Three domain queries over the taxi graph schema."""
    roundtrip = (
        QueryBuilder("hot-zone-roundtrip", name="ride starting and ending in the same zone")
        .edge("pickupAt", "?ride", "?zone")
        .edge("dropoffAt", "?ride", "?zone")
        .build()
    )
    airport_cash = (
        QueryBuilder("airport-cash", name="cash-paid rides to the airport zone")
        .edge("dropoffAt", "?ride", AIRPORT_ZONE)
        .edge("paidWith", "?ride", "cash")
        .build()
    )
    double_shift = (
        QueryBuilder("double-shift", name="shift-sharing drivers picking up in one zone")
        .edge("sharesShiftWith", "?d1", "?d2")
        .edge("drivenBy", "?r1", "?d1")
        .edge("drivenBy", "?r2", "?d2")
        .edge("pickupAt", "?r1", "?zone")
        .edge("pickupAt", "?r2", "?zone")
        .build()
    )
    return [roundtrip, airport_cash, double_shift]


def main() -> None:
    stream = TaxiGenerator(TaxiConfig(num_updates=3_000, seed=5)).stream()
    print("stream statistics:", stream.statistics())
    queries = build_queries()

    results = []
    matches_per_engine = {}
    for name in ("TRIC+", "TRIC", "INC", "GraphDB"):
        engine = create_engine(name)
        engine.register_all(queries)
        results.append(replay(engine, [[update] for update in stream], time_budget_s=60))
        matches_per_engine[name] = {
            query.query_id: len(engine.matches_of(query.query_id)) for query in queries
        }

    print()
    print(format_replay_results(results))
    print()
    print("embeddings found per query:")
    for name, counts in matches_per_engine.items():
        print(f"  {name:8s} {counts}")

    reference = matches_per_engine["TRIC+"]
    for name, counts in matches_per_engine.items():
        assert counts == reference, f"{name} disagrees with TRIC+ on match counts"
    print("\nall engines report identical match counts.")


if __name__ == "__main__":
    main()
