"""Protein-interaction monitoring on a BioGRID-style stream (paper use case i).

PPI repositories are continuously updated with newly observed interactions.
Scientists can subscribe to structural motifs and be notified the moment the
motif appears, instead of re-running searches manually.  The BioGRID-style
workload is the paper's stress test: there is a single edge label, so every
update affects every registered query.

Monitored motifs:

* ``triangle``    — three proteins interacting in a cycle (a tightly coupled
  complex candidate),
* ``hub-bridge``  — a protein that interacts with two others which also
  interact with each other through a fourth protein,
* ``chain-to-tp53`` — an interaction chain of length three ending at a fixed
  protein of interest.

Run with::

    python examples/protein_interactions.py
"""

from __future__ import annotations

from repro import QueryBuilder, SubscriptionBroker, create_engine
from repro.datasets import BioGridConfig, BioGridGenerator
from repro.streams import format_replay_results, replay

PROTEIN_OF_INTEREST = "protein7"


def build_queries():
    """Three structural motifs over the single-label interaction graph."""
    triangle = (
        QueryBuilder("triangle", name="interaction triangle")
        .edge("interacts", "?a", "?b")
        .edge("interacts", "?b", "?c")
        .edge("interacts", "?c", "?a")
        .build()
    )
    hub_bridge = (
        QueryBuilder("hub-bridge", name="hub protein bridging two partners")
        .edge("interacts", "?hub", "?p1")
        .edge("interacts", "?hub", "?p2")
        .edge("interacts", "?p1", "?via")
        .edge("interacts", "?p2", "?via")
        .build()
    )
    chain = (
        QueryBuilder("chain-to-tp53", name="three-step chain to the protein of interest")
        .edge("interacts", "?a", "?b")
        .edge("interacts", "?b", "?c")
        .edge("interacts", "?c", PROTEIN_OF_INTEREST)
        .build()
    )
    return [triangle, hub_bridge, chain]


def main() -> None:
    stream = BioGridGenerator(BioGridConfig(num_updates=1_500, num_proteins=120, seed=9)).stream()
    print("stream statistics:", stream.statistics())
    queries = build_queries()

    results = []
    first_hit = {}
    deltas_delivered = 0
    for name in ("TRIC+", "TRIC", "INV"):
        engine = create_engine(name)
        engine.register_all(queries)
        target, subscription = engine, None
        if name == "TRIC+":
            # Subscribe to every motif on the fastest engine: the broker
            # delivers the appearing/disappearing embeddings as match deltas.
            # ``block`` keeps delivery lossless (we drain once, after the
            # replay, and want the *first* appearance of each motif).
            target = SubscriptionBroker(engine)
            subscription = target.subscribe(policy="block")
        results.append(replay(target, [[update] for update in stream], time_budget_s=120))
        if subscription is not None:
            for delta in subscription.drain():
                deltas_delivered += 1
                if delta.added:
                    first_hit.setdefault(delta.query_id, delta.timestamp)

    print()
    print(format_replay_results(results))
    print()
    print("first update at which each motif appeared (TRIC+ match deltas):")
    for query in queries:
        timestamp = first_hit.get(query.query_id)
        status = f"update #{timestamp}" if timestamp is not None else "never"
        print(f"  {query.query_id:15s} {status}")
    print(f"\ntotal match deltas delivered: {deltas_delivered}")


if __name__ == "__main__":
    main()
