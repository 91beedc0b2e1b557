"""Quickstart: register continuous queries and feed a stream of graph updates.

Reproduces the running example of the paper (Fig. 2 / Fig. 3): a user wants
to be notified when two people who know each other check in at the same
place.  Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import QueryBuilder, SubscriptionBroker, TRICPlusEngine, add
from repro.streams import replay


def main() -> None:
    # 1. Build a continuous query graph pattern.  Strings starting with "?"
    #    are variables; anything else is a literal vertex.
    checkin_query = (
        QueryBuilder("friends-checkin", name="friends check in at the same place")
        .edge("knows", "?p1", "?p2")
        .edge("checksIn", "?p1", "?place")
        .edge("checksIn", "?p2", "?place")
        .build()
    )

    # 2. Create an engine (TRIC+ is the paper's fastest variant) and register
    #    the query.  Hundreds or thousands of queries can be registered; they
    #    are clustered by their shared sub-patterns.
    engine = TRICPlusEngine()
    engine.register(checkin_query)

    # 3. Subscribe to the query: the broker delivers *match deltas* — the
    #    answer bindings that appeared or disappeared — instead of bare
    #    "query satisfied" notifications.
    broker = SubscriptionBroker(engine)
    inbox = broker.subscribe("quickstart", ["friends-checkin"])

    # 4. Feed the graph stream, one update per tick.  The replay measures
    #    answering time and routes every tick through the broker.
    stream = [
        add("knows", "P1", "P2"),
        add("checksIn", "P1", "rio"),
        add("checksIn", "P3", "rio"),
        add("checksIn", "P2", "rio"),  # completes the pattern for (P1, P2)
    ]
    result = replay(broker, [[update] for update in stream])

    # 5. Inspect the outcome.
    print("updates processed:     ", result.updates_processed)
    print("answering ms/update:   ", f"{result.answering_time_ms_per_update:.4f}")
    print("queries satisfied:     ", sorted(engine.satisfied_queries()))
    print("embeddings of the query:")
    for embedding in engine.matches_of("friends-checkin"):
        print("   ", embedding)
    print("match deltas delivered:")
    for delta in inbox.drain():
        print(f"    t={delta.timestamp} +{list(delta.added)} -{list(delta.removed)}")


if __name__ == "__main__":
    main()
