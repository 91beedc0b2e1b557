"""Spam detection on a social-network stream (paper Fig. 1, Section 1).

Two continuous queries watch for malicious behaviour around flagged domains:

* ``spam-clique``  — users who know each other share and like content that
  links to a flagged domain (Fig. 1a),
* ``spam-shared-ip`` — several users share posts linking to a flagged domain
  from the same IP address (Fig. 1b).

Both queries share the sub-pattern ``?user -shares-> ?post -links-> domain``,
which is exactly what TRIC clusters: the shared prefix is indexed and
materialized once.  The example compares TRIC+ with the naive re-evaluation
engine on the same stream to show they agree while doing very different
amounts of work.

Run with::

    python examples/spam_detection.py
"""

from __future__ import annotations

import random

from repro import NaiveEngine, QueryBuilder, TRICPlusEngine, add
from repro.streams import format_replay_results, replay

FLAGGED_DOMAIN = "flagged.example.org"


def build_queries():
    """The two spam-detection patterns of the paper's introduction."""
    clique = (
        QueryBuilder("spam-clique", name="clique of users amplifying a flagged domain")
        .edge("knows", "?u1", "?u2")
        .edge("shares", "?u1", "?post")
        .edge("links", "?post", FLAGGED_DOMAIN)
        .edge("likes", "?u2", "?post")
        .build()
    )
    shared_ip = (
        QueryBuilder("spam-shared-ip", name="flagged posts shared from one IP")
        .edge("shares", "?u1", "?post")
        .edge("links", "?post", FLAGGED_DOMAIN)
        .edge("loggedFrom", "?u1", "?ip")
        .edge("loggedFrom", "?u2", "?ip")
        .edge("shares", "?u2", "?post")
        .build()
    )
    return [clique, shared_ip]


def build_stream(num_users: int = 40, num_posts: int = 60, seed: int = 11):
    """A synthetic activity stream in which a small group misbehaves."""
    rng = random.Random(seed)
    users = [f"user{i}" for i in range(num_users)]
    posts = [f"post{i}" for i in range(num_posts)]
    ips = [f"ip{i}" for i in range(8)]
    updates = []
    for user in users:
        updates.append(add("loggedFrom", user, rng.choice(ips)))
    for post in posts:
        author = rng.choice(users)
        updates.append(add("shares", author, post))
        domain = FLAGGED_DOMAIN if rng.random() < 0.2 else f"site{rng.randrange(10)}.example"
        updates.append(add("links", post, domain))
        for _ in range(rng.randrange(3)):
            updates.append(add("likes", rng.choice(users), post))
    for _ in range(num_users * 2):
        a, b = rng.sample(users, 2)
        updates.append(add("knows", a, b))
    rng.shuffle(updates)
    return updates


def main() -> None:
    queries = build_queries()
    stream = build_stream()

    results = []
    engines = {}
    for engine in (TRICPlusEngine(), NaiveEngine()):
        engine.register_all(queries)
        results.append(replay(engine, [[update] for update in stream]))
        engines[engine.name] = engine

    print(format_replay_results(results))
    print()
    for name, engine in engines.items():
        print(f"{name}: satisfied queries -> {sorted(engine.satisfied_queries())}")
    tric_matches = engines["TRIC+"].matches_of("spam-clique")
    print(f"\nTRIC+ found {len(tric_matches)} spam-clique embeddings; first few:")
    for embedding in tric_matches[:5]:
        print("   ", embedding)

    assert engines["TRIC+"].satisfied_queries() == engines["Naive"].satisfied_queries(), (
        "engines disagree — this should never happen"
    )
    print("\nTRIC+ and the naive oracle agree on the satisfied queries.")


if __name__ == "__main__":
    main()
