"""Pub/sub serving layer: subscriptions, match deltas, and sharding.

The engines answer "which queries are satisfied" per update; this package
is the serving layer above them — per-listener subscriptions over the
registered query database, exact added/removed answer deltas derived from
the delta pipeline's maintained relations, bounded delivery queues with
explicit overflow policies, and query-database sharding across independent
engine instances.  ``python -m repro.pubsub.serve`` (installed as the
``repro-serve`` console script) replays a dataset while streaming
subscribed deltas as JSON lines.
"""

from .broker import (
    BrokerTick,
    MatchDelta,
    OverflowPolicy,
    Subscription,
    SubscriptionBroker,
    replay_deltas,
)
from .deltas import AnswerDeltaTracker, canonical_key
from .sharding import ShardedEngineGroup

__all__ = [
    "AnswerDeltaTracker",
    "BrokerTick",
    "MatchDelta",
    "OverflowPolicy",
    "ShardedEngineGroup",
    "Subscription",
    "SubscriptionBroker",
    "canonical_key",
    "replay_deltas",
]
