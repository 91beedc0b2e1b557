"""Subscription broker: per-listener match-delta delivery.

The engines answer *"which queries are satisfied"* per update; an
application serving real users subscribes to *specific* queries and wants
the *changed* answers.  :class:`SubscriptionBroker` sits on top of any
:class:`~repro.core.engine.ContinuousEngine` (including a
:class:`~repro.pubsub.sharding.ShardedEngineGroup`) and

* lets listeners :meth:`~SubscriptionBroker.subscribe` /
  :meth:`~SubscriptionBroker.unsubscribe` to query ids — or to label-based
  predicates over the registered query database — at runtime,
* derives per-query :class:`MatchDelta` events (added/removed binding
  dictionaries) from the delta pipeline's maintained answer relations
  through an :class:`~repro.pubsub.deltas.AnswerDeltaTracker` (exact log
  reads where the engine materialises answers, snapshot diffs elsewhere),
  consulting the engines' :class:`~repro.core.engine.BatchReport` so each
  tick only touches the watched queries the batch could have affected,
* delivers them through per-listener bounded queues with an explicit
  :class:`OverflowPolicy`, or synchronously to a callback.

The consumer contract: per query, deltas arrive in order and compose —
``state = (state - removed) | added``, with ``snapshot=True`` deltas
resetting ``state = added`` — and the composed state always equals a fresh
``matches_of`` of the underlying engine at flush time
(:func:`replay_deltas` implements the fold).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import (
    Callable,
    Deque,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core.engine import ContinuousEngine
from ..graph.elements import Update
from ..graph.errors import SubscriptionError
from .deltas import AnswerDeltaTracker, AnswerKey, canonical_key

__all__ = [
    "OverflowPolicy",
    "MatchDelta",
    "Subscription",
    "BrokerTick",
    "SubscriptionBroker",
    "replay_deltas",
]

#: Synchronous delta consumer attached to a subscription (push mode).
DeltaCallback = Callable[["MatchDelta"], None]


class OverflowPolicy(enum.Enum):
    """What a bounded subscription queue does when a delivery finds it full.

    DROP_OLDEST
        Evict the oldest queued delta (lossy; ``dropped`` counts the
        evictions).  Right for dashboards that only care about recency.
    COALESCE
        Collapse the backlog: the evicted query is marked for *resync* and
        the consumer's next ``pop``/``drain`` serves one ``snapshot=True``
        delta (the query's full current answer set) in place of every
        queued/lost delta for it.  Lossless at the *state* level — the
        composed per-query state stays exact — while the queue stays
        bounded.
    BLOCK
        Never drop: the queue grows past its capacity and the delivery is
        flagged as backpressure (``Subscription.backpressured``,
        ``BrokerTick.backpressured``) so the producer can pause the
        stream.  This is where a threaded deployment would block.
    """

    DROP_OLDEST = "drop-oldest"
    COALESCE = "coalesce"
    BLOCK = "block"

    @classmethod
    def coerce(cls, value: "OverflowPolicy | str") -> "OverflowPolicy":
        """Accept an enum member or its string value (CLI-friendly)."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            options = ", ".join(policy.value for policy in cls)
            raise SubscriptionError(
                f"unknown overflow policy {value!r}; options: {options}"
            ) from None


@dataclass(frozen=True)
class MatchDelta:
    """The answer changes of one subscribed query at one flush.

    ``added`` / ``removed`` are canonically ordered binding dictionaries
    (the same per-answer order as ``matches_of``).  With ``snapshot=True``
    the delta is a resync point: ``added`` holds the query's *full* current
    answer set and ``removed`` is empty — consumers reset their state to it.
    ``timestamp`` is the engine's update count at emission.
    """

    query_id: str
    added: Tuple[Dict[str, str], ...]
    removed: Tuple[Dict[str, str], ...] = ()
    timestamp: int = 0
    snapshot: bool = False

    @property
    def num_changes(self) -> int:
        """Number of answer dictionaries carried by this delta."""
        return len(self.added) + len(self.removed)

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly representation (used by ``repro-serve``)."""
        return {
            "query": self.query_id,
            "added": list(self.added),
            "removed": list(self.removed),
            "snapshot": self.snapshot,
            "t": self.timestamp,
        }


def replay_deltas(deltas: Iterable[MatchDelta]) -> Dict[str, Set[AnswerKey]]:
    """Fold a delta stream into per-query answer states (the consumer
    contract, used by tests to check exact reconstruction)."""
    state: Dict[str, Set[AnswerKey]] = {}
    for delta in deltas:
        answers = state.setdefault(delta.query_id, set())
        if delta.snapshot:
            answers.clear()
        else:
            answers.difference_update(canonical_key(b) for b in delta.removed)
        answers.update(canonical_key(b) for b in delta.added)
    return state


class Subscription:
    """One listener's bounded delta queue over a set of query ids.

    Created by :meth:`SubscriptionBroker.subscribe`; consumers either pull
    (:meth:`pop` / :meth:`drain`) or attach a ``callback`` at subscribe
    time (push mode — the queue and overflow policy are then bypassed,
    deliveries are synchronous).
    """

    def __init__(
        self,
        broker: "SubscriptionBroker",
        name: str,
        query_ids: Set[str],
        *,
        policy: OverflowPolicy,
        capacity: int,
        callback: Optional[DeltaCallback] = None,
    ) -> None:
        self._broker = broker
        self.name = name
        self._query_ids: Set[str] = set(query_ids)
        self.policy = policy
        self.capacity = capacity
        self.callback = callback
        self.queue: Deque[MatchDelta] = deque()
        #: Query ids whose backlog was coalesced; served as snapshot deltas
        #: ahead of the queue on the next pop/drain.
        self._resync: Set[str] = set()
        self.active = True
        # Delivery statistics.
        self.delivered = 0
        self.dropped = 0
        self.coalesced = 0
        self.backpressured = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def query_ids(self) -> FrozenSet[str]:
        """The query ids this subscription currently watches."""
        return frozenset(self._query_ids)

    @property
    def pending(self) -> int:
        """Deltas waiting to be consumed (queued plus pending resyncs)."""
        return len(self.queue) + len(self._resync)

    def __len__(self) -> int:
        return self.pending

    def describe(self) -> Dict[str, object]:
        """Statistics dictionary used in reports and ``repro-serve``."""
        return {
            "subscription": self.name,
            "queries": len(self._query_ids),
            "policy": self.policy.value,
            "capacity": self.capacity,
            "pending": self.pending,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "coalesced": self.coalesced,
            "backpressured": self.backpressured,
        }

    # ------------------------------------------------------------------
    # Consumption (pull mode)
    # ------------------------------------------------------------------
    def pop(self) -> Optional[MatchDelta]:
        """Next pending delta, or ``None`` when the subscription is idle.

        Pending resyncs (coalesced backlog) are served first, as
        ``snapshot=True`` deltas built from the tracker's current state;
        any queued deltas of a resynced query are discarded (the snapshot
        subsumes them).
        """
        if self._resync:
            query_id = min(self._resync)
            self._resync.discard(query_id)
            if self.queue:
                self.queue = deque(
                    delta for delta in self.queue if delta.query_id != query_id
                )
            return self._broker._snapshot_delta(query_id)
        if self.queue:
            return self.queue.popleft()
        return None

    def drain(self) -> List[MatchDelta]:
        """Pop every pending delta."""
        drained: List[MatchDelta] = []
        while True:
            delta = self.pop()
            if delta is None:
                return drained
            drained.append(delta)

    # ------------------------------------------------------------------
    # Delivery (broker-side)
    # ------------------------------------------------------------------
    def _deliver(self, delta: MatchDelta) -> Optional[str]:
        """Enqueue (or push) one delta; returns an overflow event name."""
        self.delivered += 1
        if self.callback is not None:
            self.callback(delta)
            return None
        if delta.query_id in self._resync:
            # The pending snapshot is taken at consume time, so it already
            # covers this delta; queueing it would double-apply.
            self.coalesced += 1
            return "coalesced"
        if len(self.queue) >= self.capacity:
            if self.policy is OverflowPolicy.DROP_OLDEST:
                self.queue.popleft()
                self.dropped += 1
                self.queue.append(delta)
                return "dropped"
            if self.policy is OverflowPolicy.COALESCE:
                victim = self.queue.popleft()
                self._resync.add(victim.query_id)
                self.coalesced += 1
                if delta.query_id == victim.query_id:
                    return "coalesced"
                self.queue.append(delta)
                return "coalesced"
            self.backpressured += 1
            self.queue.append(delta)
            return "backpressured"
        self.queue.append(delta)
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Subscription({self.name!r}, queries={len(self._query_ids)}, "
            f"pending={self.pending}, policy={self.policy.value})"
        )


@dataclass
class BrokerTick:
    """Outcome of driving one update (or batch) through the broker."""

    #: Query ids the engine notified (gained answers / lost their last one).
    notified: FrozenSet[str] = frozenset()
    #: Per-query deltas emitted this tick (every watched query that changed).
    deltas: Tuple[MatchDelta, ...] = ()
    #: Total deliveries across subscriptions (incl. callback pushes).
    delivered: int = 0
    dropped: int = 0
    coalesced: int = 0
    #: Names of subscriptions that exceeded capacity under ``BLOCK`` — the
    #: producer's cue to pause the stream until consumers drain.
    backpressured: Tuple[str, ...] = ()
    #: Watched queries whose deltas were collected this tick, and watched
    #: queries skipped because the engine's :class:`~repro.core.engine.BatchReport`
    #: proved the batch could not have touched them.
    flushed: int = 0
    skipped: int = 0

    @property
    def num_changes(self) -> int:
        """Total answer dictionaries carried by this tick's deltas."""
        return sum(delta.num_changes for delta in self.deltas)


class SubscriptionBroker:
    """Pub/sub façade over one engine (or sharded engine group).

    Drive the stream through :meth:`on_update` / :meth:`on_batch` (which
    forward to the engine and then flush deltas), or drive the engine
    yourself and call :meth:`flush` after each step.
    """

    def __init__(
        self,
        engine: ContinuousEngine,
        *,
        default_policy: "OverflowPolicy | str" = OverflowPolicy.DROP_OLDEST,
        default_capacity: int = 1024,
        affected_flush: bool = True,
    ) -> None:
        if default_capacity < 1:
            raise SubscriptionError("default_capacity must be at least 1")
        self.engine = engine
        self.default_policy = OverflowPolicy.coerce(default_policy)
        self.default_capacity = default_capacity
        #: When ``True`` (the default) :meth:`flush` consults the engine's
        #: :class:`~repro.core.engine.BatchReport` and skips watched queries
        #: the batch provably did not touch.  ``False`` restores the
        #: flush-everything behaviour (the baseline the ``affected_flush``
        #: section of the frozen ``BENCH_hotpath.json`` record compares with).
        self.affected_flush = affected_flush
        self._tracker = AnswerDeltaTracker(engine)
        self._subscriptions: Dict[str, Subscription] = {}
        self._watchers: Dict[str, Set[Subscription]] = {}
        self._names = 0
        # Cumulative flush statistics (surfaced by describe()).
        self.flushes = 0
        self.queries_flushed = 0
        self.queries_skipped = 0

    # ------------------------------------------------------------------
    # Subscription management
    # ------------------------------------------------------------------
    @property
    def subscriptions(self) -> Mapping[str, Subscription]:
        """Live subscriptions keyed by name (read-only use)."""
        return dict(self._subscriptions)

    @property
    def watched_queries(self) -> FrozenSet[str]:
        """Query ids watched by at least one subscription."""
        return frozenset(self._watchers)

    def resolve_queries(
        self,
        query_ids: Optional[Iterable[str]] = None,
        *,
        labels: Optional[Iterable[str]] = None,
    ) -> List[str]:
        """Expand a subscription predicate into sorted registered query ids.

        ``query_ids`` selects explicitly (unknown ids raise); ``labels``
        selects every registered query using at least one of the edge
        labels; both together intersect.  Neither selects the whole query
        database (subscribe-to-all).
        """
        registered = self.engine.queries
        if query_ids is None:
            selected = set(registered)
        else:
            selected = set()
            for query_id in query_ids:
                if query_id not in registered:
                    raise SubscriptionError(f"unknown query id: {query_id!r}")
                selected.add(query_id)
        if labels is not None:
            wanted = set(labels)
            selected = {
                query_id
                for query_id in selected
                if registered[query_id].edge_labels() & wanted
            }
        return sorted(selected)

    def subscribe(
        self,
        name: Optional[str] = None,
        query_ids: Optional[Iterable[str]] = None,
        *,
        labels: Optional[Iterable[str]] = None,
        policy: "OverflowPolicy | str | None" = None,
        capacity: Optional[int] = None,
        callback: Optional[DeltaCallback] = None,
        initial_snapshot: bool = True,
    ) -> Subscription:
        """Create a subscription over ``query_ids`` and/or ``labels``.

        With ``initial_snapshot`` (the default) a ``snapshot=True`` delta
        carrying each selected query's current answers is delivered up
        front (empty answer sets are skipped), so a mid-stream subscriber
        starts from reconstructable state.
        """
        if name is None:
            name = f"sub{self._names}"
        self._names += 1
        if name in self._subscriptions:
            raise SubscriptionError(f"subscription name already in use: {name!r}")
        selected = self.resolve_queries(query_ids, labels=labels)
        if not selected:
            raise SubscriptionError(
                "subscription matches no registered query "
                f"(query_ids={query_ids!r}, labels={labels!r})"
            )
        if capacity is not None and capacity < 1:
            raise SubscriptionError("subscription capacity must be at least 1")
        subscription = Subscription(
            self,
            name,
            set(),
            policy=OverflowPolicy.coerce(policy) if policy is not None else self.default_policy,
            capacity=capacity if capacity is not None else self.default_capacity,
            callback=callback,
        )
        self._subscriptions[name] = subscription
        self.subscribe_queries(subscription, selected, initial_snapshot=initial_snapshot)
        return subscription

    def subscribe_queries(
        self,
        subscription: "Subscription | str",
        query_ids: Iterable[str],
        *,
        initial_snapshot: bool = True,
    ) -> None:
        """Add query ids to an existing subscription at runtime."""
        subscription = self._require_subscription(subscription)
        for query_id in self.resolve_queries(query_ids):
            if query_id in subscription._query_ids:
                continue
            snapshot = (
                self._tracker.watch(query_id)
                if query_id not in self._watchers
                else self._tracker.snapshot(query_id)
            )
            self._watchers.setdefault(query_id, set()).add(subscription)
            subscription._query_ids.add(query_id)
            if initial_snapshot and snapshot:
                subscription._deliver(
                    MatchDelta(
                        query_id,
                        added=tuple(dict(key) for key in snapshot),
                        timestamp=self.engine.updates_processed,
                        snapshot=True,
                    )
                )

    def unsubscribe_queries(
        self, subscription: "Subscription | str", query_ids: Iterable[str]
    ) -> None:
        """Remove query ids from a subscription at runtime."""
        subscription = self._require_subscription(subscription)
        for query_id in query_ids:
            if query_id not in subscription._query_ids:
                continue
            subscription._query_ids.discard(query_id)
            subscription._resync.discard(query_id)
            watchers = self._watchers.get(query_id)
            if watchers is not None:
                watchers.discard(subscription)
                if not watchers:
                    del self._watchers[query_id]
                    self._tracker.unwatch(query_id)

    def unsubscribe(self, subscription: "Subscription | str") -> None:
        """Tear a subscription down (its queue stays drainable)."""
        subscription = self._require_subscription(subscription)
        self.unsubscribe_queries(subscription, list(subscription._query_ids))
        subscription.active = False
        self._subscriptions.pop(subscription.name, None)

    def _require_subscription(self, subscription: "Subscription | str") -> Subscription:
        if isinstance(subscription, str):
            found = self._subscriptions.get(subscription)
            if found is None:
                raise SubscriptionError(f"unknown subscription: {subscription!r}")
            return found
        if not subscription.active:
            raise SubscriptionError(
                f"subscription {subscription.name!r} is no longer active"
            )
        return subscription

    # ------------------------------------------------------------------
    # Stream driving and delta delivery
    # ------------------------------------------------------------------
    def on_update(self, update: Update) -> BrokerTick:
        """Process one stream update (a micro-batch of one) and flush."""
        return self.on_batch([update])

    def on_batch(self, updates: Sequence[Update]) -> BrokerTick:
        """Process a micro-batch and flush deltas once for the whole batch."""
        notified = self.engine.on_batch(updates)
        return self.flush(notified)

    def flush(self, notified: FrozenSet[str] = frozenset()) -> BrokerTick:
        """Collect and deliver the pending deltas of the affected watched queries.

        Safe to call at any time (e.g. when the engine is driven outside
        the broker).  When ``notified`` is a
        :class:`~repro.core.engine.BatchReport` with a known ``affected``
        set (what :meth:`on_update` / :meth:`on_batch` pass through) and
        ``affected_flush`` is on, only watched queries in that set are
        collected — an unaffected query costs *nothing* this tick: no
        delta-log slice on the fast path, no ``matches_of`` snapshot diff
        on the slow path.  A plain frozenset (or an engine that cannot
        narrow its report) flushes every watched query, exactly the
        pre-report behaviour.  Skipping is exact, not lossy: the report's
        completeness contract guarantees an unaffected query's answers did
        not change, and the tracker's positions simply advance at the
        query's next affected (or conservative) flush.

        Callers driving the engine *outside* the broker must pass a report
        covering every engine change since the previous flush — merge
        per-batch reports with :meth:`BatchReport.merge
        <repro.core.engine.BatchReport.merge>`, or call ``flush()`` with no
        argument for a conservative full flush.
        """
        affected = (
            getattr(notified, "affected", None) if self.affected_flush else None
        )
        if affected is None:
            candidates = sorted(self._watchers)
            skipped = 0
        else:
            candidates = sorted(
                query_id for query_id in self._watchers if query_id in affected
            )
            skipped = len(self._watchers) - len(candidates)
        deltas: List[MatchDelta] = []
        delivered = dropped = coalesced = 0
        backpressured: List[str] = []
        timestamp = self.engine.updates_processed
        self.flushes += 1
        self.queries_flushed += len(candidates)
        self.queries_skipped += skipped
        for query_id in candidates:
            watchers = self._watchers.get(query_id)
            if not watchers:
                continue  # a callback un-subscribed it mid-flush
            added, removed = self._tracker.collect(query_id)
            if not added and not removed:
                continue
            delta = MatchDelta(
                query_id,
                added=tuple(dict(key) for key in added),
                removed=tuple(dict(key) for key in removed),
                timestamp=timestamp,
            )
            deltas.append(delta)
            for subscription in tuple(watchers):
                event = subscription._deliver(delta)
                delivered += 1
                if event == "dropped":
                    dropped += 1
                elif event == "coalesced":
                    coalesced += 1
                elif event == "backpressured" and subscription.name not in backpressured:
                    backpressured.append(subscription.name)
        return BrokerTick(
            notified=notified,
            deltas=tuple(deltas),
            delivered=delivered,
            dropped=dropped,
            coalesced=coalesced,
            backpressured=tuple(sorted(backpressured)),
            flushed=len(candidates),
            skipped=skipped,
        )

    def _snapshot_delta(self, query_id: str) -> MatchDelta:
        """Resync delta from the tracker's current state (coalesce path)."""
        keys = (
            self._tracker.snapshot(query_id)
            if query_id in self._tracker.watched
            else [canonical_key(b) for b in self.engine.matches_of(query_id)]
        )
        return MatchDelta(
            query_id,
            added=tuple(dict(key) for key in keys),
            timestamp=self.engine.updates_processed,
            snapshot=True,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        """Metrics dictionary: engine description plus per-listener stats."""
        return {
            "engine": self.engine.describe(),
            "watched_queries": len(self._watchers),
            "affected_flush": self.affected_flush,
            "flushes": self.flushes,
            "queries_flushed": self.queries_flushed,
            "queries_skipped": self.queries_skipped,
            "subscriptions": [
                subscription.describe()
                for _, subscription in sorted(self._subscriptions.items())
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SubscriptionBroker(engine={self.engine.name!r}, "
            f"subscriptions={len(self._subscriptions)}, "
            f"watched={len(self._watchers)})"
        )
