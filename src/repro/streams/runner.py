"""Stream replay: drive an engine with a stream, tick by tick, and measure it.

:func:`replay` is the one loop that reproduces the paper's measurement
protocol for every harness in the package (the figure runner, the scenario
matrix and ``repro-serve``):

* *answering time* — wall-clock time per tick to determine the satisfied
  queries (averaged over the stream),
* *time budget* — the paper aborts algorithms that exceed 24 hours on an
  experiment; the loop accepts a (much smaller) budget and reports the
  number of updates processed before it was exhausted, which is how the
  "timed out at |GE| = X" asterisks of Figs. 12(f), 13(a) and 14 are
  regenerated,
* *subscriptions* — when the target is a
  :class:`~repro.pubsub.broker.SubscriptionBroker`, every tick flows through
  the broker, which delivers per-subscription match deltas; the optional
  ``poll_every`` loop polls ``matches_of`` of every satisfied query instead.

Indexing time (query registration) and memory footprints are measured by
the callers that report them, around the call.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, Optional, Sequence, Tuple

from ..core.engine import ContinuousEngine
from ..graph.elements import Update
from ..pubsub.broker import SubscriptionBroker
from .metrics import TimingStats

__all__ = ["ReplayResult", "replay"]

#: Per-tick hook: ``(tick index, the tick's updates, notified query ids)``,
#: called after the tick (and its broker flush) and outside the timing.
TickHook = Callable[[int, Sequence[Update], FrozenSet[str]], None]


@dataclass
class ReplayResult:
    """Outcome of replaying one stream through one engine.

    ``answering`` holds one sample per tick (one ``on_batch`` call) and
    ``matched_updates`` counts the ticks that produced a non-empty answer
    set.
    """

    engine: str
    num_updates: int = 0
    updates_processed: int = 0
    answering: TimingStats = field(default_factory=TimingStats)
    matches_emitted: int = 0
    matched_updates: int = 0
    timed_out: bool = False
    #: Deep size of the engine after the replay, when the caller measured it.
    memory_bytes: Optional[int] = None
    #: ``matches_of`` polling (``poll_every``): per-poll-round timings and
    #: the total number of answer dictionaries decoded across the replay.
    polling: TimingStats = field(default_factory=TimingStats)
    answers_decoded: int = 0
    #: Broker mode: deltas delivered to subscriptions, answer dictionaries
    #: carried by them, and the per-policy overflow events observed across
    #: the replay.
    deltas_delivered: int = 0
    delta_answers: int = 0
    deltas_dropped: int = 0
    deltas_coalesced: int = 0
    backpressure_events: int = 0
    #: Names of subscriptions that exceeded capacity under
    #: ``OverflowPolicy.BLOCK`` at any point of the replay (including
    #: initial-snapshot deliveries) — the producer-facing backpressure flag
    #: that used to live only on the broker's internals.
    backpressured_subscriptions: Tuple[str, ...] = ()
    #: Affected-aware flushing: watched queries whose deltas were collected
    #: across the replay's ticks, and watched queries skipped because the
    #: engine's ``BatchReport`` proved the batch could not touch them.
    queries_flushed: int = 0
    queries_skipped: int = 0
    #: Canonical oracle transcript, when the caller records one
    #: (:func:`repro.bench.workloads.run_workload`).
    transcript: str = ""

    @property
    def backpressured(self) -> bool:
        """``True`` when any ``BLOCK`` subscription exceeded its capacity."""
        return bool(self.backpressured_subscriptions) or self.backpressure_events > 0

    @property
    def answering_time_ms_per_update(self) -> float:
        """Mean answering time per stream update in milliseconds.

        Computed from the total answering time over the updates actually
        processed, so it stays a *per-update* figure whatever the tick size.
        """
        if self.updates_processed == 0:
            return 0.0
        return self.answering.total_seconds / self.updates_processed * 1e3

    @property
    def total_answering_time_s(self) -> float:
        """Total answering time across the replay in seconds."""
        return self.answering.total_seconds

    @property
    def updates_per_s(self) -> float:
        """Throughput: updates processed over the summed tick samples."""
        total = self.answering.total_seconds
        return self.updates_processed / total if total > 0 else 0.0

    @property
    def completed(self) -> bool:
        """``True`` when every update of the stream was processed."""
        return self.updates_processed == self.num_updates and not self.timed_out

    def transcript_digest(self) -> str:
        """SHA-256 of the transcript (what the scenario matrix compares)."""
        return hashlib.sha256(self.transcript.encode("utf-8")).hexdigest()

    def as_dict(self) -> Dict[str, object]:
        """Flat dictionary of the counters, for reports and tests."""
        return {
            "engine": self.engine,
            "num_updates": self.num_updates,
            "updates_processed": self.updates_processed,
            "answering_ms_per_update": round(self.answering_time_ms_per_update, 6),
            "total_answering_s": round(self.total_answering_time_s, 6),
            "matches_emitted": self.matches_emitted,
            "matched_updates": self.matched_updates,
            "timed_out": self.timed_out,
            "memory_bytes": self.memory_bytes,
            "polls": self.polling.count,
            "total_polling_s": round(self.polling.total_seconds, 6),
            "answers_decoded": self.answers_decoded,
            "deltas_delivered": self.deltas_delivered,
            "delta_answers": self.delta_answers,
            "deltas_dropped": self.deltas_dropped,
            "deltas_coalesced": self.deltas_coalesced,
            "backpressure_events": self.backpressure_events,
            "backpressured_subscriptions": list(self.backpressured_subscriptions),
            "queries_flushed": self.queries_flushed,
            "queries_skipped": self.queries_skipped,
        }


def replay(
    target: "ContinuousEngine | SubscriptionBroker",
    ticks: Iterable[Sequence[Update]],
    *,
    poll_every: int = 0,
    time_budget_s: Optional[float] = None,
    on_tick: Optional[TickHook] = None,
) -> ReplayResult:
    """Feed every tick of ``ticks`` to ``target`` and measure it.

    ``target`` is an engine (with its queries already registered) or a
    :class:`~repro.pubsub.broker.SubscriptionBroker` over one; in broker
    mode each tick is the engine call plus the delta flush and delivery,
    and the delivery counters are accumulated on the result.  ``ticks`` is
    any iterable of update sequences — ``SyntheticWorkload.iter_ticks()``,
    list slices ``updates[i : i + n]``, or ``[[u] for u in updates]`` for a
    per-update replay.  Every tick is one ``on_batch`` call, whatever its
    size.

    With ``poll_every > 0``, every ``poll_every`` processed updates the loop
    polls ``matches_of`` for every satisfied query — the ``matches_of``-heavy
    workload that differentiates the answer-materialising ``+`` engines
    from their base variants; poll rounds are timed separately
    (``polling`` / ``answers_decoded``).

    ``on_tick(index, updates, notified)`` runs after every tick, outside the
    timing: the caller's per-tick work (churn events, transcripts, draining
    and printing deltas).  The replay stops early and flags ``timed_out``
    once the cumulative answering (plus polling) time exceeds
    ``time_budget_s``; the unprocessed ticks are still counted in
    ``num_updates``.
    """
    if poll_every < 0:
        raise ValueError("poll_every must not be negative")
    broker = target if isinstance(target, SubscriptionBroker) else None
    engine = broker.engine if broker is not None else target
    result = ReplayResult(engine=engine.name)
    elapsed_total = 0.0
    updates_since_poll = 0
    backpressured_names: set = set()
    iterator = iter(ticks)
    for index, tick in enumerate(iterator):
        size = len(tick)
        result.num_updates += size
        start = time.perf_counter()
        report = target.on_batch(tick)
        elapsed = time.perf_counter() - start
        result.answering.record(elapsed)
        result.updates_processed += size
        elapsed_total += elapsed
        if broker is not None:
            result.deltas_delivered += report.delivered
            result.delta_answers += report.num_changes
            result.deltas_dropped += report.dropped
            result.deltas_coalesced += report.coalesced
            result.backpressure_events += len(report.backpressured)
            backpressured_names.update(report.backpressured)
            result.queries_flushed += report.flushed
            result.queries_skipped += report.skipped
            report = report.notified
        if report:
            result.matched_updates += 1
            result.matches_emitted += len(report)
        if on_tick is not None:
            on_tick(index, tick, report)
        if poll_every:
            updates_since_poll += size
            if updates_since_poll >= poll_every:
                # Keep the remainder so batched replays still poll every
                # ~poll_every updates, not every ceil(poll_every / tick
                # size) ticks.
                updates_since_poll -= poll_every
                poll_start = time.perf_counter()
                for query_id in sorted(engine.satisfied_queries()):
                    result.answers_decoded += len(engine.matches_of(query_id))
                poll_elapsed = time.perf_counter() - poll_start
                result.polling.record(poll_elapsed)
                elapsed_total += poll_elapsed
        if time_budget_s is not None and elapsed_total > time_budget_s:
            result.timed_out = True
            result.num_updates += sum(len(rest) for rest in iterator)
            break
    if broker is not None:
        # A BLOCK queue may also have overflowed outside a tick (the
        # initial snapshot of a mid-replay subscribe); fold any
        # still-over-capacity BLOCK subscription into the flag.
        for name, subscription in broker.subscriptions.items():
            if (
                subscription.backpressured
                or len(subscription.queue) > subscription.capacity
            ):
                backpressured_names.add(name)
        result.backpressured_subscriptions = tuple(sorted(backpressured_names))
    return result
