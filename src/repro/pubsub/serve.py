"""``repro-serve``: replay a dataset while streaming subscribed match deltas.

The serving counterpart of ``repro-bench``: build one of the synthetic
dataset streams, register a sampled query database on an engine (optionally
sharded), subscribe a listener to ``k`` of the ``n`` registered queries,
and replay the stream — every added/removed answer of the subscribed
queries is printed to stdout as one JSON object per delta, and a summary
(engine/shard/subscription metrics) goes to stderr.

Usage (also available as ``python -m repro.pubsub.serve``)::

    repro-serve --dataset snb --updates 2000 --queries 100 \
        --engine TRIC+ --shards 4 --subscribe 5-of-100 --policy coalesce
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import sys
import time
from typing import List, Optional, Sequence, Tuple

from ..engines import available_engines, create_sharded_engine
from ..graph.elements import Update, delete
from ..graph.errors import ReproError
from ..streams.runner import replay
from .broker import OverflowPolicy, SubscriptionBroker
from .sharding import SHARD_EXECUTORS

__all__ = ["main", "build_parser", "pick_subscribed", "parse_subscribe_spec"]


class _ShutdownRequested(Exception):
    """Raised inside the replay loop by the SIGINT/SIGTERM handlers."""

    def __init__(self, signum: int) -> None:
        super().__init__(signal.Signals(signum).name)
        self.reason = signal.Signals(signum).name


#: Set by the SIGHUP handler, consumed at the next tick boundary of the
#: replay: the operator's request for a zero-loss rolling restart.
_SIGHUP_PENDING = {"flag": False}


def parse_subscribe_spec(spec: str) -> Tuple[int, Optional[int]]:
    """Parse ``"k"`` or ``"k-of-n"`` into ``(k, n_or_None)``."""
    parts = spec.split("-of-")
    try:
        if len(parts) == 1:
            return int(parts[0]), None
        if len(parts) == 2:
            return int(parts[0]), int(parts[1])
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected K or K-of-N (e.g. 5 or 5-of-100), got {spec!r}"
    )


def pick_subscribed(query_ids: Sequence[str], k: int, pool: Optional[int] = None) -> List[str]:
    """``k`` query ids spread evenly across the first ``pool`` (sorted) ids."""
    from ..bench.experiments import pick_subscribed_queries

    ordered = sorted(query_ids)
    if pool is not None:
        ordered = ordered[: max(1, pool)]
    return pick_subscribed_queries(ordered, k)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Replay a dataset stream while delivering per-listener "
        "match deltas for subscribed continuous queries.",
    )
    parser.add_argument("--dataset", default="snb", choices=("snb", "taxi", "biogrid"),
                        help="synthetic dataset stream to replay (default snb)")
    parser.add_argument("--updates", type=int, default=2_000,
                        help="stream length in updates (default 2000)")
    parser.add_argument("--queries", type=int, default=100,
                        help="registered query-database size (default 100)")
    parser.add_argument("--engine", default="TRIC+",
                        help="engine name (default TRIC+; see repro-bench --list-engines)")
    parser.add_argument("--shards", type=int, default=1,
                        help="partition the query database across N engine shards")
    parser.add_argument("--assignment", default="hash", choices=("hash", "label"),
                        help="shard assignment strategy (default hash)")
    parser.add_argument("--executor", default="serial",
                        choices=SHARD_EXECUTORS,
                        help="shard fan-out executor: serial (in-process loop) "
                        "or process (one supervised worker process per shard, "
                        "true parallelism; default serial)")
    parser.add_argument("--replicas", type=int, default=0, metavar="N",
                        help="process executor only: attach N replica workers "
                        "per shard — they absorb matches_of/describe reads, "
                        "stand in for a SIGKILLed primary via promotion, and "
                        "make SIGHUP rolling restarts invisible (default 0)")
    parser.add_argument("--subscribe", type=parse_subscribe_spec, default=(5, None),
                        metavar="K[-of-N]",
                        help="subscribe to K queries spread over the first N "
                        "registered (default 5)")
    parser.add_argument("--policy", default=OverflowPolicy.COALESCE.value,
                        choices=[policy.value for policy in OverflowPolicy],
                        help="subscription overflow policy (default coalesce)")
    parser.add_argument("--capacity", type=int, default=256,
                        help="subscription queue capacity (default 256)")
    parser.add_argument("--batch-size", type=int, default=16,
                        help="stream updates per engine micro-batch (default 16)")
    parser.add_argument("--deletions", type=float, default=0.0, metavar="FRACTION",
                        help="interleave this fraction of deletions of live edges "
                        "into the stream (default 0: additions only)")
    parser.add_argument("--seed", type=int, default=17, help="dataset seed (default 17)")
    parser.add_argument("--max-deltas", type=int, default=None,
                        help="stop printing deltas after N (replay continues)")
    parser.add_argument("--journal-dir", default=None, metavar="DIR",
                        help="make the engine durable: write-ahead journal "
                        "every registration and micro-batch into DIR "
                        "(fsync-on-batch), so a crashed server recovers "
                        "byte-identically from snapshot + journal tail")
    parser.add_argument("--snapshot-every", type=int, default=None, metavar="N",
                        help="with --journal-dir: snapshot full engine state "
                        "every N journal records and reset the journal "
                        "(default: journal only)")
    parser.add_argument("--no-fsync", action="store_true",
                        help="with --journal-dir: skip the per-batch fsync "
                        "(faster, loses the power-failure guarantee)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the stderr summary")
    return parser


def _churned(updates: Sequence[Update], fraction: float, seed: int) -> List[Update]:
    """Interleave deletions of previously added edges into the stream."""
    if fraction <= 0:
        return list(updates)
    rng = random.Random(seed)
    live: List = []
    churned: List[Update] = []
    for update in updates:
        churned.append(update)
        live.append(update.edge)
        if len(live) > 25 and rng.random() < fraction:
            edge = live.pop(rng.randrange(len(live)))
            churned.append(delete(edge.label, edge.source, edge.target))
    return churned


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.updates < 1 or args.queries < 1:
        parser.error("--updates and --queries must be positive")
    if args.batch_size < 1:
        parser.error("--batch-size must be at least 1")
    if args.shards < 1:
        parser.error("--shards must be at least 1")
    if args.replicas < 0:
        parser.error("--replicas must not be negative")
    if not 0.0 <= args.deletions <= 1.0:
        parser.error("--deletions must be a fraction in [0, 1]")
    if args.engine not in available_engines():
        parser.error(f"unknown engine {args.engine!r}; known: {', '.join(available_engines())}")

    # Imported lazily: the bench package pulls in the dataset generators,
    # which this module only needs at run time.
    from ..bench.experiments import build_stream, build_workload

    engine = None
    # Handlers go in before the (potentially long) workload build so a
    # SIGTERM at any point of the server's life exits cleanly.
    previous_handlers = _install_signal_handlers()
    try:
        stream = build_stream(args.dataset, args.updates, args.seed)
        workload = build_workload(
            stream,
            num_queries=args.queries,
            avg_edges=5,
            selectivity=0.25,
            overlap=0.35,
            seed=args.seed + 1,
        )
        engine = create_sharded_engine(
            args.engine,
            args.shards,
            assignment=args.assignment,
            executor=args.executor,
            replicas=args.replicas,
            journal_dir=args.journal_dir,
            snapshot_every=args.snapshot_every,
            journal_fsync=not args.no_fsync,
        )
        return _serve(args, engine, workload, stream)
    except ReproError as error:
        print(f"repro-serve: {error}", file=sys.stderr)
        return 2
    except (_ShutdownRequested, KeyboardInterrupt):
        # A signal outside the replay loop (indexing, setup): nothing
        # useful to summarise yet, but still a clean exit.
        return 0
    except BrokenPipeError:
        # Downstream consumer (head, a closed socket) went away: stop
        # streaming quietly, like any well-behaved line-oriented tool.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    finally:
        # Release executor resources (process-shard workers, journal
        # handles) on every exit path, including errors, signals and
        # broken stdout pipes.
        _restore_signal_handlers(previous_handlers)
        if engine is not None and hasattr(engine, "close"):
            engine.close()


def _install_signal_handlers():
    """Route SIGINT/SIGTERM into :class:`_ShutdownRequested` for the replay.

    SIGHUP is different: it does not interrupt anything — the handler only
    flags a pending rolling restart, which the replay performs at the next
    tick boundary (where no delta frame is in flight).

    Returns the previous handlers for :func:`_restore_signal_handlers` (so
    in-process callers — the tests — leave no global state behind).  A
    no-op off the main thread, where ``signal.signal`` is unavailable.
    """
    def _handler(signum, frame):
        raise _ShutdownRequested(signum)

    def _hup_handler(signum, frame):
        _SIGHUP_PENDING["flag"] = True

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _handler)
        except ValueError:  # pragma: no cover - non-main thread
            pass
    if hasattr(signal, "SIGHUP"):
        try:
            previous[signal.SIGHUP] = signal.signal(signal.SIGHUP, _hup_handler)
        except ValueError:  # pragma: no cover - non-main thread
            pass
    return previous


def _restore_signal_handlers(previous) -> None:
    for signum, handler in previous.items():
        try:
            signal.signal(signum, handler)
        except ValueError:  # pragma: no cover - non-main thread
            pass


def _replication_health(engine) -> Optional[dict]:
    """Aggregate proxy-side failover counters (``None``: not a process group).

    Reads only parent-side state — promotions, respawns, degradations,
    replica reseeds/deaths and the journal-seq lag of every replica — so
    sampling it per tick costs no worker round-trips.
    """
    statistics = getattr(engine, "replication_statistics", None)
    if statistics is None:
        return None
    per_shard = statistics()
    if not per_shard:
        return None
    replica_lag: List[List[int]] = []
    reseeds = deaths = 0
    for info in per_shard:
        replicas = info.get("replicas")
        replica_lag.append(list(replicas["lag"]) if replicas else [])
        if replicas:
            reseeds += replicas["reseeds"]
            deaths += replicas["deaths"]
    return {
        "promotions": sum(info["promotions"] for info in per_shard),
        "respawns": sum(info["respawns"] for info in per_shard),
        "restarts": sum(info["restarts"] for info in per_shard),
        "degraded_shards": sum(1 for info in per_shard if info["degraded"]),
        "replica_reseeds": reseeds,
        "replica_deaths": deaths,
        "replica_lag": replica_lag,
    }


def _health_key(health: Optional[dict]):
    """The failure counters of a health sample.  Lag is excluded (it
    breathes benignly between ticks) and so are rolling-restart counts
    (operator-initiated, reported by their own event line) — neither may
    spam failover event lines."""
    if health is None:
        return None
    return (
        health["promotions"],
        health["respawns"],
        health["degraded_shards"],
        health["replica_reseeds"],
        health["replica_deaths"],
    )


def _rolling_restart(args, engine, tick: int) -> int:
    """Perform the SIGHUP-requested rolling restart (returns 1 when done)."""
    restart = getattr(engine, "rolling_restart", None)
    if restart is None:
        if not args.quiet:
            print(
                json.dumps(
                    {"event": "rolling-restart-unsupported", "tick": tick},
                    sort_keys=True,
                ),
                file=sys.stderr,
            )
        return 0
    report = restart()
    if not args.quiet:
        print(
            json.dumps(
                dict(report, event="rolling-restart", tick=tick),
                sort_keys=True,
            ),
            file=sys.stderr,
        )
    return 1


def _serve(args, engine, workload, stream) -> int:
    """Index, subscribe and replay on a ready-made engine (see :func:`main`)."""
    indexing_start = time.perf_counter()
    engine.register_all(workload.queries)
    indexing_s = time.perf_counter() - indexing_start

    broker = SubscriptionBroker(engine)
    k, pool = args.subscribe
    subscribed = pick_subscribed(list(engine.queries), k, pool)
    subscription = broker.subscribe(
        "serve", subscribed, policy=args.policy, capacity=args.capacity
    )

    updates = _churned(list(stream), args.deletions, args.seed + 2)
    printed = delivered = changes = consumed = rolling_restarts = 0
    shutdown: Optional[str] = None
    # Failover visibility: proxy-side replication counters are sampled
    # after every tick (cheap — no worker IPC) and any change is reported
    # to stderr as one event line, so operators see promotions, respawns
    # and reseeds as they happen rather than only in the final summary.
    last_health_key = _health_key(_replication_health(engine))

    def on_tick(index: int, tick: Sequence[Update], notified) -> None:
        nonlocal printed, delivered, changes, consumed, last_health_key
        consumed += len(tick)
        for matched in subscription.drain():
            delivered += 1
            changes += matched.num_changes
            if args.max_deltas is None or printed < args.max_deltas:
                print(json.dumps(matched.as_dict(), sort_keys=True))
                printed += 1
        health = _replication_health(engine)
        health_key = _health_key(health)
        if health_key != last_health_key:
            if not args.quiet and health is not None:
                print(
                    json.dumps(dict(health, event="failover", tick=index + 1), sort_keys=True),
                    file=sys.stderr,
                )
            last_health_key = health_key

    def ticks():
        nonlocal rolling_restarts
        for index, start in enumerate(range(0, len(updates), args.batch_size)):
            # A SIGHUP is honoured before the next tick, at the batch
            # boundary where no delta frame is in flight.
            if _SIGHUP_PENDING["flag"]:
                _SIGHUP_PENDING["flag"] = False
                rolling_restarts += _rolling_restart(args, engine, index)
            yield updates[start : start + args.batch_size]

    replay_start = time.perf_counter()
    try:
        replay(broker, ticks(), on_tick=on_tick)
    except _ShutdownRequested as stop:
        # Graceful shutdown: stop the replay where it is, still flush the
        # stderr summary below, let main() close the shards, exit 0.
        shutdown = stop.reason
    except KeyboardInterrupt:  # a raw ^C that bypassed the installed handler
        shutdown = "SIGINT"
    except BrokenPipeError:
        # Client disconnect mid-stream: the summary still goes to stderr.
        shutdown = "client-disconnect"
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    replay_s = time.perf_counter() - replay_start

    if not args.quiet:
        summary = {
            "dataset": args.dataset,
            "engine": engine.name,
            "updates": len(updates),
            "updates_consumed": consumed,
            "queries": engine.num_queries,
            "subscribed": sorted(subscribed),
            "indexing_s": round(indexing_s, 4),
            "replay_s": round(replay_s, 4),
            "updates_per_s": round(consumed / replay_s, 1) if replay_s else None,
            "deltas_delivered": delivered,
            "answers_changed": changes,
            "flush": {
                "affected_aware": broker.affected_flush,
                "flushes": broker.flushes,
                "queries_flushed": broker.queries_flushed,
                "queries_skipped": broker.queries_skipped,
            },
            "subscription": subscription.describe(),
        }
        if shutdown is not None:
            summary["shutdown"] = shutdown
        description = engine.describe()
        if "durability" in description:
            summary["durability"] = description["durability"]
        if hasattr(engine, "shard_statistics"):
            summary["executor"] = description.get("executor")
            summary["affected_per_batch"] = description.get("affected_per_batch")
            if "shard_respawns" in description:
                summary["shard_respawns"] = description["shard_respawns"]
                summary["shard_replayed_ops"] = description["shard_replayed_ops"]
                summary["degraded_shards"] = description["degraded_shards"]
            health = _replication_health(engine)
            if health is not None:
                summary["replication"] = dict(
                    health, rolling_restarts=rolling_restarts
                )
            summary["shards"] = [
                {
                    "engine": stats.get("engine"),
                    "queries": stats.get("queries"),
                    "updates_processed": stats.get("updates_processed"),
                    "satisfied": stats.get("satisfied"),
                    "batches": batches,
                    "batch_ms_mean": latency,
                }
                for stats, batches, latency in zip(
                    description.get("per_shard", []),
                    description.get("shard_batches", []),
                    description.get("shard_batch_ms_mean", []),
                )
            ]
        print(json.dumps(summary, indent=2, sort_keys=True), file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation
    raise SystemExit(main())
