"""Sharded engine groups: partition the query database across engines.

One engine instance indexes the whole query database; a
:class:`ShardedEngineGroup` partitions it across ``N`` independent engine
instances instead — the sharding step of a serving architecture (a broker
that fans work out to index shards and merges the per-shard results).  The
group itself implements the full
:class:`~repro.core.engine.ContinuousEngine` interface, so the replay
harness, the benchmarks and the :class:`~repro.pubsub.broker.SubscriptionBroker`
treat it exactly like a single engine:

* :meth:`register` assigns each query to one shard — ``hash`` assignment
  (stable CRC of the query id) balances blindly; ``label`` assignment
  routes a query to the shard already owning most of its edge labels,
  which clusters structurally related queries (maximising trie sharing
  inside each shard),
* every shard receives every batch, executed by a pluggable *executor*:
  ``serial`` (in-process loop, the default) or ``process`` (each shard
  lives in its own supervised worker process — a
  :class:`~repro.persistence.replication.ShardSupervisor` — and receives
  picklable command/reply frames: true parallelism, since the shard
  engines share nothing),
* notifications and affected sets merge back deterministically as one
  :class:`~repro.core.engine.BatchReport` (shard order, set semantics),
  answers (``matches_of`` routes to the owning shard) and maintained
  answer-delta sources come back through the group, and
  :meth:`describe` / :meth:`shard_statistics` expose per-shard metrics
  including the executor mode and per-shard batch latency.

Because every query lives in exactly one shard, and every shard's engine
has seen the whole stream (its view registry counts every live edge, so a
query registered mid-stream starts from the graph as it stands), the
group's answers are byte-identical to an unsharded engine's for any shard
count *and any executor*, whether queries are registered up front or while
the stream is running.

A group with ``executor="process"`` holds OS resources; call :meth:`close`
(or use the group as a context manager) when done.  Everything about those
processes — spawning, supervision, replication, restart — lives under
:mod:`repro.persistence`; this module only partitions, fans out and merges.
"""

from __future__ import annotations

import threading
import time
import zlib
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..core.engine import BatchReport, ContinuousEngine, MaintainedAnswerSource
from ..graph.elements import Edge, Update, UpdateKind
from ..graph.errors import EngineError, PersistenceError
from ..persistence.replication import ShardSupervisor
from ..persistence.workers import run_batch
from ..query.pattern import QueryGraphPattern

__all__ = ["ShardedEngineGroup", "SHARD_EXECUTORS"]

#: A zero-argument engine factory (one call per shard).
EngineFactory = Callable[[], ContinuousEngine]

#: Supported fan-out executors (the one list every CLI and config imports).
SHARD_EXECUTORS = ("serial", "process")


def check_group_options(
    num_shards: int, assignment: str, executor: str, replicas: int
) -> None:
    """Raise :class:`EngineError` unless the options describe a valid group."""
    if num_shards < 1:
        raise EngineError("num_shards must be at least 1")
    if assignment not in ("hash", "label"):
        raise EngineError(
            f"unknown shard assignment {assignment!r}; options: hash, label"
        )
    if executor not in SHARD_EXECUTORS:
        raise EngineError(
            f"unknown shard executor {executor!r}; options: "
            + ", ".join(SHARD_EXECUTORS)
        )
    if replicas < 0:
        raise EngineError("replicas must be non-negative")
    if replicas and executor != "process":
        raise EngineError(
            "replicas require the process executor (a replica is a "
            "worker process tailing its primary's op log)"
        )


class ShardedEngineGroup(ContinuousEngine):
    """N independent engine instances behind the single-engine interface.

    Parameters
    ----------
    engine:
        Engine name resolved through :data:`repro.engines.ENGINE_FACTORIES`
        (e.g. ``"TRIC+"``), or a zero-argument factory callable (one call
        per shard; not supported by the ``process`` executor, whose workers
        rebuild the engine from its registry name).
    num_shards:
        Number of independent shards (``>= 1``).
    assignment:
        ``"hash"`` (stable id hash, blind balance) or ``"label"``
        (label-affinity routing, clusters queries sharing edge labels).
    executor:
        How a batch fans out to the shards: ``"serial"`` (one
        shard after another in-process — zero overhead, the default) or
        ``"process"`` (each shard is a separate worker process driven over
        picklable command frames — true parallelism at the cost of IPC per
        batch).  Answers are byte-identical across executors.
    engine_kwargs:
        Extra keyword arguments forwarded to the named engine's factory
        (ignored when ``engine`` is already a callable).
    injective:
        Injective (isomorphism) answer semantics, forwarded to the shards.
    max_respawns:
        Process executor only: worker deaths a shard survives via
        respawn + restore before degrading gracefully to in-process serial
        execution.  A worker is rebuilt from its shard's recovery source: a
        worker snapshot, re-taken whenever the ops acknowledged since it
        weigh as many bytes as it does, plus those ops.
    replicas:
        Process executor only: replica workers per shard.  Replicas are
        built from the shard's recovery source, tail its acknowledged-ops
        log, absorb read traffic (``matches_of`` / ``has_matches`` /
        ``describe`` round-robin across them, byte-identical answers), and
        stand in for a dead primary via promotion.
    respawn_window:
        Process executor only: sliding window in seconds over which worker
        deaths count against ``max_respawns`` — a shard only degrades on a
        death *burst* inside the window, not on lifetime attrition.
    """

    def __init__(
        self,
        engine: "str | EngineFactory" = "TRIC+",
        num_shards: int = 2,
        *,
        assignment: str = "hash",
        executor: str = "serial",
        injective: bool = False,
        engine_kwargs: Optional[Dict[str, object]] = None,
        max_respawns: int = 3,
        replicas: int = 0,
        respawn_window: float = 60.0,
    ) -> None:
        super().__init__(injective=injective)
        check_group_options(num_shards, assignment, executor, replicas)
        if respawn_window is None:
            raise EngineError("respawn_window must be a number of seconds")
        self.assignment = assignment
        self.executor = executor
        self.replicas_per_shard = replicas
        self.rolling_restarts = 0
        self._restart_lock = threading.Lock()
        kwargs = dict(engine_kwargs or {})
        if callable(engine):
            if executor == "process":
                raise EngineError(
                    "the process executor needs a named engine (its workers "
                    "rebuild the engine from the registry); pass the engine "
                    "name plus engine_kwargs instead of a factory callable"
                )
            factory = engine
        else:
            from ..engines import create_engine

            # Both executors build shard engines from the same kwargs, so an
            # explicit injective in engine_kwargs wins identically under both.
            kwargs.setdefault("injective", injective)
            if executor == "process":
                factory = lambda: ShardSupervisor(  # noqa: E731
                    engine,
                    kwargs,
                    max_respawns=max_respawns,
                    replicas=replicas,
                    respawn_window=respawn_window,
                )
            else:
                factory = lambda: create_engine(engine, **kwargs)  # noqa: E731
        self.shards: List[ContinuousEngine] = [factory() for _ in range(num_shards)]
        self.name = f"{self.shards[0].name}x{num_shards}"
        self._closed = False
        #: query id -> owning shard index.
        self._owner: Dict[str, int] = {}
        #: per-shard query ids (the conservative affected fallback when a
        #: shard's engine cannot narrow its own report).
        self._shard_queries: List[Set[str]] = [set() for _ in self.shards]
        #: last known satisfied-set of each shard, piggybacked on every
        #: batch reply; the group's satisfied-set is their union (each
        #: query is owned by exactly one shard, so the union is exact).
        self._shard_satisfied: List[FrozenSet[str]] = [
            frozenset() for _ in self.shards
        ]
        #: per-shard edge labels in use (what label assignment clusters on).
        self._shard_labels: List[Set[str]] = [set() for _ in self.shards]
        #: per-shard fan-out metrics: batches executed and engine seconds
        #: spent (compute time inside the shard, IPC excluded for process
        #: shards), surfaced by :meth:`describe`.
        self._shard_batches: List[int] = [0 for _ in self.shards]
        self._shard_batch_seconds: List[float] = [0.0 for _ in self.shards]
        #: affected-set accounting across fan-outs (mean size per batch).
        self._fan_outs = 0
        self._affected_reported = 0

    @property
    def num_shards(self) -> int:
        """Number of shards in the group."""
        return len(self.shards)

    # ------------------------------------------------------------------
    # Executor lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release executor resources (worker processes).

        Idempotent.  Serial groups hold nothing and close trivially; the
        group stays usable for answer reads (``matches_of`` on in-process
        shards) but process shards are gone once closed.
        """
        if self._closed:
            return
        self._closed = True
        for shard in self._supervised_shards():
            shard.close()

    def _supervised_shards(self) -> List[ShardSupervisor]:
        """The shards that live in worker processes (none unless ``process``)."""
        return self.shards if self.executor == "process" else []

    def __enter__(self) -> "ShardedEngineGroup":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-dependent
        try:
            self.close()
        except Exception:
            pass

    def __getstate__(self) -> Dict[str, object]:
        """Pickle without the restart lock (snapshots of sharded groups).

        In-process shards pickle as themselves; process shards pickle as
        their worker-state blobs (see ``ShardSupervisor.__getstate__``),
        so unpickling a group respawns restored workers.  The unpickled
        group is open regardless of the original's closed flag — a restore
        is a fresh lease on life.
        """
        state = self.__dict__.copy()
        del state["_restart_lock"]
        state["_closed"] = False
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._restart_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Rolling restarts
    # ------------------------------------------------------------------
    def rolling_restart(self) -> Dict[str, object]:
        """Cycle every shard: drain → snapshot → respawn → tail-replay →
        resume.  Returns per-shard pause seconds.

        The group is driven one batch at a time, so the restart runs
        between batches with no ``MatchDelta`` frame in flight, and each
        shard's swap (``ShardSupervisor.restart``; in-process shards go
        through the same snapshot/restore pair) completes before the next
        batch — zero missed or duplicated frames, byte-identical answers.
        A concurrent call raises
        :class:`~repro.graph.errors.PersistenceError`; sequential repeat
        calls are idempotent (each is just another restart cycle).
        """
        if self._closed:
            raise PersistenceError("cannot rolling-restart a closed engine group")
        if not self._restart_lock.acquire(blocking=False):
            raise PersistenceError("a rolling restart is already in progress")
        try:
            pauses: List[float] = []
            for index, shard in enumerate(self.shards):
                start = time.perf_counter()
                if self.executor == "process":
                    shard.restart()
                else:
                    self.shards[index] = ContinuousEngine.restore(shard.snapshot())
                pauses.append(time.perf_counter() - start)
            self.rolling_restarts += 1
            return {
                "shards": len(self.shards),
                "pause_seconds": [round(pause, 6) for pause in pauses],
                "rolling_restarts": self.rolling_restarts,
            }
        finally:
            self._restart_lock.release()

    def replication_statistics(self) -> List[Dict[str, object]]:
        """Per-process-shard supervision reports (``replication_info``;
        cheap: no worker IPC).  Empty for the serial executor."""
        return [shard.replication_info() for shard in self._supervised_shards()]

    # ------------------------------------------------------------------
    # Query assignment
    # ------------------------------------------------------------------
    def shard_of(self, query_id: str) -> int:
        """Owning shard index of a registered query."""
        self._require_known(query_id)
        return self._owner[query_id]

    def _assign(self, pattern: QueryGraphPattern) -> int:
        if self.assignment == "hash":
            return zlib.crc32(pattern.query_id.encode("utf-8")) % len(self.shards)
        # Label affinity: the shard already owning most of the pattern's
        # labels wins; ties break to the least-loaded (then lowest) shard,
        # which is also where a pattern of entirely new labels lands.  This
        # clusters queries for trie sharing; it does not narrow the fan-out
        # (every shard receives every batch).
        # Affinity alone degenerates on small label alphabets (every query
        # shares labels with shard 0, so everything piles up there), so a
        # shard more than ~2x ahead of the lightest shard stops attracting
        # and the choice falls back to the remaining shards — bounded
        # imbalance, clustering preserved while it is balance-neutral.
        labels = pattern.edge_labels()
        loads = [shard.num_queries for shard in self.shards]
        cap = 2 * min(loads) + 3
        candidates = [index for index in range(len(loads)) if loads[index] <= cap]
        return min(
            candidates,
            key=lambda index: (
                -len(labels & self._shard_labels[index]),
                self.shards[index].num_queries,
                index,
            ),
        )

    def _index_query(self, pattern: QueryGraphPattern) -> None:
        index = self._assign(pattern)
        self.shards[index].register(pattern)
        self._owner[pattern.query_id] = index
        self._shard_queries[index].add(pattern.query_id)
        self._shard_labels[index].update(pattern.edge_labels())

    # ------------------------------------------------------------------
    # Stream fan-out
    # ------------------------------------------------------------------
    def on_batch(self, updates: Sequence[Update]) -> BatchReport:
        """Process a micro-batch with *one* call per shard.

        The base class splits a batch into per-kind runs and would fan each
        run out separately — on an interleaved add/delete stream that turns
        one micro-batch into hundreds of per-shard calls, which is pure
        IPC for the process executor.  The group instead hands every shard
        the whole batch (order and interleaving preserved) in a single
        call; the shard's own ``on_batch`` does the run splitting locally,
        with identical answer semantics.
        """
        updates = list(updates)
        if not updates:
            return BatchReport(affected=())
        self._updates_processed += len(updates)
        return self._fan_out_updates(updates)

    def _fan_out_updates(self, updates: Sequence[Update]) -> BatchReport:
        """Hand every shard the whole batch, concurrently where the
        executor allows, and merge the per-shard reports.

        The merge is deterministic for every executor: per-shard results
        are collected in shard order and combine through set unions, so the
        outcome does not depend on completion order.  Each reply
        piggybacks the shard's satisfied-set, from which the group's own
        satisfied-set is rebuilt (exact: every query is owned by exactly
        one shard).
        """
        additions = sum(update.kind is UpdateKind.ADD for update in updates)
        deletions = len(updates) - additions
        results = self._run_batches(updates)
        reports: List[BatchReport] = []
        for index, (report, satisfied, seconds) in enumerate(results):
            self._shard_batches[index] += 1
            self._shard_batch_seconds[index] += seconds
            self._shard_satisfied[index] = frozenset(satisfied)
            if not isinstance(report, BatchReport) or report.affected is None:
                # Engine without a native report: conservatively treat every
                # query owned by this shard as affected (still far narrower
                # than "the whole query database").
                report = BatchReport(report, affected=self._shard_queries[index])
            reports.append(report)
        self._satisfied.clear()
        self._satisfied.update(*self._shard_satisfied)
        merged = BatchReport.merge(reports)
        self._fan_outs += 1
        self._affected_reported += len(merged.affected or ())
        # Re-stamp counters with the group-level update counts (each shard
        # counted the whole batch).
        return BatchReport(
            merged, affected=merged.affected, additions=additions, deletions=deletions
        )

    def _run_batches(
        self, updates: Sequence[Update]
    ) -> List[Tuple[BatchReport, FrozenSet[str], float]]:
        """Run ``updates`` on every shard under the configured executor."""
        if self.executor == "process":
            # Start every worker first, then collect: the shards overlap.
            # Collection goes through each shard's finish_batch, which is
            # where worker death is detected and supervised recovery (and
            # the exactly-once re-run of the in-flight batch) happens.
            pending = [shard.start_batch(updates) for shard in self.shards]
            return [
                shard.finish_batch(batch) for shard, batch in zip(self.shards, pending)
            ]
        return [run_batch(shard, updates) for shard in self.shards]

    def _on_addition_batch(self, edges: Sequence[Edge]) -> BatchReport:
        return self._fan_out_updates([Update(edge, UpdateKind.ADD) for edge in edges])

    def _on_deletion_batch(self, edges: Sequence[Edge]) -> BatchReport:
        return self._fan_out_updates([Update(edge, UpdateKind.DELETE) for edge in edges])

    # ------------------------------------------------------------------
    # Answers (routed to the owning shard)
    # ------------------------------------------------------------------
    def matches_of(self, query_id: str) -> List[Dict[str, str]]:
        """Answers of ``query_id``, served by its owning shard."""
        return self.shards[self.shard_of(query_id)].matches_of(query_id)

    def has_matches(self, query_id: str) -> bool:
        """Existence probe, served by the owning shard."""
        return self.shards[self.shard_of(query_id)].has_matches(query_id)

    def answer_delta_source(self, query_id: str) -> Optional[MaintainedAnswerSource]:
        """Maintained answer relation of the owning shard (if any).

        ``None`` for process shards — their relations live in the worker
        process, so delta consumers snapshot-diff ``matches_of`` instead.
        """
        return self.shards[self.shard_of(query_id)].answer_delta_source(query_id)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def shard_statistics(self) -> List[Dict[str, object]]:
        """Per-shard description dictionaries (queries, updates, memory...)."""
        return [shard.describe() for shard in self.shards]

    def describe(self) -> Dict[str, object]:
        description = super().describe()
        description["shards"] = self.num_shards
        description["assignment"] = self.assignment
        description["executor"] = self.executor
        description["shard_queries"] = [shard.num_queries for shard in self.shards]
        description["shard_labels"] = [len(labels) for labels in self._shard_labels]
        description["shard_batches"] = list(self._shard_batches)
        description["shard_batch_seconds"] = [
            round(seconds, 6) for seconds in self._shard_batch_seconds
        ]
        description["shard_batch_ms_mean"] = [
            round(seconds / batches * 1e3, 6) if batches else 0.0
            for seconds, batches in zip(self._shard_batch_seconds, self._shard_batches)
        ]
        description["affected_per_batch"] = (
            round(self._affected_reported / self._fan_outs, 3) if self._fan_outs else 0.0
        )
        if self.executor == "process":
            reports = self.replication_statistics()
            description["shard_respawns"] = [r["respawns"] for r in reports]
            description["shard_replayed_ops"] = [r["replayed_ops"] for r in reports]
            description["shard_promotions"] = [r["promotions"] for r in reports]
            description["shard_restarts"] = [r["restarts"] for r in reports]
            description["degraded_shards"] = sum(r["degraded"] for r in reports)
            description["replicas_per_shard"] = self.replicas_per_shard
            description["rolling_restarts"] = self.rolling_restarts
        description["per_shard"] = self.shard_statistics()
        return description

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedEngineGroup({self.shards[0].name!r}, "
            f"num_shards={self.num_shards}, queries={self.num_queries}, "
            f"executor={self.executor!r})"
        )
