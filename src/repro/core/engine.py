"""Abstract interface shared by every continuous multi-query engine.

An engine is a long-lived object that

1. *indexes* a set of continuous query graph patterns (the query database
   ``QDB``), and
2. consumes a stream of graph updates, reporting after each update which
   queries gained new answers (for additions) or lost all answers (for
   deletions).

All engines in this repository — TRIC, TRIC+, INV, INV+, INC, INC+, the
graph-database baseline and the naive oracle — implement this interface, so
the replay harness, the benchmarks, and the equivalence tests treat them
uniformly.
"""

from __future__ import annotations

import abc
import itertools
import types
from operator import attrgetter
from typing import (
    Dict, FrozenSet, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple
)

from ..graph.elements import Edge, Update, UpdateKind
from ..graph.errors import DuplicateQueryError, UnknownQueryError
from ..query.pattern import QueryGraphPattern

__all__ = ["BatchReport", "ContinuousEngine", "MaintainedAnswerSource", "kind_runs"]


def _restore_report(notified, affected, additions, deletions):
    """Pickle constructor for :class:`BatchReport` (see ``__reduce__``)."""
    return BatchReport(
        notified, affected=affected, additions=additions, deletions=deletions
    )


class BatchReport(frozenset):
    """What one update (or micro-batch) did, as seen by the serving layer.

    A :class:`BatchReport` *is* the ``frozenset`` of notified query ids that
    :meth:`ContinuousEngine.on_update` / :meth:`~ContinuousEngine.on_batch`
    have always returned (queries that gained new answers, plus queries
    invalidated by deletions), so every existing caller keeps working
    unchanged.  On top of the set it carries the batch metadata that makes
    a tick O(affected work) downstream:

    ``affected``
        The ids of every query the batch *could have touched* — a superset
        of the queries whose ``matches_of`` changed (the completeness
        contract the property tests enforce), and usually a far smaller set
        than the registered query database.  ``None`` means the engine
        could not narrow it (the conservative fallback for engines without
        a native report — consumers must then treat every query as
        potentially affected).  Notified ids are always affected:
        ``self <= self.affected`` whenever ``affected`` is not ``None``.
    ``additions`` / ``deletions``
        Per-batch update counters (how many stream updates of each kind
        the report covers).

    The :class:`~repro.pubsub.broker.SubscriptionBroker` consults
    ``affected`` to skip flushing watched queries the batch cannot have
    changed; :class:`~repro.pubsub.sharding.ShardedEngineGroup` merges the
    per-shard reports deterministically.  Reports are picklable (the
    process-executor shards ship them between processes).
    """

    __slots__ = ("affected", "additions", "deletions")

    def __new__(
        cls,
        notified: Iterable[str] = (),
        *,
        affected: Optional[Iterable[str]] = None,
        additions: int = 0,
        deletions: int = 0,
    ) -> "BatchReport":
        report = super().__new__(cls, notified)
        report.affected = None if affected is None else frozenset(affected)
        report.additions = additions
        report.deletions = deletions
        return report

    @classmethod
    def wrap(
        cls,
        notified: FrozenSet[str],
        *,
        additions: int = 0,
        deletions: int = 0,
    ) -> "BatchReport":
        """Promote a hook result to a report, preserving a native ``affected``.

        Engines' per-kind hooks may return a plain frozenset (affected
        unknown) or a :class:`BatchReport` carrying their native affected
        set; either way the per-batch counters are (re)stamped here.
        """
        affected = notified.affected if isinstance(notified, cls) else None
        return cls(
            notified, affected=affected, additions=additions, deletions=deletions
        )

    @property
    def notified(self) -> FrozenSet[str]:
        """The notified ids — the report itself, named for readability."""
        return self

    @property
    def updates(self) -> int:
        """Stream updates covered by this report."""
        return self.additions + self.deletions

    @staticmethod
    def merge(reports: Iterable["BatchReport"]) -> "BatchReport":
        """Combine per-run (or per-shard) reports into one batch report.

        Notified ids and affected sets union; one constituent without an
        affected set (``None``) makes the merged set ``None`` too — the
        conservative direction.  Counters add up.
        """
        notified: Set[str] = set()
        affected: Optional[Set[str]] = set()
        additions = deletions = 0
        for report in reports:
            notified.update(report)
            if affected is not None:
                if report.affected is None:
                    affected = None
                else:
                    affected.update(report.affected)
            additions += report.additions
            deletions += report.deletions
        return BatchReport(
            notified, affected=affected, additions=additions, deletions=deletions
        )

    def __reduce__(self):
        return (
            _restore_report,
            (tuple(self), self.affected, self.additions, self.deletions),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        affected = "?" if self.affected is None else len(self.affected)
        return (
            f"BatchReport(notified={len(self)}, affected={affected}, "
            f"additions={self.additions}, deletions={self.deletions})"
        )


class MaintainedAnswerSource(NamedTuple):
    """A maintained answer relation exposed for exact delta consumption.

    ``relation`` is a live :class:`~repro.matching.relation.Relation` (its
    rows are the query's current answers and its *signed delta log* —
    switched on by the engine before the relation is handed out — records
    every answer appearance/disappearance in order) and ``interner`` is the
    vertex encoding needed to decode its rows back to identifier strings.
    Consumers (the pub/sub layer's delta tracker) read
    ``relation.deltas_since(position)`` and must treat a ``uid``/``epoch``
    change as a wholesale replacement.
    """

    relation: object
    interner: object


def kind_runs(updates: Iterable[Update]) -> Iterator[Tuple[UpdateKind, List[Edge]]]:
    """Split ``updates`` into maximal runs of one kind, in stream order:
    ``(kind, edges)`` pairs."""
    for kind, run in itertools.groupby(updates, key=attrgetter("kind")):
        yield kind, [update.edge for update in run]


class ContinuousEngine(abc.ABC):
    """Base class for continuous multi-query processing engines.

    Parameters
    ----------
    injective:
        When ``True`` answers must map distinct query vertices to distinct
        graph vertices (sub-graph isomorphism); the default follows the
        paper's join-based semantics (homomorphism).
    """

    #: Short engine name used in reports and plots (overridden by subclasses).
    name: str = "abstract"

    def __init__(self, *, injective: bool = False) -> None:
        self.injective = injective
        self._queries: Dict[str, QueryGraphPattern] = {}
        self._satisfied: set[str] = set()
        self._updates_processed = 0

    # ------------------------------------------------------------------
    # Query database management
    # ------------------------------------------------------------------
    @property
    def queries(self) -> Mapping[str, QueryGraphPattern]:
        """Read-only view of the registered query database keyed by query id.

        A :class:`types.MappingProxyType` over the live dictionary — O(1) to
        obtain (no copy per access) and always current.  Callers that need a
        snapshot can ``dict(engine.queries)`` explicitly.
        """
        return types.MappingProxyType(self._queries)

    @property
    def num_queries(self) -> int:
        """Number of registered queries."""
        return len(self._queries)

    def register(self, pattern: QueryGraphPattern) -> None:
        """Index one continuous query.

        A query registered mid-stream answers over the graph as it stands:
        ``matches_of`` sees every live edge, whichever queries were
        registered when it arrived.  Registering notifies nothing.

        Raises
        ------
        DuplicateQueryError
            If a query with the same id is already registered.
        """
        if pattern.query_id in self._queries:
            raise DuplicateQueryError(f"query id already registered: {pattern.query_id}")
        self._queries[pattern.query_id] = pattern
        self._index_query(pattern)

    def register_all(self, patterns: Iterable[QueryGraphPattern]) -> None:
        """Index every pattern in ``patterns``."""
        for pattern in patterns:
            self.register(pattern)

    def _require_known(self, query_id: str) -> QueryGraphPattern:
        pattern = self._queries.get(query_id)
        if pattern is None:
            raise UnknownQueryError(f"unknown query id: {query_id}")
        return pattern

    # ------------------------------------------------------------------
    # Stream consumption
    # ------------------------------------------------------------------
    def on_update(self, update: Update) -> "BatchReport":
        """Process one stream update: a micro-batch of one.

        For an addition, the report holds the ids of queries that gained at
        least one new answer because of this update.  For a deletion, it
        holds the ids of queries that were satisfied before and no longer
        have any answer.  The result is a :class:`BatchReport` — a
        frozenset of those ids that additionally carries the
        *affected-query* set (when the engine can narrow it) for the
        serving layer.
        """
        return self.on_batch([update])

    def on_batch(self, updates: Sequence[Update]) -> "BatchReport":
        """Process a micro-batch of stream updates — the one stream path.

        Returns the union of the notifications the batch's updates would
        emit one batch of one at a time: ids of queries that gained new
        answers through the batch's additions plus ids of queries
        invalidated by its deletions.  The final engine state is identical
        to processing the updates one by one (batching is
        answer-equivalent).  The result is a :class:`BatchReport`; its
        ``affected`` set unions the per-run affected sets (and degrades to
        ``None`` when any run could not narrow its own).

        Consecutive updates of the same kind form *runs* (:func:`kind_runs`)
        that are handed to the per-kind batch hooks, which every engine
        implements natively (one delta join per affected structure per run
        instead of one per update).
        """
        reports: List[BatchReport] = []
        for kind, edges in kind_runs(updates):
            self._updates_processed += len(edges)
            if kind is UpdateKind.ADD:
                matched = BatchReport.wrap(
                    self._on_addition_batch(edges), additions=len(edges)
                )
                self._satisfied.update(matched)
            else:
                matched = BatchReport.wrap(
                    self._on_deletion_batch(edges), deletions=len(edges)
                )
                self._satisfied.difference_update(matched)
            reports.append(matched)
        return BatchReport.merge(reports)

    @property
    def updates_processed(self) -> int:
        """Number of stream updates consumed so far."""
        return self._updates_processed

    def satisfied_queries(self) -> FrozenSet[str]:
        """Ids of queries that currently have at least one reported answer."""
        return frozenset(self._satisfied)

    # ------------------------------------------------------------------
    # Hooks implemented by concrete engines
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _index_query(self, pattern: QueryGraphPattern) -> None:
        """Index ``pattern`` into the engine's data structures."""

    @abc.abstractmethod
    def _on_addition_batch(self, edges: Sequence[Edge]) -> FrozenSet[str]:
        """Handle a run of edge additions; return queries with new answers.

        The result may be a plain frozenset (affected unknown) or a
        :class:`BatchReport` carrying the run's native affected set.
        """

    @abc.abstractmethod
    def _on_deletion_batch(self, edges: Sequence[Edge]) -> FrozenSet[str]:
        """Handle a run of edge deletions; return queries that lost all answers."""

    @abc.abstractmethod
    def matches_of(self, query_id: str) -> List[Dict[str, str]]:
        """Current answers of ``query_id`` as variable-binding dictionaries."""

    def has_matches(self, query_id: str) -> bool:
        """``True`` iff ``query_id`` currently has at least one answer.

        The default materialises the full answer set; engines override
        this with an existence probe — an ``evaluate_full(limit=1)``
        backtracking search that stops at the first surviving witness, or
        an O(1) emptiness check of a maintained answer relation — which is
        what keeps deletion-time invalidation re-checks O(witness).
        """
        return bool(self.matches_of(query_id))

    def answer_delta_source(self, query_id: str) -> Optional[MaintainedAnswerSource]:
        """Maintained answer relation of ``query_id`` for exact delta reads.

        The narrow delta-emission hook behind the pub/sub layer
        (:mod:`repro.pubsub`): engines that keep a query's answer relation
        *maintained* (the answer-materialising tier — see
        :class:`~repro.matching.answers.MaterializedAnswers`) return it
        here, so per-listener match deltas are read straight off the
        relation's signed delta log — O(changed answers) per flush, no
        ``matches_of`` re-poll.  Engines without an exactly maintained
        relation for the query return ``None`` (the default) and the
        consumer falls back to snapshot diffing of ``matches_of``.

        Calling this may materialise the query (the same lazy step a first
        ``matches_of`` poll performs).
        """
        self._require_known(query_id)
        return None

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def snapshot(self) -> bytes:
        """Full engine state as a self-verifying snapshot blob.

        The blob covers everything the engine owns — the interner table,
        the views with their maintained indexes, the signed delta logs of
        the relations that have a reader, the materialised answers, and
        the registered query database — so :meth:`restore` yields an
        engine behaviourally byte-identical to this one for any
        subsequent stream.  See
        :mod:`repro.persistence` for the envelope format and the
        write-ahead journal that pairs with it.
        """
        from ..persistence.snapshots import snapshot_engine

        return snapshot_engine(self)

    @staticmethod
    def restore(blob: bytes) -> "ContinuousEngine":
        """Rebuild an engine from a :meth:`snapshot` blob.

        Raises
        ------
        repro.graph.errors.SnapshotCorruptError
            When the blob fails its magic/version/CRC envelope checks or
            does not decode to an engine.
        """
        from ..persistence.snapshots import restore_engine

        return restore_engine(blob)

    # ------------------------------------------------------------------
    # Reporting helpers
    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        """Small description dictionary used in benchmark reports."""
        return {
            "engine": self.name,
            "queries": self.num_queries,
            "updates_processed": self._updates_processed,
            "satisfied": len(self._satisfied),
            "injective": self.injective,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(queries={self.num_queries})"
