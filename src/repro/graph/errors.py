"""Exception hierarchy shared by the graph and query layers.

Every error raised by the library derives from :class:`ReproError` so that
applications embedding the engines can catch a single base class.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class GraphError(ReproError):
    """Raised for invalid operations on an :class:`~repro.graph.Graph`."""


class EdgeNotFoundError(GraphError):
    """Raised when deleting or inspecting an edge that is not in the graph."""


class VertexNotFoundError(GraphError):
    """Raised when a vertex lookup fails."""


class QueryError(ReproError):
    """Raised for malformed query graph patterns."""


class DecompositionError(QueryError):
    """Raised when a query pattern cannot be decomposed into covering paths."""


class EngineError(ReproError):
    """Raised for invalid usage of a continuous query engine."""


class DuplicateQueryError(EngineError):
    """Raised when registering a query identifier twice with an engine."""


class UnknownQueryError(EngineError):
    """Raised when inspecting or polling a query id that was never registered."""


class ShardUnavailableError(EngineError):
    """Raised when a shard (or its worker process) cannot serve a request.

    Recoverable from the caller's point of view: the sharded group's
    supervisor respawns dead workers with bounded retry, so this surfaces
    only once recovery itself has been exhausted (or the group is closed).
    """


class StreamError(ReproError):
    """Raised by the stream replay harness for malformed update streams."""


class SubscriptionError(ReproError):
    """Raised by the pub/sub subscription broker for invalid subscriptions."""


class DatasetError(ReproError):
    """Raised by the synthetic dataset generators for invalid configuration."""


class BenchmarkError(ReproError):
    """Raised by the experiment harness for invalid experiment configuration."""


class PersistenceError(ReproError):
    """Base class for durability-layer failures (snapshots, journals).

    Subclasses distinguish *fatal* corruption (:class:`SnapshotCorruptError`,
    :class:`JournalCorruptError`) from ordinary misuse, so recovery code can
    decide between refusing to start and starting from an older state.
    """


class SnapshotCorruptError(PersistenceError):
    """Raised when a snapshot envelope fails its magic/version/CRC checks."""


class JournalCorruptError(PersistenceError):
    """Raised when a write-ahead journal record *before* the tail is torn,
    or when replay meets a record whose op it does not know.

    A torn **final** record is the expected signature of a crash mid-write
    and is silently truncated during replay; corruption anywhere earlier
    means the journal cannot be trusted and raises this instead.
    """
