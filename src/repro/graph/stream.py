"""Graph streams: ordered sequences of updates (Definition 3.3).

A :class:`GraphStream` is a thin, list-backed container with helpers used by
the datasets, the replay harness and the benchmarks: slicing into prefixes,
batching, materialising the final graph, and simple statistics.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Sequence

from .elements import Edge, Update, UpdateKind, renumber
from .errors import StreamError
from .graph import Graph

__all__ = ["GraphStream", "StreamStatistics"]


@dataclass(frozen=True)
class StreamStatistics:
    """Summary statistics of a stream, used in reports and tests."""

    num_updates: int
    num_additions: int
    num_deletions: int
    num_vertices: int
    num_edge_labels: int
    label_histogram: dict[str, int] = field(default_factory=dict)


class GraphStream:
    """An ordered, replayable sequence of graph updates."""

    def __init__(self, updates: Iterable[Update] = (), name: str = "stream") -> None:
        self.name = name
        self._updates: List[Update] = list(renumber(updates))

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_triples(
        cls, triples: Iterable[tuple[str, str, str]], name: str = "stream"
    ) -> "GraphStream":
        """Build an addition-only stream from ``(label, source, target)`` triples."""
        return cls((Update(Edge(label, s, t)) for label, s, t in triples), name=name)

    def append(self, update: Update) -> None:
        """Append ``update`` to the stream, re-stamping its timestamp."""
        self._updates.append(update.with_timestamp(len(self._updates)))

    def extend(self, updates: Iterable[Update]) -> None:
        """Append every update in ``updates``."""
        for update in updates:
            self.append(update)

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._updates)

    def __iter__(self) -> Iterator[Update]:
        return iter(self._updates)

    def __getitem__(self, index: int | slice) -> Update | "GraphStream":
        if isinstance(index, slice):
            return GraphStream(self._updates[index], name=self.name)
        return self._updates[index]

    def updates(self) -> Sequence[Update]:
        """Return the underlying sequence of updates (read-only use)."""
        return tuple(self._updates)

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def prefix(self, num_updates: int) -> "GraphStream":
        """Return a stream containing the first ``num_updates`` updates."""
        if num_updates < 0:
            raise StreamError("prefix length must be non-negative")
        return GraphStream(self._updates[:num_updates], name=f"{self.name}[:{num_updates}]")

    def batches(self, batch_size: int) -> Iterator["GraphStream"]:
        """Yield consecutive sub-streams of ``batch_size`` updates."""
        if batch_size <= 0:
            raise StreamError("batch size must be positive")
        for start in range(0, len(self._updates), batch_size):
            yield GraphStream(
                self._updates[start : start + batch_size],
                name=f"{self.name}[{start}:{start + batch_size}]",
            )

    def to_graph(self) -> Graph:
        """Materialise the graph obtained by applying every update in order."""
        graph = Graph()
        for update in self._updates:
            graph.apply(update)
        return graph

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def statistics(self) -> StreamStatistics:
        """Compute summary statistics for reporting and sanity checks."""
        label_histogram: Counter[str] = Counter()
        vertices: set[str] = set()
        additions = 0
        deletions = 0
        for update in self._updates:
            label_histogram[update.edge.label] += 1
            vertices.add(update.edge.source)
            vertices.add(update.edge.target)
            if update.kind is UpdateKind.ADD:
                additions += 1
            else:
                deletions += 1
        return StreamStatistics(
            num_updates=len(self._updates),
            num_additions=additions,
            num_deletions=deletions,
            num_vertices=len(vertices),
            num_edge_labels=len(label_histogram),
            label_histogram=dict(label_histogram),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GraphStream(name={self.name!r}, updates={len(self._updates)})"
