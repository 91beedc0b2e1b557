"""Common machinery for the synthetic dataset generators.

The paper evaluates on three datasets: the LDBC Social Network Benchmark
(synthetic), the DEBS 2015 NYC taxi rides (real), and BioGRID protein
interactions (real).  None of the real dumps are redistributable or
available offline, so each dataset is substituted by a seeded generator that
produces an update stream with the same *structural characteristics* the
evaluation relies on (edge-label alphabet, skew, vertex reuse); each
generator's module docstring documents its substitution.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from typing import Iterator, List, Sequence

from ..graph.elements import Update, add
from ..graph.errors import DatasetError
from ..graph.stream import GraphStream

__all__ = ["DatasetConfig", "StreamGenerator", "ZipfSampler"]


@dataclass(frozen=True)
class DatasetConfig:
    """Size and seed knobs shared by every generator."""

    num_updates: int = 10_000
    seed: int = 13

    def __post_init__(self) -> None:
        if self.num_updates <= 0:
            raise DatasetError("num_updates must be positive")


class ZipfSampler:
    """Sample integers in ``[0, n)`` with a Zipf-like (power-law) skew.

    Real activity streams (posts per user, rides per taxi, interactions per
    protein) are heavily skewed; a simple rank-based power law reproduces
    that without scipy-level machinery on the hot path.
    """

    def __init__(self, population: int, exponent: float, rng: random.Random) -> None:
        if population <= 0:
            raise DatasetError("population must be positive")
        if exponent < 0:
            raise DatasetError("exponent must be non-negative")
        self._population = population
        self._rng = rng
        weights = [1.0 / (rank + 1) ** exponent for rank in range(population)]
        total = sum(weights)
        self._cumulative: List[float] = []
        running = 0.0
        for weight in weights:
            running += weight / total
            self._cumulative.append(running)

    def sample(self) -> int:
        """Draw one index."""
        point = self._rng.random()
        # Binary search over the cumulative distribution.
        low, high = 0, self._population - 1
        while low < high:
            mid = (low + high) // 2
            if self._cumulative[mid] < point:
                low = mid + 1
            else:
                high = mid
        return low


class StreamGenerator(abc.ABC):
    """Base class: a seeded producer of :class:`GraphStream` objects."""

    #: Human-readable dataset name (used in reports and stream names).
    dataset_name: str = "dataset"

    def __init__(self, config: DatasetConfig | None = None) -> None:
        self.config = config or DatasetConfig()
        self._rng = random.Random(self.config.seed)

    @abc.abstractmethod
    def updates(self) -> Iterator[Update]:
        """Yield the update stream (additions in arrival order)."""

    def stream(self) -> GraphStream:
        """Materialise the configured number of updates into a stream."""
        produced: List[Update] = []
        for update in self.updates():
            produced.append(update)
            if len(produced) >= self.config.num_updates:
                break
        if not produced:
            raise DatasetError(f"{self.dataset_name} generator produced no updates")
        return GraphStream(produced, name=self.dataset_name)

    # ------------------------------------------------------------------
    # Helpers shared by the concrete generators
    # ------------------------------------------------------------------
    def _choice(self, values: Sequence[str]) -> str:
        return values[self._rng.randrange(len(values))]

    @staticmethod
    def _edge(label: str, source: str, target: str) -> Update:
        return add(label, source, target)
