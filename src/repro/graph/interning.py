"""Vertex interning: dictionary-encoding the vertex universe.

Vertex identifiers arrive on the stream as strings (``"person:42"``,
``"pst1"`` ...).  Every structure on the matching hot path — base edge
views, trie prefix views, join buckets, binding tables — stores *tuples* of
vertices and probes hash tables keyed by them, so the cost of hashing and
comparing full identifier strings is paid over and over for the same small
vertex universe.

:class:`VertexInterner` maps each distinct identifier to a dense integer id
(first-seen order) at the graph/stream boundary; everything downstream
carries int tuples and decodes back to strings only at the public API
surface (``matches_of``, reports).  This is the dictionary-encoding move of
inverted-index systems: probes become proportional to the posting list, and
equality checks become single-word comparisons.

:class:`NullInterner` is a drop-in identity encoder: an engine built with
it replays the pre-interning string pipeline through the same code paths
(the baseline of the interning rows in the frozen ``BENCH_hotpath.json``
record).
"""

from __future__ import annotations

import sys
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["VertexInterner", "NullInterner"]


class VertexInterner:
    """Bijective string ↔ dense-int mapping over the vertex universe.

    Ids are assigned in first-seen order and never recycled, so an id taken
    from any row remains decodable for the lifetime of the interner.
    """

    __slots__ = ("_ids", "_labels")

    def __init__(self, labels: Iterable[str] = ()) -> None:
        self._ids: Dict[str, int] = {}
        self._labels: List[str] = []
        for label in labels:
            self.intern(label)

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label: str) -> bool:
        return label in self._ids

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def intern(self, label: str) -> int:
        """Id of ``label``, assigning the next dense id on first sight."""
        vid = self._ids.get(label)
        if vid is None:
            vid = len(self._labels)
            self._ids[label] = vid
            self._labels.append(label)
        return vid

    def intern_pair(self, source: str, target: str) -> Tuple[int, int]:
        """Encode an edge's endpoints as an int row (the hot-path helper)."""
        return (self.intern(source), self.intern(target))

    def intern_row(self, row: Sequence[str]) -> Tuple[int, ...]:
        """Encode a whole tuple of vertex identifiers."""
        return tuple(self.intern(value) for value in row)

    def lookup(self, label: str) -> Optional[int]:
        """Id of ``label`` or ``None``, without assigning a new id."""
        return self._ids.get(label)

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def label_of(self, vid: int) -> str:
        """The identifier string behind ``vid``."""
        return self._labels[vid]

    def decode_row(self, row: Sequence[int]) -> Tuple[str, ...]:
        """Decode an int row back into the original identifier strings."""
        labels = self._labels
        return tuple(labels[vid] for vid in row)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Size statistics of the vertex dictionary.

        ``live_ids`` is the number of distinct identifiers interned so far
        (ids are never recycled, so this only grows — the measurement the
        ROADMAP's compaction concern needs before any id-recycling work),
        and ``bytes_estimate`` approximates the dictionary's retained
        memory: the identifier strings themselves plus the encode dict and
        decode list containers.  The container overhead is estimated from
        the entry count alone (eight machine words per dict entry, one
        pointer per list slot) rather than ``sys.getsizeof``, whose answer
        depends on allocation history — a snapshot-restored engine must
        ``describe()`` byte-identically to the original.  O(n) per call;
        meant for ``describe()`` reports, not the stream path.
        """
        strings = sum(sys.getsizeof(label) for label in self._labels)
        containers = 128 + 64 * len(self._ids) + 8 * len(self._labels)
        return {
            "live_ids": len(self._labels),
            "bytes_estimate": strings + containers,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VertexInterner(vertices={len(self._labels)})"


class NullInterner:
    """Identity encoder: vertices stay strings end to end.

    Exists so the comparison benchmarks can drive the exact same engine code
    over the pre-interning string representation.  API-compatible with
    :class:`VertexInterner`.
    """

    __slots__ = ("_seen",)

    def __init__(self, labels: Iterable[str] = ()) -> None:
        self._seen: Dict[str, str] = {label: label for label in labels}

    def __len__(self) -> int:
        return len(self._seen)

    def __contains__(self, label: str) -> bool:
        return label in self._seen

    def intern(self, label: str) -> str:
        self._seen[label] = label
        return label

    def intern_pair(self, source: str, target: str) -> Tuple[str, str]:
        self._seen[source] = source
        self._seen[target] = target
        return (source, target)

    def intern_row(self, row: Sequence[str]) -> Tuple[str, ...]:
        for value in row:
            self._seen[value] = value
        return tuple(row)

    def lookup(self, label: str) -> Optional[str]:
        return self._seen.get(label)

    def label_of(self, vid: str) -> str:
        return vid

    def decode_row(self, row: Sequence[str]) -> Tuple[str, ...]:
        return tuple(row)

    def stats(self) -> Dict[str, int]:
        """API-compatible statistics (strings are stored, not encoded).

        As with :meth:`VertexInterner.stats`, the set overhead is estimated
        from the entry count alone so the figure survives snapshot/restore
        unchanged.
        """
        strings = sum(sys.getsizeof(label) for label in self._seen)
        return {
            "live_ids": len(self._seen),
            "bytes_estimate": strings + 128 + 64 * len(self._seen),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NullInterner(vertices={len(self._seen)})"
