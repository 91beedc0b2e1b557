"""Relations: the tuple sets behind materialized views.

A :class:`Relation` is a named-column set of tuples over graph vertices.  It
is the representation used for

* base edge views (schema ``("p0", "p1")``; a TRIC trie root's view is one),
* per-path prefix views inside the TRIC tries (schema ``("p0", ..., "pk")``),
* query-level answer relations (schema of variable names).

The paper's hash joins (Section 4.2) probe the relations' own *maintained
indexes* — persistent buckets patched in place by every mutation
(:meth:`Relation.ensure_index` / :meth:`Relation.probe`) — so probing a
stable relation again reuses an incrementally maintained structure instead
of building a hash table per call.  Path rows are extended through them
(:func:`extend_path_rows`), and answers are assembled by backtracking
through them (:class:`~repro.matching.plans.QueryEvaluationPlan`).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

__all__ = [
    "Relation",
    "extend_path_rows",
    "EMPTY_ROWS",
]

#: Rows are tuples of vertex ids — dense ints on the interned hot path
#: (see :mod:`repro.graph.interning`), strings at the public surface.
Row = Tuple[object, ...]
#: A visibility change of one row: ``(row, +1)`` when the row appeared in the
#: relation, ``(row, -1)`` when it disappeared.
Delta = Tuple[Row, int]
EMPTY_ROWS: frozenset = frozenset()

_uid_counter = itertools.count()

#: Delta-log compaction thresholds: the log is snapshot-reset once it is at
#: least this long *and* more than ``_COMPACT_FACTOR`` times the live row
#: count (see :meth:`Relation._maybe_compact_log`).
_COMPACT_MIN_LOG = 64
_COMPACT_FACTOR = 4


class Relation:
    """A set of equal-length tuples with named columns.

    Relations are mutable (rows are added and removed incrementally as
    updates arrive).  A relation with a *reader* additionally records a
    signed *delta log* of visibility changes: the log is opt-in
    (:meth:`track_deltas`), because most relations — base edge views,
    interior trie nodes, terminals nobody subscribed to — are only ever
    probed, and an unread log costs a tuple per mutation in RAM and in
    every snapshot.  A reader remembers
    ``(uid, epoch, log position)`` and consumes :meth:`deltas_since`;
    additions and deletions are symmetric deltas.  The wholesale operations
    (:meth:`replace_rows`, :meth:`clear`, log compaction) bump ``epoch`` so
    positions from a previous epoch are recognisably stale and the reader
    resynchronises from :attr:`rows` instead.

    Relations additionally carry *maintained indexes*: persistent hash
    buckets over chosen key columns (:meth:`ensure_index` / :meth:`probe`)
    that are patched in place by every :meth:`add` / :meth:`remove`, so a
    probe costs O(bucket) regardless of how large the relation has grown —
    the adjacency structures behind the whole matching layer.
    """

    __slots__ = ("schema", "arity", "rows", "uid", "epoch", "_delta_log", "_indexes")

    def __init__(self, schema: Sequence[str], rows: Iterable[Row] = ()) -> None:
        self.schema: Tuple[str, ...] = tuple(schema)
        #: Number of columns (cached: checked on every hot-path ``add``).
        self.arity: int = len(self.schema)
        self.rows: Set[Row] = set(rows)
        self.uid = next(_uid_counter)
        #: Bumped whenever the delta log is reset wholesale; positions into
        #: the log are only comparable within the same epoch.
        self.epoch = 0
        #: Signed visibility changes since tracking started (``None`` until
        #: a reader asks for them through :meth:`track_deltas`).
        self._delta_log: List[Delta] | None = None
        #: key positions -> {key tuple -> set of rows carrying that key}.
        self._indexes: Dict[Tuple[int, ...], Dict[Tuple, Set[Row]]] = {}

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __contains__(self, row: Row) -> bool:
        return row in self.rows

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, row: Row) -> bool:
        """Add ``row``; return ``True`` when it was not already present."""
        if len(row) != self.arity:
            raise ValueError(
                f"row arity {len(row)} does not match schema arity {self.arity}"
            )
        if row in self.rows:
            return False
        self.rows.add(row)
        if self._delta_log is not None:
            self._delta_log.append((row, 1))
        if self._indexes:
            for positions, index in self._indexes.items():
                if len(positions) == 1:
                    key = (row[positions[0]],)
                else:
                    key = tuple(row[i] for i in positions)
                bucket = index.get(key)
                if bucket is None:
                    index[key] = {row}
                else:
                    bucket.add(row)
        return True

    def add_all(self, rows: Iterable[Row]) -> List[Row]:
        """Add every row; return the list of rows that were actually new.

        The bulk form of :meth:`add`: the row set absorbs the batch first,
        then the arity check, the delta log and each maintained index are
        visited once per call instead of once per row.
        """
        present = self.rows
        added: List[Row] = []
        for row in rows:
            if row not in present:
                present.add(row)
                added.append(row)
        if not added:
            return added
        arity = self.arity
        if any(len(row) != arity for row in added):
            present.difference_update(added)
            raise ValueError(f"row arity does not match schema arity {arity}")
        if self._delta_log is not None:
            self._delta_log.extend([(row, 1) for row in added])
        for positions, index in self._indexes.items():
            _bucket(index, positions, added)
        return added

    def remove(self, row: Row) -> bool:
        """Remove ``row`` if present; return ``True`` when something was removed.

        The removal is recorded in the delta log as a negative entry, so
        caches built against this relation patch themselves instead of
        rebuilding.
        """
        if row not in self.rows:
            return False
        self.rows.remove(row)
        if self._delta_log is not None:
            self._delta_log.append((row, -1))
        if self._indexes:
            for positions, index in self._indexes.items():
                if len(positions) == 1:
                    key = (row[positions[0]],)
                else:
                    key = tuple(row[i] for i in positions)
                bucket = index.get(key)
                if bucket is not None:
                    bucket.discard(row)
                    if not bucket:
                        del index[key]
        self._maybe_compact_log()
        return True

    def _maybe_compact_log(self) -> None:
        """Bound the delta log on churn-heavy relations.

        Add/remove pairs grow the log without growing the row set; once it
        dominates the live rows the log is emptied (an epoch bump, so
        readers holding positions resynchronise from :attr:`rows` instead
        of patching).
        """
        log = self._delta_log
        if (
            log is not None
            and len(log) >= _COMPACT_MIN_LOG
            and len(log) > _COMPACT_FACTOR * len(self.rows)
        ):
            self._reset_log()

    def remove_all(self, rows: Iterable[Row]) -> List[Row]:
        """Remove every row; return the list of rows actually removed.

        The bulk form of :meth:`remove` (see :meth:`add_all`).
        """
        present = self.rows
        removed: List[Row] = []
        for row in rows:
            if row in present:
                present.remove(row)
                removed.append(row)
        if not removed:
            return removed
        if self._delta_log is not None:
            self._delta_log.extend([(row, -1) for row in removed])
        for positions, index in self._indexes.items():
            for key, row in zip(_index_keys(removed, positions), removed):
                bucket = index.get(key)
                if bucket is not None:
                    bucket.discard(row)
                    if not bucket:
                        del index[key]
        self._maybe_compact_log()
        return removed

    def clear(self) -> None:
        """Remove every row (wholesale: resets the delta log, bumps the epoch)."""
        if self.rows:
            self.rows.clear()
            self._reset_log()
            for positions in self._indexes:
                self._indexes[positions] = {}

    def replace_rows(self, rows: Iterable[Row]) -> None:
        """Replace the contents wholesale (resets the delta log, bumps the epoch)."""
        self.rows = set(rows)
        self._reset_log()
        for positions in self._indexes:
            self._indexes[positions] = self._bucket_rows(positions)

    def _reset_log(self) -> None:
        """Start a new log epoch (positions of the old one become stale)."""
        self.epoch += 1
        if self._delta_log is not None:
            self._delta_log = []

    # ------------------------------------------------------------------
    # Delta log (recorded only once a reader asked for it)
    # ------------------------------------------------------------------
    def track_deltas(self) -> None:
        """Start recording the signed delta log (idempotent).

        Called by a reader before its first synchronisation.  The log
        starts empty — the reader's first sync is a snapshot of
        :attr:`rows` anyway — and from then on every visibility change is
        appended, so ``(uid, epoch, log_length)`` taken now is a valid
        position for :meth:`deltas_since`.
        """
        if self._delta_log is None:
            self._delta_log = []

    @property
    def tracks_deltas(self) -> bool:
        """``True`` once a reader asked for the delta log."""
        return self._delta_log is not None

    def deltas_since(self, log_position: int) -> Sequence[Delta]:
        """Signed visibility changes after ``log_position`` (same epoch only).

        Raises :class:`RuntimeError` on a relation nobody called
        :meth:`track_deltas` on: an empty answer would silently read as
        "nothing changed".
        """
        return self._tracked_log()[log_position:]

    @property
    def log_length(self) -> int:
        """Current length of the delta log (raises like :meth:`deltas_since`)."""
        return len(self._tracked_log())

    def _tracked_log(self) -> List[Delta]:
        log = self._delta_log
        if log is None:
            raise RuntimeError(
                "relation records no delta log: call track_deltas() before reading it"
            )
        return log

    # ------------------------------------------------------------------
    # Maintained indexes (persistent adjacency)
    # ------------------------------------------------------------------
    def ensure_index(self, key_positions: Sequence[int]) -> None:
        """Create (once) a maintained index over ``key_positions``.

        The index maps key tuples to the set of rows carrying that key and
        is patched in place by every subsequent mutation — it is built at
        most once per relation lifetime (wholesale :meth:`replace_rows` /
        :meth:`clear` recompute it, everything else is O(1) per delta).
        Registering the index while the relation is still empty makes even
        the initial build free.
        """
        positions = tuple(key_positions)
        if positions not in self._indexes:
            self._indexes[positions] = self._bucket_rows(positions)

    def _bucket_rows(self, positions: Tuple[int, ...]) -> Dict[Tuple, Set[Row]]:
        index: Dict[Tuple, Set[Row]] = {}
        _bucket(index, positions, list(self.rows))
        return index

    def index_map(self, key_positions: Tuple[int, ...]) -> Dict[Tuple, Set[Row]]:
        """The maintained index over ``key_positions``, created on first use.

        Returns the live ``{key tuple -> set of rows}`` mapping — treat it
        as read-only; it is patched by the relation's own mutations.  Hot
        loops fetch this once and probe the plain dict directly.
        """
        positions = tuple(key_positions)
        index = self._indexes.get(positions)
        if index is None:
            index = self._bucket_rows(positions)
            self._indexes[positions] = index
        return index

    def probe(self, key_positions: Tuple[int, ...], key: Tuple) -> Set[Row]:
        """Rows whose ``key_positions`` columns equal ``key`` — O(bucket).

        Creates the maintained index on first use.  The returned set is the
        live bucket: treat it as read-only and snapshot it (e.g. via
        ``list(...)``) before mutating the relation.
        """
        return self.index_map(key_positions).get(key, EMPTY_ROWS)

    @property
    def maintained_index_positions(self) -> List[Tuple[int, ...]]:
        """Key positions of the maintained indexes (introspection/tests)."""
        return list(self._indexes)

    # ------------------------------------------------------------------
    # Relational operators
    # ------------------------------------------------------------------
    def copy(self) -> "Relation":
        """Shallow copy with the same schema and rows."""
        return Relation(self.schema, self.rows)

    def select_positions_equal(self, positions: Sequence[Tuple[int, int]]) -> "Relation":
        """Rows where every ``(i, j)`` pair of positions holds equal values."""
        if not positions:
            return self.copy()
        return Relation(self.schema, rows_with_equal_positions(self.rows, positions))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Relation(schema={self.schema}, rows={len(self.rows)})"


def _index_keys(rows: Sequence[Row], positions: Tuple[int, ...]) -> List[Tuple]:
    """Index keys of ``rows`` over ``positions`` (bulk form of the per-row
    key construction in :meth:`Relation.add`)."""
    if len(positions) == 1:
        position = positions[0]
        return [(row[position],) for row in rows]
    if len(positions) == 2:
        first, second = positions
        return [(row[first], row[second]) for row in rows]
    return [tuple([row[i] for i in positions]) for row in rows]


def _bucket(index: Dict[Tuple, Set[Row]], positions: Tuple[int, ...], rows: Sequence[Row]) -> None:
    """Add ``rows`` to the buckets of ``index`` (keyed on ``positions``)."""
    for key, row in zip(_index_keys(rows, positions), rows):
        bucket = index.get(key)
        if bucket is None:
            index[key] = {row}
        else:
            bucket.add(row)


def rows_with_equal_positions(
    rows: Iterable[Row], positions: Sequence[Tuple[int, int]]
) -> List[Row]:
    """The rows on which every ``(i, j)`` pair of positions holds equal values."""
    if len(positions) == 1:
        ((i, j),) = positions
        return [row for row in rows if row[i] == row[j]]
    return [row for row in rows if all(row[i] == row[j] for i, j in positions)]


def extend_path_rows(
    rows: Iterable[Row],
    base: Relation,
    *,
    direction: str = "forward",
) -> List[Row]:
    """Extend positional path rows by one edge through a base edge view.

    ``base`` must be a two-column ``(source, target)`` edge view.  With
    ``direction="forward"`` each row is extended on the right by the targets
    of base tuples whose source equals the row's last value (the ordinary
    left-to-right path join); with ``direction="backward"`` each row is
    extended on the left by the sources of base tuples whose target equals
    the row's first value.

    Probes go through the base view's maintained adjacency index
    (``source -> rows`` / ``target -> rows``), which is patched in place by
    the view's own mutations — each probe is O(bucket), never O(|view|).
    """
    extended: List[Row] = []
    if direction == "forward":
        lookup = base.index_map((0,)).get
        for row in rows:
            bucket = lookup((row[-1],))
            if bucket:
                extended.extend(row + (base_row[1],) for base_row in bucket)
    elif direction == "backward":
        lookup = base.index_map((1,)).get
        for row in rows:
            bucket = lookup((row[0],))
            if bucket:
                extended.extend((base_row[0],) + row for base_row in bucket)
    else:
        raise ValueError(f"unknown direction: {direction!r}")
    return extended

