"""Relations: the tuple sets behind materialized views.

A :class:`Relation` is a named-column set of tuples over graph vertices.  It
is the representation used for

* base edge views (schema ``("s", "t")``),
* per-path prefix views inside the TRIC tries (schema ``("p0", ..., "pk")``),
* query-level binding tables (schema of variable names).

Joins are classic hash joins with a build and a probe phase, exactly as
described in Section 4.2 of the paper.  The build-side hash tables are the
relations' own *maintained indexes* — persistent buckets patched in place by
every mutation (:meth:`Relation.ensure_index` / :meth:`Relation.probe`) —
so joining repeatedly against a stable relation reuses an incrementally
maintained structure instead of rebuilding one per call.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

__all__ = [
    "Relation",
    "CountedRelation",
    "natural_join",
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
    updates arrive) and carry a ``version`` counter.  A relation with a
    *reader* additionally records a signed *delta log* of visibility
    changes: the log is opt-in (:meth:`track_deltas`), because most
    relations — base edge views, interior trie nodes, terminals nobody
    subscribed to — are only ever probed, and an unread log costs a tuple
    per mutation in RAM and in every snapshot.  A reader remembers
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

    __slots__ = ("schema", "arity", "rows", "version", "uid", "epoch", "_delta_log", "_indexes")

    def __init__(self, schema: Sequence[str], rows: Iterable[Row] = ()) -> None:
        self.schema: Tuple[str, ...] = tuple(schema)
        #: Number of columns (cached: checked on every hot-path ``add``).
        self.arity: int = len(self.schema)
        self.rows: Set[Row] = set(rows)
        self.version = 0
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

    def column_index(self, column: str) -> int:
        """Index of ``column`` in the schema."""
        return self.schema.index(column)

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
        self.version += 1
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
        self.version += len(added)
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
        self.version += 1
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
        self.version += len(removed)
        self._maybe_compact_log()
        return removed

    def discard(self, row: Row) -> bool:
        """Alias of :meth:`remove` (kept for backwards compatibility)."""
        return self.remove(row)

    def clear(self) -> None:
        """Remove every row (wholesale: resets the delta log, bumps the epoch)."""
        if self.rows:
            self.rows.clear()
            self.version += 1
            self._reset_log()
            for positions in self._indexes:
                self._indexes[positions] = {}

    def replace_rows(self, rows: Iterable[Row]) -> None:
        """Replace the contents wholesale (resets the delta log, bumps the epoch)."""
        self.rows = set(rows)
        self.version += 1
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

    def has_maintained_index(self, key_positions: Tuple[int, ...]) -> bool:
        """``True`` when a maintained index over ``key_positions`` exists."""
        return tuple(key_positions) in self._indexes

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


class CountedRelation(Relation):
    """A relation whose rows carry *support counts* (counting-based maintenance).

    Used for derived views where the same row can be produced by several
    distinct derivations — the maintained answer relations of
    :class:`~repro.matching.answers.MaterializedAnswers`.  A row becomes
    visible when its support goes ``0 -> 1`` and disappears only when the
    *last* supporting derivation is retracted (``1 -> 0``), which is the
    classic counting algorithm for incremental view maintenance.
    Visibility changes are logged exactly like a plain :class:`Relation`'s.
    """

    __slots__ = ("_counts",)

    def __init__(self, schema: Sequence[str], rows: Iterable[Row] = ()) -> None:
        super().__init__(schema)
        self._counts: Dict[Row, int] = {}
        for row in rows:
            self.add(row)

    def support(self, row: Row) -> int:
        """Number of live derivations of ``row``."""
        return self._counts.get(row, 0)

    def add(self, row: Row) -> bool:
        """Add one derivation of ``row``; ``True`` when the row became visible."""
        count = self._counts.get(row, 0)
        self._counts[row] = count + 1
        if count == 0:
            return super().add(row)
        return False

    def remove(self, row: Row) -> bool:
        """Retract one derivation of ``row``; ``True`` when the row disappeared."""
        count = self._counts.get(row, 0)
        if count == 0:
            return False
        if count == 1:
            del self._counts[row]
            return super().remove(row)
        self._counts[row] = count - 1
        return False

    def add_all(self, rows: Iterable[Row]) -> List[Row]:
        """Add one derivation per row; return the rows that became visible."""
        return [row for row in rows if self.add(row)]

    def remove_all(self, rows: Iterable[Row]) -> List[Row]:
        """Retract one derivation per row; return the rows that disappeared."""
        return [row for row in rows if self.remove(row)]

    def discard(self, row: Row) -> bool:
        """Drop ``row`` entirely, regardless of its remaining support."""
        self._counts.pop(row, None)
        if row in self.rows:
            return Relation.remove(self, row)
        return False

    def clear(self) -> None:
        self._counts.clear()
        super().clear()

    def replace_rows(self, rows: Iterable[Row]) -> None:
        counts: Dict[Row, int] = {}
        for row in rows:
            counts[row] = counts.get(row, 0) + 1
        self._counts = counts
        super().replace_rows(counts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CountedRelation(schema={self.schema}, rows={len(self.rows)})"


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


def natural_join(left: Relation, right: Relation) -> Relation:
    """Natural join of two relations on their shared column names.

    The build side's hash table is the relation's own *maintained index*
    over the join columns, so joining repeatedly against a stable relation
    (e.g. a maintained binding table) reuses an incrementally patched
    structure instead of rebuilding one.  A side that already carries a
    maintained index over the join columns is preferred as the build side
    even when larger (its "build phase" is free); otherwise the smaller
    side builds, as in the paper's hash-join description.  With no shared
    columns the result is the Cartesian product.
    """
    shared = [c for c in left.schema if c in right.schema]
    right_only = [c for c in right.schema if c not in shared]
    out_schema = tuple(left.schema) + tuple(right_only)

    if not left.rows or not right.rows:
        return Relation(out_schema)

    if not shared:
        # Cartesian product: with no shared columns ``right_only`` is the
        # whole right schema in order, so rows concatenate directly.
        return Relation(
            out_schema, {lrow + rrow for lrow in left.rows for rrow in right.rows}
        )

    left_key_pos = [left.column_index(c) for c in shared]
    right_key_pos = [right.column_index(c) for c in shared]
    right_extra_pos = [right.column_index(c) for c in right_only]

    # Build-side choice: a side that already carries a maintained index over
    # the join columns is free to "build" (the index persists and is patched
    # incrementally), so prefer it even when it is the larger side — this is
    # what turns a delta-against-full join into an O(delta) probe.  With no
    # maintained index on either side, build on the smaller one as usual.
    left_positions, right_positions = tuple(left_key_pos), tuple(right_key_pos)
    left_indexed = left.has_maintained_index(left_positions)
    right_indexed = right.has_maintained_index(right_positions)
    if left_indexed != right_indexed:
        build_is_right = right_indexed
    else:
        build_is_right = len(right) <= len(left)
    if build_is_right:
        build_rel, build_positions = right, right_positions
        probe_rel, probe_pos = left, left_key_pos
    else:
        build_rel, build_positions = left, left_positions
        probe_rel, probe_pos = right, right_key_pos

    lookup = build_rel.index_map(build_positions).get

    rows: Set[Row] = set()
    if build_is_right:
        for probe_row in probe_rel.rows:
            key = tuple(probe_row[i] for i in probe_pos)
            bucket = lookup(key)
            if not bucket:
                continue
            for build_row in bucket:
                rows.add(probe_row + tuple(build_row[i] for i in right_extra_pos))
    else:
        for probe_row in probe_rel.rows:
            key = tuple(probe_row[i] for i in probe_pos)
            bucket = lookup(key)
            if not bucket:
                continue
            extra = tuple(probe_row[i] for i in right_extra_pos)
            for build_row in bucket:
                rows.add(build_row + extra)
    return Relation(out_schema, rows)
