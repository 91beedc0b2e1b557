"""Durable engine wrapper: journal first, apply second, snapshot sometimes.

:class:`DurableEngine` wraps any :class:`~repro.core.engine.ContinuousEngine`
(including a sharded group) with the classic write-ahead contract:

1. every state-changing call (``register``, ``on_batch`` — ``on_update``
   is a batch of one) is appended to the
   :class:`~repro.persistence.journal.DeltaJournal` and fsynced **before**
   it is applied to the wrapped engine;
2. every ``snapshot_every`` journal records, the full engine state is
   written to an atomically-replaced snapshot file and the journal is
   reset (the snapshot now covers it);
3. :meth:`DurableEngine.recover` rebuilds the wrapper from a directory —
   snapshot (when present) plus tail-replay of the journal records after
   the snapshot's sequence number — yielding an engine byte-identical to
   one that never died.

The recovery invariant the property tests enforce: a crash *between*
journal append and state apply loses nothing (replay applies the record);
a crash *mid-append* leaves a torn final record that replay truncates
(the batch was never acknowledged, so the oracle never saw it either).
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence

from ..core.engine import BatchReport, ContinuousEngine
from ..graph.elements import Update
from ..graph.errors import (
    DuplicateQueryError,
    JournalCorruptError,
    PersistenceError,
    SnapshotCorruptError,
)
from ..query.pattern import QueryGraphPattern
from .faults import FaultInjector
from .journal import DeltaJournal, parse_frames
from .snapshots import (
    decode_snapshot,
    encode_snapshot,
    read_snapshot_file,
    write_snapshot_file,
)

__all__ = ["DurableEngine"]

#: File names inside a durability directory.  The ``.1`` pair is the
#: previous snapshot *generation*: the snapshot that was current before
#: the last :meth:`DurableEngine.write_snapshot`, plus the journal segment
#: covering the records between the two snapshots — enough to recover when
#: the current snapshot turns out corrupt.
JOURNAL_FILE = "journal.wal"
SNAPSHOT_FILE = "snapshot.bin"
PREV_JOURNAL_FILE = "journal.wal.1"
PREV_SNAPSHOT_FILE = "snapshot.bin.1"


class DurableEngine:
    """A write-ahead-journaled, snapshotting wrapper around an engine.

    Parameters
    ----------
    engine:
        The engine (or sharded group) to make durable.  Must be fresh with
        respect to ``directory`` — use :meth:`recover` to resume from a
        directory that already holds state.
    directory:
        Durability directory holding ``journal.wal`` and ``snapshot.bin``
        (created when absent).
    snapshot_every:
        Write a snapshot (and reset the journal) every this many journal
        records; ``None`` disables periodic snapshots (journal-only
        durability — recovery replays from the last explicit snapshot).
    fsync:
        Fsync the journal on every append (the durability contract; the
        benchmark's journal-overhead comparison measures this knob).
    faults:
        Optional :class:`~repro.persistence.faults.FaultInjector`; this
        wrapper reaches ``durable.apply.before`` / ``durable.apply.after``
        around every state apply and ``durable.snapshot`` before each
        snapshot write, in addition to the journal's own points.

    Read-only calls (``matches_of``, ``has_matches``, ``describe`` inputs,
    ``answer_delta_source``, ``satisfied_queries`` …) pass straight through
    to the wrapped engine.
    """

    def __init__(
        self,
        engine: ContinuousEngine,
        directory: "str | Path",
        *,
        snapshot_every: Optional[int] = None,
        fsync: bool = True,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        if snapshot_every is not None and snapshot_every < 1:
            raise PersistenceError("snapshot_every must be at least 1 (or None)")
        self.engine = engine
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.snapshot_every = snapshot_every
        self.faults = faults
        self.journal = DeltaJournal(
            self.directory / JOURNAL_FILE, fsync=fsync, faults=faults
        )
        #: Sequence number of the last journaled record.
        self._seq = 0
        #: Sequence number the on-disk snapshot covers (0 = none yet).
        self._snapshot_seq = 0
        self.snapshots_written = 0
        self.replayed_records = 0
        self.recovered = False
        self.truncated_tail = False
        #: True when :meth:`recover` had to fall back to the previous
        #: snapshot generation because the current one was corrupt.
        self.snapshot_fallback = False
        self._closed = False
        #: Serialises state-changing calls against close/snapshot — a
        #: concurrent ``close()`` during an in-flight flush waits for the
        #: flush instead of tearing the journal out from under it.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        directory: "str | Path",
        *,
        engine_factory: Optional[Callable[[], ContinuousEngine]] = None,
        snapshot_every: Optional[int] = None,
        fsync: bool = True,
        faults: Optional[FaultInjector] = None,
    ) -> "DurableEngine":
        """Resume from ``directory``: snapshot (if any) + journal tail-replay.

        ``engine_factory`` builds the starting engine when no snapshot
        exists yet (a directory that only ever journaled); with a snapshot
        present the factory is ignored.  A torn final journal record —
        the signature of a crash mid-write — is truncated silently;
        corruption before the tail, or a record whose op is neither
        ``register`` nor ``batch``, raises
        :class:`~repro.graph.errors.JournalCorruptError`.

        **Generation fallback.**  A corrupt current snapshot (or one lost
        mid-rotation) does not refuse recovery outright: when the previous
        generation (``snapshot.bin.1`` + its preserved journal segment
        ``journal.wal.1``) is present, recovery loads it, replays the
        preserved segment up to where the failed snapshot sat, then the
        live journal tail — verifying sequence continuity at every step,
        so a fallback either reconstructs the exact pre-crash state or
        raises :class:`~repro.graph.errors.SnapshotCorruptError` rather
        than silently serving a wrong one.
        """
        directory = Path(directory)
        snapshot_path = directory / SNAPSHOT_FILE
        prev_snapshot_path = directory / PREV_SNAPSHOT_FILE
        state: Optional[Dict[str, object]] = None
        fallback = False
        snapshot_error: Optional[SnapshotCorruptError] = None
        if snapshot_path.exists():
            try:
                state = cls._load_snapshot_state(snapshot_path)
            except SnapshotCorruptError as error:
                snapshot_error = error
        if state is None and snapshot_error is not None and not prev_snapshot_path.exists():
            raise snapshot_error
        if state is None and prev_snapshot_path.exists():
            # Current snapshot corrupt — or missing while the previous
            # generation exists (a crash between rotation and the new
            # snapshot's rename): fall back one generation.
            try:
                state = cls._load_snapshot_state(prev_snapshot_path)
            except SnapshotCorruptError as error:
                raise SnapshotCorruptError(
                    "both snapshot generations are corrupt: "
                    f"{snapshot_error or 'current missing'}; previous: {error}"
                ) from error
            fallback = True
        if state is not None:
            engine = state["engine"]
            seq = int(state["seq"])
        elif engine_factory is not None:
            engine = engine_factory()
            seq = 0
        else:
            raise PersistenceError(
                f"nothing to recover in {directory}: no snapshot and no "
                "engine_factory to build a fresh engine"
            )
        durable = cls(
            engine,
            directory,
            snapshot_every=snapshot_every,
            fsync=fsync,
            faults=faults,
        )
        durable._seq = seq
        durable._snapshot_seq = seq
        if fallback:
            durable._replay_previous_segment()
        records, torn = durable.journal.replay(after_seq=durable._seq)
        if fallback and records and records[0].seq != durable._seq + 1:
            raise SnapshotCorruptError(
                "generation fallback cannot bridge the journal: recovered "
                f"state sits at seq {durable._seq} but the live journal "
                f"resumes at seq {records[0].seq}"
            )
        for record in records:
            durable._apply_record(record)
        durable.replayed_records += len(records)
        durable.recovered = True
        durable.truncated_tail = torn
        durable.snapshot_fallback = fallback
        return durable

    @staticmethod
    def _load_snapshot_state(path: Path) -> Dict[str, object]:
        state = decode_snapshot(read_snapshot_file(path))
        if not isinstance(state, dict) or "engine" not in state:
            raise SnapshotCorruptError(
                "durable snapshot does not contain an engine state record"
            )
        return state

    def _apply_record(self, record) -> None:
        if record.op == "register":
            self.engine.register(record.pattern())
        elif record.op == "batch":
            self.engine.on_batch(record.updates())
        else:
            raise JournalCorruptError(
                f"journal record {record.seq} has unknown op {record.op!r}"
            )
        self._seq = record.seq

    def _replay_previous_segment(self) -> None:
        """Replay the preserved journal segment of the failed generation.

        The segment (``journal.wal.1``) holds exactly the records between
        the previous snapshot and the corrupt one; records the previous
        snapshot already covers are filtered by sequence, and any gap in
        the remainder means the segment cannot reproduce the lost state —
        a typed refusal instead of a silently-wrong recovery.
        """
        segment_path = self.directory / PREV_JOURNAL_FILE
        if not segment_path.exists():
            return
        records, _good, _torn = parse_frames(segment_path.read_bytes())
        for record in records:
            if record.seq <= self._seq:
                continue
            if record.seq != self._seq + 1:
                raise SnapshotCorruptError(
                    "generation fallback found a gap in the preserved "
                    f"journal segment: expected seq {self._seq + 1}, "
                    f"found {record.seq}"
                )
            self._apply_record(record)
            self.replayed_records += 1

    # ------------------------------------------------------------------
    # State-changing calls (journal first, apply second)
    # ------------------------------------------------------------------
    def register(self, pattern: QueryGraphPattern) -> None:
        """Durably index one continuous query (journalled before applying)."""
        with self._lock:
            self._require_open()
            if pattern.query_id in self.engine.queries:
                # Pre-check so a doomed registration is never journalled.
                raise DuplicateQueryError(
                    f"query id already registered: {pattern.query_id}"
                )
            self._seq += 1
            self.journal.append_register(self._seq, pattern)
            self._apply(self.engine.register, pattern)
            self._maybe_snapshot()

    def register_all(self, patterns) -> None:
        """Durably index every pattern in ``patterns``."""
        for pattern in patterns:
            self.register(pattern)

    def on_batch(self, updates: Sequence[Update]) -> BatchReport:
        """Durably process a micro-batch (journalled before applying)."""
        updates = list(updates)
        with self._lock:
            self._require_open()
            self._seq += 1
            self.journal.append_batch(self._seq, updates)
            report = self._apply(self.engine.on_batch, updates)
            self._maybe_snapshot()
            return report

    def _require_open(self) -> None:
        if self._closed:
            raise PersistenceError(
                f"durable engine over {self.directory} is closed"
            )

    def on_update(self, update: Update) -> BatchReport:
        """Durably process one stream update (a one-record micro-batch)."""
        return self.on_batch([update])

    def _apply(self, call, *args):
        if self.faults is not None:
            self.faults.reached("durable.apply.before")
        result = call(*args)
        if self.faults is not None:
            self.faults.reached("durable.apply.after")
        return result

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def write_snapshot(self) -> None:
        """Snapshot the wrapped engine now and reset the journal.

        The snapshot records the current sequence number, so recovery
        replays exactly the journal records appended after it.  The write
        is atomic (tmp file + fsync + rename) and the journal is only
        reset once the snapshot is safely in place — a crash in between
        merely replays records the snapshot already covers (idempotent for
        recovery, which filters by sequence number).

        The snapshot being replaced is kept as the previous *generation*
        (``snapshot.bin.1``) together with the journal segment covering
        the records between the two snapshots (``journal.wal.1``) —
        :meth:`recover` falls back to that pair when the current snapshot
        turns out corrupt.  Rotation order is crash-safe: the segment is
        preserved first (atomic write), then the old snapshot is renamed
        aside, then the new one lands; a crash at any point leaves at
        least one generation whose snapshot + journal records reach the
        acknowledged sequence.
        """
        with self._lock:
            self._require_open()
            if self.faults is not None:
                self.faults.reached("durable.snapshot")
            blob = encode_snapshot({"engine": self.engine, "seq": self._seq})
            snapshot_path = self.directory / SNAPSHOT_FILE
            if snapshot_path.exists():
                # Preserve the outgoing generation: its journal segment
                # (exactly the records since it was written — the journal
                # was reset then), then the snapshot itself.
                write_snapshot_file(
                    self.directory / PREV_JOURNAL_FILE,
                    self.journal.path.read_bytes(),
                )
                os.replace(snapshot_path, self.directory / PREV_SNAPSHOT_FILE)
            write_snapshot_file(snapshot_path, blob)
            self._snapshot_seq = self._seq
            self.snapshots_written += 1
            self.journal.reset()

    def _maybe_snapshot(self) -> None:
        if self.snapshot_every is None:
            return
        if self._seq - self._snapshot_seq >= self.snapshot_every:
            self.write_snapshot()

    # ------------------------------------------------------------------
    # Reads and reporting
    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        """The wrapped engine's description plus a ``durability`` section."""
        info = dict(self.engine.describe())
        info["durability"] = {
            "directory": str(self.directory),
            "seq": self._seq,
            "snapshot_seq": self._snapshot_seq,
            "snapshots_written": self.snapshots_written,
            "journal_records": self.journal.records_appended,
            "journal_bytes": self.journal.size_bytes if not self._closed else 0,
            "replayed_records": self.replayed_records,
            "recovered": self.recovered,
            "truncated_tail": self.truncated_tail,
            "snapshot_fallback": self.snapshot_fallback,
            "previous_generation": (
                self.directory / PREV_SNAPSHOT_FILE
            ).exists(),
            "fsync": self.journal.fsync,
        }
        return info

    def __getattr__(self, attr: str):
        # Read-only calls (matches_of, has_matches, satisfied_queries,
        # answer_delta_source, queries, name, ...) pass straight through.
        return getattr(self.engine, attr)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the journal and the wrapped engine (idempotent).

        Serialised against in-flight state changes: a close racing an
        ``on_batch`` waits for the flush to land instead of tearing the
        journal out from under it; later state changes raise a typed
        :class:`~repro.graph.errors.PersistenceError`.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self.journal.close()
            close = getattr(self.engine, "close", None)
            if close is not None:
                close()

    def __enter__(self) -> "DurableEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DurableEngine({self.engine!r}, directory={str(self.directory)!r}, "
            f"seq={self._seq})"
        )
