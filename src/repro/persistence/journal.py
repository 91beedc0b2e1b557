"""The write-ahead delta journal: every state change, framed and fsynced.

The delta pipeline already makes each state change a signed, ordered delta;
this module gives those deltas a durable home.  A :class:`DeltaJournal` is
an append-only file of *records* — one per registration or update
micro-batch — with the same JSON-lines framing the pub/sub layer
streams over stdout, hardened for crash recovery:

``<length:08x> <crc32:08x> <json body>\\n``

* **length/CRC prefix** — a record is only accepted when its body is
  exactly ``length`` bytes and matches its CRC32.  A crash mid-``write``
  leaves a *torn final record* (short body, bad CRC, or missing newline);
  :meth:`DeltaJournal.replay` detects it, reports it, and truncates the
  file back to the last good record instead of crashing on it.  A torn
  record anywhere *before* the tail is real corruption and raises
  :class:`~repro.graph.errors.JournalCorruptError`.
* **fsync-on-batch** — each :meth:`append` flushes and ``fsync``\\ s once,
  so an acknowledged batch survives the process (the classic WAL
  contract: journal first, apply second).
* **sequence numbers** — records carry a monotonically increasing ``seq``;
  recovery replays exactly the records after a snapshot's sequence number
  (snapshot + tail-replay).

Record bodies (JSON objects, compact separators)::

    {"seq": N, "op": "batch",    "updates": [["+","knows","a","b"], ...]}
    {"seq": N, "op": "register", "pattern": {"id": ..., "edges": [...]}}

Recovery (:meth:`~repro.persistence.durable.DurableEngine.recover`) applies
exactly these two ops and refuses any other with a
:class:`~repro.graph.errors.JournalCorruptError`.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..graph.elements import Update
from ..graph.errors import JournalCorruptError, PersistenceError
from ..query.pattern import QueryGraphPattern
from .faults import FaultInjector
from .snapshots import (
    pattern_from_payload,
    pattern_to_payload,
    updates_from_payload,
    updates_to_payload,
)

__all__ = ["JournalRecord", "DeltaJournal", "frame_record", "parse_frames"]

#: ``<8 hex length> <8 hex crc> <body>\n`` — 18 prefix bytes plus the body.
_PREFIX_LEN = 18


def frame_record(body: Dict[str, object]) -> bytes:
    """Frame one JSON record body with its length/CRC prefix."""
    encoded = json.dumps(body, separators=(",", ":"), sort_keys=True).encode("utf-8")
    return b"%08x %08x %s\n" % (len(encoded), zlib.crc32(encoded), encoded)


class JournalRecord:
    """One parsed journal record (sequence number, op, payload)."""

    __slots__ = ("seq", "op", "payload")

    def __init__(self, seq: int, op: str, payload: Dict[str, object]) -> None:
        self.seq = seq
        self.op = op
        self.payload = payload

    def updates(self) -> List[Update]:
        """The record's update batch (``batch`` records)."""
        return updates_from_payload(self.payload["updates"])

    def pattern(self) -> QueryGraphPattern:
        """The record's query pattern (``register`` records)."""
        return pattern_from_payload(self.payload["pattern"])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"JournalRecord(seq={self.seq}, op={self.op!r})"


def parse_frames(data: bytes) -> Tuple[List[JournalRecord], int, bool]:
    """Parse framed records out of raw journal bytes.

    Returns ``(records, good_length, torn_tail)`` where ``good_length`` is
    the byte offset up to which the file parsed cleanly and ``torn_tail``
    is ``True`` when trailing bytes after the last good record failed
    framing — the signature of a crash mid-write, which the caller
    truncates away.

    Raises
    ------
    JournalCorruptError
        When a record *before* the final one is damaged: a torn tail is a
        crash artefact, an interior tear means the journal cannot be
        trusted at all.
    """
    records: List[JournalRecord] = []
    offset = 0
    torn_at: Optional[int] = None
    while offset < len(data):
        frame_end, record = _parse_one(data, offset)
        if record is None:
            torn_at = offset
            break
        records.append(record)
        offset = frame_end
    if torn_at is None:
        return records, offset, False
    remainder = data[torn_at:]
    # A torn *final* record may still contain newlines inside its JSON body
    # bytes only if a later complete record follows — probe for any
    # well-formed frame after the tear; finding one proves interior damage.
    probe = remainder.find(b"\n")
    while probe != -1:
        candidate = torn_at + probe + 1
        frame_end, record = _parse_one(data, candidate)
        if record is not None:
            raise JournalCorruptError(
                f"corrupt journal record at byte {torn_at} "
                f"(a valid record follows at byte {candidate})"
            )
        probe = remainder.find(b"\n", probe + 1)
    return records, torn_at, True


def _parse_one(data: bytes, offset: int) -> Tuple[int, Optional[JournalRecord]]:
    """Parse one frame at ``offset``; ``(end, None)`` when torn/invalid."""
    prefix = data[offset : offset + _PREFIX_LEN]
    if len(prefix) < _PREFIX_LEN or prefix[8:9] != b" " or prefix[17:18] != b" ":
        return offset, None
    try:
        length = int(prefix[0:8], 16)
        crc = int(prefix[9:17], 16)
    except ValueError:
        return offset, None
    body_start = offset + _PREFIX_LEN
    body_end = body_start + length
    if body_end + 1 > len(data) or data[body_end : body_end + 1] != b"\n":
        return offset, None
    body = data[body_start:body_end]
    if zlib.crc32(body) != crc:
        return offset, None
    try:
        payload = json.loads(body)
        record = JournalRecord(int(payload["seq"]), str(payload["op"]), payload)
    except (ValueError, KeyError, TypeError):
        return offset, None
    return body_end + 1, record


class DeltaJournal:
    """Append-only write-ahead journal of engine state changes.

    Parameters
    ----------
    path:
        Journal file (created empty when absent; parent directories made).
    fsync:
        ``fsync`` after every append (the durability contract).  Turning
        it off trades crash safety for throughput — the benchmark's
        journal-overhead comparison measures exactly this knob.
    faults:
        Optional :class:`~repro.persistence.faults.FaultInjector` whose
        ``journal.append.before_write`` / ``journal.append.after_write`` /
        ``journal.append.after_fsync`` points this journal reaches.
    """

    def __init__(
        self,
        path: "str | os.PathLike",
        *,
        fsync: bool = True,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self.faults = faults
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "ab")
        self.records_appended = 0

    # ------------------------------------------------------------------
    # Appending (the write-ahead half)
    # ------------------------------------------------------------------
    def append(self, seq: int, op: str, payload: Dict[str, object]) -> None:
        """Durably append one record (``payload`` must not carry seq/op)."""
        if self._handle.closed:
            raise PersistenceError(f"journal {self.path} is closed")
        body = dict(payload)
        body["seq"] = seq
        body["op"] = op
        frame = frame_record(body)
        if self.faults is not None:
            self.faults.reached("journal.append.before_write")
        self._handle.write(frame)
        self._handle.flush()
        if self.faults is not None:
            self.faults.reached("journal.append.after_write")
        if self.fsync:
            os.fsync(self._handle.fileno())
            if self.faults is not None:
                self.faults.reached("journal.append.after_fsync")
        self.records_appended += 1

    def append_batch(self, seq: int, updates: Sequence[Update]) -> None:
        """Journal one update micro-batch ahead of applying it."""
        self.append(seq, "batch", {"updates": updates_to_payload(updates)})

    def append_register(self, seq: int, pattern: QueryGraphPattern) -> None:
        """Journal one query registration."""
        self.append(seq, "register", {"pattern": pattern_to_payload(pattern)})

    # ------------------------------------------------------------------
    # Replay (the recovery half)
    # ------------------------------------------------------------------
    def replay(self, *, after_seq: int = -1) -> Tuple[List[JournalRecord], bool]:
        """Records with ``seq > after_seq``, tolerating a torn tail.

        Returns ``(records, truncated)``; when the file ends in a torn
        record (crash mid-write) it is truncated back to the last good
        frame and ``truncated`` is ``True``.  Interior corruption raises
        :class:`~repro.graph.errors.JournalCorruptError`.
        """
        self._handle.flush()
        data = self.path.read_bytes()
        records, good_length, torn = parse_frames(data)
        if torn:
            # Drop the torn tail in place so future appends start clean.
            self._handle.close()
            with open(self.path, "rb+") as handle:
                handle.truncate(good_length)
            self._handle = open(self.path, "ab")
        if after_seq >= 0:
            records = [record for record in records if record.seq > after_seq]
        return records, torn

    def reset(self) -> None:
        """Empty the journal (called right after a snapshot covers it)."""
        self._handle.close()
        with open(self.path, "wb") as handle:
            handle.flush()
            os.fsync(handle.fileno())
        self._handle = open(self.path, "ab")
        self.records_appended = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def size_bytes(self) -> int:
        """Current journal size on disk."""
        self._handle.flush()
        return self.path.stat().st_size if self.path.exists() else 0

    def close(self) -> None:
        """Close the file handle (idempotent)."""
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "DeltaJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DeltaJournal({str(self.path)!r}, appended={self.records_appended})"
