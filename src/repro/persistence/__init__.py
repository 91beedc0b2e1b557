"""Durability & crash recovery: snapshots, write-ahead journal, fault hooks.

The persistence layer gives every engine (and sharded group) a durable
life beyond its process:

* :mod:`~repro.persistence.snapshots` — a checksummed envelope around the
  full engine object graph (interner, relations with their signed delta
  logs, maintained indexes, materialised answers, registered queries),
  plus the JSON payload forms journal records use.
* :mod:`~repro.persistence.journal` — the write-ahead
  :class:`~repro.persistence.journal.DeltaJournal`: length/CRC-prefixed
  JSON-lines records, fsync-on-batch, torn-tail truncation on replay.
* :mod:`~repro.persistence.durable` — the
  :class:`~repro.persistence.durable.DurableEngine` wrapper enforcing the
  journal-first/apply-second contract and snapshot + tail-replay recovery.
* :mod:`~repro.persistence.faults` — deterministic fault injection
  (:class:`~repro.persistence.faults.FaultInjector`) the recovery property
  tests and ``tools/faultinject.py`` drive.
* :mod:`~repro.persistence.workers` — the process-shard worker runtime,
  the parent-side worker handle, and the
  :class:`~repro.persistence.workers.RecoverySource` (snapshot +
  acknowledged-op tail) every worker of a shard is built from.
* :mod:`~repro.persistence.replication` — the shard supervisor and its
  :class:`~repro.persistence.replication.ReplicaSet`: replica workers
  that tail a primary's acknowledged-ops log, absorb read traffic, and
  stand in for a dead primary via promotion.
"""

from .durable import DurableEngine
from .faults import (
    FaultInjector,
    InjectedCrash,
    corrupt_file_tail,
    truncate_file_tail,
)
from .journal import DeltaJournal, JournalRecord, frame_record, parse_frames
from .replication import ReplicaSet
from .snapshots import (
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    decode_snapshot,
    encode_snapshot,
    pattern_from_payload,
    pattern_to_payload,
    read_snapshot_file,
    restore_engine,
    snapshot_engine,
    update_from_payload,
    update_to_payload,
    updates_from_payload,
    updates_to_payload,
    write_snapshot_file,
)
from .workers import WORKER_FAILURES

__all__ = [
    "DurableEngine",
    "ReplicaSet",
    "WORKER_FAILURES",
    "DeltaJournal",
    "JournalRecord",
    "frame_record",
    "parse_frames",
    "FaultInjector",
    "InjectedCrash",
    "truncate_file_tail",
    "corrupt_file_tail",
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "encode_snapshot",
    "decode_snapshot",
    "snapshot_engine",
    "restore_engine",
    "write_snapshot_file",
    "read_snapshot_file",
    "update_to_payload",
    "update_from_payload",
    "updates_to_payload",
    "updates_from_payload",
    "pattern_to_payload",
    "pattern_from_payload",
]
