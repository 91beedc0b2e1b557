"""Engine snapshots: a checksummed envelope around full engine state.

A snapshot is the durable twin of an engine's in-memory state — the interner
table, the base and trie views with their maintained indexes, the delta logs
of the relations that have a reader, the materialised answers, and the
registered query database travel together, because they are one consistent
object graph.  Serialising that
graph wholesale (pickle) is what guarantees the restore invariant the
property tests enforce: a restored engine is *behaviourally byte-identical*
to the engine that was snapshotted — same ``matches_of``, same ``describe()``
counters, same future notifications and delivered deltas for any subsequent
stream.

The envelope is deliberately paranoid: magic + version + payload length +
CRC32, so a snapshot file truncated or bit-flipped by a crashed writer is
*detected* (:class:`~repro.graph.errors.SnapshotCorruptError`) instead of
deserialised into silently wrong state.  Writers should pair this with an
atomic rename (:func:`write_snapshot_file` does) so a crash mid-write leaves
the previous snapshot intact.

This module also owns the JSON payload forms of the two value types the
write-ahead journal needs (:mod:`repro.persistence.journal`): stream updates
and query graph patterns.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Sequence

from ..graph.elements import Edge, Update, UpdateKind
from ..graph.errors import PersistenceError, SnapshotCorruptError
from ..query.pattern import QueryGraphPattern

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.engine import ContinuousEngine

__all__ = [
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

#: File magic of the snapshot envelope (any mismatch is instant corruption).
SNAPSHOT_MAGIC = b"REPROSNAP"
#: Envelope format version (bumped on incompatible layout changes).
#: 2: TRIC state lost its per-query binding relations (queries read the
#: shared trie views) and relations record a delta log only for a reader.
#: 3: process shards pickle as ``repro.persistence.replication.ShardSupervisor``
#: and sharded groups carry no thread pool.
#: 4: relations lost their ``version`` slot and maintained answer relations
#: are plain ``Relation`` objects (no support counts).
#: 5: a trie root's view is its key's base view (one shared relation, schema
#: ``("p0", "p1")``) and the ``Trie`` wrapper is gone.
#: 6: trie nodes lost their process-global ``node_id`` (a restored node's
#: id could collide with a node registered after the restore), and a
#: pickled process shard carries no ``snapshot_every``.
#: 7: the view registry counts every live edge per label (``_live``, in
#: place of ``_multiplicity``), and sharded groups keep no edge history.
SNAPSHOT_VERSION = 7

#: Envelope header: magic, u16 version, u32 CRC32, u64 payload length.
_HEADER = struct.Struct(">%dsHIQ" % len(SNAPSHOT_MAGIC))


# ----------------------------------------------------------------------
# Envelope
# ----------------------------------------------------------------------
def encode_snapshot(state: object) -> bytes:
    """Serialise ``state`` into a self-verifying snapshot blob."""
    payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    header = _HEADER.pack(
        SNAPSHOT_MAGIC, SNAPSHOT_VERSION, zlib.crc32(payload), len(payload)
    )
    return header + payload


def decode_snapshot(blob: bytes) -> object:
    """Verify and deserialise a snapshot blob.

    Raises
    ------
    SnapshotCorruptError
        On a wrong magic, an unknown version, a truncated payload, or a
        CRC mismatch — every way a crashed or interrupted writer can leave
        a snapshot behind.
    """
    if len(blob) < _HEADER.size:
        raise SnapshotCorruptError(
            f"snapshot too short: {len(blob)} bytes < {_HEADER.size}-byte header"
        )
    magic, version, crc, length = _HEADER.unpack_from(blob)
    if magic != SNAPSHOT_MAGIC:
        raise SnapshotCorruptError(f"bad snapshot magic: {magic!r}")
    if version != SNAPSHOT_VERSION:
        raise SnapshotCorruptError(
            f"unsupported snapshot version {version} (expected {SNAPSHOT_VERSION})"
        )
    payload = blob[_HEADER.size :]
    if len(payload) != length:
        raise SnapshotCorruptError(
            f"snapshot payload truncated: {len(payload)} of {length} bytes"
        )
    if zlib.crc32(payload) != crc:
        raise SnapshotCorruptError("snapshot payload failed its CRC check")
    try:
        return pickle.loads(payload)
    except Exception as error:  # unpickling garbage that passed the CRC
        raise SnapshotCorruptError(f"snapshot payload undecodable: {error}") from error


# ----------------------------------------------------------------------
# Engine-level snapshot / restore
# ----------------------------------------------------------------------
def snapshot_engine(engine: "ContinuousEngine") -> bytes:
    """Full state snapshot of ``engine`` as a self-verifying blob.

    The pickled object graph carries everything the engine owns — interner,
    views, tries, maintained relations and indexes (with their epochs and,
    where a reader registered, delta logs), materialised answers,
    registered queries, satisfied-set and counters — so
    :func:`restore_engine` yields an engine that behaves byte-identically
    from this point on.
    """
    try:
        return encode_snapshot(engine)
    except (pickle.PicklingError, TypeError, AttributeError) as error:
        raise PersistenceError(
            f"engine {getattr(engine, 'name', engine)!r} is not snapshottable: {error}"
        ) from error


def restore_engine(blob: bytes) -> "ContinuousEngine":
    """Rebuild an engine from a :func:`snapshot_engine` blob."""
    from ..core.engine import ContinuousEngine

    engine = decode_snapshot(blob)
    if not isinstance(engine, ContinuousEngine):
        raise SnapshotCorruptError(
            f"snapshot does not contain an engine (got {type(engine).__name__})"
        )
    return engine


# ----------------------------------------------------------------------
# Snapshot files (atomic replace)
# ----------------------------------------------------------------------
def write_snapshot_file(path: "str | os.PathLike", blob: bytes) -> None:
    """Write ``blob`` to ``path`` atomically (tmp file + fsync + rename).

    A crash mid-write leaves either the previous snapshot or the complete
    new one — never a torn file (and a torn tmp file fails the envelope
    checks anyway).
    """
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(blob)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def read_snapshot_file(path: "str | os.PathLike") -> bytes:
    """Read a snapshot blob (existence is the caller's concern)."""
    return Path(path).read_bytes()


# ----------------------------------------------------------------------
# JSON payload forms (journal records)
# ----------------------------------------------------------------------
def update_to_payload(update: Update) -> List[str]:
    """One stream update as a JSON-friendly ``[sign, label, source, target]``."""
    sign = "+" if update.kind is UpdateKind.ADD else "-"
    edge = update.edge
    return [sign, edge.label, edge.source, edge.target]


def update_from_payload(payload: Sequence[str]) -> Update:
    """Inverse of :func:`update_to_payload`."""
    sign, label, source, target = payload
    kind = UpdateKind.ADD if sign == "+" else UpdateKind.DELETE
    return Update(Edge(label, source, target), kind)


def updates_to_payload(updates: Sequence[Update]) -> List[List[str]]:
    """A micro-batch of updates as JSON payload rows."""
    return [update_to_payload(update) for update in updates]


def updates_from_payload(payload: Sequence[Sequence[str]]) -> List[Update]:
    """Inverse of :func:`updates_to_payload`."""
    return [update_from_payload(row) for row in payload]


def pattern_to_payload(pattern: QueryGraphPattern) -> Dict[str, object]:
    """A query pattern as JSON payload (id, name, edge triples).

    Terms round-trip through their string form (``?x`` parses back to a
    variable, anything else to a literal) — the same convention the
    builder's public API uses.
    """
    return {
        "id": pattern.query_id,
        "name": pattern.name,
        "edges": [
            [edge.label, str(edge.source), str(edge.target)]
            for edge in pattern.edges
        ],
    }


def pattern_from_payload(payload: Dict[str, object]) -> QueryGraphPattern:
    """Inverse of :func:`pattern_to_payload`."""
    return QueryGraphPattern(
        payload["id"],
        [tuple(edge) for edge in payload["edges"]],
        name=payload.get("name"),
    )
