"""The correctness gate (untimed).

(a) folding every delivered frame equals the final ``matches_of`` of every
    subscribed query;
(b) ``Naive`` replays the first ``verify_ticks`` ticks and agrees on the
    notified ids of every tick and on the folded answers;
(c) the frames of ``serve_durable`` and ``sharded_rw`` equal, byte for
    byte, those of a bare in-process ``TRIC+`` replay of the same inputs,
    and the recovered engine equals the closed one (checked where it is
    recovered, in :func:`driver.checkpoint_and_recover`);
(d) for the default seed, input fingerprints and frame digests are pinned
    in ``pins.json``; the seed-independent structure fingerprint is pinned
    for every seed.

``run_workload``'s transcript is deliberately not reused: it polls every
query and runs out of memory on skew.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from pathlib import Path
from typing import Dict, List, Sequence, Set, Tuple

from repro.engines import create_engine
from repro.pubsub.deltas import canonical_key

from .driver import build_stack, closed_loop
from .workloads import DEFAULT_SEED, Inputs

__all__ = [
    "frames_digest",
    "fold_frames",
    "fold_matches_final",
    "prefix_digest",
    "naive_prefix_digest",
    "reference_digest",
    "load_pins",
    "check_pins",
]

PINS_PATH = Path(__file__).with_name("pins.json")


def frames_digest(lines: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def fold_frames(frames, frame_ticks: Sequence[int], inputs: Inputs, checkpoint: int):
    """Fold frames the way a consumer would, tick by tick.

    A consumer applies ``state = (state - removed) | added`` (``snapshot``
    frames reset the state) and forgets a query it un-subscribes.  Returns
    ``(final_state, muted_at_end, checkpoint_state, muted_at_checkpoint)``
    where the checkpoint is taken after the frames of tick
    ``checkpoint - 1`` and before that tick's churn.
    """
    state: Dict[str, Set[Tuple]] = {}
    muted: Set[str] = set()
    at_checkpoint = ({}, set())
    position = 0
    for tick in range(len(inputs.ticks) + 1):
        while position < len(frames) and frame_ticks[position] == tick:
            frame = frames[position]
            position += 1
            answers = state.setdefault(frame.query_id, set())
            if frame.snapshot:
                answers.clear()
            else:
                answers.difference_update(canonical_key(b) for b in frame.removed)
            answers.update(canonical_key(b) for b in frame.added)
        if tick == checkpoint - 1:
            at_checkpoint = ({q: set(a) for q, a in state.items()}, set(muted))
        for action, query_id in inputs.churn.get(tick, ()):
            if action == "mute":
                muted.add(query_id)
                state.pop(query_id, None)
            else:
                muted.discard(query_id)
    return state, muted, at_checkpoint[0], at_checkpoint[1]


def _watched(inputs: Inputs) -> List[str]:
    return sorted(query_id for ids in inputs.subscribed for query_id in ids)


def fold_matches_final(state, muted, final_answers: Dict[str, list], inputs: Inputs) -> bool:
    """Check (a): folded frames equal final ``matches_of``."""
    for query_id in _watched(inputs):
        if query_id in muted:
            continue
        expected = {canonical_key(b) for b in final_answers[query_id]}
        if state.get(query_id, set()) != expected:
            return False
    return True


def _digest_prefix(notified: List[List[str]], answers: Dict[str, Set[Tuple]]) -> str:
    payload = {
        "notified": notified,
        "answers": {q: sorted(map(list, rows)) for q, rows in sorted(answers.items())},
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


def prefix_digest(notified, checkpoint_state, muted_at_checkpoint, inputs: Inputs) -> str:
    """Measured side of check (b)."""
    answers = {
        query_id: checkpoint_state.get(query_id, set())
        for query_id in _watched(inputs)
        if query_id not in muted_at_checkpoint
    }
    return _digest_prefix(notified, answers)


def naive_prefix_digest(inputs: Inputs) -> Tuple[str, float, int]:
    """Oracle side of check (b): ``(digest, verify_s, verify_ticks)``."""
    checkpoint = min(inputs.workload.verify_ticks, len(inputs.ticks))
    started = time.perf_counter()
    oracle = create_engine("Naive")
    oracle.register_all(inputs.queries)
    notified = [sorted(oracle.on_batch(tick)) for tick in inputs.ticks[:checkpoint]]
    muted: Set[str] = set()
    for tick in range(checkpoint - 1):
        for action, query_id in inputs.churn.get(tick, ()):
            (muted.add if action == "mute" else muted.discard)(query_id)
    answers = {
        query_id: {canonical_key(b) for b in oracle.matches_of(query_id)}
        for query_id in _watched(inputs)
        if query_id not in muted
    }
    return _digest_prefix(notified, answers), time.perf_counter() - started, checkpoint


def reference_digest(inputs: Inputs, directory: Path) -> Tuple[str, float]:
    """Check (c): frame digest and closed-loop seconds of a bare in-process
    ``TRIC+`` + broker replay of the same inputs (also the single-process
    baseline of ``pubsub.sharding.speedup_vs_unsharded_x``)."""
    bare = dataclasses.replace(inputs, workload=dataclasses.replace(inputs.workload, stack="bare"))
    stack = build_stack(bare, directory)
    try:
        record = closed_loop(stack, bare)
    finally:
        stack.close()
    return frames_digest(record.lines), record.wall_s


def load_pins() -> Dict[str, Dict[str, object]]:
    try:
        return json.loads(PINS_PATH.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


def check_pins(
    workload_name: str,
    seed: int,
    structure_fingerprint: str,
    fingerprint: str,
    digest: str,
    pins: Dict[str, Dict[str, object]],
) -> List[str]:
    """Check (d): names of the pins this run breaks (empty when none)."""
    pinned = pins.get(workload_name)
    if pinned is None:
        return ["missing"]
    broken = []
    if pinned.get("structure_fingerprint") != structure_fingerprint:
        broken.append("structure_fingerprint")
    if seed == DEFAULT_SEED:
        if pinned.get("fingerprint") != fingerprint:
            broken.append("fingerprint")
        if pinned.get("frames_digest") != digest:
            broken.append("frames_digest")
    return broken
