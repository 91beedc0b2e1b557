"""Fault-injection harness: crash the serving stack on purpose, from a shell.

Seven subcommands, mirroring the failure modes the durability and
replication layers (`src/repro/persistence/`) recover from:

``kill-worker``
    Run ``repro-serve --executor process`` twice over the same seeded
    stream — once undisturbed, once while SIGKILLing live shard worker
    processes mid-stream — and assert the delivered delta stream is
    byte-identical, the stderr summary reports the respawns, and no worker
    process seen during the faulted run (respawned ones included) outlives
    ``repro-serve`` by more than 10 s.  This is the CI recovery smoke.

``kill-primary``
    Replay one seeded stream through a serial oracle group and a
    process-executor group with replicas side by side, SIGKILLing shard
    *primary* workers mid-stream.  The verdict proves the freshest
    replica was promoted (with ``--replicas 0``: every killed primary was
    respawned from its shard's snapshot and op tail) and every delivered
    ``MatchDelta`` frame stayed byte-identical to the never-crashed
    oracle — zero missed, zero duplicated.

``kill-replica``
    Same side-by-side replay, but the SIGKILLs land on *replica*
    workers while reads are actively routed to them.  The verdict proves
    reads failed over to surviving workers (no wrong answers, no
    errors) and replacements were re-seeded from the primary's snapshot.

``rolling-restart``
    Same side-by-side replay, invoking
    ``ShardedEngineGroup.rolling_restart()`` every N batches: drain,
    snapshot, respawn, resume.  The verdict proves zero frames were
    missed or duplicated across every restart, and reports the pause.

``corrupt-snapshot``
    Build a durable engine with at least two snapshot generations, flip
    a byte inside the *current* ``snapshot.bin``, then recover.  The
    verdict proves recovery fell back to the previous generation plus
    its preserved journal segment and converged on oracle answers.

``tear-tail``
    Truncate the final bytes of a durability directory's ``journal.wal``
    (a crash mid-``write(2)``), then replay it and report how recovery
    sees the damage: the torn final record is truncated, every record
    before it survives.

``corrupt-tail``
    Flip one byte at a chosen offset from the end of ``journal.wal`` and
    report the verdict: damage inside the final record is truncated like a
    tear; damage before it refuses recovery with ``JournalCorruptError``.

Run from the repository root::

    PYTHONPATH=src python tools/faultinject.py kill-worker --updates 2000
    PYTHONPATH=src python tools/faultinject.py kill-primary --kills 2
    PYTHONPATH=src python tools/faultinject.py kill-replica --replicas 2
    PYTHONPATH=src python tools/faultinject.py rolling-restart --every 20
    PYTHONPATH=src python tools/faultinject.py corrupt-snapshot
    PYTHONPATH=src python tools/faultinject.py tear-tail -d /tmp/state
    PYTHONPATH=src python tools/faultinject.py corrupt-tail -d /tmp/state --offset 400

Every subcommand prints a JSON verdict on stdout and exits 0 on the
expected (recovered) outcome, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.graph.errors import JournalCorruptError  # noqa: E402
from repro.persistence import (  # noqa: E402
    DeltaJournal,
    corrupt_file_tail,
    parse_frames,
    truncate_file_tail,
)


# ----------------------------------------------------------------------
# kill-worker: SIGKILL live shard workers under a running repro-serve
# ----------------------------------------------------------------------
def _serve_command(args, journal_dir=None):
    command = [
        sys.executable,
        "-m",
        "repro.pubsub.serve",
        "--dataset", args.dataset,
        "--updates", str(args.updates),
        "--queries", str(args.queries),
        "--shards", str(args.shards),
        "--executor", "process",
        "--subscribe", f"{args.subscribe}-of-{args.queries}",
        "--batch-size", str(args.batch_size),
        "--seed", str(args.seed),
    ]
    if journal_dir is not None:
        command += ["--journal-dir", str(journal_dir)]
    return command


def _child_pids(pid: int):
    """Worker processes forked by ``pid`` (via /proc; Linux only)."""
    children = []
    task_dir = Path(f"/proc/{pid}/task")
    try:
        for task in task_dir.iterdir():
            children_file = task / "children"
            if children_file.exists():
                children.extend(
                    int(child) for child in children_file.read_text().split()
                )
    except OSError:
        pass
    return children


def _running(pid: int) -> bool:
    """Whether ``pid`` is still running (a zombie has already exited)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def cmd_kill_worker(args) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")

    baseline = subprocess.run(
        _serve_command(args),
        capture_output=True,
        text=True,
        env=env,
        timeout=args.timeout,
    )
    if baseline.returncode != 0:
        print(json.dumps({"error": "baseline run failed", "stderr": baseline.stderr[-2000:]}))
        return 1

    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        journal_dir = Path(scratch) / "state" if args.journal_dir else None
        process = subprocess.Popen(
            _serve_command(args, journal_dir),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        # Every worker pid seen while the run lasts, respawned ones included.
        seen = set()

        def watch_workers():
            while process.poll() is None:
                seen.update(_child_pids(process.pid))
                time.sleep(0.05)

        watcher = threading.Thread(target=watch_workers, daemon=True)
        watcher.start()
        # Block until the first delivered delta: the replay is provably
        # mid-stream, so the SIGKILL lands on a worker with work left.
        first_line = process.stdout.readline()
        killed = []
        for _ in range(args.kills):
            if process.poll() is not None:
                break
            workers = [
                pid for pid in _child_pids(process.pid) if pid not in killed
            ]
            if not workers:
                break
            try:
                os.kill(workers[0], signal.SIGKILL)
                killed.append(workers[0])
            except ProcessLookupError:
                continue
            # Let the supervisor respawn before the next round so a second
            # kill hits a live worker, not the corpse.
            time.sleep(args.kill_gap)
        try:
            stdout, stderr = process.communicate(timeout=args.timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            print(json.dumps({"error": "faulted run hung past the timeout"}))
            return 1
        stdout = first_line + stdout
        watcher.join()
        deadline = time.monotonic() + 10.0
        orphans = sorted(pid for pid in seen if _running(pid))
        while orphans and time.monotonic() < deadline:
            time.sleep(0.1)
            orphans = [pid for pid in orphans if _running(pid)]

    # The stderr summary is the last pretty-printed JSON object; worker
    # tracebacks (the kills) may precede it.
    summary = {}
    lines = stderr.splitlines()
    for index in range(len(lines) - 1, -1, -1):
        if lines[index] == "{":
            try:
                summary = json.loads("\n".join(lines[index:]))
            except ValueError:
                summary = {}
            break
    respawns = summary.get("shard_respawns", [])
    verdict = {
        "identical_output": stdout == baseline.stdout,
        "exit_code": process.returncode,
        "workers_killed": len(killed),
        "shard_respawns": respawns,
        "shard_replayed_ops": summary.get("shard_replayed_ops", []),
        "degraded_shards": summary.get("degraded_shards"),
        "deltas_delivered": summary.get("deltas_delivered"),
        "workers_seen": len(seen),
        "workers_orphaned": orphans,
    }
    print(json.dumps(verdict, indent=2, sort_keys=True))
    recovered = (
        verdict["identical_output"]
        and process.returncode == 0
        and len(killed) >= 1
        and sum(respawns) >= 1
        and not orphans
    )
    return 0 if recovered else 1


# ----------------------------------------------------------------------
# tear-tail / corrupt-tail: journal damage + recovery verdict
# ----------------------------------------------------------------------
def _journal_path(directory: str) -> Path:
    path = Path(directory)
    return path if path.is_file() else path / "journal.wal"


def cmd_tear_tail(args) -> int:
    path = _journal_path(args.directory)
    before = path.stat().st_size
    truncate_file_tail(path, args.bytes)
    with DeltaJournal(path) as journal:
        records, truncated = journal.replay()
    verdict = {
        "journal": str(path),
        "bytes_torn": args.bytes,
        "size_before": before,
        "size_after": path.stat().st_size,
        "records_recovered": len(records),
        "torn_tail_truncated": truncated,
    }
    print(json.dumps(verdict, indent=2, sort_keys=True))
    return 0


def cmd_corrupt_tail(args) -> int:
    path = _journal_path(args.directory)
    corrupt_file_tail(path, offset_from_end=args.offset)
    try:
        records, good_length, torn = parse_frames(path.read_bytes())
    except JournalCorruptError as refused:
        verdict = {
            "journal": str(path),
            "offset_from_end": args.offset,
            "verdict": "interior corruption: recovery refused",
            "error": str(refused),
        }
        print(json.dumps(verdict, indent=2, sort_keys=True))
        return 0  # refusing to trust a damaged interior IS the contract
    verdict = {
        "journal": str(path),
        "offset_from_end": args.offset,
        "verdict": "tail corruption: truncated like a torn record",
        "records_recovered": len(records),
        "good_length": good_length,
        "torn_tail": torn,
    }
    print(json.dumps(verdict, indent=2, sort_keys=True))
    return 0


# ----------------------------------------------------------------------
# Replication verdicts: oracle-vs-faulted side-by-side replay
# ----------------------------------------------------------------------
# Primary-vs-replica kills need to land on a *specific* worker, which the
# /proc child-pid scan above cannot distinguish; these modes therefore run
# in-process and inject faults through the proxy API (``kill_worker``,
# ``kill_replica``, ``rolling_restart``) — the same SIGKILL the shell
# harness sends, aimed precisely.


def _replication_fixture(args):
    """Seeded update stream + query workload shared by oracle and faulted."""
    from repro.bench.experiments import build_stream, build_workload

    stream = build_stream(args.dataset, args.updates, args.seed)
    workload = build_workload(
        stream,
        num_queries=args.queries,
        avg_edges=5,
        selectivity=0.25,
        overlap=0.35,
        seed=args.seed + 1,
    )
    return list(stream.updates()), workload.queries


def _run_faulted(args, *, fault=None, probe_reads=False):
    """Replay the seeded stream through a serial oracle group and a
    process-executor group with replicas, side by side.

    ``fault(tick, group, reports)`` runs between batches on the faulted
    group only.  Returns per-tick frame identity, final-answer identity,
    and the faulted group's replication counters.
    """
    from repro.bench.experiments import pick_subscribed_queries
    from repro.pubsub import SubscriptionBroker
    from repro.pubsub.sharding import ShardedEngineGroup

    updates, queries = _replication_fixture(args)
    oracle = ShardedEngineGroup(args.engine, args.shards, executor="serial")
    group = ShardedEngineGroup(
        args.engine, args.shards, executor="process", replicas=args.replicas
    )
    try:
        for pattern in queries:
            oracle.register(pattern)
            group.register(pattern)
        subscribed = pick_subscribed_queries(sorted(oracle.queries), args.subscribe)
        broker_oracle = SubscriptionBroker(oracle)
        broker_group = SubscriptionBroker(group)
        sub_oracle = broker_oracle.subscribe("probe", subscribed)
        sub_group = broker_group.subscribe("probe", subscribed)
        mismatched_ticks = []
        read_mismatches = 0
        restart_reports = []
        tick = 0
        for start in range(0, len(updates), args.batch_size):
            if fault is not None:
                fault(tick, group, restart_reports)
            batch = updates[start : start + args.batch_size]
            broker_oracle.on_batch(batch)
            broker_group.on_batch(batch)
            frames_oracle = [
                json.dumps(delta.as_dict(), sort_keys=True)
                for delta in sub_oracle.drain()
            ]
            frames_group = [
                json.dumps(delta.as_dict(), sort_keys=True)
                for delta in sub_group.drain()
            ]
            if frames_oracle != frames_group:
                mismatched_ticks.append(tick)
            if probe_reads and tick % 3 == 0:
                for query_id in subscribed:
                    if group.matches_of(query_id) != oracle.matches_of(query_id):
                        read_mismatches += 1
            tick += 1
        answers_identical = (
            all(
                group.matches_of(query_id) == oracle.matches_of(query_id)
                for query_id in sorted(oracle.queries)
            )
            and group.satisfied_queries() == oracle.satisfied_queries()
        )
        return {
            "ticks": tick,
            "mismatched_ticks": mismatched_ticks,
            "read_mismatches": read_mismatches,
            "answers_identical": answers_identical,
            "restart_reports": restart_reports,
            "replication": group.replication_statistics(),
            "rolling_restarts": group.rolling_restarts,
        }
    finally:
        group.close()
        oracle.close()


def _kill_ticks(args) -> list:
    """Kill ticks spread evenly across the replay, never tick 0."""
    total_ticks = (args.updates + args.batch_size - 1) // args.batch_size
    return sorted(
        {
            max(1, (index + 1) * total_ticks // (args.kills + 1))
            for index in range(args.kills)
        }
    )


def cmd_kill_primary(args) -> int:
    kill_ticks = set(_kill_ticks(args))
    killed = []

    def fault(tick, group, _reports):
        if tick in kill_ticks:
            shard = len(killed) % args.shards
            group.shards[shard].kill_worker()
            killed.append(shard)

    result = _run_faulted(args, fault=fault)
    promotions = sum(info["promotions"] for info in result["replication"])
    respawns = sum(info["respawns"] for info in result["replication"])
    verdict = {
        "mode": "kill-primary",
        "primaries_killed": len(killed),
        "promotions": promotions,
        "respawns": respawns,
        "ticks": result["ticks"],
        "mismatched_ticks": result["mismatched_ticks"],
        "answers_identical": result["answers_identical"],
        "replication": result["replication"],
    }
    print(json.dumps(verdict, indent=2, sort_keys=True))
    recovered = (
        len(killed) >= 1
        # Without replicas there is nothing to promote: every kill respawns.
        and (promotions >= 1 if args.replicas else respawns >= len(killed))
        and promotions + respawns >= len(killed)
        and not result["mismatched_ticks"]
        and result["answers_identical"]
    )
    return 0 if recovered else 1


def cmd_kill_replica(args) -> int:
    kill_ticks = set(_kill_ticks(args))
    killed = []

    def fault(tick, group, _reports):
        if tick in kill_ticks:
            shard = len(killed) % args.shards
            group.shards[shard].kill_replica()
            killed.append(shard)

    result = _run_faulted(args, fault=fault, probe_reads=True)
    deaths = sum(
        info["replicas"]["deaths"]
        for info in result["replication"]
        if info["replicas"] is not None
    )
    reseeds = sum(
        info["replicas"]["reseeds"]
        for info in result["replication"]
        if info["replicas"] is not None
    )
    reads_served = sum(
        info["replicas"]["reads_served"]
        for info in result["replication"]
        if info["replicas"] is not None
    )
    verdict = {
        "mode": "kill-replica",
        "replicas_killed": len(killed),
        "replica_deaths": deaths,
        "replica_reseeds": reseeds,
        "reads_served_by_replicas": reads_served,
        "read_mismatches": result["read_mismatches"],
        "ticks": result["ticks"],
        "mismatched_ticks": result["mismatched_ticks"],
        "answers_identical": result["answers_identical"],
        "replication": result["replication"],
    }
    print(json.dumps(verdict, indent=2, sort_keys=True))
    recovered = (
        len(killed) >= 1
        and deaths >= len(killed)
        and reseeds >= len(killed)
        and reads_served > 0
        and result["read_mismatches"] == 0
        and not result["mismatched_ticks"]
        and result["answers_identical"]
    )
    return 0 if recovered else 1


def cmd_rolling_restart(args) -> int:
    def fault(tick, group, reports):
        if tick and tick % args.every == 0:
            reports.append(group.rolling_restart())

    result = _run_faulted(args, fault=fault)
    pauses = [report["pause_seconds"] for report in result["restart_reports"]]
    flat = sorted(pause for shard_pauses in pauses for pause in shard_pauses)
    verdict = {
        "mode": "rolling-restart",
        "rolling_restarts": result["rolling_restarts"],
        "pause_seconds": pauses,
        "pause_max_s": flat[-1] if flat else None,
        "ticks": result["ticks"],
        "mismatched_ticks": result["mismatched_ticks"],
        "answers_identical": result["answers_identical"],
        "replication": result["replication"],
    }
    print(json.dumps(verdict, indent=2, sort_keys=True))
    recovered = (
        result["rolling_restarts"] >= 1
        and result["rolling_restarts"] == len(result["restart_reports"])
        and not result["mismatched_ticks"]
        and result["answers_identical"]
    )
    return 0 if recovered else 1


def cmd_corrupt_snapshot(args) -> int:
    import tempfile

    from repro.engines import create_engine
    from repro.persistence import DurableEngine

    updates, queries = _replication_fixture(args)
    oracle = create_engine(args.engine)
    for pattern in queries:
        oracle.register(pattern)
    with tempfile.TemporaryDirectory() as scratch:
        state = Path(scratch) / "state"
        durable = DurableEngine(
            create_engine(args.engine), state, snapshot_every=args.snapshot_every
        )
        for pattern in queries:
            durable.register(pattern)
        for start in range(0, len(updates), args.batch_size):
            batch = updates[start : start + args.batch_size]
            oracle.on_batch(batch)
            durable.on_batch(batch)
        generations = durable.snapshots_written
        durable.close()
        previous = state / "snapshot.bin.1"
        if not previous.exists():
            print(
                json.dumps(
                    {
                        "error": "need at least two snapshot generations; "
                        "lower --snapshot-every or raise --updates",
                        "snapshots_written": generations,
                    }
                )
            )
            return 1
        snapshot = state / "snapshot.bin"
        # Flip a byte mid-file: inside the payload, past the magic/header,
        # so the checksum (not a length check) is what catches it.
        corrupt_file_tail(snapshot, offset_from_end=snapshot.stat().st_size // 2)
        recovered = DurableEngine.recover(
            state, engine_factory=lambda: create_engine(args.engine)
        )
        identical = (
            all(
                recovered.matches_of(query_id) == oracle.matches_of(query_id)
                for query_id in sorted(oracle.queries)
            )
            and recovered.satisfied_queries() == oracle.satisfied_queries()
        )
        verdict = {
            "mode": "corrupt-snapshot",
            "snapshots_written": generations,
            "snapshot_fallback": recovered.snapshot_fallback,
            "replayed_records": recovered.replayed_records,
            "answers_identical": identical,
        }
        recovered.close()
    print(json.dumps(verdict, indent=2, sort_keys=True))
    return 0 if verdict["snapshot_fallback"] and identical else 1


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="faultinject.py",
        description=__doc__.splitlines()[0],
    )
    commands = parser.add_subparsers(dest="command", required=True)

    kill = commands.add_parser(
        "kill-worker", help="SIGKILL shard workers under repro-serve; compare output"
    )
    kill.add_argument("--dataset", default="snb")
    kill.add_argument("--updates", type=int, default=2_000)
    kill.add_argument("--queries", type=int, default=40)
    kill.add_argument("--shards", type=int, default=2)
    kill.add_argument("--subscribe", type=int, default=5)
    kill.add_argument("--batch-size", type=int, default=8)
    kill.add_argument("--seed", type=int, default=17)
    kill.add_argument("--kills", type=int, default=1,
                      help="workers to SIGKILL, one per round (default 1)")
    kill.add_argument("--kill-gap", type=float, default=1.0,
                      help="seconds between kill rounds (default 1)")
    kill.add_argument("--journal-dir", action="store_true",
                      help="also journal the faulted run to a temp directory")
    kill.add_argument("--timeout", type=float, default=600.0)
    kill.set_defaults(handler=cmd_kill_worker)

    def add_replay_options(sub, *, replicas_default=1):
        sub.add_argument("--dataset", default="snb")
        sub.add_argument("--engine", default="TRIC+")
        sub.add_argument("--updates", type=int, default=600)
        sub.add_argument("--queries", type=int, default=30)
        sub.add_argument("--shards", type=int, default=2)
        sub.add_argument("--subscribe", type=int, default=5)
        sub.add_argument("--batch-size", type=int, default=8)
        sub.add_argument("--seed", type=int, default=17)
        sub.add_argument("--replicas", type=int, default=replicas_default,
                         help=f"replica workers per shard (default {replicas_default})")

    primary = commands.add_parser(
        "kill-primary",
        help="SIGKILL shard primaries mid-stream; prove replica promotion "
        "keeps delivery byte-identical to an uncrashed oracle",
    )
    add_replay_options(primary)
    primary.add_argument("--kills", type=int, default=2,
                         help="primaries to SIGKILL, spread across the replay (default 2)")
    primary.set_defaults(handler=cmd_kill_primary)

    replica = commands.add_parser(
        "kill-replica",
        help="SIGKILL replica workers mid-stream; prove read failover and "
        "re-seeding keep every answer identical to the oracle",
    )
    add_replay_options(replica)
    replica.add_argument("--kills", type=int, default=2,
                         help="replicas to SIGKILL, spread across the replay (default 2)")
    replica.set_defaults(handler=cmd_kill_replica)

    rolling = commands.add_parser(
        "rolling-restart",
        help="rolling-restart every shard mid-stream; prove zero missed or "
        "duplicated delta frames vs an unrestarted oracle",
    )
    add_replay_options(rolling)
    rolling.add_argument("--every", type=int, default=25,
                         help="batches between rolling restarts (default 25)")
    rolling.set_defaults(handler=cmd_rolling_restart)

    snapshot = commands.add_parser(
        "corrupt-snapshot",
        help="corrupt the current snapshot generation; prove recovery falls "
        "back to the previous generation plus its journal segment",
    )
    add_replay_options(snapshot, replicas_default=0)
    snapshot.add_argument("--snapshot-every", type=int, default=20,
                          help="records between snapshots (default 20; at "
                          "least two generations must exist)")
    snapshot.set_defaults(handler=cmd_corrupt_snapshot)

    tear = commands.add_parser(
        "tear-tail", help="truncate a journal's final bytes; show recovery"
    )
    tear.add_argument("--directory", "-d", required=True,
                      help="durability directory (or journal file) to damage")
    tear.add_argument("--bytes", type=int, default=9,
                      help="bytes to cut off the tail (default 9)")
    tear.set_defaults(handler=cmd_tear_tail)

    corrupt = commands.add_parser(
        "corrupt-tail", help="flip one journal byte; show the recovery verdict"
    )
    corrupt.add_argument("--directory", "-d", required=True,
                         help="durability directory (or journal file) to damage")
    corrupt.add_argument("--offset", type=int, default=4,
                         help="offset from the end of the file (default 4)")
    corrupt.set_defaults(handler=cmd_corrupt_tail)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
