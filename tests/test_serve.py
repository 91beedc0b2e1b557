"""``repro-serve`` end to end: pinned output, SIGHUP restarts, early stops.

The server is driven in-process through :func:`repro.pubsub.serve.main`.
Its stdout (one JSON line per delivered ``MatchDelta``) is pinned to a
fixed digest at two batch sizes, so any change to how the replay loop
routes ticks, drains the subscription or prints frames fails here; the
digests are stable across ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import hashlib
import json
import signal

import pytest

from repro.pubsub import SubscriptionBroker, serve

ARGS = ["--shards", "2", "--deletions", "0.2", "--subscribe", "5-of-40"]

#: batch size -> (stdout sha256, updates_consumed, deltas_delivered, answers_changed)
PINS = {
    1: ("8968707037a92b274248ecf2135dd0584e87f7069bbf32a6860092a6e6dd18fd", 2395, 6, 10),
    16: ("26d2492d53cc6de3951d78d811c2d227626dddb5acbf436f6514dcc58f90fce7", 2395, 6, 10),
}


def _run(capsys, argv):
    """Run ``repro-serve`` in-process; returns (stdout, event lines, summary)."""
    assert serve.main(argv) == 0
    captured = capsys.readouterr()
    events = [
        json.loads(line)
        for line in captured.err.splitlines()
        if line.startswith('{"')
    ]
    summary = json.loads(captured.err[captured.err.index("{\n"):])
    return captured.out, events, summary


@pytest.fixture(autouse=True)
def _no_pending_sighup():
    serve._SIGHUP_PENDING["flag"] = False
    yield
    serve._SIGHUP_PENDING["flag"] = False


class TestServeArguments:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--shards", "0"],
            ["--shards", "-3"],
            ["--replicas", "-1"],
            ["--deletions", "1.5"],
            ["--deletions", "-0.5"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_out_of_range_options_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            serve.main(["--updates", "20", "--queries", "5"] + argv)
        assert exit_info.value.code == 2
        assert argv[0] in capsys.readouterr().err


class TestServePins:
    @pytest.mark.parametrize("batch_size", sorted(PINS))
    def test_stdout_and_counts_are_pinned(self, capsys, batch_size):
        out, events, summary = _run(capsys, ARGS + ["--batch-size", str(batch_size)])
        digest, consumed, delivered, changed = PINS[batch_size]
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
        assert summary["updates_consumed"] == consumed
        assert summary["deltas_delivered"] == delivered
        assert summary["answers_changed"] == changed
        assert events == []
        assert "shutdown" not in summary

    @pytest.mark.parametrize("batch_size", sorted(PINS))
    def test_sighup_restarts_once_without_changing_stdout(self, capsys, batch_size):
        serve._SIGHUP_PENDING["flag"] = True
        out, events, summary = _run(capsys, ARGS + ["--batch-size", str(batch_size)])
        assert [event["event"] for event in events] == ["rolling-restart"]
        # A flag raised before the replay restarts before the first tick.
        assert events[0]["tick"] == 0
        assert not serve._SIGHUP_PENDING["flag"]
        digest, consumed, _, _ = PINS[batch_size]
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
        assert summary["updates_consumed"] == consumed


class TestServeEarlyStop:
    def test_throughput_counts_only_the_updates_consumed(self, capsys, monkeypatch):
        """A SIGTERM after forty ticks: the summary reports the shutdown and
        divides the updates actually consumed, not the whole stream."""
        ticks = {"count": 0}
        original = SubscriptionBroker.on_batch

        def on_batch(self, updates):
            ticks["count"] += 1
            if ticks["count"] > 40:
                raise serve._ShutdownRequested(signal.SIGTERM)
            return original(self, updates)

        monkeypatch.setattr(SubscriptionBroker, "on_batch", on_batch)
        _, _, summary = _run(capsys, ARGS + ["--batch-size", "16"])
        assert summary["shutdown"] == "SIGTERM"
        assert summary["updates_consumed"] == 40 * 16
        assert summary["updates_consumed"] < summary["updates"]
        expected = summary["updates_consumed"] / summary["replay_s"]
        assert summary["updates_per_s"] == pytest.approx(expected, rel=0.01)
