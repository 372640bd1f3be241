"""The ``stream`` drill: deterministic, green, and wired into the CLI."""

import json

import pytest

from repro.cli import build_parser, main
from repro.stream import run_stream

EXPECTED_INVARIANTS = {
    "stream-bit-identical",
    "stream-resume-replays-nothing",
    "stream-journal-rebuild",
    "stream-epoch-rotation-window",
    "stream-reorder-refused",
    "stream-congestion-degrades",
    "stream-watchdog-reaps",
}


class TestRunStream:
    @pytest.fixture(scope="class")
    def smoke(self):
        return run_stream(seed=0, smoke=True)

    def test_every_invariant_holds(self, smoke):
        assert smoke.passed, smoke.format()
        assert smoke.failures() == []
        assert {inv.name for inv in smoke.invariants} == EXPECTED_INVARIANTS

    def test_counters_account_for_the_drill(self, smoke):
        assert smoke.counters["disconnects"] == 2
        assert smoke.counters["retransmits"] >= 2
        assert smoke.counters["duplicate_acks"] >= 1
        assert smoke.counters["rotations"] == 2
        assert smoke.counters["degraded"] == 1
        assert smoke.counters["reaped"] >= 1

    def test_format_is_reportable(self, smoke):
        text = smoke.format()
        assert "PASS" in text
        assert "stream-epoch-rotation-window" in text
        assert smoke.digest in text

    def test_same_seed_same_digest(self, smoke):
        assert smoke.digest == "f4f0446c669cc3c1752185e337c08911", (
            f"stream drill digest moved: {smoke.digest}"
        )
        again = run_stream(seed=0, smoke=True)
        assert again.digest == smoke.digest
        assert again.outcome_digests == smoke.outcome_digests

    def test_different_seed_different_outcomes(self, smoke):
        other = run_stream(seed=1, smoke=True)
        assert other.passed
        assert other.digest != smoke.digest


class TestCli:
    def test_stream_smoke_exits_zero(self, capsys):
        assert main(["stream", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "stream drill seed 0 (smoke): PASS" in out
        assert "stream-bit-identical" in out

    def test_stream_exports_observability(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        events_path = tmp_path / "events.jsonl"
        code = main([
            "stream", "--smoke",
            "--trace-out", str(trace_path),
            "--events-out", str(events_path),
        ])
        assert code == 0
        spans = json.loads(trace_path.read_text())
        assert spans  # chunk spans made it into the Chrome trace
        kinds = {
            json.loads(line)["kind"]
            for line in events_path.read_text().splitlines()
        }
        assert "stream.session_opened" in kinds
        assert "stream.epoch_rotated" in kinds

    def test_observability_flags_shared_across_campaign_commands(self):
        # One parent parser feeds stats/serve and every drill: the flags
        # must parse identically everywhere they are offered.
        parser = build_parser()
        for command in ("serve", "chaos", "harden", "fleet", "stream",
                        "failover", "stats"):
            args = parser.parse_args(
                [command, "--trace-out", "t.json", "--events-out", "e.jsonl"]
            )
            assert args.trace_out == "t.json", command
            assert args.events_out == "e.jsonl", command

    def test_stream_defaults(self):
        args = build_parser().parse_args(["stream"])
        assert args.seed == 0
        assert not args.smoke and not args.metrics
        assert args.trace_out is None and args.events_out is None
