"""The hardening campaign and its ``harden`` CLI gate."""

import pytest

from repro.guard.campaign import HardeningReport, InvariantResult, run_hardening
from repro.obs import EventLog, MetricsRegistry, Observer


@pytest.fixture(scope="module")
def smoke_report():
    """One shared smoke run (the campaign exercises the whole stack)."""
    return run_hardening(seed=0, smoke=True)


class TestRunHardening:
    def test_smoke_passes(self, smoke_report):
        assert smoke_report.passed, smoke_report.format()

    def test_all_phases_present(self, smoke_report):
        names = [inv.name for inv in smoke_report.invariants]
        assert names == [
            "fuzz-contained",
            "garbage-refused-typed",
            "guard-rejected-accounting",
            "honest-traffic-admitted",
            "submit-refuses-garbage",
            "replay-and-freshness-refused",
            "forged-envelopes-refused",
            "lockout-schedule-exact",
            "bruteforce-model-matches-throttle",
        ]

    def test_guard_accounting_nonzero(self, smoke_report):
        assert smoke_report.n_rejected > 0
        assert smoke_report.n_replays_refused >= 1
        assert smoke_report.n_stale_refused >= 2
        assert smoke_report.n_envelopes_refused >= 4
        assert smoke_report.n_lockout_refusals >= 1

    def test_fuzz_ran_all_parsers(self, smoke_report):
        assert smoke_report.fuzz is not None
        assert len(smoke_report.fuzz.results) == 9
        assert smoke_report.fuzz.contained

    def test_digest_deterministic(self, smoke_report):
        assert smoke_report.digest == "9c43bc141e97a92a3980a14745109f82", (
            f"harden drill digest moved: {smoke_report.digest}"
        )
        again = run_hardening(seed=0, smoke=True)
        assert again.digest == smoke_report.digest

    def test_format_lists_every_invariant(self, smoke_report):
        text = smoke_report.format()
        assert "PASS" in text
        for invariant in smoke_report.invariants:
            assert invariant.name in text

    def test_caller_observer_sees_guard_metrics(self):
        observer = Observer(metrics=MetricsRegistry(), events=EventLog())
        report = run_hardening(seed=1, smoke=True, observer=observer)
        assert report.passed, report.format()
        assert observer.metrics.counter("guard.rejected").value > 0
        assert observer.metrics.counter("fuzz.mutations").value > 0

    def test_failed_invariant_fails_report(self):
        report = HardeningReport(seed=0, n_mutations=0)
        report.invariants.append(InvariantResult(name="ok-one", ok=True))
        assert report.passed
        report.invariants.append(
            InvariantResult(name="broken", ok=False, detail="why")
        )
        assert not report.passed
        assert [inv.name for inv in report.failures()] == ["broken"]
        assert "FAIL" in report.format()


class TestCli:
    def test_harden_smoke_exit_zero(self, capsys):
        from repro.cli import main

        assert main(["harden", "--smoke", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "hardening campaign seed 0: PASS" in out

    def test_harden_metrics_flag(self, capsys):
        from repro.cli import main

        assert main(["harden", "--smoke", "--metrics"]) == 0
        assert "guard.rejected" in capsys.readouterr().out

    def test_parser_registers_harden(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["harden", "--smoke", "--mutations", "50"])
        assert args.smoke and args.mutations == 50 and args.seed == 0
