"""Chaos campaigns: invariants hold, schedules are seed-deterministic."""

import pytest

from repro.resilience import CAMPAIGNS, ChaosError, run_campaign
from repro.resilience.chaos import ChaosReport, InvariantResult


class TestSmokeCampaign:
    @pytest.fixture(scope="class")
    def smoke(self):
        return run_campaign(seed=0, campaign="smoke")

    def test_every_invariant_holds(self, smoke):
        assert smoke.passed, smoke.format()
        assert smoke.failures() == []

    def test_every_layer_injected(self, smoke):
        sites = {fault.site for fault in smoke.injections}
        assert sites == {
            "sensor",
            "dsp",
            "crypto",
            "storage",
            "network",
            "scheduler",
            "replication",
        }

    def test_explicit_health_alarms(self, smoke):
        components = {state.component for state in smoke.health}
        assert "scheduler" in components and "storage" in components
        assert all(state.status != "ok" for state in smoke.health)

    def test_recovery_quarantined_exactly_one_line(self, smoke):
        assert smoke.n_records_quarantined == 1
        assert smoke.n_records_recovered == smoke.n_records_committed - 1

    def test_format_mentions_invariants(self, smoke):
        text = smoke.format()
        assert "PASS" in text
        assert "no-deadlock" in text
        assert smoke.digest in text
        assert smoke.digest == "8e34cdaa2e0bce8bc9482b3909ec5410", (
            f"chaos drill digest moved: {smoke.digest}"
        )

    def test_stream_drill_folded_in(self, smoke):
        # The disconnect/resume drill rides the smoke campaign: both
        # streaming invariants must be present and green, and the
        # streamed outcome digest participates in the campaign digest.
        names = {inv.name for inv in smoke.invariants}
        assert "stream-resume-bit-identical" in names
        assert "stream-congestion-degrades" in names
        assert smoke.stream_digest
        assert "stream outcome" in smoke.format()


class TestDeterminism:
    def test_same_seed_same_digest(self):
        a = run_campaign(seed=5, campaign="smoke")
        b = run_campaign(seed=5, campaign="smoke")
        assert a.passed and b.passed
        assert a.digest == b.digest
        assert a.injections == b.injections
        assert a.record_hashes == b.record_hashes
        assert a.health == b.health

    def test_different_seed_different_digest(self):
        a = run_campaign(seed=5, campaign="smoke")
        b = run_campaign(seed=6, campaign="smoke")
        assert a.digest != b.digest


class TestRegistry:
    def test_unknown_campaign_raises(self):
        with pytest.raises(ChaosError, match="unknown campaign"):
            run_campaign(seed=0, campaign="nope")

    def test_registry_names_match(self):
        for name, spec in CAMPAIGNS.items():
            assert spec.name == name
        assert "smoke" in CAMPAIGNS

    def test_empty_report_passes_vacuously(self):
        report = ChaosReport(campaign="x", seed=0)
        assert report.passed
        report.invariants.append(InvariantResult(name="broken", ok=False))
        assert not report.passed
        assert [inv.name for inv in report.failures()] == ["broken"]
