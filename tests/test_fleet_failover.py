"""The failover drill end to end: kill a loaded primary, lose nothing.

One real drill (module-scoped — it spawns 2×2 shard processes, SIGKILLs
a loaded primary, SIGSTOPs another to fence it) covers the replication
lane's whole contract; the per-invariant tests just read the report.
"""

import pytest

from repro.fleet import run_failover


@pytest.fixture(scope="module")
def drill():
    return run_failover(seed=0, n_partitions=2, smoke=True)


class TestFailoverDrill:
    def test_every_invariant_passes(self, drill):
        assert drill.passed, drill.format()

    def test_standby_promotes_within_lease_window(self, drill):
        inv = {i.name: i for i in drill.invariants}
        assert inv["failover-standby-promoted-within-lease-window"].ok
        assert drill.n_failovers >= 1

    def test_zero_acked_loss(self, drill):
        inv = {i.name: i for i in drill.invariants}
        assert inv["acked-outcomes-bit-identical-to-no-fault-reference"].ok
        assert inv["no-acked-record-lost-across-failover"].ok
        assert drill.n_acked > 0
        assert drill.n_shed_during_failover == 0

    def test_shipped_journal_lines_verify(self, drill):
        inv = {i.name: i for i in drill.invariants}
        assert inv["shipped-journal-lines-verify"].ok
        assert drill.replog_lines > 0

    def test_stale_epoch_primary_fenced(self, drill):
        inv = {i.name: i for i in drill.invariants}
        assert inv["stale-epoch-primary-fenced-no-double-ack"].ok
        assert drill.n_fenced >= 1

    def test_fence_runs_on_the_partition_the_kill_left(self, drill):
        # The kill phase promotes part-00's standby; the smoke tenants
        # put sessions on part-01 too, so the fence phase runs there.
        inv = {i.name: i for i in drill.invariants}
        assert "re-ran on part-01-" in inv["stale-epoch-primary-fenced-no-double-ack"].detail
        assert drill.n_failovers == 2

    def test_stream_resumes_on_promoted_standby(self, drill):
        inv = {i.name: i for i in drill.invariants}
        assert inv["stream-session-resumes-on-promoted-standby"].ok

    def test_rejoined_standby_converges(self, drill):
        inv = {i.name: i for i in drill.invariants}
        assert inv["rejoined-standby-converges-from-shipped-journal"].ok
        assert drill.n_rejoins >= 2

    def test_digest_is_stable_shape(self, drill):
        assert len(drill.digest) == 24
        assert drill.outcome_digests
        assert drill.lease_ttl_s > 0
        assert drill.digest == "c6da78808bcb9e74b4083476", (
            f"failover drill digest moved: {drill.digest}"
        )


def test_fence_waits_out_a_live_lease():
    """With a 2 s lease the fenced primary still holds its renewed
    lease when the fence phase promotes: the fencing promotion must
    wait the lease out, not decline to promote a live, leased
    primary."""
    drill = run_failover(seed=0, n_partitions=2, smoke=True, lease_ttl_s=2.0)
    assert drill.passed, drill.format()
    assert drill.n_failovers == 2 and drill.n_fenced >= 1
    assert drill.digest == "c6da78808bcb9e74b4083476"


def test_inflight_wait_has_a_typed_deadline(monkeypatch):
    """A drill phase whose request never reaches the shard fails typed,
    not by hanging."""
    import asyncio
    from types import SimpleNamespace

    from repro.fleet import failover

    monkeypatch.setattr(failover, "INFLIGHT_WAIT_S", 0.02)
    idle = SimpleNamespace(inflight=0, shard_id="part-00-a")
    with pytest.raises(failover.DrillWaitTimeoutError, match="part-00-a"):
        asyncio.run(failover._wait_inflight(idle))
    asyncio.run(failover._wait_inflight(SimpleNamespace(inflight=1, shard_id="x")))
