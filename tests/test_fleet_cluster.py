"""Sharded-tier integration: bit-identity, recovery, telemetry roll-up.

One real 2-shard campaign (module-scoped — multiprocess runs are the
expensive part) covers determinism against the single-process
scheduler, kill/restart journal recovery, the cross-shard telemetry
roll-up, and garbage-frame containment; the lifecycle tests spawn
session-free clusters, which is cheap.
"""

import asyncio

import pytest

from repro._util.errors import ConfigurationError
from repro.core.config import MedSenConfig
from repro.fleet import (
    AsyncFrontDoor,
    FleetCluster,
    FleetTierConfig,
    rollup_telemetry,
    run_fleet,
)
from repro.serving import ClinicWorkload
from repro.serving.scheduler import FleetConfig


@pytest.fixture(scope="module")
def campaign():
    return run_fleet(
        seed=0,
        n_shards=2,
        smoke=True,
        phases=("determinism", "telemetry", "chaos", "harden"),
    )


class TestFleetCampaign:
    def test_every_invariant_passes(self, campaign):
        assert campaign.passed, campaign.format()

    def test_outcomes_bit_identical_to_single_process(self, campaign):
        inv = {i.name: i for i in campaign.invariants}
        assert inv["outcomes_bit_identical_to_single_process"].ok
        assert inv["store_partition_union_matches_single_process"].ok

    def test_kill_restart_recovers_from_journal(self, campaign):
        inv = {i.name: i for i in campaign.invariants}
        assert campaign.n_restarts == 1
        assert campaign.n_recovered_records > 0
        assert inv["journal_recovery_bit_identical"].ok
        assert inv["post_restart_outcomes_bit_identical"].ok

    def test_telemetry_rolls_up_exactly(self, campaign):
        inv = {i.name: i for i in campaign.invariants}
        assert inv["shard_counters_account_for_every_session"].ok
        assert inv["merged_latency_sketch_counts_every_session"].ok

    def test_garbage_frames_contained(self, campaign):
        assert campaign.n_garbage_frames >= 3

    def test_digest_is_stable_shape(self, campaign):
        assert len(campaign.digest) == 24
        assert campaign.outcome_digests
        assert campaign.digest == "1f4bf79938b618af4dda7467", (
            f"fleet drill digest moved: {campaign.digest}"
        )


class TestClusterLifecycle:
    def test_spawn_health_drain(self):
        tier = FleetTierConfig(n_shards=3, shard=FleetConfig(seed=0, n_workers=1))
        with FleetCluster(tier) as cluster:
            assert list(cluster.shard_ids) == ["shard-00", "shard-01", "shard-02"]
            healths = cluster.health()
            assert set(healths) == set(cluster.shard_ids)
            assert all(h.completed == 0 for h in healths.values())
            before = {
                tenant: cluster.handle_for(tenant).shard_id
                for tenant in (f"clinic-{i:02d}" for i in range(12))
            }
            cluster.drain("shard-01")
            assert "shard-01" not in cluster.shard_ids
            after = {
                tenant: cluster.handle_for(tenant).shard_id
                for tenant in before
            }
            # Minimal movement: only the drained shard's tenants moved.
            moved = {t for t in before if before[t] != after[t]}
            assert all(before[t] == "shard-01" for t in moved)
            assert all(owner != "shard-01" for owner in after.values())

    def test_merged_quantiles_empty_fleet(self):
        tier = FleetTierConfig(n_shards=2, shard=FleetConfig(seed=0, n_workers=1))
        with FleetCluster(tier) as cluster:
            merged = rollup_telemetry(cluster.telemetry())
            assert merged.histogram_states() == {}
            assert cluster.fleet_record_hashes() == []

    def test_shard_histogram_state_round_trips(self):
        """The wire shape the fleet roll-up (and the e2e benchmark's
        per-shard sketch deltas) read from a live shard."""
        from repro.telemetry.quantiles import ExponentialHistogram

        workload = ClinicWorkload(
            n_tenants=1, requests_per_tenant=1, duration_s=8.0, seed=0
        )
        tier = FleetTierConfig(n_shards=1, shard=FleetConfig(seed=0, n_workers=1))
        with FleetCluster(tier) as cluster:
            door = AsyncFrontDoor(cluster)

            async def run():
                (tenant, identifier), = workload.identifiers(MedSenConfig()).items()
                await door.register_tenant(tenant, identifier)
                await door.submit(
                    tenant, workload.blood_sample(0, 0), identifier, duration_s=8.0
                )

            asyncio.run(run())
            (shard,) = cluster.telemetry()
        states = shard.quantiles["histograms"]
        assert states["serve.e2e_s"]["count"] == 1
        for state in states.values():
            assert {"buckets", "zero_count", "count", "sum", "min", "max",
                    "growth", "min_value"} <= set(state)
            assert ExponentialHistogram.from_state(state).state() == state

    def test_bad_shard_count_refused(self):
        with pytest.raises(ConfigurationError):
            FleetTierConfig(n_shards=0, shard=FleetConfig(seed=0))
