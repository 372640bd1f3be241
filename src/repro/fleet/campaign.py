"""Fleet campaigns: determinism, shedding, chaos, and hardening drills.

``python -m repro fleet --smoke`` runs every phase against a real
multi-process cluster and checks the invariants the sharded tier is
built around:

* **determinism** — the same clinic traffic through a 1-process
  scheduler and through N shard processes produces bit-identical
  session outcomes, and the union of shard store partitions equals the
  single-process store (content hashes);
* **telemetry** — per-shard counters and quantile sketches roll up by
  summation/bucket-merge and account for every session exactly once;
* **shedding** — the asyncio front door refuses the
  ``max_inflight+1``-th concurrent session with a typed
  :class:`~repro.fleet.frontdoor.FleetSaturatedError`, loses nothing
  below the bound, and guard-refuses malformed submissions before any
  sequence number is spent;
* **chaos** — ``SIGKILL`` a shard mid-campaign, restart it from its
  journal, and require (a) bit-identical record recovery and (b)
  bit-identical post-restart traffic (the resumed sequence counters at
  work);
* **harden** — write raw garbage into a shard's pipe; the shard must
  count and refuse the frames and keep serving;
* **load** — replay a heavy-tailed arrival tape
  (:mod:`repro.fleet.loadgen`) and require exact accounting of every
  arrival (completed + shed + rejected + failed).

The phases share one cluster, so later phases also regression-test the
state earlier phases left behind (exactly how a long-lived fleet runs).
"""

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro._util.drill import DrillReport, InvariantResult, canonical_digest
from repro._util.errors import AdmissionError, MedSenError
from repro.fleet.cluster import FleetCluster, FleetTierConfig
from repro.fleet.frontdoor import (
    AsyncFrontDoor,
    FleetRequestFailedError,
    FleetSaturatedError,
)
from repro.fleet.loadgen import (
    ENROLL_ATTEMPTS,
    LoadProfile,
    LoadReport,
    replay,
    tenant_blood,
    tenant_identifier,
)
from repro.fleet.messages import SessionOutcome
from repro.fleet.shard import store_content_hashes
from repro.obs import NULL_OBSERVER
from repro.serving.scheduler import FleetConfig, FleetScheduler
from repro.serving.workload import ClinicWorkload

#: Phase order matters: reference-compared traffic (determinism, chaos)
#: runs before phases that enrol extra tenants (shedding's burst
#: tenant, the load replay) — the auth directory is fleet-global, so a
#: late enrolment must never be able to perturb an earlier comparison.
ALL_PHASES: Tuple[str, ...] = (
    "determinism",
    "telemetry",
    "chaos",
    "harden",
    "shedding",
    "load",
)


@dataclass
class FleetReport(DrillReport):
    """Everything one fleet campaign produced."""

    seed: int = 0
    n_shards: int = 0
    phases: Tuple[str, ...] = ALL_PHASES
    n_sessions: int = 0
    n_shed: int = 0
    n_rejected: int = 0
    n_failed: int = 0
    n_garbage_frames: int = 0
    n_recovered_records: int = 0
    n_restarts: int = 0
    shard_completed: Dict[str, int] = field(default_factory=dict)
    load: Optional[LoadReport] = None
    outcome_digests: Tuple[str, ...] = ()

    def title(self) -> str:
        return (
            f"fleet campaign seed {self.seed}, {self.n_shards} shards, "
            f"phases {'/'.join(self.phases)}"
        )

    def summary_lines(self) -> List[str]:
        lines = [
            f"sessions          {self.n_sessions} completed, {self.n_shed} shed, "
            f"{self.n_rejected} rejected, {self.n_failed} failed",
            f"resilience        {self.n_restarts} shard restarts, "
            f"{self.n_recovered_records} records recovered, "
            f"{self.n_garbage_frames} garbage frames refused",
            "shards            "
            + ", ".join(
                f"{sid}:{count}" for sid, count in sorted(self.shard_completed.items())
            ),
        ]
        if self.load is not None:
            lines.append("load replay")
            lines.extend("  " + line for line in self.load.format().splitlines())
        return lines


def _reference_outcomes(
    workload: ClinicWorkload, fleet: FleetConfig
) -> Tuple[Dict[Tuple[str, int], str], List[str]]:
    """Single-process ground truth: outcome digests + store hashes."""
    digests: Dict[Tuple[str, int], str] = {}
    with FleetScheduler(fleet) as scheduler:
        identifiers = workload.identifiers(scheduler.device_config)
        for tenant, identifier in identifiers.items():
            scheduler.register_tenant(tenant, identifier)
        futures = []
        for sequence in range(workload.requests_per_tenant):
            for tenant_index, tenant in enumerate(workload.tenant_ids()):
                futures.append(
                    scheduler.submit(
                        tenant,
                        workload.blood_sample(tenant_index, sequence),
                        identifiers[tenant],
                        duration_s=workload.duration_s,
                        block=True,
                    )
                )
        for future in futures:
            future.wait(timeout=300)
            request = future.request
            key = (request.tenant_id, request.tenant_sequence)
            error = future.exception()
            if error is not None:
                # Failures are part of the contract: a session that
                # fails on the single-process tier must fail with the
                # same typed error on the sharded tier, never silently
                # "succeed" with different numbers.
                digests[key] = f"error:{type(error).__name__}"
            else:
                outcome = SessionOutcome.from_result(
                    future.result(), request.tenant_id, request.tenant_sequence
                )
                digests[key] = outcome.digest()
        hashes = list(store_content_hashes(scheduler.store))
    return digests, hashes


async def _submit_round(
    door: AsyncFrontDoor,
    workload: ClinicWorkload,
    identifiers: Dict,
    sequences: Tuple[int, ...],
    retries_on_crash: int = 0,
) -> List[Tuple[Tuple[str, int], str, Optional[SessionOutcome]]]:
    """Submit one round; per session return ``(key, digest, outcome)``.

    A failed session yields ``error:<TypeName>`` as its digest — the
    same encoding the single-process reference uses, so bit-identity
    comparisons cover failures as first-class results.
    """
    keys: List[Tuple[str, int]] = []
    coros = []
    for sequence in sequences:
        for tenant_index, tenant in enumerate(workload.tenant_ids()):
            keys.append((tenant, sequence))
            coros.append(
                door.submit(
                    tenant,
                    workload.blood_sample(tenant_index, sequence),
                    identifiers[tenant],
                    duration_s=workload.duration_s,
                    retries_on_crash=retries_on_crash,
                )
            )
    results = await asyncio.gather(*coros, return_exceptions=True)
    rows: List[Tuple[Tuple[str, int], str, Optional[SessionOutcome]]] = []
    for key, result in zip(keys, results):
        if isinstance(result, SessionOutcome):
            rows.append((key, result.digest(), result))
        elif isinstance(result, FleetRequestFailedError):
            rows.append((key, f"error:{result.error_type}", None))
        elif isinstance(result, BaseException):
            rows.append((key, f"error:{type(result).__name__}", None))
        else:  # pragma: no cover - gather only returns the above
            rows.append((key, "error:UnknownResult", None))
    return rows


async def _run_phases(
    report: FleetReport,
    cluster: FleetCluster,
    workload: ClinicWorkload,
    reference: Dict[Tuple[str, int], str],
    reference_hashes: List[str],
    observer,
    smoke: bool,
) -> None:
    phases = report.phases
    door = AsyncFrontDoor(cluster, observer=observer)
    identifiers = _fleet_identifiers(workload)
    for tenant, identifier in identifiers.items():
        await door.register_tenant(tenant, identifier)

    half = workload.requests_per_tenant // 2
    first_half = tuple(range(half))
    second_half = tuple(range(half, workload.requests_per_tenant))
    outcomes: List[SessionOutcome] = []
    burst_completed = 0

    # ------------------------------------------------------ determinism
    if "determinism" in phases or "chaos" in phases:
        round_one = await _submit_round(door, workload, identifiers, first_half)
        outcomes.extend(outcome for _, _, outcome in round_one if outcome)
        matched = sum(
            1 for key, digest, _ in round_one if reference.get(key) == digest
        )
        if "determinism" in phases:
            report.invariants.append(
                InvariantResult(
                    name="outcomes_bit_identical_to_single_process",
                    ok=bool(round_one) and matched == len(round_one),
                    detail=f"{matched}/{len(round_one)} digests match",
                )
            )

    # -------------------------------------------------------- telemetry
    if "telemetry" in phases:
        healths = cluster.health()
        shard_total = sum(health.completed for health in healths.values())
        report.invariants.append(
            InvariantResult(
                name="shard_counters_account_for_every_session",
                ok=shard_total == door.completed,
                detail=f"sum(shards)={shard_total}, frontdoor={door.completed}",
            )
        )
        merged = cluster.merged_quantiles()
        merged_count = (
            merged.histogram("serve.e2e_s").count
            if "serve.e2e_s" in merged.names()
            else 0
        )
        report.invariants.append(
            InvariantResult(
                name="merged_latency_sketch_counts_every_session",
                ok=merged_count == door.completed,
                detail=f"merged count={merged_count}, frontdoor={door.completed}",
            )
        )

    # ------------------------------------------------------------ chaos
    if "chaos" in phases:
        pre_hashes = cluster.fleet_record_hashes()
        victim = outcomes[0].shard_id if outcomes else cluster.shard_ids[0]
        cluster.kill(victim)
        cluster.restart(victim)
        report.n_restarts += 1
        post_hashes = cluster.fleet_record_hashes()
        victim_health = cluster.health()[victim]
        report.n_recovered_records += victim_health.recovered_records
        report.invariants.append(
            InvariantResult(
                name="journal_recovery_bit_identical",
                ok=post_hashes == pre_hashes,
                detail=(
                    f"{victim_health.recovered_records} records recovered on "
                    f"{victim}; {len(post_hashes)}/{len(pre_hashes)} hashes match"
                ),
            )
        )
        round_two = await _submit_round(
            door, workload, identifiers, second_half, retries_on_crash=1
        )
        outcomes.extend(outcome for _, _, outcome in round_two if outcome)
        matched = sum(
            1 for key, digest, _ in round_two if reference.get(key) == digest
        )
        report.invariants.append(
            InvariantResult(
                name="post_restart_outcomes_bit_identical",
                ok=bool(round_two) and matched == len(round_two),
                detail=f"{matched}/{len(round_two)} digests match after restart",
            )
        )
        if "determinism" in phases:
            fleet_hashes = cluster.fleet_record_hashes()
            report.invariants.append(
                InvariantResult(
                    name="store_partition_union_matches_single_process",
                    ok=fleet_hashes == sorted(reference_hashes),
                    detail=(
                        f"{len(fleet_hashes)} partitioned vs "
                        f"{len(reference_hashes)} single-process records"
                    ),
                )
            )

    # ----------------------------------------------------------- harden
    if "harden" in phases:
        target = cluster.shard_ids[-1]
        handle = cluster.handle(target)
        for garbage in (
            b"\x00\x01\x02 not a frame",
            b"XXXX" + b"\x00" * 16,  # wrong magic
            b"MSFT" + b"\xff" * 20,  # CRC mismatch
        ):
            handle.channel.conn.send_bytes(garbage)
        health = cluster.health()[target]
        report.n_garbage_frames += health.garbage_frames
        report.invariants.append(
            InvariantResult(
                name="garbage_frames_refused_and_shard_survives",
                ok=health.garbage_frames >= 3,
                detail=(
                    f"{health.garbage_frames} garbage frames counted; "
                    f"health probe still answers"
                ),
            )
        )

    # --------------------------------------------------------- shedding
    if "shedding" in phases:
        # A dedicated burst tenant, enrolled only now: reference-compared
        # traffic is already done, so the extra directory entry cannot
        # perturb any bit-identity check above.
        burst_tenant = "burst-tenant-00"
        burst_door = AsyncFrontDoor(cluster, max_inflight=2, observer=observer)
        # The clinic tenants may already hold most of the small robust
        # password space; walk the alternate draws until one enrols
        # (same idiom as loadgen enrolment).
        for attempt in range(ENROLL_ATTEMPTS):
            burst_identifier = tenant_identifier(
                report.seed, burst_tenant, attempt
            )
            try:
                await burst_door.register_tenant(burst_tenant, burst_identifier)
                break
            except MedSenError:
                if attempt == ENROLL_ATTEMPTS - 1:
                    raise
        burst = await asyncio.gather(
            *[
                burst_door.submit(
                    burst_tenant,
                    tenant_blood(report.seed, burst_tenant, 0, index),
                    burst_identifier,
                    duration_s=workload.duration_s,
                )
                for index in range(6)
            ],
            return_exceptions=True,
        )
        shed = sum(1 for r in burst if isinstance(r, FleetSaturatedError))
        ok_count = sum(1 for r in burst if isinstance(r, SessionOutcome))
        other = len(burst) - shed - ok_count
        burst_completed = burst_door.completed
        report.n_shed += shed
        report.invariants.append(
            InvariantResult(
                name="front_door_sheds_typed_and_loses_nothing_below_bound",
                ok=shed == len(burst) - 2 and ok_count == 2 and other == 0,
                detail=f"{ok_count} completed, {shed} typed sheds, {other} other",
            )
        )
        probes = (
            ("empty tenant id", "", workload.duration_s),
            ("edge-whitespace tenant id", " padded ", workload.duration_s),
            ("NaN duration", burst_tenant, float("nan")),
            ("negative duration", burst_tenant, -4.0),
        )
        refused = []
        for label, tenant, duration in probes:
            try:
                await door.submit(
                    tenant,
                    tenant_blood(report.seed, burst_tenant, 0, 99),
                    burst_identifier,
                    duration_s=duration,
                )
            except AdmissionError:
                refused.append(label)
        report.n_rejected += len(refused)
        report.invariants.append(
            InvariantResult(
                name="guard_refuses_malformed_submissions",
                ok=len(refused) == len(probes),
                detail=f"{len(refused)}/{len(probes)} probes refused typed",
            )
        )

    # ------------------------------------------------------------- load
    if "load" in phases:
        if smoke:
            profile = LoadProfile(
                population=1_000_000,
                duration_s=30.0,
                base_rate_per_s=3.0,
                flash_crowds=((15.0, 3.0, 12.0),),
                session_duration_s=4.0,
                slow_duration_s=8.0,
                seed=report.seed,
            )
        else:
            profile = LoadProfile(
                population=1_000_000,
                duration_s=90.0,
                base_rate_per_s=4.0,
                flash_crowds=((45.0, 5.0, 40.0),),
                session_duration_s=4.0,
                slow_duration_s=10.0,
                seed=report.seed,
            )
        # Population replay gets its own cluster: the clinic + burst
        # enrolments above can occupy the entire robust password space
        # (nine identifiers at the paper's alphabet), which would refuse
        # every loadgen enrolment against the shared auth directory.
        with FleetCluster(cluster.config, observer=observer) as load_cluster:
            load_door = AsyncFrontDoor(load_cluster, observer=observer)
            if smoke:
                load = await replay(load_door, profile, max_arrivals=24)
            else:
                load = await replay(load_door, profile, time_scale=0.05)
        report.load = load
        accounted = load.n_completed + load.n_shed + load.n_rejected + load.n_failed
        report.invariants.append(
            InvariantResult(
                name="load_replay_accounts_for_every_arrival",
                ok=accounted == load.n_arrivals and load.n_distinct_tenants >= 2,
                detail=(
                    f"{accounted}/{load.n_arrivals} accounted over "
                    f"{load.n_distinct_tenants} tenants"
                ),
            )
        )
        report.n_shed += load.n_shed
        report.n_rejected += load.n_rejected
        report.n_failed += load.n_failed

    report.n_sessions = (
        door.completed
        + burst_completed
        + (report.load.n_completed if report.load else 0)
    )
    report.n_failed += door.failed
    report.shard_completed = {
        sid: health.completed for sid, health in cluster.health().items()
    }
    report.outcome_digests = tuple(outcome.digest() for outcome in outcomes)


def _fleet_identifiers(workload: ClinicWorkload):
    """Identifiers without a scheduler in hand (same device config)."""
    from repro.core.config import MedSenConfig

    return workload.identifiers(MedSenConfig())


def run_fleet(
    seed: int = 0,
    n_shards: int = 2,
    smoke: bool = True,
    phases: Tuple[str, ...] = ALL_PHASES,
    observer=NULL_OBSERVER,
) -> FleetReport:
    """Run one fleet campaign and return its report.

    ``smoke`` picks the small fixed workload (the CI gate) over the
    long campaign.  ``phases`` selects a subset — ``python -m repro
    fleet --phases chaos`` runs just the kill/restart drill, with the
    determinism round it depends on.
    """
    unknown = set(phases) - set(ALL_PHASES)
    if unknown:
        raise MedSenError(f"unknown fleet phases: {sorted(unknown)}")
    workload = ClinicWorkload(
        n_tenants=4 if smoke else 8,
        requests_per_tenant=4 if smoke else 6,
        duration_s=6.0 if smoke else 8.0,
        seed=seed + 2016,
    )
    fleet = FleetConfig(
        seed=seed,
        n_workers=2,
        queue_capacity=max(64, workload.n_requests),
    )
    report = FleetReport(seed=seed, n_shards=n_shards, phases=tuple(phases))
    needs_reference = bool({"determinism", "chaos"} & set(phases))
    reference: Dict[Tuple[str, int], str] = {}
    reference_hashes: List[str] = []
    if needs_reference:
        reference, reference_hashes = _reference_outcomes(workload, fleet)
    tier = FleetTierConfig(
        n_shards=n_shards,
        shard=fleet,
        max_inflight=max(64, workload.n_requests),
        journal=True,
    )
    with FleetCluster(tier, observer=observer) as cluster:
        asyncio.run(
            _run_phases(
                report,
                cluster,
                workload,
                reference,
                reference_hashes,
                observer,
                smoke,
            )
        )
    report.digest = canonical_digest(
        {
            "seed": report.seed,
            "n_shards": report.n_shards,
            "phases": list(report.phases),
            "outcomes": list(report.outcome_digests),
            "invariants": [[inv.name, inv.ok] for inv in report.invariants],
        },
        12,
    )
    return report
