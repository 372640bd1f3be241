"""Seeded chaos campaigns: end-to-end fault injection with invariants.

``python -m repro chaos --seed S --campaign C`` executes one campaign
in three phases and checks the system-wide resilience invariants:

* **Phase A — degraded sensing.**  Single-device trials with injected
  electrode faults, trace corruption (dropouts/saturation) and
  key-epoch desync.  Invariant: *no silent wrong counts* — every trial
  either decodes correct-within-tolerance or carries an explicit
  DEGRADED/FAILED verdict.
* **Phase B — fleet chaos.**  A multi-worker
  :class:`~repro.serving.scheduler.FleetScheduler` run under network
  duplicates, transient worker crashes and a poison tenant, journaling
  every committed record.  Invariants: no deadlock (every future
  resolves), full accounting (completed + failed = submitted), poison
  requests quarantined, duplicates deduplicated.
* **Phase C — crash recovery.**  The "process dies": the journal is
  (deterministically) corrupted and replayed.  Invariants: every
  intact committed record recovers **bit-identically**, every damaged
  line is quarantined with an audit event, never loaded.
* **Phase D — streaming lane.**  Chunk loss, mid-stream disconnects
  and congestion against the windowed streaming session.  Invariants:
  resume is bit-identical and congestion degrades explicitly.
* **Phase E — replicated partition.**  The committed records are
  journal-shipped to an in-process standby (torn tail quarantined, not
  applied), a primary lease lapses under a manual clock and the
  standby promotes at the next epoch, and a crashed ex-primary rejoins
  from the shipped history alone.  Invariants: standby convergence,
  stale-epoch fencing, rejoin convergence.  (The multiprocess SIGKILL
  failover drill lives in ``python -m repro failover``.)

Determinism: the same ``(seed, campaign)`` produces the identical fault
schedule, health report, record contents, and hence the identical
:attr:`ChaosReport.digest` — the property the chaos tests pin.
"""

import os
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro._util.drill import DrillReport, InvariantResult, canonical_digest
from repro._util.errors import MedSenError
from repro.cloud.server import AnalysisServer
from repro.cloud.storage import RecordStore, record_content_hash
from repro.core.device import MedSenDevice
from repro.core.diagnosis import CD4_STAGING
from repro.obs import NULL_OBSERVER, ManualClock
from repro.particles.library import get_particle_type
from repro.particles.sample import Sample
from repro.resilience.degraded import evaluate_degraded
from repro.resilience.faults import FaultInjector, FaultPlan, trace_quality
from repro.resilience.health import DEGRADED, FAILED, OK, HealthRegistry
from repro.resilience.journal import (
    RecordJournal,
    decode_entry,
    encode_entry,
    recover_store,
    replay_journal,
)
from repro.serving.request import derive_request_rng
from repro.serving.scheduler import FleetConfig, FleetScheduler
from repro.serving.workload import ClinicWorkload


class ChaosError(MedSenError):
    """The chaos runner itself was misused (unknown campaign, ...)."""


@dataclass(frozen=True)
class Campaign:
    """One named chaos campaign: fault plan + workload shape."""

    name: str
    description: str
    plan: FaultPlan
    n_sensor_trials: int = 3
    n_desync_trials: int = 1
    trial_duration_s: float = 6.0
    n_tenants: int = 2
    requests_per_tenant: int = 2
    fleet_duration_s: float = 8.0
    n_workers: int = 4
    tolerance_fraction: float = 0.5
    wait_timeout_s: float = 300.0


#: The campaign registry.  ``smoke`` is the CI gate: every layer sees
#: at least one fault, in a couple of minutes of compute.
CAMPAIGNS: Dict[str, Campaign] = {
    "smoke": Campaign(
        name="smoke",
        description="one fault per layer, minimal workload (the CI gate)",
        plan=FaultPlan(
            sensor_fault_rate=1.0,
            max_dead_electrodes=1,
            weak_electrode_rate=1.0,
            dropout_rate=1.0,
            saturation_rate=0.0,
            desync_rate=1.0,
            storage_corruption_rate=1.0,
            worker_crash_rate=0.5,
            poison_tenants=("clinic-01",),
            duplicate_probability=1.0,
            chunk_drop_rate=0.4,
            disconnect_rate=0.3,
            congestion_rate=1.0,
            partition_rate=1.0,
            lease_expiry_rate=1.0,
            primary_crash_rate=1.0,
        ),
        n_sensor_trials=2,
        n_desync_trials=1,
        trial_duration_s=5.0,
        n_tenants=2,
        requests_per_tenant=2,
        fleet_duration_s=6.0,
    ),
    "sensor": Campaign(
        name="sensor",
        description="heavier electrode/DSP fault sweep, no fleet faults",
        plan=FaultPlan(
            sensor_fault_rate=0.8,
            max_dead_electrodes=2,
            weak_electrode_rate=0.5,
            dropout_rate=0.5,
            saturation_rate=0.5,
            desync_rate=0.5,
        ),
        n_sensor_trials=6,
        n_desync_trials=2,
    ),
    "fleet": Campaign(
        name="fleet",
        description="serving-layer chaos: crashes, poison, duplicates, corruption",
        plan=FaultPlan(
            worker_crash_rate=0.4,
            poison_tenants=("clinic-02",),
            duplicate_probability=0.5,
            drop_probability=0.1,
            storage_corruption_rate=1.0,
            partition_rate=1.0,
            lease_expiry_rate=1.0,
            primary_crash_rate=1.0,
        ),
        n_sensor_trials=0,
        n_desync_trials=0,
        n_tenants=3,
        requests_per_tenant=3,
    ),
}


@dataclass
class ChaosReport(DrillReport):
    """Everything one chaos run produced."""

    campaign: str = ""
    seed: int = 0
    health: Tuple = ()
    injections: Tuple = ()
    trial_outcomes: List[Tuple] = field(default_factory=list)
    record_hashes: Tuple[str, ...] = ()
    n_submitted: int = 0
    n_completed: int = 0
    n_failed: int = 0
    n_quarantined: int = 0
    n_worker_crashes: int = 0
    n_worker_restarts: int = 0
    n_duplicates_dropped: int = 0
    n_records_committed: int = 0
    n_records_recovered: int = 0
    n_records_quarantined: int = 0
    n_replica_applied: int = 0
    n_replica_quarantined: int = 0
    replication_epoch: int = 0
    stream_digest: str = ""

    def title(self) -> str:
        return f"chaos campaign {self.campaign!r} seed {self.seed}"

    def summary_lines(self) -> List[str]:
        lines = [
            f"faults injected   {len(self.injections)} across sites "
            f"{sorted({f.site for f in self.injections})}",
            f"fleet             {self.n_completed}/{self.n_submitted} completed, "
            f"{self.n_failed} failed, {self.n_quarantined} quarantined, "
            f"{self.n_worker_crashes} crashes / {self.n_worker_restarts} restarts, "
            f"{self.n_duplicates_dropped} duplicates dropped",
            f"recovery          {self.n_records_recovered}/{self.n_records_committed} "
            f"records recovered, {self.n_records_quarantined} quarantined",
        ]
        if self.stream_digest:
            lines.append(f"stream outcome    {self.stream_digest}")
        if self.n_replica_applied or self.n_replica_quarantined:
            lines.append(
                f"replication       {self.n_replica_applied} records applied "
                f"on the standby, {self.n_replica_quarantined} torn lines "
                f"quarantined, epoch {self.replication_epoch}"
            )
        for state in self.health:
            lines.append(
                f"health            {state.component}: {state.status.upper()}"
                + (f" ({state.reason})" if state.reason else "")
            )
        return lines


def run_campaign(
    seed: int = 0,
    campaign: str = "smoke",
    observer=NULL_OBSERVER,
    journal_dir: Optional[str] = None,
) -> ChaosReport:
    """Execute one chaos campaign end to end and check its invariants.

    Never raises on an invariant *violation* — the report carries the
    verdicts (``report.passed``) so the CLI and CI can render them —
    but raises :class:`ChaosError` for an unknown campaign name.
    """
    if campaign not in CAMPAIGNS:
        raise ChaosError(
            f"unknown campaign {campaign!r}; available: {sorted(CAMPAIGNS)}"
        )
    spec = CAMPAIGNS[campaign]
    report = ChaosReport(campaign=campaign, seed=int(seed))
    health = HealthRegistry(observer=observer)
    injector = FaultInjector(spec.plan, seed=seed, observer=observer)
    checks: List[InvariantResult] = report.invariants

    # ------------------------------------------------------------------
    # Phase A — degraded sensing, trace corruption, key desync
    # ------------------------------------------------------------------
    server = AnalysisServer(keep_history=False, observer=observer)
    silent_wrong: List[str] = []
    for trial in range(spec.n_sensor_trials):
        label = f"{campaign}#sensor"
        rng = derive_request_rng(seed, label, trial)
        sample = Sample.from_concentrations(
            {get_particle_type("blood_cell"): 400.0 * float(rng.uniform(0.8, 1.2))},
            volume_ul=10.0,
            rng=rng,
        )
        device = MedSenDevice(
            rng=rng,
            fault_model=injector.sensor_fault_model(label, trial),
            observer=observer,
        )
        capture = device.run_capture(sample, spec.trial_duration_s, encrypt=True)
        trace, corruptions = injector.corrupt_trace(capture.trace, label, trial)
        quality = trace_quality(trace.voltages)
        peak_report = server.analyze(trace)
        diagnosis = evaluate_degraded(
            device,
            peak_report,
            pumped_volume_ul=capture.pumped_volume_ul,
            diagnostic=CD4_STAGING,
            observer=observer,
        )
        trial_status = diagnosis.status
        if not quality.ok:
            if trial_status == OK:
                trial_status = DEGRADED
            health.degrade(
                "dsp",
                "+".join(corruptions) if corruptions else "flat-line damage detected",
            )
        if diagnosis.status == DEGRADED:
            health.degrade("sensor", diagnosis.reason)
        elif diagnosis.status == FAILED:
            health.fail("sensor", diagnosis.reason)
        truth = capture.ground_truth.total_arrived
        tolerance = max(5.0, spec.tolerance_fraction * truth)
        within = abs(diagnosis.count - truth) <= tolerance
        if trial_status == OK and not within:
            silent_wrong.append(
                f"trial {trial}: count {diagnosis.count} vs truth {truth} with OK health"
            )
        report.trial_outcomes.append(
            (trial, trial_status, diagnosis.count, truth, list(diagnosis.possible_labels))
        )
    if spec.n_sensor_trials:
        checks.append(
            InvariantResult(
                name="no-silent-wrong-counts",
                ok=not silent_wrong,
                detail="; ".join(silent_wrong),
            )
        )

    # Key-epoch desync and resynchronisation.
    for trial in range(spec.n_desync_trials):
        label = f"{campaign}#desync"
        rng = derive_request_rng(seed, label, trial)
        sample = Sample.from_concentrations(
            {get_particle_type("blood_cell"): 400.0},
            volume_ul=10.0,
            rng=rng,
        )
        device = MedSenDevice(rng=rng, observer=observer)
        capture = device.run_capture(sample, spec.trial_duration_s, encrypt=True)
        peak_report = server.analyze(capture.trace)
        baseline = device.decrypt(peak_report).total_count
        if injector.should_desync(label, trial):
            # The controller re-provisions (a new session starting)
            # while the cloud is still analysing the old capture.
            device.controller.provision(
                spec.trial_duration_s,
                epoch_duration_s=device.config.epoch_duration_s,
            )
        desynced = device.controller.fingerprint() != capture.plan_fingerprint
        if desynced:
            resynced = device.controller.resync(capture.plan_fingerprint)
            if not resynced:
                health.fail("crypto", "key-epoch desync beyond plan history")
                checks.append(
                    InvariantResult(
                        name="desync-resynchronised",
                        ok=False,
                        detail=f"trial {trial}: fingerprint aged out of history",
                    )
                )
                continue
            recovered = device.decrypt(peak_report).total_count
            checks.append(
                InvariantResult(
                    name="desync-resynchronised",
                    ok=recovered == baseline,
                    detail=f"trial {trial}: count {recovered} vs baseline {baseline}",
                )
            )

    # ------------------------------------------------------------------
    # Phase B — fleet chaos with a journaling store
    # ------------------------------------------------------------------
    own_tmp: Optional[tempfile.TemporaryDirectory] = None
    if journal_dir is None:
        own_tmp = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        journal_dir = own_tmp.name
    journal_path = os.path.join(journal_dir, f"chaos-{campaign}-{seed}.journal")
    try:
        journal = RecordJournal(journal_path)
        store = RecordStore(clock=ManualClock(), observer=observer, journal=journal)
        config = FleetConfig(
            seed=seed,
            n_workers=spec.n_workers,
            queue_capacity=max(spec.n_tenants * spec.requests_per_tenant, 8),
            drop_probability=spec.plan.drop_probability,
            timeout_probability=spec.plan.timeout_probability,
            duplicate_probability=spec.plan.duplicate_probability,
        )
        workload = ClinicWorkload(
            n_tenants=spec.n_tenants,
            requests_per_tenant=spec.requests_per_tenant,
            seed=seed,
            duration_s=spec.fleet_duration_s,
        )
        scheduler = FleetScheduler(
            config, observer=observer, store=store, fault_injector=injector
        )
        identifiers = workload.identifiers(scheduler.device_config)
        futures = []
        with scheduler:
            for tenant, identifier in identifiers.items():
                scheduler.register_tenant(tenant, identifier)
            for sequence in range(workload.requests_per_tenant):
                for tenant_index, tenant in enumerate(workload.tenant_ids()):
                    futures.append(
                        scheduler.submit(
                            tenant,
                            workload.blood_sample(tenant_index, sequence),
                            identifiers[tenant],
                            duration_s=workload.duration_s,
                            block=True,
                            timeout=spec.wait_timeout_s,
                        )
                    )
            all_done = all(f.wait(spec.wait_timeout_s) for f in futures)
        report.n_submitted = len(futures)
        report.n_completed = scheduler.completed
        report.n_failed = scheduler.failed
        report.n_quarantined = len(scheduler.dead_letters)
        report.n_worker_crashes = scheduler.worker_crashes
        report.n_worker_restarts = scheduler.worker_restarts
        report.n_duplicates_dropped = scheduler.server.duplicates_dropped
        checks.append(
            InvariantResult(
                name="no-deadlock",
                ok=all_done,
                detail="" if all_done else "a future never resolved",
            )
        )
        checks.append(
            InvariantResult(
                name="full-accounting",
                ok=report.n_completed + report.n_failed == report.n_submitted,
                detail=(
                    f"{report.n_completed} completed + {report.n_failed} failed "
                    f"of {report.n_submitted} submitted"
                ),
            )
        )
        if spec.plan.poison_tenants:
            expected = sum(
                spec.requests_per_tenant
                for tenant in spec.plan.poison_tenants
                if tenant in identifiers
            )
            checks.append(
                InvariantResult(
                    name="poison-quarantined",
                    ok=report.n_quarantined == expected,
                    detail=f"{report.n_quarantined} quarantined, expected {expected}",
                )
            )
        if spec.plan.duplicate_probability > 0:
            checks.append(
                InvariantResult(
                    name="duplicates-deduplicated",
                    ok=report.n_duplicates_dropped > 0,
                    detail=f"{report.n_duplicates_dropped} duplicates dropped",
                )
            )
        if scheduler.worker_crashes:
            health.degrade(
                "scheduler",
                f"{scheduler.worker_crashes} worker crashes "
                f"({report.n_quarantined} requests quarantined)",
            )
        if report.n_duplicates_dropped:
            health.degrade("network", "duplicate deliveries observed and dropped")
            injector.record_external(
                "network",
                "fleet",
                0,
                f"{report.n_duplicates_dropped} duplicate deliveries",
            )
        report.record_hashes = tuple(
            sorted(
                record_content_hash(record)
                for identifier in store.identifiers()
                for record in store.fetch(identifier)
            )
        )
        report.n_records_committed = store.n_records
        journal.close()

        # --------------------------------------------------------------
        # Phase C — crash the process, damage the journal, recover
        # --------------------------------------------------------------
        committed = sorted(
            (
                record
                for identifier in store.identifiers()
                for record in store.fetch(identifier)
            ),
            key=lambda record: record.sequence_number,
        )
        corrupted_line = injector.corrupt_journal_file(journal_path)
        recovered_store, replay = recover_store(journal_path, observer=observer)
        report.n_records_recovered = replay.n_recovered
        report.n_records_quarantined = replay.n_quarantined
        if corrupted_line is not None:
            health.degrade(
                "storage", f"journal line {corrupted_line} corrupt; quarantined"
            )
        expected_payloads = [
            record.payload()
            for index, record in enumerate(committed, start=1)
            if index != corrupted_line
        ]
        recovered_payloads = [record.payload() for record in replay.records]
        checks.append(
            InvariantResult(
                name="recovery-bit-identical",
                ok=recovered_payloads == expected_payloads,
                detail=(
                    f"{len(recovered_payloads)} recovered payloads vs "
                    f"{len(expected_payloads)} expected"
                ),
            )
        )
        expected_quarantined = 0 if corrupted_line is None else 1
        checks.append(
            InvariantResult(
                name="corruption-quarantined",
                ok=replay.n_quarantined == expected_quarantined,
                detail=(
                    f"{replay.n_quarantined} quarantined, "
                    f"expected {expected_quarantined}"
                ),
            )
        )
        # The recovered store must serve the surviving records verbatim.
        recovered_ok = all(
            record.verify()
            for identifier in recovered_store.identifiers()
            for record in recovered_store.fetch(identifier)
        )
        checks.append(
            InvariantResult(
                name="recovered-store-verifies",
                ok=recovered_ok,
                detail="all recovered records pass their checksums"
                if recovered_ok
                else "a recovered record failed verification",
            )
        )
    finally:
        if own_tmp is not None:
            own_tmp.cleanup()

    # ------------------------------------------------------------------
    # Phase D — streaming lane: disconnect/resume + congestion drill
    # ------------------------------------------------------------------
    if spec.plan.any_stream_faults:
        from repro.dsp.peakdetect import PeakDetector
        from repro.stream.campaign import synthetic_stream_trace
        from repro.stream.session import (
            DeviceStreamer,
            StreamGateway,
            StreamSessionConfig,
            report_digest,
        )

        stream_label = f"{campaign}#stream"
        stream_rng = derive_request_rng(seed, stream_label, 0)
        stream_fs = 1000.0
        stream_trace = synthetic_stream_trace(
            stream_rng, n_samples=3000, sampling_rate_hz=stream_fs
        )
        stream_config = StreamSessionConfig(
            chunk_samples=512, min_chunk_samples=64, max_chunk_samples=512
        )
        stream_secret = b"chaos-stream-secret"
        gateway = StreamGateway(
            stream_secret, config=stream_config, observer=observer
        )
        streamer = DeviceStreamer(
            stream_trace,
            stream_fs,
            "clinic-stream",
            stream_secret,
            config=stream_config,
            observer=observer,
            rng=stream_rng,
        )
        outcome = streamer.run(gateway, injector=injector, label=stream_label)
        report.stream_digest = outcome.digest
        expected = report_digest(
            PeakDetector().detect(stream_trace, stream_fs)
        )
        identical = outcome.digest == expected
        replayed_nothing = gateway.chunks_analyzed == streamer.chunks_sent
        checks.append(
            InvariantResult(
                name="stream-resume-bit-identical",
                ok=identical and replayed_nothing,
                detail=(
                    f"{streamer.disconnects} disconnects, "
                    f"{streamer.retransmits} retransmits, "
                    f"{streamer.duplicate_acks} duplicate acks; "
                    f"{gateway.chunks_analyzed} chunks analysed of "
                    f"{streamer.chunks_sent} sent"
                    + ("" if identical else "; DIGEST MISMATCH")
                ),
            )
        )
        if spec.plan.congestion_rate:
            checks.append(
                InvariantResult(
                    name="stream-congestion-degrades",
                    ok=outcome.degraded and streamer.controller.floored,
                    detail=outcome.degraded_reason
                    or "congested stream never hit the floor",
                )
            )
            if outcome.degraded:
                health.degrade("network", outcome.degraded_reason)

    # ------------------------------------------------------------------
    # Phase E — replicated partition: shipped-journal convergence,
    # lease-fenced promotion, anti-entropy rejoin (all in-process; the
    # multiprocess SIGKILL drill is ``python -m repro failover``)
    # ------------------------------------------------------------------
    if spec.plan.any_replication_faults:
        from repro.fleet.replication import LeaseTable

        replication_label = f"{campaign}#replication"
        partition = "part-00"
        shipped = [encode_entry(record) for record in committed]
        torn = bool(shipped) and injector.should_partition(replication_label, 0)
        if torn:
            # The pair partitions mid-ship: the last line lands torn,
            # exactly like a journal tail cut off mid-record.
            shipped[-1] = shipped[-1][: max(len(shipped[-1]) // 2, 1)]
        standby = RecordStore(clock=ManualClock(), observer=observer)
        torn_quarantined = 0
        for line in shipped:
            try:
                standby._restore(decode_entry(line))
            except ValueError:
                torn_quarantined += 1
        report.n_replica_applied = standby.n_records
        report.n_replica_quarantined = torn_quarantined
        expected_hashes = sorted(
            record_content_hash(record)
            for record in (committed[:-1] if torn else committed)
        )
        standby_hashes = sorted(
            record_content_hash(record)
            for identifier in standby.identifiers()
            for record in standby.fetch(identifier)
        )
        checks.append(
            InvariantResult(
                name="replication-standby-converges",
                ok=standby_hashes == expected_hashes
                and torn_quarantined == (1 if torn else 0),
                detail=(
                    f"{standby.n_records} applied / {torn_quarantined} "
                    f"quarantined of {len(shipped)} shipped lines"
                ),
            )
        )
        if torn:
            health.degrade(
                "replication", "torn shipped line quarantined on the standby"
            )

        lease_clock = ManualClock()
        lease_table = LeaseTable(
            default_ttl_s=0.5, clock=lease_clock, observer=observer
        )
        first = lease_table.grant(partition, f"{partition}-a")
        if injector.should_expire_lease(replication_label, 0):
            lease_clock.advance(first.ttl_s)
            lapsed = lease_table.expired(partition)
            promoted = lease_table.grant(partition, f"{partition}-b")
            report.replication_epoch = promoted.epoch
            checks.append(
                InvariantResult(
                    name="replication-stale-epoch-fenced",
                    ok=(
                        lapsed
                        and promoted.epoch == first.epoch + 1
                        and lease_table.is_stale(partition, first.epoch)
                        and not lease_table.is_stale(partition, promoted.epoch)
                    ),
                    detail=(
                        f"epoch {first.epoch} fenced after promotion to "
                        f"epoch {promoted.epoch}"
                    ),
                )
            )
            health.degrade(
                "replication",
                "primary lease lapsed; standby promoted at the next epoch",
            )
        if injector.should_crash_primary(replication_label, 0):
            # Anti-entropy: the crashed ex-primary rejoins from the
            # shipped history alone and must match the standby exactly.
            rejoined = RecordStore(clock=ManualClock(), observer=observer)
            for line in shipped:
                try:
                    rejoined._restore(decode_entry(line))
                except ValueError:
                    pass
            rejoined_hashes = sorted(
                record_content_hash(record)
                for identifier in rejoined.identifiers()
                for record in rejoined.fetch(identifier)
            )
            checks.append(
                InvariantResult(
                    name="replication-rejoin-converges",
                    ok=rejoined_hashes == standby_hashes,
                    detail=(
                        f"{rejoined.n_records} rejoined records vs "
                        f"{standby.n_records} on the standby"
                    ),
                )
            )

    # ------------------------------------------------------------------
    # Final report: explicit health, deterministic digest
    # ------------------------------------------------------------------
    report.health = health.snapshot()
    report.injections = injector.injections
    alarmed = health.overall != OK
    any_injected = bool(report.injections)
    if any_injected:
        checks.append(
            InvariantResult(
                name="faults-surfaced-in-health",
                ok=alarmed,
                detail=f"overall health {health.overall!r} "
                f"after {len(report.injections)} injections",
            )
        )
    report.digest = canonical_digest(
        {
            "campaign": campaign,
            "seed": int(seed),
            "injections": [
                [f.site, f.label, f.index, f.detail] for f in report.injections
            ],
            "health": [[s.component, s.status, s.reason] for s in report.health],
            "trials": [
                [t[0], t[1], t[2], t[3], t[4]] for t in report.trial_outcomes
            ],
            "records": list(report.record_hashes),
            "recovered": [
                report.n_records_recovered,
                report.n_records_quarantined,
            ],
            "stream": report.stream_digest,
            "replication": [
                report.n_replica_applied,
                report.n_replica_quarantined,
                report.replication_epoch,
            ],
        },
        16,
    )
    return report
