"""Deterministic failover drill: kill a loaded primary, lose nothing.

``python -m repro failover --smoke`` runs one end-to-end drill over a
real :class:`~repro.fleet.replication.ReplicatedCluster` and asserts
the replication lane's whole contract:

* **zero acknowledged loss** — every outcome the front door acked is
  bit-identical to the single-process reference, and the fleet's
  record-store union (primaries only) equals the reference store's
  content hashes, even though a primary was SIGKILLed mid-campaign;
* **bounded MTTR** — the standby promotes within the lease window
  (plus scheduling slack), measured by the supervisor;
* **fencing** — a partitioned (SIGSTOPped, then resumed) stale primary
  answers with a superseded epoch; the front door refuses the reply,
  re-runs the session on the promoted primary, and the client sees the
  bit-identical outcome exactly once;
* **anti-entropy** — the demoted ex-primary rejoins from the shipped
  replication log and converges to the promoted primary's exact
  record partition;
* **stream continuity** — a streaming session opened on the doomed
  primary resumes on the promoted standby via its original HMAC resume
  token and closes with the one-shot detector's digest.

Everything is seeded; the drill's digest is a pure function of its
seed, which is how CI pins it.
"""

import asyncio
import os
import signal
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro._util.drill import DrillReport, InvariantResult, canonical_digest
from repro._util.errors import MedSenError
from repro._util.rng import ensure_rng
from repro.fleet.campaign import _reference_outcomes, _submit_round
from repro.fleet.frontdoor import AsyncFrontDoor, FleetRequestFailedError
from repro.fleet.cluster import FleetTierConfig
from repro.fleet.replication import ReplicatedCluster, ReplicationConfig
from repro.obs import NULL_OBSERVER
from repro.resilience.journal import decode_entry
from repro.serving.scheduler import FleetConfig
from repro.serving.workload import ClinicWorkload

#: Freshness secret for the drill's streaming leg (drill-local; any
#: fleet deploys its own).
DRILL_SECRET = b"medsen-failover-drill-secret"

#: Scheduling slack allowed on top of the lease TTL when bounding MTTR.
MTTR_SLACK_S = 5.0

#: Deadline for a drill phase waiting on a request to reach a shard.
INFLIGHT_WAIT_S = 30.0


class DrillWaitTimeoutError(MedSenError):
    """A drill phase waited past its deadline for the fleet to act."""


async def _wait_inflight(handle) -> None:
    """Return once ``handle`` has a request on its pipe.

    The drill's kill and fence phases must act on a shard while a
    session is queued on it; a fixed sleep loses that race on a loaded
    host.  A request counts from the moment the front door has written
    its frame (``ShardHandle.request`` sends under the lock that
    ``inflight`` reads).
    """
    loop = asyncio.get_running_loop()
    give_up = loop.time() + INFLIGHT_WAIT_S
    while handle.inflight < 1:
        if loop.time() > give_up:
            raise DrillWaitTimeoutError(
                f"no request reached shard {handle.shard_id} within {INFLIGHT_WAIT_S:.0f} s"
            )
        await asyncio.sleep(0.001)


@dataclass
class FailoverReport(DrillReport):
    """Everything one failover drill produced."""

    seed: int = 0
    n_partitions: int = 0
    n_acked: int = 0
    n_failovers: int = 0
    n_rejoins: int = 0
    n_fenced: int = 0
    n_handoff_queued: int = 0
    n_shed_during_failover: int = 0
    mttr_s: float = 0.0
    lease_ttl_s: float = 0.0
    replog_lines: int = 0
    outcome_digests: Tuple[str, ...] = ()

    def title(self) -> str:
        return (
            f"failover drill seed {self.seed}, "
            f"{self.n_partitions} replicated partitions"
        )

    def summary_lines(self) -> List[str]:
        return [
            f"acked             {self.n_acked} sessions, "
            f"{self.n_shed_during_failover} shed during failover",
            f"failovers         {self.n_failovers} promotions "
            f"(last MTTR {self.mttr_s * 1000:.0f} ms, lease TTL "
            f"{self.lease_ttl_s * 1000:.0f} ms), {self.n_rejoins} rejoins",
            f"fencing           {self.n_fenced} stale-epoch replies refused, "
            f"{self.n_handoff_queued} requests queued through handoff",
            f"replication       {self.replog_lines} journal lines shipped",
        ]


def _partition_tenants(
    cluster: ReplicatedCluster, tenants: Tuple[str, ...]
) -> Dict[str, List[str]]:
    by_partition: Dict[str, List[str]] = {}
    for tenant in tenants:
        by_partition.setdefault(cluster.partition_of(tenant), []).append(tenant)
    return by_partition


async def _stream_leg(
    door: AsyncFrontDoor,
    tenant: str,
    trace,
    fs_hz: float,
    pause_after: int,
):
    """Open + first chunks of a stream; returns a resumable cursor."""
    from repro.guard.freshness import TokenMinter
    from repro.stream import seal_chunk

    minter = TokenMinter(DRILL_SECRET)
    opened = await door.open_stream(tenant, trace.shape[0], fs_hz, minter.mint())
    seq, pos = 0, 0
    while pos < trace.shape[1] and seq < pause_after:
        samples = trace[:, pos : pos + opened.chunk_samples]
        blob = seal_chunk(
            samples,
            DRILL_SECRET,
            opened.session_key,
            seq,
            key_epoch=opened.key_epoch,
            sampling_rate_hz=fs_hz,
        )
        await door.stream_chunk(opened.session_id, blob)
        pos += samples.shape[1]
        seq += 1
    return opened, seq, pos


async def _finish_stream(
    door: AsyncFrontDoor,
    opened,
    trace,
    fs_hz: float,
    seq: int,
    pos: int,
):
    from repro.stream import seal_chunk

    info = await door.resume_stream(opened.session_id, opened.resume_token)
    seq = info.cursor
    pos = min(pos, seq * opened.chunk_samples)
    while pos < trace.shape[1]:
        samples = trace[:, pos : pos + opened.chunk_samples]
        blob = seal_chunk(
            samples,
            DRILL_SECRET,
            opened.session_key,
            seq,
            key_epoch=opened.key_epoch,
            sampling_rate_hz=fs_hz,
        )
        await door.stream_chunk(opened.session_id, blob)
        pos += samples.shape[1]
        seq += 1
    return await door.close_stream(opened.session_id)


async def _drill(
    report: FailoverReport,
    cluster: ReplicatedCluster,
    workload: ClinicWorkload,
    reference: Dict[Tuple[str, int], str],
    reference_hashes: List[str],
    observer,
) -> None:
    from repro.dsp import PeakDetector
    from repro.stream import report_digest, synthetic_stream_trace

    loop = asyncio.get_running_loop()
    door = AsyncFrontDoor(cluster, observer=observer)
    from repro.fleet.campaign import _fleet_identifiers

    identifiers = _fleet_identifiers(workload)
    for tenant, identifier in identifiers.items():
        await door.register_tenant(tenant, identifier)

    tenants = workload.tenant_ids()
    by_partition = _partition_tenants(cluster, tenants)
    victim = cluster.partition_of(tenants[0])
    fence_partition = next(
        (part for part in sorted(by_partition) if part != victim), victim
    )

    half = workload.requests_per_tenant // 2
    first_half = tuple(range(half))
    second_half = tuple(range(half, workload.requests_per_tenant))
    digests: Dict[Tuple[str, int], str] = {}
    acked = []

    # ------------------------------------------------ steady-state round
    round_one = await _submit_round(door, workload, identifiers, first_half)
    for key, digest, outcome in round_one:
        digests[key] = digest
        if outcome is not None:
            acked.append(outcome)

    # Streaming session pinned to the doomed partition, paused mid-way.
    fs_hz = 1000.0
    trace = synthetic_stream_trace(
        ensure_rng(report.seed + 71), n_channels=2, n_samples=2200
    )
    stream_tenant = by_partition[victim][0]
    opened, stream_seq, stream_pos = await _stream_leg(
        door, stream_tenant, trace, fs_hz, pause_after=2
    )

    # -------------------------------------- SIGKILL the loaded primary
    # Renew the victim's lease first so promotion genuinely waits out a
    # live lease window (otherwise the start-time lease has long lapsed
    # and the drill would never exercise the safety delay).
    cluster.renew(victim)
    doomed = cluster.primary_id(victim)
    round_two_tasks = [
        asyncio.ensure_future(
            door.submit(
                tenant,
                workload.blood_sample(tenant_index, sequence),
                identifiers[tenant],
                duration_s=workload.duration_s,
            )
        )
        for sequence in second_half
        for tenant_index, tenant in enumerate(tenants)
    ]
    keys = [
        (tenant, sequence)
        for sequence in second_half
        for tenant in tenants
    ]
    await _wait_inflight(cluster._handles[doomed])
    await loop.run_in_executor(None, cluster.kill, doomed)
    results = await asyncio.gather(*round_two_tasks, return_exceptions=True)
    for key, result in zip(keys, results):
        if isinstance(result, FleetRequestFailedError):
            # Same failure encoding as the single-process reference: a
            # session that fails must fail with the same typed error.
            digests[key] = f"error:{result.error_type}"
        elif isinstance(result, BaseException):
            digests[key] = f"error:{type(result).__name__}"
        else:
            digests[key] = result.digest()
            acked.append(result)

    report.invariants.append(
        InvariantResult(
            name="failover-standby-promoted-within-lease-window",
            ok=cluster.failovers >= 1
            and cluster.last_mttr_s
            <= cluster.replication.lease_ttl_s + MTTR_SLACK_S,
            detail=(
                f"{cluster.failovers} promotions, MTTR "
                f"{cluster.last_mttr_s * 1000:.0f} ms vs lease "
                f"{cluster.replication.lease_ttl_s * 1000:.0f} ms + slack"
            ),
        )
    )

    # -------------------------------------------- zero acknowledged loss
    matched = sum(
        1 for key, digest in digests.items() if reference.get(key) == digest
    )
    report.invariants.append(
        InvariantResult(
            name="acked-outcomes-bit-identical-to-no-fault-reference",
            ok=bool(digests) and matched == len(digests),
            detail=f"{matched}/{len(digests)} digests match through a failover",
        )
    )
    fleet_hashes = cluster.fleet_record_hashes()
    report.invariants.append(
        InvariantResult(
            name="no-acked-record-lost-across-failover",
            ok=fleet_hashes == sorted(reference_hashes),
            detail=(
                f"{len(fleet_hashes)} records on promoted primaries vs "
                f"{len(reference_hashes)} in the no-fault reference store"
            ),
        )
    )
    shipped_ok = 0
    for partition in cluster.partitions:
        for line in cluster.replog_lines(partition):
            decode_entry(line)  # raises on a torn/corrupt shipped line
            shipped_ok += 1
    report.replog_lines = shipped_ok
    report.invariants.append(
        InvariantResult(
            name="shipped-journal-lines-verify",
            ok=shipped_ok >= len(reference_hashes),
            detail=f"{shipped_ok} shipped lines re-verified CRC-clean",
        )
    )

    # --------------------------------------- stream resumes on standby
    closed = await _finish_stream(
        door, opened, trace, fs_hz, stream_seq, stream_pos
    )
    one_shot = PeakDetector().detect(trace, fs_hz)
    report.invariants.append(
        InvariantResult(
            name="stream-session-resumes-on-promoted-standby",
            ok=closed.report_digest == report_digest(one_shot)
            and closed.n_samples == trace.shape[1],
            detail=(
                f"resumed at cursor {stream_seq}, closed with "
                f"{closed.n_chunks} chunks bit-identical to one-shot"
            ),
        )
    )

    # ------------------------------------------- anti-entropy rejoin
    await loop.run_in_executor(None, cluster.rejoin, victim)
    report.n_rejoins = cluster.rejoins
    digests_by_shard = cluster.store_digests()
    primary_hashes = digests_by_shard[cluster.primary_id(victim)].record_hashes
    standby_id = cluster.standby_id(victim)
    rejoined_hashes = digests_by_shard[standby_id].record_hashes
    report.invariants.append(
        InvariantResult(
            name="rejoined-standby-converges-from-shipped-journal",
            ok=sorted(rejoined_hashes) == sorted(primary_hashes),
            detail=(
                f"{len(rejoined_hashes)} rejoined records == "
                f"{len(primary_hashes)} promoted-primary records"
            ),
        )
    )

    # ------------------------------------ fence a partitioned primary
    # SIGSTOP the primary (unreachable, not dead), let a request queue
    # on it, promote the standby, then SIGCONT: the old primary answers
    # with a superseded epoch and the front door must refuse it and
    # re-run on the promoted primary — acked exactly once.  This is the
    # partition the kill phase did not touch; its lease is renewed
    # first, so it is live, and the drill saw the partition at
    # ``fence_epoch``: the promotion waits the lease out instead of
    # declining to promote a live, leased primary.
    fence_tenant = by_partition[fence_partition][0]
    stale = cluster._handles[cluster.primary_id(fence_partition)]
    cluster.renew(fence_partition)
    fence_epoch = cluster.partition_epoch(fence_partition)
    fenced_before = door.fenced
    os.kill(stale.process.pid, signal.SIGSTOP)
    try:
        sequence = door._sequences.get(fence_tenant, 0)
        fence_task = asyncio.ensure_future(
            door.submit(
                fence_tenant,
                workload.blood_sample(tenants.index(fence_tenant), sequence),
                identifiers[fence_tenant],
                duration_s=workload.duration_s,
            )
        )
        await _wait_inflight(stale)
        await loop.run_in_executor(
            None, cluster.fail_over, fence_partition, fence_epoch
        )
    finally:
        os.kill(stale.process.pid, signal.SIGCONT)
    fence_outcome = await fence_task
    report.invariants.append(
        InvariantResult(
            name="stale-epoch-primary-fenced-no-double-ack",
            ok=door.fenced > fenced_before and fence_outcome is not None,
            detail=(
                f"{door.fenced - fenced_before} stale replies fenced; session "
                f"re-ran on {cluster.primary_id(fence_partition)} and acked once"
            ),
        )
    )
    # The fenced ex-primary rejoins from the replog: its divergent
    # post-fence commit is discarded, not merged.
    await loop.run_in_executor(None, cluster.rejoin, fence_partition)
    report.n_rejoins = cluster.rejoins

    report.n_acked = len(acked)
    report.n_failovers = cluster.failovers
    report.n_fenced = door.fenced
    report.n_handoff_queued = door.handoff_queued
    report.n_shed_during_failover = door.handoff_shed
    report.mttr_s = cluster.last_mttr_s
    report.outcome_digests = tuple(
        digests[key] for key in sorted(digests)
    )


def run_failover(
    seed: int = 0,
    n_partitions: int = 2,
    smoke: bool = True,
    lease_ttl_s: float = 0.3,
    observer=NULL_OBSERVER,
) -> FailoverReport:
    """Run one failover drill and return its report."""
    # Tenants clinic-00..05 are the fewest that put sessions on both
    # smoke partitions (04 and 05 hash to part-01), so the fence phase
    # runs on the partition the kill phase did not touch.
    workload = ClinicWorkload(
        n_tenants=6 if smoke else 8,
        requests_per_tenant=4 if smoke else 6,
        duration_s=6.0 if smoke else 8.0,
        seed=seed + 2016,
    )
    fleet = FleetConfig(
        seed=seed,
        n_workers=2,
        queue_capacity=max(64, workload.n_requests),
        freshness_secret=DRILL_SECRET,
    )
    reference, reference_hashes = _reference_outcomes(workload, fleet)
    tier = FleetTierConfig(
        n_shards=n_partitions,
        shard=fleet,
        max_inflight=max(64, workload.n_requests),
        journal=True,
    )
    replication = ReplicationConfig(
        lease_ttl_s=lease_ttl_s,
        handoff_capacity=max(64, workload.n_requests),
        handoff_window_s=30.0,
    )
    report = FailoverReport(
        seed=seed, n_partitions=n_partitions, lease_ttl_s=lease_ttl_s
    )
    with ReplicatedCluster(tier, replication, observer=observer) as cluster:
        asyncio.run(
            _drill(report, cluster, workload, reference, reference_hashes, observer)
        )
    report.digest = canonical_digest(
        {
            "seed": report.seed,
            "n_partitions": report.n_partitions,
            "outcomes": list(report.outcome_digests),
            "invariants": [[inv.name, inv.ok] for inv in report.invariants],
            "fenced": report.n_fenced >= 1,
            "failovers": report.n_failovers,
        },
        12,
    )
    return report
