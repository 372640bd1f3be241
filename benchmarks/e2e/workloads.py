"""The four end-to-end workloads and how each run is measured.

Every workload drives the program only through public entry points,
builds its inputs from the seed (``ClinicWorkload(seed)`` blood draws
and ``derive_request_rng``), sets up its deployment
:data:`SETUP_REPEATS` times (the median is ``setup_s``), measures for
about the given number of seconds, then checks the outputs it produced.

* ``session`` / ``long_capture`` — closed loop, one client, in-process
  ``MedSenSession.run_diagnostic`` calls with 60 s / 300 s captures.
  Op ``i`` runs input ``i % distinct``, so the pins cover a run of any
  length.
* ``stream`` — closed loop, one ``DeviceStreamer`` at a time into an
  in-process ``StreamGateway``; an op is one 2048-sample chunk, timed
  from before it is sealed until its ack.
* ``fleet`` — open loop, Poisson arrivals through an ``AsyncFrontDoor``
  to a ``ReplicatedCluster`` with one partition (primary + synchronous
  standby); each request is timed from when it was due.
"""

import asyncio
import itertools
import math
import os
import resource
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.auth.authenticator import ServerAuthenticator
from repro.auth.enrollment import enroll_classifier
from repro.auth.identifier import CytoIdentifier
from repro.cloud.server import AnalysisServer
from repro.cloud.storage import RecordStore
from repro.core.config import MedSenConfig
from repro.core.device import MedSenDevice
from repro.core.protocol import MedSenSession
from repro.dsp.peakdetect import PeakDetector
from repro.fleet.cluster import FleetTierConfig
from repro.fleet.frontdoor import AsyncFrontDoor, FleetRequestFailedError
from repro.fleet.messages import SessionOutcome
from repro.fleet.replication import ReplicatedCluster
from repro.mobile.phone import Smartphone
from repro.particles.library import get_particle_type
from repro.particles.sample import mix
from repro.serving.request import derive_request_rng
from repro.serving.scheduler import FleetConfig, FleetScheduler
from repro.serving.workload import ClinicWorkload
from repro.stream.session import (
    DeviceStreamer,
    StreamGateway,
    StreamSessionConfig,
    report_digest,
)
from repro.telemetry.quantiles import ExponentialHistogram

from spans import OP, Tracer

#: Deployments built per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Shared device/cloud secret of the stream gateway and the fleet.
SECRET = b"e2e-bench-secret"
PINS_PATH = Path(__file__).resolve().parent / "pins.json"
WORK_DIR = Path(__file__).resolve().parent / ".work"
#: Warm-up sessions use short captures: they exist to finish lazy set-up.
WARMUP_CAPTURE_S = 20.0
#: Sequence numbers of warm-up sessions, far from any timed input.
WARMUP_SEQUENCE = 10_000
#: Positions in the level-ordered password space held by the four
#: tenants, whose blood cycles the CD4 stages 700/450/300/150 per uL.
#: Each password's bead load brings its tenant's particle total to
#: ~1.8k per uL, so every session costs about the same: with passwords
#: drawn from the seed, the median session time moved ~15% between
#: seeds, and with unequal tenants it hinged on where a run stopped.
TENANT_PASSWORDS = (4, 2, 6, 5)
CHUNK_SAMPLES = 2048
REFUSED = "refused:AuthenticationError"


@dataclass
class Phase:
    """What one timed loop produced."""

    latencies_s: List[float] = field(default_factory=list)
    #: (op index, input key, digest or None when the op raised)
    records: List[Tuple[int, Any, Optional[str]]] = field(default_factory=list)
    wall_s: float = 0.0
    failed: int = 0
    late_s: List[float] = field(default_factory=list)
    #: per-layer numbers the workload measures itself (shard telemetry)
    extras: Dict[str, float] = field(default_factory=dict)


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated quantile that keeps ``inf`` (a missed op)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low, high = math.floor(position), math.ceil(position)
    if ordered[high] == ordered[low] or math.isinf(ordered[high]):
        return ordered[high] if position > low else ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb() -> float:
    """Peak RSS of the largest process (this one or a reaped child)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def tenant_population(seed: int, capture_s: float):
    """``(clinic, tenant ids, tenant -> password)`` for the four tenants."""
    alphabet = MedSenConfig().alphabet
    levels = range(1, len(alphabet.levels_per_ul))
    space = [
        CytoIdentifier(alphabet=alphabet, levels=combo)
        for combo in itertools.product(levels, repeat=len(alphabet.bead_types))
    ]
    clinic = ClinicWorkload(
        n_tenants=len(TENANT_PASSWORDS), seed=seed, duration_s=capture_s
    )
    tenants = clinic.tenant_ids()
    return clinic, tenants, {t: space[p] for t, p in zip(tenants, TENANT_PASSWORDS)}


def _report_failure(workload: str, index: int, error: BaseException) -> None:
    print(f"[{workload}] op {index} raised:", file=sys.stderr)
    traceback.print_exception(type(error), error, error.__traceback__, file=sys.stderr)


def _closed_loop(name: str, op, keys, seconds: float, tracer: Optional[Tracer]) -> Phase:
    """Run ``op(i)`` -> digest for i = 0, 1, ... and stop at the op
    boundary nearest to ``seconds``."""
    out = Phase()
    start = time.perf_counter()
    index = 0
    while True:
        began = time.perf_counter()
        digest = None
        try:
            if tracer is None:
                digest = op(index)
            else:
                with tracer.op():
                    digest = op(index)
        except Exception as error:  # counted and reported; the loop goes on
            out.failed += 1
            _report_failure(name, index, error)
        finished = time.perf_counter()
        out.latencies_s.append(finished - began if digest else math.inf)
        out.records.append((index, keys(index), digest))
        index += 1
        if finished - start + (finished - began) / 2 >= seconds:
            break
    out.wall_s = finished - start
    return out


# ---------------------------------------------------------------------------
# session and long_capture
# ---------------------------------------------------------------------------
@dataclass
class SessionDeployment:
    config: MedSenConfig
    authenticator: ServerAuthenticator
    classifier: Any
    server: AnalysisServer
    store: RecordStore


class SessionWorkload:
    """Closed loop of in-process diagnostic sessions."""

    name = "session"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        self.capture_s, per_tenant, self.recompute_every = self.shape(smoke)
        self.clinic, self.tenants, self.identifiers = tenant_population(seed, self.capture_s)
        self.n_tenants = len(self.tenants)
        self.distinct = per_tenant * self.n_tenants
        self.bloods = [
            self.clinic.blood_sample(j % self.n_tenants, j // self.n_tenants)
            for j in range(self.distinct)
        ]
        self.spare: Optional[SessionDeployment] = None

    @staticmethod
    def shape(smoke: bool) -> Tuple[float, int, int]:
        """(capture seconds, distinct inputs per tenant, recompute every
        n-th distinct input in a separate deployment)."""
        return (20.0, 2, 3) if smoke else (60.0, 16, 16)

    @property
    def pins_key(self) -> str:
        return self.name + ("@smoke" if self.smoke else "")

    def input_of(self, index: int) -> Tuple[str, int]:
        j = index % self.distinct
        return self.tenants[j % self.n_tenants], j // self.n_tenants

    def setup(self) -> SessionDeployment:
        config = MedSenConfig()
        authenticator = ServerAuthenticator(config.alphabet)
        for tenant, identifier in self.identifiers.items():
            authenticator.register(tenant, identifier)
        reference = list(config.alphabet.bead_types) + [get_particle_type("blood_cell")]
        deployment = SessionDeployment(
            config=config,
            authenticator=authenticator,
            classifier=enroll_classifier(
                reference,
                circuit=config.circuit,
                rng=derive_request_rng(self.seed, "__fleet_enrollment__", 0),
            ),
            server=AnalysisServer(keep_history=False),
            store=RecordStore(),
        )
        for tenant_index, tenant in enumerate(self.tenants):
            self.session(
                deployment,
                tenant,
                WARMUP_SEQUENCE,
                self.clinic.blood_sample(tenant_index, WARMUP_SEQUENCE),
                min(WARMUP_CAPTURE_S, self.capture_s),
            )
        return deployment

    def retire(self, deployment: SessionDeployment) -> None:
        # The newest retired deployment recomputes sampled ops afterwards.
        self.spare = deployment

    def teardown(self, deployment: SessionDeployment) -> None:
        self.spare = None

    def session(self, deployment, tenant, sequence, blood, capture_s):
        rng = derive_request_rng(self.seed, tenant, sequence)
        session = MedSenSession(
            device=MedSenDevice(config=deployment.config, rng=rng),
            phone=Smartphone(),
            server=deployment.server,
            authenticator=deployment.authenticator,
            classifier=deployment.classifier,
            store=deployment.store,
            rng=rng,
        )
        return session.run_diagnostic(
            blood, self.identifiers[tenant], duration_s=capture_s, rng=rng
        )

    def digest(self, deployment: SessionDeployment, index: int) -> str:
        tenant, sequence = self.input_of(index)
        result = self.session(
            deployment, tenant, sequence, self.bloods[index % self.distinct], self.capture_s
        )
        outcome = SessionOutcome.from_result(result, tenant, sequence)
        return f"{outcome.digest()}/{report_digest(result.relay.report)}"

    def run(self, deployment, seconds: float, tracer: Optional[Tracer]) -> Phase:
        return _closed_loop(
            self.name, lambda i: self.digest(deployment, i), self.input_of, seconds, tracer
        )

    def check(self, deployment, phases: List[Phase], pins: Dict[str, Any]) -> List[str]:
        """Pinned digests (seeds in pins.json), equal digests for every
        repeat of an input, and sampled inputs recomputed elsewhere."""
        problems: List[str] = []
        pinned = pins.get(self.pins_key, {}).get(str(self.seed))
        first_seen: Dict[int, str] = {}
        for phase in phases:
            for index, (tenant, sequence), digest in phase.records:
                if digest is None:
                    continue
                where = f"{self.name} seed {self.seed} tenant {tenant} sequence {sequence}"
                j = index % self.distinct
                if pinned is not None and digest != pinned[j]:
                    problems.append(f"{where}: digest {digest} != pinned {pinned[j]}")
                elif first_seen.setdefault(j, digest) != digest:
                    problems.append(f"{where}: repeat gave {digest}, first {first_seen[j]}")
        reference = self.spare or self.setup()
        for j in sorted(first_seen)[:: self.recompute_every]:
            again = self.digest(reference, j)
            if again != first_seen[j]:
                tenant, sequence = self.input_of(j)
                problems.append(
                    f"{self.name} seed {self.seed} tenant {tenant} sequence {sequence}: "
                    f"digest {first_seen[j]} != {again} in a separate deployment"
                )
        return problems


class LongCaptureWorkload(SessionWorkload):
    """§VII-B long captures: the superlinear layers grow fastest."""

    name = "long_capture"

    @staticmethod
    def shape(smoke: bool) -> Tuple[float, int, int]:
        # Recompute only input 0: one 300 s session is seconds of checking.
        return (30.0, 1, 1 << 30) if smoke else (300.0, 3, 1 << 30)


# ---------------------------------------------------------------------------
# stream
# ---------------------------------------------------------------------------
class _Deadline(Exception):
    """Raised before a chunk once the measured time is over."""


class _TimedGateway:
    """Gateway proxy: times each chunk from before its seal to its ack."""

    def __init__(self, gateway: StreamGateway, phase: Phase, tracer, deadline: float):
        self.gateway = gateway
        self.phase = phase
        self.tracer = tracer
        self.deadline = deadline
        self.began = 0.0
        self.op = None
        self.session_id = None

    def before_chunk(self, streamer, seq) -> None:
        if seq > 0 and time.perf_counter() >= self.deadline:
            raise _Deadline()
        if self.tracer is not None:
            self.op = self.tracer.begin(OP, new_op=True)
        self.began = time.perf_counter()

    def open_session(self, *args):
        opened = self.gateway.open_session(*args)
        self.session_id = opened.session_id
        return opened

    def ingest_chunk(self, blob):
        try:
            return self.gateway.ingest_chunk(blob)
        finally:
            self.phase.latencies_s.append(time.perf_counter() - self.began)
            if self.op is not None:
                self.tracer.end(*self.op)
                self.op = None

    def resume(self, *args):
        return self.gateway.resume(*args)

    def close_session(self, session_id):
        return self.gateway.close_session(session_id)


class StreamWorkload:
    """Closed loop of sealed 2048-sample chunks into one gateway."""

    name = "stream"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.capture_s = 20.0 if smoke else 120.0
        self.clinic, self.tenants, self.identifiers = tenant_population(seed, self.capture_s)
        # min = max = chunk: per-chunk work stays constant under backoff.
        self.config = StreamSessionConfig(
            chunk_samples=CHUNK_SAMPLES,
            min_chunk_samples=CHUNK_SAMPLES,
            max_chunk_samples=CHUNK_SAMPLES,
        )
        # The encrypted captures are this workload's input, made once.
        captures = [self.capture(index) for index in range(len(self.tenants))]
        self.traces = [trace for trace, _ in captures]
        self.sampling_rate_hz = captures[0][1]

    def capture(self, tenant_index: int):
        """The tenant's encrypted capture, cut to whole chunks."""
        tenant = self.tenants[tenant_index]
        rng = derive_request_rng(self.seed, tenant, 0)
        blood = self.clinic.blood_sample(tenant_index, 0)
        pipette = self.identifiers[tenant].to_sample(
            2.0, final_volume_ul=blood.volume_ul + 2.0, rng=rng
        )
        trace = MedSenDevice(rng=rng).run_capture(
            mix(blood, pipette), self.capture_s, encrypt=True, rng=rng
        ).trace
        whole = trace.n_samples - trace.n_samples % CHUNK_SAMPLES
        return trace.voltages[:, :whole].copy(), trace.sampling_rate_hz

    def setup(self) -> StreamGateway:
        gateway = StreamGateway(SECRET, config=self.config)
        for index, tenant in enumerate(self.tenants):
            self.stream(self.traces[index][:, :CHUNK_SAMPLES], tenant, WARMUP_SEQUENCE, gateway)
        return gateway

    def retire(self, gateway) -> None:
        pass

    def teardown(self, gateway) -> None:
        pass

    def stream(self, trace, tenant, number, gateway, before_chunk=None):
        streamer = DeviceStreamer(
            trace,
            self.sampling_rate_hz,
            tenant,
            SECRET,
            config=self.config,
            rng=derive_request_rng(self.seed, tenant + "#stream", number),
        )
        return streamer.run(gateway, before_chunk=before_chunk)

    def run(self, gateway, seconds: float, tracer: Optional[Tracer]) -> Phase:
        """Streams in tenant order; the deadline may cut the last one."""
        out = Phase()
        start = time.perf_counter()
        timed = _TimedGateway(gateway, out, tracer, start + seconds)
        number = 0
        while time.perf_counter() < timed.deadline:
            index = number % len(self.tenants)
            n_before = len(out.latencies_s)
            try:
                digest = self.stream(
                    self.traces[index],
                    self.tenants[index],
                    number,
                    timed,
                    before_chunk=timed.before_chunk,
                ).digest
            except _Deadline:
                # The analysed prefix is still checkable: close it.
                digest = gateway.close_session(timed.session_id).digest
            except Exception as error:  # counted and reported; the loop goes on
                out.failed += len(out.latencies_s) - n_before
                _report_failure(self.name, number, error)
                digest = None
            out.records.append((number, (index, len(out.latencies_s) - n_before), digest))
            number += 1
        out.wall_s = time.perf_counter() - start
        return out

    def check(self, gateway, phases: List[Phase], pins: Dict[str, Any]) -> List[str]:
        """Each stream's digest must equal one-shot detection on the
        same samples (the streamed prefix, when the deadline cut it)."""
        problems: List[str] = []
        expected: Dict[Tuple[int, int], str] = {}
        detector = PeakDetector()
        for phase in phases:
            for number, key, digest in phase.records:
                index, n_chunks = key
                if digest is None:
                    continue
                if key not in expected:
                    prefix = self.traces[index][:, : n_chunks * CHUNK_SAMPLES]
                    expected[key] = report_digest(detector.detect(prefix, self.sampling_rate_hz))
                if digest != expected[key]:
                    problems.append(
                        f"stream seed {self.seed} tenant {self.tenants[index]} "
                        f"stream {number}: streamed digest {digest} != one-shot "
                        f"{expected[key]} over {n_chunks} chunks"
                    )
        return problems


# ---------------------------------------------------------------------------
# fleet
# ---------------------------------------------------------------------------
@dataclass
class FleetDeployment:
    cluster: ReplicatedCluster
    door: AsyncFrontDoor
    journal_dir: Path
    #: next tenant sequence the front door will assign, per tenant
    sequences: Dict[str, int]


class FleetWorkload:
    """Open-loop Poisson arrivals through the replicated fleet tier."""

    name = "fleet"
    #: 10 s captures: at 6 s ~2% of sessions end in a typed
    #: AuthenticationError (too few beads to recover the password).
    capture_s = 10.0
    #: About a quarter of the tier's capacity at 10 s captures on a
    #: 2-core host (~9 requests/s), so queueing shows without saturating.
    rate_per_s = 2.5
    check_every = 10

    def __init__(self, seed: int, smoke: bool = False) -> None:
        # Smoke runs differ only in --seconds: one request is already small.
        self.seed = seed
        self.clinic, self.tenants, self.identifiers = tenant_population(seed, self.capture_s)
        self.fleet_config = FleetConfig(seed=seed, n_workers=1, freshness_secret=SECRET)
        self._setups = 0

    def setup(self) -> FleetDeployment:
        self._setups += 1
        journal_dir = WORK_DIR / f"{os.getpid()}-{self._setups}"
        cluster = ReplicatedCluster(
            FleetTierConfig(n_shards=1, shard=self.fleet_config, journal_dir=str(journal_dir))
        ).start()
        for tenant in self.tenants:
            cluster.register_tenant(tenant, self.identifiers[tenant])
        deployment = FleetDeployment(
            cluster=cluster,
            door=AsyncFrontDoor(cluster),
            journal_dir=journal_dir,
            sequences={tenant: 0 for tenant in self.tenants},
        )

        async def warm_up():
            for index, tenant in enumerate(self.tenants):
                await self.submit(deployment, tenant, self.clinic.blood_sample(index, 0))

        asyncio.run(warm_up())
        return deployment

    def retire(self, deployment: FleetDeployment) -> None:
        self.teardown(deployment)

    def teardown(self, deployment: FleetDeployment) -> None:
        deployment.cluster.shutdown()
        shutil.rmtree(deployment.journal_dir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    async def submit(self, deployment: FleetDeployment, tenant: str, blood):
        sequence = deployment.sequences[tenant]
        deployment.sequences[tenant] = sequence + 1
        try:
            outcome = await deployment.door.submit(
                tenant, blood, self.identifiers[tenant], duration_s=self.capture_s
            )
        except FleetRequestFailedError as error:
            if error.error_type != "AuthenticationError":
                raise
            return sequence, REFUSED
        if outcome.tenant_sequence != sequence:
            raise AssertionError(
                f"front door assigned sequence {outcome.tenant_sequence}, expected {sequence}"
            )
        return sequence, outcome.digest()

    def schedule(self, deployment: FleetDeployment, seconds: float):
        """(due s, tenant, blood) for ``rate * seconds`` Poisson arrivals.

        Given their count, the arrival times of a Poisson process are
        uniform order statistics; fixing the count keeps the offered
        load the same from seed to seed.  Tenants take turns.
        """
        rng = derive_request_rng(self.seed, "#arrivals", 0)
        count = max(1, round(self.rate_per_s * seconds))
        sequences = dict(deployment.sequences)
        arrivals = []
        for k, due in enumerate(sorted(rng.uniform(0.0, seconds, size=count))):
            index = k % len(self.tenants)
            tenant = self.tenants[index]
            arrivals.append((float(due), tenant, self.clinic.blood_sample(index, sequences[tenant])))
            sequences[tenant] += 1
        return arrivals

    def shard_sketches(self, deployment: FleetDeployment) -> Dict[str, Any]:
        primary = deployment.cluster.primary_id("part-00")
        for telemetry in deployment.cluster.telemetry():
            if telemetry.shard_id == primary:
                return telemetry.quantiles.get("histograms", {})
        return {}

    def run(self, deployment, seconds: float, tracer: Optional[Tracer]) -> Phase:
        out = Phase()
        arrivals = self.schedule(deployment, seconds)
        before = self.shard_sketches(deployment)
        door = deployment.door
        counts = (door.shed, door.retried, door.fenced)
        shipped = len(deployment.cluster.replog_lines("part-00"))

        async def one(index, at, tenant, blood):
            op = tracer.begin(OP, new_op=True) if tracer is not None else None
            digest, sequence = None, None
            try:
                sequence, digest = await self.submit(deployment, tenant, blood)
            except Exception as error:  # counted and reported; the loop goes on
                out.failed += 1
                _report_failure(self.name, index, error)
            finally:
                if op is not None:
                    tracer.end(*op)
            finished = time.perf_counter()
            # A refused or failed request misses any latency limit.
            missed = digest is None or digest == REFUSED
            out.latencies_s.append(math.inf if missed else finished - at)
            out.records.append((index, (tenant, sequence), digest))
            return finished

        async def drive():
            tasks = []
            origin = time.perf_counter()
            for index, (due, tenant, blood) in enumerate(arrivals):
                at = origin + due
                delay = at - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                out.late_s.append(max(0.0, time.perf_counter() - at))
                tasks.append(asyncio.ensure_future(one(index, at, tenant, blood)))
            finished = await asyncio.gather(*tasks)
            return origin, max(finished, default=time.perf_counter())

        origin, last = asyncio.run(drive())
        out.wall_s = last - origin
        after = self.shard_sketches(deployment)
        out.extras = {
            "fleet.shard.queue_wait.p50_ms": 1e3 * _sketch_delta(before, after, "serve.queue_wait_s", 50),
            "fleet.shard.queue_wait.p90_ms": 1e3 * _sketch_delta(before, after, "serve.queue_wait_s", 90),
            "fleet.shard.session.p50_ms": 1e3 * _sketch_delta(before, after, "serve.e2e_s", 50),
            "fleet.shed": door.shed - counts[0],
            "fleet.retried": door.retried - counts[1],
            "fleet.fenced": door.fenced - counts[2],
            "fleet.auth_refused": sum(1 for *_, digest in out.records if digest == REFUSED),
            "fleet.entries_shipped": len(deployment.cluster.replog_lines("part-00")) - shipped,
        }
        return out

    def check(self, deployment, phases: List[Phase], pins: Dict[str, Any]) -> List[str]:
        """Recompute every 10th request (and every refusal) in-process."""
        sample: Dict[Tuple[str, int], str] = {}
        for phase in phases:
            for index, (tenant, sequence), digest in phase.records:
                if digest is not None and (index % self.check_every == 0 or digest == REFUSED):
                    sample[(tenant, sequence)] = digest
        scheduler = FleetScheduler(self.fleet_config)
        for tenant in self.tenants:
            scheduler.register_tenant(tenant, self.identifiers[tenant])
        problems = []
        with scheduler:
            for tenant, sequence in sorted(sample):
                scheduler.resume_tenant_sequence(tenant, sequence)
                future = scheduler.submit(
                    tenant,
                    self.clinic.blood_sample(self.tenants.index(tenant), sequence),
                    self.identifiers[tenant],
                    duration_s=self.capture_s,
                )
                error = future.exception(timeout=120)
                if error is None:
                    again = SessionOutcome.from_result(future.result(), tenant, sequence).digest()
                else:
                    again = f"refused:{type(error).__name__}"
                if again != sample[(tenant, sequence)]:
                    problems.append(
                        f"fleet seed {self.seed} tenant {tenant} sequence {sequence}: "
                        f"fleet gave {sample[(tenant, sequence)]}, in-process {again}"
                    )
        return problems


def _sketch_delta(before, after, name: str, q: float) -> float:
    """Quantile of the observations a sketch gained between snapshots."""
    if name not in after:
        return 0.0
    state = dict(after[name])
    if name in before:
        old = before[name]
        state["buckets"] = {
            index: count - old["buckets"].get(index, 0)
            for index, count in after[name]["buckets"].items()
        }
        for key in ("zero_count", "count", "sum"):
            state[key] = after[name][key] - old[key]
    if state["count"] <= 0:
        return 0.0
    return ExponentialHistogram.from_state(state).percentile(q)


WORKLOADS = {
    workload.name: workload
    for workload in (SessionWorkload, LongCaptureWorkload, StreamWorkload, FleetWorkload)
}
