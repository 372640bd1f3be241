"""Unified, seeded fault injection across every pipeline layer.

One :class:`FaultPlan` declares the fault rates for all layers the
chaos runner exercises — electrode faults on the sensor, sample
dropouts/saturation in the acquired trace, controller/server key-epoch
desync, record/journal corruption, worker crashes and poison requests
in the serving fleet (network drop/timeout/duplicate rates ride on the
existing :class:`~repro.cloud.network.UnreliableNetworkModel` knobs).

A :class:`FaultInjector` turns the plan into *deterministic* per-site
decisions: every decision draws from a fresh generator derived from
``(chaos seed, site, label, index)`` alone — never from shared stream
state — so the full fault schedule is a pure function of the seed and
identical regardless of worker count or thread interleaving (the same
construction as :func:`~repro.serving.request.derive_request_rng`).
Every injected fault is recorded in the injection log and emitted as a
``fault.injected`` audit event.
"""

import hashlib
import threading
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from repro._util.errors import ConfigurationError
from repro._util.validation import check_in_range
from repro.hardware.acquisition import AcquiredTrace
from repro.hardware.electrodes import ElectrodeArray
from repro.hardware.faults import FaultModel
from repro.obs import FAULT_INJECTED, NULL_OBSERVER
from repro.serving.scheduler import WorkerCrash

#: Injection sites (the ``site`` field of log entries and events).
SITE_SENSOR = "sensor"
SITE_DSP = "dsp"
SITE_CRYPTO = "crypto"
SITE_STORAGE = "storage"
SITE_NETWORK = "network"
SITE_SCHEDULER = "scheduler"
SITE_REPLICATION = "replication"


@dataclass(frozen=True)
class FaultPlan:
    """Per-layer fault rates for one chaos campaign.

    All rates are probabilities in ``[0, 1]`` evaluated per opportunity
    (per trial, per request, per journal line).  The network-layer
    rates are consumed by the fleet's unreliable-link model rather than
    the injector itself, but live here so one object describes the
    whole campaign.
    """

    # Sensor layer: electrode faults on a trial's device.
    sensor_fault_rate: float = 0.0
    max_dead_electrodes: int = 1
    weak_electrode_rate: float = 0.5
    # DSP layer: corruption of the acquired trace.
    dropout_rate: float = 0.0
    saturation_rate: float = 0.0
    corruption_span_fraction: float = 0.08
    # Crypto layer: controller/server key-epoch desync.
    desync_rate: float = 0.0
    # Storage layer: bit-flips in the record journal.
    storage_corruption_rate: float = 0.0
    # Serving layer: worker crashes and poison requests.
    worker_crash_rate: float = 0.0
    poison_tenants: Tuple[str, ...] = ()
    # Network layer: forwarded to UnreliableNetworkModel by the runner.
    drop_probability: float = 0.0
    timeout_probability: float = 0.0
    duplicate_probability: float = 0.0
    # Streaming lane: chunk loss, mid-stream disconnects, congestion.
    chunk_drop_rate: float = 0.0
    disconnect_rate: float = 0.0
    congestion_rate: float = 0.0
    # Replication layer: partitions, lease expiry, primary crashes.
    partition_rate: float = 0.0
    lease_expiry_rate: float = 0.0
    primary_crash_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "sensor_fault_rate",
            "weak_electrode_rate",
            "dropout_rate",
            "saturation_rate",
            "desync_rate",
            "storage_corruption_rate",
            "worker_crash_rate",
            "drop_probability",
            "timeout_probability",
            "duplicate_probability",
            "chunk_drop_rate",
            "disconnect_rate",
            "congestion_rate",
            "partition_rate",
            "lease_expiry_rate",
            "primary_crash_rate",
        ):
            check_in_range(name, getattr(self, name), 0.0, 1.0)
        check_in_range(
            "corruption_span_fraction", self.corruption_span_fraction, 0.0, 0.5
        )
        if self.max_dead_electrodes < 0:
            raise ConfigurationError("max_dead_electrodes must be >= 0")
        object.__setattr__(self, "poison_tenants", tuple(self.poison_tenants))

    @property
    def any_faults(self) -> bool:
        """Whether the plan injects anything at all."""
        return bool(
            self.sensor_fault_rate
            or self.dropout_rate
            or self.saturation_rate
            or self.desync_rate
            or self.storage_corruption_rate
            or self.worker_crash_rate
            or self.poison_tenants
            or self.drop_probability
            or self.timeout_probability
            or self.duplicate_probability
            or self.chunk_drop_rate
            or self.disconnect_rate
            or self.congestion_rate
            or self.partition_rate
            or self.lease_expiry_rate
            or self.primary_crash_rate
        )

    @property
    def any_stream_faults(self) -> bool:
        """Whether the plan exercises the streaming lane at all."""
        return bool(
            self.chunk_drop_rate or self.disconnect_rate or self.congestion_rate
        )

    @property
    def any_replication_faults(self) -> bool:
        """Whether the plan exercises the replicated-partition layer."""
        return bool(
            self.partition_rate
            or self.lease_expiry_rate
            or self.primary_crash_rate
        )


@dataclass(frozen=True)
class InjectedFault:
    """One realised fault (for the deterministic injection log)."""

    site: str
    label: str
    index: int
    detail: str


def _label_hash(text: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "big"
    )


class FaultInjector:
    """Seeded, thread-safe fault decisions for every layer.

    Parameters
    ----------
    plan:
        The campaign's fault rates.
    seed:
        Chaos seed; with (site, label, index) it fully determines every
        decision.
    observer:
        Observability sink; each realised fault emits ``fault.injected``
        and bumps ``chaos.faults_injected``.
    """

    def __init__(self, plan: FaultPlan, seed: int = 0, observer=NULL_OBSERVER) -> None:
        self.plan = plan
        self.seed = int(seed)
        self.observer = observer
        self._log: List[InjectedFault] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _rng(self, site: str, label: str, index: int) -> np.random.Generator:
        """Fresh generator for one decision — order-independent."""
        return np.random.default_rng(
            np.random.SeedSequence(
                entropy=self.seed,
                spawn_key=(_label_hash(site), _label_hash(label), int(index)),
            )
        )

    def _record(self, site: str, label: str, index: int, detail: str) -> None:
        fault = InjectedFault(site=site, label=label, index=index, detail=detail)
        with self._lock:
            self._log.append(fault)
        self.observer.incr("chaos.faults_injected")
        self.observer.event(
            FAULT_INJECTED, site=site, label=label, index=index, detail=detail
        )

    @property
    def injections(self) -> Tuple[InjectedFault, ...]:
        """All realised faults, sorted (deterministic across threads)."""
        with self._lock:
            log = list(self._log)
        return tuple(sorted(log, key=lambda f: (f.site, f.label, f.index, f.detail)))

    def record_external(self, site: str, label: str, index: int, detail: str) -> None:
        """Log a fault realised by another component (e.g. the network
        link's duplicate deliveries) so the injection log covers every
        layer the campaign exercised."""
        self._record(site, label, index, detail)

    def injected_sites(self) -> Tuple[str, ...]:
        """Distinct sites that saw at least one fault, sorted."""
        return tuple(sorted({fault.site for fault in self.injections}))

    # ------------------------------------------------------------------
    # Sensor layer
    # ------------------------------------------------------------------
    def sensor_fault_model(
        self, label: str, index: int, array: Optional[ElectrodeArray] = None
    ) -> Optional[FaultModel]:
        """Electrode faults for one trial's device, or ``None``.

        Draws dead (and possibly weak) electrodes from the non-lead
        outputs — killing the lead electrode would break the plaintext
        identifier path, which is a different (FAILED-grade) scenario
        than the degradable dead-electrode one this models.
        """
        if self.plan.sensor_fault_rate <= 0:
            return None
        rng = self._rng(SITE_SENSOR, label, index)
        if rng.random() >= self.plan.sensor_fault_rate:
            return None
        n_outputs = array.n_outputs if array is not None else 9
        lead = array.lead_electrode if array is not None else n_outputs
        candidates = [e for e in range(1, n_outputs + 1) if e != lead]
        n_dead = int(rng.integers(1, self.plan.max_dead_electrodes + 1))
        n_dead = min(n_dead, max(len(candidates) - 1, 1))
        chosen = rng.choice(len(candidates), size=n_dead, replace=False)
        dead = frozenset(candidates[int(i)] for i in np.atleast_1d(chosen))
        weak: frozenset = frozenset()
        if rng.random() < self.plan.weak_electrode_rate:
            remaining = [e for e in candidates if e not in dead]
            if remaining:
                weak = frozenset({remaining[int(rng.integers(len(remaining)))]})
        model = FaultModel(dead_electrodes=dead, weak_electrodes=weak)
        self._record(
            SITE_SENSOR,
            label,
            index,
            f"dead={sorted(dead)} weak={sorted(weak)}",
        )
        return model

    # ------------------------------------------------------------------
    # DSP layer
    # ------------------------------------------------------------------
    def corrupt_trace(
        self, trace: AcquiredTrace, label: str, index: int
    ) -> Tuple[AcquiredTrace, Tuple[str, ...]]:
        """Maybe corrupt an acquired trace (dropouts / saturation).

        Returns ``(trace, applied)`` where ``applied`` names the
        corruptions injected (empty = untouched).  Dropouts zero random
        sample spans (a flaky ADC/DMA); saturation clamps the trace's
        deepest excursions flat (an overdriven front-end).  Both leave
        flat-line runs that :func:`trace_quality` detects, so the
        pipeline can *know* its input is damaged.
        """
        applied: List[str] = []
        rng = self._rng(SITE_DSP, label, index)
        voltages = trace.voltages
        span = max(int(voltages.shape[1] * self.plan.corruption_span_fraction), 8)
        if self.plan.dropout_rate > 0 and rng.random() < self.plan.dropout_rate:
            voltages = np.array(voltages, copy=True)
            start = int(rng.integers(0, max(voltages.shape[1] - span, 1)))
            voltages[:, start : start + span] = 0.0
            applied.append("dropout")
        if self.plan.saturation_rate > 0 and rng.random() < self.plan.saturation_rate:
            voltages = np.array(voltages, copy=True) if not applied else voltages
            # A transient overload pins the span flat at each channel's
            # rail (98th-percentile excursion).
            rail = np.percentile(voltages, 98.0, axis=1, keepdims=True)
            start = int(rng.integers(0, max(voltages.shape[1] - span, 1)))
            voltages[:, start : start + span] = rail
            applied.append("saturation")
        if not applied:
            return trace, ()
        self._record(SITE_DSP, label, index, "+".join(applied))
        return replace(trace, voltages=voltages), tuple(applied)

    # ------------------------------------------------------------------
    # Crypto layer
    # ------------------------------------------------------------------
    def should_desync(self, label: str, index: int) -> bool:
        """Whether to desync the controller's key epoch this trial."""
        if self.plan.desync_rate <= 0:
            return False
        hit = self._rng(SITE_CRYPTO, label, index).random() < self.plan.desync_rate
        if hit:
            self._record(SITE_CRYPTO, label, index, "key-epoch desync")
        return hit

    # ------------------------------------------------------------------
    # Storage layer
    # ------------------------------------------------------------------
    def corrupt_journal_file(self, path: str, label: str = "journal") -> Optional[int]:
        """Flip one byte in a deterministic journal line (crash damage).

        Returns the 1-based line number corrupted, or ``None`` when the
        plan has no storage corruption or the journal is empty.
        """
        if self.plan.storage_corruption_rate <= 0:
            return None
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        if not lines:
            return None
        rng = self._rng(SITE_STORAGE, label, 0)
        if rng.random() >= self.plan.storage_corruption_rate:
            return None
        target = int(rng.integers(len(lines)))
        line = lines[target]
        # Flip one digit inside the payload so the JSON still parses
        # but the checksum no longer matches.
        flipped = None
        for position in range(len(line)):
            ch = line[position]
            if ch.isdigit():
                flipped = line[:position] + str((int(ch) + 1) % 10) + line[position + 1 :]
                break
        if flipped is None:
            return None
        lines[target] = flipped
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        self._record(SITE_STORAGE, label, target, f"bit-flip on line {target + 1}")
        return target + 1

    # ------------------------------------------------------------------
    # Serving layer (FleetScheduler fault_injector protocol)
    # ------------------------------------------------------------------
    def on_request_start(self, tenant_id: str, sequence: int, attempt: int = 0) -> None:
        """Scheduler hook: raise :class:`WorkerCrash` when scheduled.

        Poison tenants crash the worker on *every* attempt (so they hit
        the dead-letter quarantine); transient crashes fire only on the
        first attempt, modelling a fault the retry outlives.
        """
        if tenant_id in self.plan.poison_tenants:
            self._record(
                SITE_SCHEDULER, tenant_id, sequence, f"poison crash (attempt {attempt})"
            )
            raise WorkerCrash(
                f"poison request {tenant_id}:{sequence} (attempt {attempt})"
            )
        if self.plan.worker_crash_rate <= 0 or attempt > 0:
            return
        rng = self._rng(SITE_SCHEDULER, tenant_id, sequence)
        if rng.random() < self.plan.worker_crash_rate:
            self._record(SITE_SCHEDULER, tenant_id, sequence, "transient worker crash")
            raise WorkerCrash(
                f"injected crash while serving {tenant_id}:{sequence}"
            )

    # ------------------------------------------------------------------
    # Replication layer (replicated partitions / lease-fenced failover)
    # ------------------------------------------------------------------
    def should_partition(self, label: str, index: int) -> bool:
        """Whether to partition this replica pair's primary (SIGSTOP-
        style: the process stays alive but becomes unreachable)."""
        if self.plan.partition_rate <= 0:
            return False
        hit = (
            self._rng(SITE_REPLICATION, f"{label}#partition", index).random()
            < self.plan.partition_rate
        )
        if hit:
            self._record(SITE_REPLICATION, label, index, "primary partitioned")
        return hit

    def should_expire_lease(self, label: str, index: int) -> bool:
        """Whether to let this partition's lease lapse without renewal."""
        if self.plan.lease_expiry_rate <= 0:
            return False
        hit = (
            self._rng(SITE_REPLICATION, f"{label}#lease", index).random()
            < self.plan.lease_expiry_rate
        )
        if hit:
            self._record(SITE_REPLICATION, label, index, "lease expired")
        return hit

    def should_crash_primary(self, label: str, index: int) -> bool:
        """Whether to hard-kill this partition's primary (SIGKILL)."""
        if self.plan.primary_crash_rate <= 0:
            return False
        hit = (
            self._rng(SITE_REPLICATION, f"{label}#crash", index).random()
            < self.plan.primary_crash_rate
        )
        if hit:
            self._record(SITE_REPLICATION, label, index, "primary crashed")
        return hit

    # ------------------------------------------------------------------
    # Streaming lane (DeviceStreamer injector protocol; network site)
    # ------------------------------------------------------------------
    def should_drop_chunk(self, label: str, seq: int, attempt: int) -> bool:
        """Whether a chunk's *first* transmission vanishes on the link.

        Retransmits always land, so one drop costs exactly one retry —
        the streaming analogue of the transient worker crash.
        """
        if self.plan.chunk_drop_rate <= 0 or attempt > 0:
            return False
        hit = (
            self._rng(SITE_NETWORK, f"{label}#drop", seq).random()
            < self.plan.chunk_drop_rate
        )
        if hit:
            self._record(SITE_NETWORK, label, seq, f"stream chunk {seq} dropped")
        return hit

    def disconnect_mode(self, label: str, seq: int) -> Optional[str]:
        """Disconnect before this chunk: ``None``, ``"chunk-lost"``, or
        ``"ack-lost"`` (the gateway analysed it but the ack died)."""
        if self.plan.disconnect_rate <= 0:
            return None
        rng = self._rng(SITE_NETWORK, f"{label}#disconnect", seq)
        if rng.random() >= self.plan.disconnect_rate:
            return None
        mode = "ack-lost" if rng.random() < 0.5 else "chunk-lost"
        self._record(
            SITE_NETWORK, label, seq, f"stream disconnect ({mode}) at chunk {seq}"
        )
        return mode

    def congestion_signal(self, label: str, seq: int) -> bool:
        """Whether the link backpressures this chunk's ack."""
        if self.plan.congestion_rate <= 0:
            return False
        hit = (
            self._rng(SITE_NETWORK, f"{label}#congestion", seq).random()
            < self.plan.congestion_rate
        )
        if hit:
            self._record(SITE_NETWORK, label, seq, f"stream congestion at chunk {seq}")
        return hit


# ---------------------------------------------------------------------------
# Trace health scan (the DSP layer's own damage detector)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TraceQuality:
    """Result of scanning a trace for acquisition damage.

    ``flatline_fraction`` is the fraction of consecutive sample pairs
    with *exactly* equal values: continuous front-end noise makes exact
    repeats vanishingly rare, so runs of them indicate dropouts (stuck
    at zero) or saturation (clamped at a rail).
    """

    flatline_fraction: float
    threshold: float

    @property
    def ok(self) -> bool:
        return self.flatline_fraction <= self.threshold


def trace_quality(voltages: np.ndarray, threshold: float = 0.01) -> TraceQuality:
    """Scan a ``(n_channels, n_samples)`` trace for flat-line damage."""
    voltages = np.asarray(voltages, dtype=float)
    if voltages.ndim == 1:
        voltages = voltages[np.newaxis, :]
    if voltages.shape[1] < 2:
        return TraceQuality(flatline_fraction=0.0, threshold=threshold)
    repeats = np.diff(voltages, axis=1) == 0.0
    return TraceQuality(
        flatline_fraction=float(np.mean(repeats)), threshold=threshold
    )
