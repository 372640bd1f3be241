"""Hardware fault models and the device self-test.

The paper's own prototype shipped with a fabrication flaw ("the ninth
electrode ... only generates one peak ... a minor fabrication flaw of
the sensor", §VII-A), which is exactly why a deployable device needs
fault models and a self-test:

* :class:`FaultySensor` — wraps the event stream with injectable
  faults: dead output electrodes (no dips), weak electrodes
  (attenuated dips), a stuck multiplexer input (an electrode that is
  always measured regardless of the key).
* :func:`self_test` — the §VI-style calibration procedure: run a known
  bead stream with each electrode activated alone and compare the dip
  counts/amplitudes against expectation, reporting which electrodes
  are dead, weak, or stuck.

A stuck-on electrode is also a *security* fault: it adds key-independent
peaks, which both corrupts decryption arithmetic and leaks a constant
component an attacker could subtract — the self-test exists so the
device refuses to operate in that state.
"""

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from repro._util.errors import ConfigurationError, MedSenError
from repro._util.rng import RngLike, ensure_rng
from repro._util.validation import check_in_range
from repro.dsp.peakdetect import PeakDetector
from repro.hardware.acquisition import AcquisitionFrontEnd
from repro.hardware.electrodes import ElectrodeArray
from repro.microfluidics.channel import MicrofluidicChannel
from repro.microfluidics.transport import ParticleArrival
from repro.particles.library import BEAD_7P8
from repro.particles.sample import Particle
from repro.physics.electrical import ElectrodePairCircuit
from repro.physics.lockin import LockInAmplifier
from repro.physics.peaks import PulseTrain, gap_layout


class UnsafeHardwareError(MedSenError):
    """The self-test found faults that make encrypted operation unsafe.

    Raised by :meth:`SelfTestReport.require_operational` for a stuck-on
    array (key-independent dips corrupt decryption *and* leak a
    constant signal component) or an array with no live electrode left.
    """


@dataclass(frozen=True)
class FaultModel:
    """Injectable electrode faults.

    Parameters
    ----------
    dead_electrodes:
        Outputs that produce no signal at all (broken trace/bond).
    weak_electrodes:
        Outputs whose dips are attenuated by ``weak_attenuation``
        (degraded metallisation).
    stuck_on_electrodes:
        Outputs hard-wired to the measurement bus: they fire for every
        particle regardless of the key.
    """

    dead_electrodes: FrozenSet[int] = frozenset()
    weak_electrodes: FrozenSet[int] = frozenset()
    stuck_on_electrodes: FrozenSet[int] = frozenset()
    weak_attenuation: float = 0.3

    def __post_init__(self) -> None:
        object.__setattr__(self, "dead_electrodes", frozenset(self.dead_electrodes))
        object.__setattr__(self, "weak_electrodes", frozenset(self.weak_electrodes))
        object.__setattr__(
            self, "stuck_on_electrodes", frozenset(self.stuck_on_electrodes)
        )
        check_in_range("weak_attenuation", self.weak_attenuation, 0.0, 1.0)
        overlap = self.dead_electrodes & self.stuck_on_electrodes
        if overlap:
            raise ConfigurationError(
                f"electrodes {sorted(overlap)} cannot be both dead and stuck on"
            )

    @property
    def is_healthy(self) -> bool:
        """True when no fault is configured."""
        return not (
            self.dead_electrodes or self.weak_electrodes or self.stuck_on_electrodes
        )

    # ------------------------------------------------------------------
    def apply_to_events(
        self,
        events: PulseTrain,
        array: ElectrodeArray,
        arrivals: Sequence[ParticleArrival] = (),
        circuit: ElectrodePairCircuit = None,
        carriers: Sequence[float] = (),
    ) -> PulseTrain:
        """Transform a keyed pulse train through the fault model.

        Dead electrodes drop their events; weak electrodes attenuate
        them; stuck-on electrodes add unit-gain events for *every*
        arrival that the key did not already route to them (the extra
        dips a hard-wired input contributes).  The result is re-sorted
        (stably) by centre, the added events after the kept ones.
        """
        out = events[~np.isin(events.electrode_index, list(self.dead_electrodes))]
        weak = np.isin(out.electrode_index, list(self.weak_electrodes))[:, None]
        amplitudes = np.where(weak, out.amplitudes * self.weak_attenuation, out.amplitudes)
        out = PulseTrain(
            out.center_s, out.width_s, amplitudes, out.electrode_index, out.particle_index
        )
        if self.stuck_on_electrodes and arrivals:
            covered = set(zip(events.particle_index.tolist(), events.electrode_index.tolist()))
            stuck = sorted(self.stuck_on_electrodes)
            layouts = [
                gap_layout(array, [(e, 1.0) for e in stuck if (i, e) not in covered])
                for i in range(len(arrivals))
            ]
            added = PulseTrain.from_arrivals(
                arrivals, layouts, array, list(carriers) or [500e3],
                circuit or ElectrodePairCircuit(),
            )
            if len(added):
                out = PulseTrain.concatenate([out, added])
        return out[np.argsort(out.center_s, kind="stable")]


@dataclass(frozen=True)
class ElectrodeHealth:
    """Self-test verdict for one output electrode."""

    electrode: int
    expected_dips: int
    observed_dips: int
    mean_depth: float
    verdict: str  # "ok" | "dead" | "weak" | "stuck"


@dataclass(frozen=True)
class SelfTestReport:
    """Result of a full array self-test."""

    electrodes: Tuple[ElectrodeHealth, ...]

    @property
    def healthy(self) -> bool:
        """True when every electrode reports ok."""
        return all(entry.verdict == "ok" for entry in self.electrodes)

    def faulty_electrodes(self) -> Dict[str, List[int]]:
        """Faults grouped by verdict."""
        out: Dict[str, List[int]] = {}
        for entry in self.electrodes:
            if entry.verdict != "ok":
                out.setdefault(entry.verdict, []).append(entry.electrode)
        return out

    def electrodes_with_verdict(self, verdict: str) -> List[int]:
        """Electrode numbers whose verdict matches, ascending."""
        return sorted(
            entry.electrode for entry in self.electrodes if entry.verdict == verdict
        )

    @property
    def operational(self) -> bool:
        """Whether *encrypted* operation is still safe.

        Degraded-mode analysis can mask dead electrodes and tolerate
        weak ones (:mod:`repro.resilience.degraded`), but a stuck
        verdict anywhere means some electrode fires regardless of the
        key — the cipher's security argument is void and the arithmetic
        uncorrectable — and an array with *no* live electrode has
        nothing left to sense with.  Both must refuse to operate.
        """
        if any(entry.verdict == "stuck" for entry in self.electrodes):
            return False
        return any(entry.verdict in ("ok", "weak") for entry in self.electrodes)

    def require_operational(self) -> None:
        """Raise :class:`UnsafeHardwareError` unless encrypted operation
        is safe (possibly degraded)."""
        if self.operational:
            return
        stuck = self.electrodes_with_verdict("stuck")
        if stuck:
            raise UnsafeHardwareError(
                f"stuck-on contamination detected (electrodes {stuck}): "
                "key-independent dips corrupt decryption; refusing to operate"
            )
        raise UnsafeHardwareError(
            "no live electrodes: every output is dead; refusing to operate"
        )


def self_test(
    array: ElectrodeArray,
    fault_model: FaultModel,
    n_test_beads: int = 5,
    carriers: Tuple[float, ...] = (500e3,),
    rng: RngLike = None,
) -> SelfTestReport:
    """Calibration self-test: activate each electrode alone.

    For each output electrode, a known bead stream passes with only
    that electrode selected; the detected dip count and depth expose
    dead (no dips), weak (shallow dips) and stuck (dips appear while a
    *different* electrode is selected) outputs.
    """
    if n_test_beads < 1:
        raise ConfigurationError("n_test_beads must be >= 1")
    generator = ensure_rng(rng)
    channel = MicrofluidicChannel()
    velocity = channel.velocity_for_flow_rate(0.08)
    circuit = ElectrodePairCircuit()
    lockin = LockInAmplifier(carrier_frequencies_hz=carriers)
    front_end = AcquisitionFrontEnd(lockin=lockin)
    detector = PeakDetector()
    reference_depth = float(
        circuit.measured_drop(carriers[0], BEAD_7P8.relative_drop(carriers[0]))
    )

    # Stuck detection pass: select ONLY the lead electrode and look for
    # dips attributable to others.  (Done per-electrode below instead:
    # when testing electrode e, stuck electrodes also fire.)
    results: List[ElectrodeHealth] = []
    spacing_s = 1.0
    duration_s = n_test_beads * spacing_s + 1.0
    arrivals = [
        ParticleArrival(0.5 + i * spacing_s, Particle(BEAD_7P8, BEAD_7P8.diameter_m), velocity)
        for i in range(n_test_beads)
    ]

    for electrode in array.electrode_numbers:
        expected_per_bead = array.dips_per_particle(electrode)
        events = PulseTrain.from_arrivals(
            arrivals, [gap_layout(array, [(electrode, 1.0)])] * n_test_beads,
            array, carriers, circuit,
        )
        faulted = fault_model.apply_to_events(
            events, array, arrivals=arrivals, circuit=circuit, carriers=carriers
        )
        trace = front_end.acquire(faulted, duration_s, rng=generator)
        report = detector.detect(trace.voltages, trace.sampling_rate_hz)

        expected_total = expected_per_bead * n_test_beads
        observed = report.count
        mean_depth = float(np.mean(report.as_columns().depth)) if observed else 0.0

        stuck_extras = sum(
            array.dips_per_particle(e)
            for e in fault_model.stuck_on_electrodes
            if e != electrode
        ) * n_test_beads
        if observed == 0:
            verdict = "dead"
        elif observed > expected_total and stuck_extras > 0:
            verdict = "stuck"
        elif mean_depth < 0.6 * reference_depth:
            verdict = "weak"
        else:
            verdict = "ok"
        results.append(
            ElectrodeHealth(
                electrode=electrode,
                expected_dips=expected_total,
                observed_dips=observed,
                mean_depth=mean_depth,
                verdict=verdict,
            )
        )
    return SelfTestReport(electrodes=tuple(results))
