"""Reusable experiment runners behind the figure benchmarks and plots.

These functions encapsulate the workloads of the paper's evaluation so
that the benchmark harnesses, the SVG figure generators and user
notebooks all run the *same* experiment definitions:

* :func:`single_key_plan` / :func:`acquire_particle_events` — one fixed
  key, controlled particle arrivals, full encrypt-acquire-detect chain
  (Figures 7/8/11).
* :func:`run_bead_dilution_series` — the Fig 12/13 calibration
  protocol: dilution ladder, plaintext counting, estimated vs measured.
* :func:`make_fig14_capture` — a single-channel capture with realistic
  peak density at an exact sample count (Figure 14 timing workloads).
"""

from typing import Optional, Sequence, Tuple

import numpy as np

from repro._util.rng import RngLike
from repro.core.device import MedSenDevice
from repro.crypto.encryptor import EncryptionPlan, SignalEncryptor
from repro.crypto.gains import GainTable
from repro.crypto.key import EpochKey, KeySchedule
from repro.dsp.peakdetect import PeakDetector, PeakReport
from repro.hardware.acquisition import AcquiredTrace, AcquisitionFrontEnd
from repro.hardware.electrodes import ElectrodeArray, standard_array
from repro.microfluidics.channel import MicrofluidicChannel
from repro.microfluidics.flow import FlowSpeedTable
from repro.microfluidics.transport import ParticleArrival
from repro.particles.sample import Particle, Sample
from repro.particles.types import ParticleType
from repro.physics.lockin import LockInAmplifier
from repro.physics.noise import NoiseModel
from repro.physics.peaks import PulseTrain, synthesize_pulse_train

#: Carrier set used by the figure experiments (includes the 500/2500 kHz
#: feature carriers of Figures 15/16).
FIGURE_CARRIERS_HZ = (500e3, 1000e3, 2000e3, 2500e3, 3000e3)


def single_key_plan(
    active,
    array: Optional[ElectrodeArray] = None,
    gain_level: int = 8,
    flow_level: int = 8,
    epoch_s: float = 10.0,
) -> EncryptionPlan:
    """A one-epoch plan with a fixed key, for controlled figures."""
    array = array or standard_array(9)
    key = EpochKey(frozenset(active), tuple([gain_level] * array.n_outputs), flow_level)
    schedule = KeySchedule(epoch_duration_s=epoch_s, epochs=(key,))
    return EncryptionPlan(schedule, array, GainTable(), FlowSpeedTable())


def acquire_particle_events(
    plan: EncryptionPlan,
    particle_type: ParticleType,
    arrival_times: Sequence[float],
    duration_s: float,
    rng: RngLike = 0,
    carriers: Tuple[float, ...] = FIGURE_CARRIERS_HZ,
    noise: Optional[NoiseModel] = None,
) -> Tuple[PulseTrain, AcquiredTrace, PeakReport]:
    """Run fixed arrivals through the encrypt-acquire-detect chain."""
    channel = MicrofluidicChannel()
    velocity = channel.velocity_for_flow_rate(
        plan.flow_table.rate_for_level(plan.schedule.epochs[0].flow_level)
    )
    arrivals = [
        ParticleArrival(t, Particle(particle_type, particle_type.diameter_m), velocity)
        for t in arrival_times
    ]
    encryptor = SignalEncryptor(carrier_frequencies_hz=carriers)
    events = encryptor.events_for_arrivals(arrivals, plan)
    lockin = LockInAmplifier(carrier_frequencies_hz=carriers)
    kwargs = {"noise": noise} if noise is not None else {}
    front_end = AcquisitionFrontEnd(lockin=lockin, **kwargs)
    trace = front_end.acquire(events, duration_s, rng=rng)
    report = PeakDetector().detect(trace.voltages, trace.sampling_rate_hz)
    return events, trace, report


def run_bead_dilution_series(
    bead: ParticleType,
    concentrations_per_ul: Sequence[float] = (250.0, 500.0, 1000.0, 1500.0, 2000.0),
    runs_per_concentration: int = 2,
    duration_s: float = 120.0,
    seed0: int = 100,
    device_rng: int = 55,
) -> Tuple[np.ndarray, np.ndarray]:
    """The Fig 12/13 protocol: returns (estimated, measured) counts."""
    device = MedSenDevice(rng=device_rng)
    detector = PeakDetector()
    estimated, measured = [], []
    seed = seed0
    for concentration in concentrations_per_ul:
        for _ in range(runs_per_concentration):
            sample = Sample.from_concentrations(
                {bead: concentration}, volume_ul=5.0, rng=seed, poisson=True
            )
            capture = device.run_capture(
                sample, duration_s, encrypt=False, rng=np.random.default_rng(seed)
            )
            report = detector.detect(
                capture.trace.voltages, capture.trace.sampling_rate_hz
            )
            estimated.append(concentration * capture.pumped_volume_ul)
            measured.append(report.count)
            seed += 1
    return np.asarray(estimated), np.asarray(measured)


def make_fig14_capture(
    n_samples: int, sampling_rate_hz: float = 450.0, seed: int = 0
) -> np.ndarray:
    """A single-channel capture with realistic peak density, exactly
    ``n_samples`` long (the Figure 14 timing workload)."""
    duration = n_samples / sampling_rate_hz
    rng = np.random.default_rng(seed)
    centers = np.sort(rng.uniform(1.0, duration - 1.0, size=max(int(duration / 2), 1)))
    events = PulseTrain(centers, 0.02, [0.01])
    trace = synthesize_pulse_train(events, 1, sampling_rate_hz, duration)
    return NoiseModel().apply(trace, sampling_rate_hz, rng=rng)[:, :n_samples]
