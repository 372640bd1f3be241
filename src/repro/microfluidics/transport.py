"""Particle transport from the inlet well to the sensing region.

Converts a :class:`~repro.particles.sample.Sample` plus a flow schedule
into timed particle arrivals at the electrodes, including the two loss
mechanisms §VII-B blames for the Fig 12/13 under-counts:

* **Inlet settling** — beads sink in the inlet well and never enter the
  channel; heavier (larger) beads settle faster.  Modelled as a
  per-particle survival probability ``exp(-t / tau(d))`` with the
  settling time constant scaled by Stokes' law (tau ∝ 1/d²).
* **Wall adsorption** — a fixed per-particle probability of sticking to
  the PDMS channel walls.

Arrival times follow the pumped volume: a particle sitting at a random
position in the well arrives when its surrounding fluid parcel is drawn
through, making the arrival process Poisson-like at constant flow and
correctly modulated when the cipher changes the flow speed.
"""

from dataclasses import dataclass
from typing import List

import numpy as np

from repro._util.errors import ValidationError
from repro._util.rng import RngLike, ensure_rng
from repro._util.validation import check_positive, check_probability
from repro.microfluidics.flow import FlowController
from repro.particles.sample import Particle, Sample


@dataclass(frozen=True)
class ParticleArrival:
    """One particle reaching the sensing region.

    ``velocity_m_s`` is the transit velocity at arrival time (set by the
    flow level active in that epoch), which determines the dip width.
    """

    time_s: float
    particle: Particle
    velocity_m_s: float


@dataclass(frozen=True)
class TransportModel:
    """Inlet-to-sensor transport with settling and adsorption losses.

    Parameters
    ----------
    settling_tau_s_at_7p8um:
        Settling time constant of a 7.8 µm bead; other diameters scale
        as (7.8 µm / d)² per Stokes' law.  Biological cells are close to
        neutrally buoyant, so ``cell_settling_factor`` multiplies their
        time constant.
    adsorption_probability:
        Chance a particle sticks to the channel wall and is never
        counted.
    """

    settling_tau_s_at_7p8um: float = 2400.0
    cell_settling_factor: float = 10.0
    adsorption_probability: float = 0.03
    reference_diameter_m: float = 7.8e-6

    def __post_init__(self) -> None:
        check_positive("settling_tau_s_at_7p8um", self.settling_tau_s_at_7p8um)
        check_positive("cell_settling_factor", self.cell_settling_factor)
        check_probability("adsorption_probability", self.adsorption_probability)
        check_positive("reference_diameter_m", self.reference_diameter_m)

    # ------------------------------------------------------------------
    def settling_tau_s(self, particle: Particle) -> float:
        """Settling time constant for ``particle`` (Stokes scaling)."""
        tau = self.settling_tau_s_at_7p8um * (
            self.reference_diameter_m / particle.diameter_m
        ) ** 2
        if not particle.particle_type.is_synthetic:
            tau *= self.cell_settling_factor
        return tau

    def survival_probability(self, particle: Particle, arrival_time_s: float) -> float:
        """Probability the particle reaches the sensor at ``arrival_time_s``."""
        if arrival_time_s < 0:
            raise ValidationError(f"arrival_time_s must be >= 0, got {arrival_time_s}")
        settle = np.exp(-arrival_time_s / self.settling_tau_s(particle))
        return float(settle * (1.0 - self.adsorption_probability))

    # ------------------------------------------------------------------
    def schedule_arrivals(
        self,
        sample: Sample,
        flow: FlowController,
        duration_s: float,
        rng: RngLike = None,
    ) -> List[ParticleArrival]:
        """Simulate which particles arrive during ``duration_s`` and when.

        Each particle occupies a uniformly random fluid parcel of the
        sample; it arrives when the pump has drawn that much volume.
        Particles whose parcel is not reached within ``duration_s`` do
        not arrive; survivors are thinned by the loss model.  The result
        is sorted by time.
        """
        check_positive("duration_s", duration_s)
        generator = ensure_rng(rng)
        types, kinds, diameters = sample.draw_population(rng=generator)
        if not kinds.size:
            return []

        pumped_ul = flow.volume_pumped_ul(0.0, duration_s)
        sample_ul = sample.volume_ul
        positions_ul = generator.uniform(0.0, sample_ul, size=kinds.size)
        # Parcels beyond the pumped volume are not drawn within the run,
        # so only reachable particles become Particle objects.
        reachable = np.flatnonzero(positions_ul <= pumped_ul)
        times_s = _arrival_times(flow, positions_ul[reachable], duration_s)
        draws = generator.random(reachable.size)

        arrivals: List[ParticleArrival] = []
        for kind, diameter_m, time_s, draw in zip(
            kinds[reachable].tolist(),
            diameters[reachable].tolist(),
            times_s.tolist(),
            draws.tolist(),
        ):
            particle = Particle(types[kind], diameter_m)
            if draw > self.survival_probability(particle, time_s):
                continue  # settled in the well or stuck to a wall
            arrivals.append(
                ParticleArrival(
                    time_s=time_s,
                    particle=particle,
                    velocity_m_s=flow.velocity_at(time_s),
                )
            )
        arrivals.sort(key=lambda a: a.time_s)
        return arrivals

    def expected_count(
        self,
        sample: Sample,
        flow: FlowController,
        duration_s: float,
    ) -> float:
        """Expected arrivals ignoring losses (the Fig 12/13 x-axis).

        This is the 'estimated' count computed from the manufacturer
        concentration: particles whose fluid parcel is pumped through.
        """
        check_positive("duration_s", duration_s)
        pumped_ul = flow.volume_pumped_ul(0.0, duration_s)
        fraction = min(pumped_ul / sample.volume_ul, 1.0)
        return sample.total_count * fraction


def _arrival_times(
    flow: FlowController, volumes_ul: np.ndarray, duration_s: float
) -> np.ndarray:
    """When the pump has drawn each of ``volumes_ul`` (all reachable).

    One 60-step bisection on ``[0, duration_s]`` runs over the whole
    array.  Each step evaluates the cumulative volume exactly as
    :meth:`FlowController.volume_pumped_ul` ``(0.0, mid)`` does: segment
    by segment in time order, ``total += rate * (seg_end - seg_start) /
    60.0``.  The segments wholly before ``mid`` add the same terms for
    every particle, so their running sums are taken once (in the same
    order); the segment holding ``mid`` adds its partial term; later
    segments add nothing.  Every time therefore keeps the float bits of
    the per-particle scalar search.  A volume ``<= 0.0`` maps to 0.0.
    """
    starts, rates = (np.array(column, dtype=float) for column in zip(*flow.segments()))
    volume_before = np.zeros(len(starts))
    for i in range(1, len(starts)):
        full_segment = rates[i - 1] * (starts[i] - starts[i - 1]) / 60.0
        volume_before[i] = volume_before[i - 1] + full_segment

    lo = np.zeros(volumes_ul.shape)
    hi = np.full(volumes_ul.shape, float(duration_s))
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        segment = np.searchsorted(starts, mid, side="left") - 1
        total = volume_before[segment] + rates[segment] * (mid - starts[segment]) / 60.0
        below = total < volumes_ul
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return np.where(volumes_ul <= 0.0, 0.0, 0.5 * (lo + hi))
