"""Finite particle suspensions: blood samples, bead stocks, mixtures.

A :class:`Sample` tracks a liquid volume and the particle counts it
contains per species.  The paper's workflow (§II, §V) is expressed as
sample algebra::

    blood    = Sample.from_concentrations({BLOOD_CELL: 5_000}, volume_ul=10)
    password = Sample.from_concentrations({BEAD_3P58: 300, BEAD_7P8: 120},
                                          volume_ul=2)
    pipette  = mix(blood, password)          # cyto-coded sample
    dilution = stock.dilute(10.0)            # Fig 12/13 dilution series

Counts are integers (a suspension holds whole particles); concentrations
are derived quantities in particles/µL.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro._util.errors import ValidationError
from repro._util.rng import RngLike, ensure_rng
from repro._util.units import MICRO
from repro._util.validation import check_positive
from repro.particles.types import ParticleType


@dataclass(frozen=True)
class Particle:
    """A single physical particle drawn from a population.

    ``diameter_m`` is the drawn (not nominal) diameter, so the impedance
    drop of this particle reflects population variability.
    """

    particle_type: ParticleType
    diameter_m: float

    def relative_drop(self, frequency_hz) -> np.ndarray:
        """Relative impedance drop of *this* particle at ``frequency_hz``."""
        return self.particle_type.relative_drop(frequency_hz, diameter_m=self.diameter_m)


@dataclass
class Sample:
    """A finite suspension of particles in a carrier fluid (PBS / plasma).

    Parameters
    ----------
    volume_liters:
        Total liquid volume.
    counts:
        Whole-particle count per :class:`ParticleType`.
    """

    volume_liters: float
    counts: Dict[ParticleType, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_positive("volume_liters", self.volume_liters)
        for particle_type, count in self.counts.items():
            if not isinstance(particle_type, ParticleType):
                raise ValidationError(
                    f"counts keys must be ParticleType, got {type(particle_type).__name__}"
                )
            if int(count) != count or count < 0:
                raise ValidationError(
                    f"count for {particle_type.name} must be a non-negative integer, got {count!r}"
                )
        self.counts = {ptype: int(count) for ptype, count in self.counts.items() if count > 0}

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_concentrations(
        cls,
        concentrations_per_ul: Mapping[ParticleType, float],
        volume_ul: float,
        rng: RngLike = None,
        poisson: bool = False,
    ) -> "Sample":
        """Build a sample from concentrations (particles/µL) and a volume.

        With ``poisson=True`` the realised counts are Poisson draws around
        the expectation (how a real aliquot of a well-mixed stock
        behaves); otherwise counts are deterministic roundings.
        """
        check_positive("volume_ul", volume_ul)
        generator = ensure_rng(rng)
        counts: Dict[ParticleType, int] = {}
        for ptype, conc in concentrations_per_ul.items():
            if conc < 0:
                raise ValidationError(
                    f"concentration for {ptype.name} must be >= 0, got {conc!r}"
                )
            expected = conc * volume_ul
            counts[ptype] = (
                int(generator.poisson(expected)) if poisson else int(round(expected))
            )
        return cls(volume_liters=volume_ul * MICRO, counts=counts)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def volume_ul(self) -> float:
        """Volume in microlitres."""
        return self.volume_liters / MICRO

    @property
    def total_count(self) -> int:
        """Total number of particles of all species."""
        return sum(self.counts.values())

    def count_of(self, particle_type: ParticleType) -> int:
        """Count of one species (0 if absent)."""
        return self.counts.get(particle_type, 0)

    def concentration_per_ul(self, particle_type: ParticleType) -> float:
        """Concentration of one species in particles/µL."""
        return self.count_of(particle_type) / self.volume_ul

    def concentrations_per_ul(self) -> Dict[ParticleType, float]:
        """All species concentrations in particles/µL."""
        return {ptype: count / self.volume_ul for ptype, count in self.counts.items()}

    # ------------------------------------------------------------------
    # Sample algebra
    # ------------------------------------------------------------------
    def dilute(self, factor: float, rng: RngLike = None) -> "Sample":
        """Return this sample diluted ``factor``-fold with clean buffer.

        Dilution adds particle-free buffer: volume scales by ``factor``,
        counts are unchanged (concentration falls by ``factor``).
        """
        check_positive("factor", factor)
        if factor < 1.0:
            raise ValidationError(f"dilution factor must be >= 1, got {factor!r}")
        return Sample(volume_liters=self.volume_liters * factor, counts=dict(self.counts))

    def aliquot(self, volume_ul: float, rng: RngLike = None) -> "Sample":
        """Draw a well-mixed aliquot of ``volume_ul`` from this sample.

        Counts in the aliquot are binomial draws with probability equal
        to the volume fraction, which is exact for a well-mixed
        suspension.  The parent sample is not modified (frozen-stock
        semantics).
        """
        check_positive("volume_ul", volume_ul)
        if volume_ul > self.volume_ul + 1e-12:
            raise ValidationError(
                f"aliquot volume {volume_ul} µL exceeds sample volume {self.volume_ul} µL"
            )
        generator = ensure_rng(rng)
        fraction = min(volume_ul / self.volume_ul, 1.0)
        counts = {
            ptype: int(generator.binomial(count, fraction))
            for ptype, count in self.counts.items()
        }
        return Sample(volume_liters=volume_ul * MICRO, counts=counts)

    def draw_population(
        self, rng: RngLike = None
    ) -> Tuple[Tuple[ParticleType, ...], np.ndarray, np.ndarray]:
        """Draw every particle's diameter and shuffle them, as arrays.

        Returns ``(types, kinds, diameters)``: the species in ``counts``
        order, and per particle its index into ``types`` and its drawn
        diameter.  The shuffle models the random order in which
        particles of a well-mixed sample reach the channel inlet.

        Diameters are drawn per species in ``counts`` order, and the
        shuffle permutes an ``np.arange`` index array.  ``Generator.shuffle``
        runs the same Fisher–Yates draws on a 1-D array as on a list, so
        this consumes the generator exactly as shuffling a list of
        :class:`Particle` objects would, and yields the same order.
        """
        generator = ensure_rng(rng)
        types = tuple(self.counts)
        drawn = [
            np.atleast_1d(ptype.draw_diameter(generator, size=count))
            for ptype, count in self.counts.items()
        ]
        kinds = np.repeat(np.arange(len(types)), list(self.counts.values()))
        diameters = np.concatenate(drawn) if drawn else np.empty(0)
        order = np.arange(kinds.size)
        generator.shuffle(order)
        return types, kinds[order], diameters[order]

    def draw_particles(self, rng: RngLike = None) -> List[Particle]:
        """Instantiate every particle of :meth:`draw_population`, in order."""
        types, kinds, diameters = self.draw_population(rng)
        return [Particle(types[k], d) for k, d in zip(kinds.tolist(), diameters.tolist())]


def mix(*samples: Sample) -> Sample:
    """Combine samples into one (volumes and counts add).

    This is the paper's password step: the patient's blood is mixed with
    the bead pipette before being fed to the sensor.
    """
    if not samples:
        raise ValidationError("mix() requires at least one sample")
    volume = sum(sample.volume_liters for sample in samples)
    counts: Dict[ParticleType, int] = {}
    for sample in samples:
        for ptype, count in sample.counts.items():
            counts[ptype] = counts.get(ptype, 0) + count
    return Sample(volume_liters=volume, counts=counts)
