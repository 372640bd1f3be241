"""Particle type definitions.

A :class:`ParticleType` is the immutable description of a particle
species: its geometry, the impedance drop it causes at a reference
frequency, its frequency dispersion, and the population variability of
individual particles.  Individual particles are drawn from the type with
:meth:`ParticleType.draw_diameter`.

Amplitude model
---------------
The relative impedance change caused by a particle of diameter ``d`` in a
sensing volume scales with its volume (Maxwell's mixing formula, small
volume-fraction limit)::

    drop(d, f) = base_drop * (d / diameter_m)^3 * dispersion.scale(f)

``base_drop`` is the relative drop at the *reference* diameter and low
frequency; it is calibrated per species against the paper's Figure 15
traces rather than derived ab initio, because electrode polarisation and
cell interior conductivity shift the absolute contrast (the paper itself
reports the empirical ratios: 7.8 µm beads ~ 4x and blood cells ~ 2x the
3.58 µm bead amplitude).
"""

from dataclasses import dataclass, field

import numpy as np

from repro._util.rng import RngLike, ensure_rng
from repro._util.validation import check_in_range, check_positive
from repro.particles.dielectric import DispersionModel, FLAT_DISPERSION


@dataclass(frozen=True)
class ParticleType:
    """Immutable description of a particle species.

    Parameters
    ----------
    name:
        Unique identifier, e.g. ``"bead_7.8um"``.
    diameter_m:
        Nominal (reference) diameter in metres.
    base_drop:
        Relative impedance drop (dimensionless, e.g. 0.0035 for a 0.35 %
        drop) caused by a nominal-diameter particle at low frequency.
    dispersion:
        Frequency dispersion of the drop; defaults to flat.
    diameter_cv:
        Coefficient of variation of the particle diameter within the
        population (synthetic beads are tight, ~2-5 %; blood cells are
        broad, ~10-15 %).
    is_synthetic:
        True for password beads, False for biological particles.  Used by
        the authentication layer to decide which peaks are password
        material.
    """

    name: str
    diameter_m: float
    base_drop: float
    dispersion: DispersionModel = field(default=FLAT_DISPERSION)
    diameter_cv: float = 0.05
    is_synthetic: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("name must be non-empty")
        check_positive("diameter_m", self.diameter_m)
        check_in_range("base_drop", self.base_drop, 0.0, 0.5, low_inclusive=False)
        check_in_range("diameter_cv", self.diameter_cv, 0.0, 1.0)

    def relative_drop(self, frequency_hz, diameter_m=None) -> np.ndarray:
        """Relative impedance drop at ``frequency_hz``.

        ``diameter_m`` defaults to the nominal diameter; pass the drawn
        per-particle diameter to include population variability.  Accepts
        scalar or array frequencies.
        """
        return self.low_frequency_drop(diameter_m) * self.dispersion.scale(frequency_hz)

    def low_frequency_drop(self, diameter_m=None) -> float:
        """``base_drop * (d / diameter_m)^3``: the drop before dispersion."""
        d = self.diameter_m if diameter_m is None else float(diameter_m)
        if d <= 0:
            raise ValueError(f"diameter_m must be > 0, got {d!r}")
        return self.base_drop * (d / self.diameter_m) ** 3

    def draw_diameter(self, rng: RngLike = None, size=None) -> np.ndarray:
        """Draw particle diameter(s) from a lognormal population model.

        The lognormal is parameterised so its mean is ``diameter_m`` and
        its coefficient of variation is ``diameter_cv``.
        """
        generator = ensure_rng(rng)
        if self.diameter_cv == 0.0:
            if size is None:
                return self.diameter_m
            return np.full(size, self.diameter_m)
        sigma2 = np.log(1.0 + self.diameter_cv**2)
        mu = np.log(self.diameter_m) - sigma2 / 2.0
        return generator.lognormal(mean=mu, sigma=np.sqrt(sigma2), size=size)

    def amplitude_ratio_to(self, other: "ParticleType", frequency_hz: float) -> float:
        """Ratio of this type's nominal drop to ``other``'s at a frequency.

        Used by tests to pin the paper's "~2x / ~4x the 3.58 µm bead"
        statements.
        """
        return float(self.relative_drop(frequency_hz) / other.relative_drop(frequency_hz))
