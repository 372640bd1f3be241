"""Sample algebra: volumes, counts, dilution, aliquots, mixing."""

import numpy as np
import pytest

from repro._util.errors import ValidationError
from repro.particles import BEAD_3P58, BEAD_7P8, BLOOD_CELL, Sample, mix

from tests._session_oracle import scalar_draw_particles


class TestConstruction:
    def test_counts_and_volume(self):
        sample = Sample(volume_liters=10e-6, counts={BLOOD_CELL: 100})
        assert sample.volume_ul == pytest.approx(10.0)
        assert sample.total_count == 100

    def test_zero_counts_dropped(self):
        sample = Sample(volume_liters=1e-6, counts={BLOOD_CELL: 0, BEAD_7P8: 5})
        assert BLOOD_CELL not in sample.counts
        assert sample.total_count == 5

    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError):
            Sample(volume_liters=1e-6, counts={BLOOD_CELL: -1})

    def test_fractional_count_rejected(self):
        with pytest.raises(ValidationError):
            Sample(volume_liters=1e-6, counts={BLOOD_CELL: 1.5})

    def test_non_particletype_key_rejected(self):
        with pytest.raises(ValidationError):
            Sample(volume_liters=1e-6, counts={"blood": 5})

    def test_zero_volume_rejected(self):
        with pytest.raises(ValidationError):
            Sample(volume_liters=0.0)


class TestFromConcentrations:
    def test_deterministic_rounding(self):
        sample = Sample.from_concentrations({BLOOD_CELL: 500.0}, volume_ul=10.0)
        assert sample.count_of(BLOOD_CELL) == 5000
        assert sample.concentration_per_ul(BLOOD_CELL) == pytest.approx(500.0)

    def test_poisson_mode_fluctuates_with_right_mean(self):
        rng = np.random.default_rng(0)
        counts = [
            Sample.from_concentrations(
                {BLOOD_CELL: 100.0}, volume_ul=10.0, rng=rng, poisson=True
            ).count_of(BLOOD_CELL)
            for _ in range(300)
        ]
        assert abs(np.mean(counts) - 1000) < 10  # ~3 sigma of the mean
        assert np.std(counts) > 10  # actually stochastic

    def test_negative_concentration_rejected(self):
        with pytest.raises(ValidationError):
            Sample.from_concentrations({BLOOD_CELL: -5.0}, volume_ul=1.0)


class TestDilution:
    def test_dilute_preserves_counts(self):
        sample = Sample.from_concentrations({BEAD_7P8: 100.0}, volume_ul=1.0)
        diluted = sample.dilute(10.0)
        assert diluted.count_of(BEAD_7P8) == sample.count_of(BEAD_7P8)
        assert diluted.volume_ul == pytest.approx(10.0)
        assert diluted.concentration_per_ul(BEAD_7P8) == pytest.approx(10.0)

    def test_dilute_below_one_rejected(self):
        sample = Sample.from_concentrations({BEAD_7P8: 100.0}, volume_ul=1.0)
        with pytest.raises(ValidationError):
            sample.dilute(0.5)


class TestAliquot:
    def test_aliquot_expected_counts(self, rng):
        sample = Sample.from_concentrations({BLOOD_CELL: 1000.0}, volume_ul=100.0)
        aliquot = sample.aliquot(10.0, rng=rng)
        assert aliquot.volume_ul == pytest.approx(10.0)
        # Binomial(100000, 0.1): ~10000 +- ~300 (3 sigma)
        assert abs(aliquot.count_of(BLOOD_CELL) - 10000) < 300

    def test_aliquot_larger_than_sample_rejected(self):
        sample = Sample.from_concentrations({BLOOD_CELL: 10.0}, volume_ul=1.0)
        with pytest.raises(ValidationError):
            sample.aliquot(2.0)

    def test_aliquot_leaves_parent_untouched(self, rng):
        sample = Sample.from_concentrations({BLOOD_CELL: 100.0}, volume_ul=10.0)
        before = sample.count_of(BLOOD_CELL)
        sample.aliquot(5.0, rng=rng)
        assert sample.count_of(BLOOD_CELL) == before


class TestMix:
    def test_mix_adds_volumes_and_counts(self):
        blood = Sample.from_concentrations({BLOOD_CELL: 100.0}, volume_ul=10.0)
        beads = Sample.from_concentrations({BEAD_7P8: 50.0, BEAD_3P58: 200.0}, volume_ul=2.0)
        mixed = mix(blood, beads)
        assert mixed.volume_ul == pytest.approx(12.0)
        assert mixed.count_of(BLOOD_CELL) == 1000
        assert mixed.count_of(BEAD_7P8) == 100
        assert mixed.count_of(BEAD_3P58) == 400

    def test_mix_same_species_accumulates(self):
        a = Sample.from_concentrations({BEAD_7P8: 10.0}, volume_ul=1.0)
        b = Sample.from_concentrations({BEAD_7P8: 20.0}, volume_ul=1.0)
        assert mix(a, b).count_of(BEAD_7P8) == 30

    def test_mix_empty_rejected(self):
        with pytest.raises(ValidationError):
            mix()


class TestDrawParticles:
    def test_all_particles_instantiated(self, rng):
        sample = Sample.from_concentrations(
            {BLOOD_CELL: 10.0, BEAD_7P8: 5.0}, volume_ul=2.0
        )
        particles = sample.draw_particles(rng=rng)
        assert len(particles) == sample.total_count
        names = {p.particle_type.name for p in particles}
        assert names == {"blood_cell", "bead_7.8um"}

    def test_diameters_vary(self, rng):
        sample = Sample.from_concentrations({BLOOD_CELL: 50.0}, volume_ul=1.0)
        particles = sample.draw_particles(rng=rng)
        diameters = {p.diameter_m for p in particles}
        assert len(diameters) > 1

    def test_order_shuffled_across_species(self, rng):
        sample = Sample.from_concentrations(
            {BLOOD_CELL: 100.0, BEAD_7P8: 100.0}, volume_ul=1.0
        )
        particles = sample.draw_particles(rng=rng)
        first_half = sum(
            1 for p in particles[: len(particles) // 2] if p.particle_type is BLOOD_CELL
        )
        # A sorted-by-species list would put all 100 cells in one half.
        assert 20 < first_half < 80

    def test_particle_relative_drop_uses_drawn_diameter(self, rng):
        sample = Sample.from_concentrations({BLOOD_CELL: 20.0}, volume_ul=1.0)
        particles = sample.draw_particles(rng=rng)
        drops = {float(p.relative_drop(500e3)) for p in particles}
        assert len(drops) > 1

    def test_draw_population_arrays(self, rng):
        sample = Sample(volume_liters=1e-6, counts={BEAD_7P8: 3, BLOOD_CELL: 5})
        types, kinds, diameters = sample.draw_population(rng=rng)
        assert types == (BEAD_7P8, BLOOD_CELL)
        assert sorted(kinds.tolist()) == [0, 0, 0, 1, 1, 1, 1, 1]
        assert diameters.dtype == np.float64 and diameters.shape == (8,)

    def test_empty_sample_draws_nothing(self, rng):
        state = rng.bit_generator.state
        types, kinds, diameters = Sample(volume_liters=1e-6).draw_population(rng=rng)
        assert (types, kinds.size, diameters.size) == ((), 0, 0)
        assert Sample(volume_liters=1e-6).draw_particles(rng=rng) == []
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("seed", [0, 4, 2016])
    def test_draw_particles_matches_list_shuffle(self, seed):
        sample = Sample(
            volume_liters=1e-6, counts={BEAD_3P58: 40, BEAD_7P8: 1, BLOOD_CELL: 70}
        )
        array_rng, list_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert sample.draw_particles(rng=array_rng) == scalar_draw_particles(sample, list_rng)
        assert array_rng.bit_generator.state == list_rng.bit_generator.state


class TestShufflePremise:
    """``Sample.draw_population`` shuffles an index array where the
    object draw shuffled a list of particles.  That is bit-identical only
    because ``Generator.shuffle`` runs the same Fisher–Yates draws on a
    1-D array as on a list; a numpy release that splits the two paths
    fails here before any golden digest does."""

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 1000, 21000, 100003])
    @pytest.mark.parametrize("seed", [0, 4, 2016])
    def test_generator_shuffle_of_arange_matches_list(self, n, seed):
        array_rng, list_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        order = np.arange(n)
        array_rng.shuffle(order)
        items = list(range(n))
        list_rng.shuffle(items)
        assert order.tolist() == items
        assert array_rng.bit_generator.state == list_rng.bit_generator.state
