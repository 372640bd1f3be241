"""Impedance spectroscopy."""

import numpy as np
import pytest

from repro._util.errors import ValidationError
from repro.physics.electrical import ElectrodePairCircuit
from repro.physics.spectroscopy import fit_circuit, sweep_impedance


class TestSpectroscopy:
    def test_sweep_shape_and_monotone(self):
        circuit = ElectrodePairCircuit()
        sweep = sweep_impedance(circuit, relative_noise=0.0, rng=0)
        assert sweep.n_points == 60
        assert np.all(np.diff(sweep.magnitude_ohm) < 0)
        # Phase goes from ~-90 deg (capacitive) to ~0 (resistive).
        assert sweep.phase_rad[0] < -1.2
        assert sweep.phase_rad[-1] > -0.2

    def test_fit_recovers_circuit(self):
        circuit = ElectrodePairCircuit(
            solution_resistance_ohm=150e3, double_layer_capacitance_f=50e-12
        )
        sweep = sweep_impedance(circuit, relative_noise=0.01, rng=1)
        fit = fit_circuit(sweep)
        assert fit.solution_resistance_ohm == pytest.approx(150e3, rel=0.05)
        assert fit.double_layer_capacitance_f == pytest.approx(50e-12, rel=0.1)
        assert fit.relative_rms_error < 0.05

    def test_fit_roundtrips_into_circuit(self):
        sweep = sweep_impedance(ElectrodePairCircuit(), relative_noise=0.0, rng=0)
        fitted = fit_circuit(sweep).as_circuit()
        assert fitted.regime(500e3).value == "resistive"

    def test_fit_various_parameters(self):
        for r, c in [(80e3, 100e-12), (400e3, 20e-12)]:
            circuit = ElectrodePairCircuit(
                solution_resistance_ohm=r, double_layer_capacitance_f=c
            )
            fit = fit_circuit(sweep_impedance(circuit, relative_noise=0.005, rng=2))
            assert fit.solution_resistance_ohm == pytest.approx(r, rel=0.1)
            assert fit.double_layer_capacitance_f == pytest.approx(c, rel=0.15)

    def test_validation(self):
        circuit = ElectrodePairCircuit()
        with pytest.raises(ValidationError):
            sweep_impedance(circuit, f_min_hz=1e6, f_max_hz=1e3)
        with pytest.raises(ValidationError):
            sweep_impedance(circuit, n_points=1)
