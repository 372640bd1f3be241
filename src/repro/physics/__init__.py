"""Electrical physics of the impedance cytometer.

This package turns particle transits into sampled multi-carrier voltage
traces, reproducing the paper's measurement chain (Figure 3 + §VI-D):

* :mod:`~repro.physics.electrical` — the co-planar electrode pair as a
  series RC circuit (double-layer capacitance + solution resistance),
  with the capacitive-vs-resistive regime analysis of §III-A.
* :mod:`~repro.physics.peaks` — columnar pulse trains and Gaussian-dip
  waveform synthesis (each particle transit is a transient impedance
  increase, i.e. a voltage dip at the lock-in output, Figure 7).
* :mod:`~repro.physics.noise` — measurement noise and the slow baseline
  drift (fluid concentration / temperature) that §VI-C's detrending
  exists to remove.
* :mod:`~repro.physics.lockin` — the multi-carrier lock-in amplifier
  (HF2IS stand-in): excitation scaling, 120 Hz low-pass, 450 Hz output
  sampling.
"""

from repro.physics.electrical import ElectrodePairCircuit, Regime
from repro.physics.lockin import LockInAmplifier
from repro.physics.noise import BaselineDriftModel, NoiseModel
from repro.physics.peaks import PulseTrain, pulse_width_fwhm_s, synthesize_pulse_train
from repro.physics.spectroscopy import CircuitFit, ImpedanceSweep, fit_circuit, sweep_impedance

__all__ = [
    "ElectrodePairCircuit",
    "Regime",
    "LockInAmplifier",
    "BaselineDriftModel",
    "NoiseModel",
    "PulseTrain",
    "CircuitFit",
    "ImpedanceSweep",
    "fit_circuit",
    "sweep_impedance",
    "pulse_width_fwhm_s",
    "synthesize_pulse_train",
]
