"""Shared fixtures for the MedSen reproduction test suite."""

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.core.config import MedSenConfig
from repro.core.device import MedSenDevice
from repro.crypto.gains import GainTable
from repro.hardware.electrodes import ElectrodeArray, standard_array
from repro.microfluidics.channel import MicrofluidicChannel
from repro.microfluidics.flow import FlowController, FlowSpeedTable
from repro.physics.lockin import LockInAmplifier
from repro.physics.noise import QUIET, NoiseModel

# ``HYPOTHESIS_PROFILE=ci`` (set by the CI test job) runs property tests
# deeper.  The differential suites size themselves as
# ``max(local count, settings().max_examples)``, so they deepen too.
settings.register_profile("ci", max_examples=1000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def rng():
    """Deterministic generator for a test."""
    return np.random.default_rng(12345)


@pytest.fixture
def channel():
    """The paper's 30 x 20 µm measurement pore."""
    return MicrofluidicChannel()


@pytest.fixture
def array9():
    """The 9-output electrode array of Figure 5/11."""
    return standard_array(9)


@pytest.fixture
def gain_table():
    """The §VI-B 16-level gain table."""
    return GainTable()


@pytest.fixture
def flow_table():
    """The §VI-B 16-level flow-speed table."""
    return FlowSpeedTable()


@pytest.fixture
def small_lockin():
    """Two-carrier lock-in covering the Figure 16 feature axes."""
    return LockInAmplifier(carrier_frequencies_hz=(500e3, 2500e3))


@pytest.fixture
def quiet_noise():
    """Noise-free acquisition for exact assertions."""
    return QUIET


@pytest.fixture
def device():
    """A fully wired, seeded MedSen device."""
    return MedSenDevice(rng=777)


@pytest.fixture
def fast_config():
    """A reduced config for quicker end-to-end tests."""
    return MedSenConfig(epoch_duration_s=1.0)
