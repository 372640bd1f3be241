"""MedSen reproduction: secure point-of-care diagnostics.

A from-scratch Python reproduction of *"Secure Point-of-Care Medical
Diagnostics via Trusted Sensing and Cyto-Coded Passwords"* (Le et al.,
DSN 2016): an impedance-cytometry point-of-care sensor whose analog
output is encrypted *by sensor configuration* (electrode selection,
per-electrode gains, flow speed), and whose users authenticate by
mixing secret bead cocktails — cyto-coded passwords — into their blood
sample.

Quickstart
----------
>>> from repro import MedSenSession, CytoIdentifier
>>> from repro.particles import Sample, BLOOD_CELL
>>> session = MedSenSession(rng=0)
>>> alice = CytoIdentifier.random(session.config.alphabet, rng=1)
>>> session.authenticator.register("alice", alice)
>>> blood = Sample.from_concentrations({BLOOD_CELL: 5000}, volume_ul=10)
>>> result = session.run_diagnostic(blood, alice, duration_s=60.0, rng=2)
>>> result.auth.accepted, result.diagnosis.label  # doctest: +SKIP

Package map
-----------
``repro.core``          device assembly, protocol, diagnosis
``repro.crypto``        the analog cipher (keys, encrypt, decrypt)
``repro.auth``          cyto-coded passwords and authentication
``repro.hardware``      electrodes, multiplexer, controller, front-end
``repro.physics``       circuit model, pulses, noise, lock-in
``repro.microfluidics`` channel, flow, pump, transport
``repro.particles``     blood cells and password beads
``repro.dsp``           detrending, peak detection, features
``repro.cloud``         untrusted analysis server, storage, network
``repro.mobile``        smartphone relay, perf models
``repro.attacks``       eavesdropper baselines
``repro.analysis``      calibration fits, metrics, entropy
``repro.obs``           tracing, metrics registry, audit event log
``repro.guard``         trust-boundary hardening: admission, freshness,
                        envelopes, lockout, protocol fuzzing
"""

from repro._util.errors import (
    AdmissionError,
    AuthenticationError,
    ConfigurationError,
    DecryptionError,
    EnvelopeError,
    IntegrityError,
    LockoutError,
    MalformedPayloadError,
    MedSenError,
    OversizedPayloadError,
    ReplayError,
    StaleEpochError,
    TrustBoundaryError,
    ValidationError,
)
from repro.auth import (
    BeadAlphabet,
    CytoIdentifier,
    ParticleClassifier,
    ServerAuthenticator,
)
from repro.core import (
    CD4_STAGING,
    CaptureResult,
    MedSenConfig,
    MedSenDevice,
    MedSenSession,
    SessionResult,
    ThresholdDiagnostic,
)
from repro.particles import BEAD_3P58, BEAD_7P8, BLOOD_CELL, Sample

__version__ = "1.0.0"

__all__ = [
    "AdmissionError",
    "AuthenticationError",
    "ConfigurationError",
    "DecryptionError",
    "EnvelopeError",
    "IntegrityError",
    "LockoutError",
    "MalformedPayloadError",
    "MedSenError",
    "OversizedPayloadError",
    "ReplayError",
    "StaleEpochError",
    "TrustBoundaryError",
    "ValidationError",
    "BeadAlphabet",
    "CytoIdentifier",
    "ParticleClassifier",
    "ServerAuthenticator",
    "CD4_STAGING",
    "CaptureResult",
    "MedSenConfig",
    "MedSenDevice",
    "MedSenSession",
    "SessionResult",
    "ThresholdDiagnostic",
    "BEAD_3P58",
    "BEAD_7P8",
    "BLOOD_CELL",
    "Sample",
    "__version__",
]
