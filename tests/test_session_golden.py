"""Golden pins for whole diagnostic sessions.

``test_dsp_golden.py`` freezes the cloud's peak detector; these pins
freeze everything around it, so a rewrite of arrival scheduling,
template matching or the relay encoder that moves even one output bit
fails loudly with the scenario's name.  Each scenario hashes, per
capture and in order:

* every particle arrival (time and velocity float bits);
* ``report_digest`` of the peak report the cloud returned;
* the relay's ``raw_bytes`` and ``uploaded_bytes``;
* for encrypted sessions, the decrypted epoch counts, observed peak
  count, merge credits and anomalous groups, the auth decision and the
  diagnosis (label and concentration bits).

If a change is *intended* to move these numbers, re-pin the digest in
the same change and say which field moved.
"""

import contextlib
import hashlib
import importlib.util
import io
import struct
from pathlib import Path

import numpy as np
import pytest

from repro import CytoIdentifier, MedSenSession, Sample
from repro.cloud.server import AnalysisServer
from repro.core.device import MedSenDevice
from repro.microfluidics.transport import TransportModel
from repro.mobile.phone import Smartphone
from repro.particles import BEAD_3P58, BEAD_7P8, BLOOD_CELL
from repro.stream.session import report_digest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


class _Digest:
    """SHA-256 over a scenario's outputs, fed in a fixed order."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def text(self, value) -> None:
        data = str(value).encode("utf-8")
        self._hash.update(struct.pack("<I", len(data)) + data)

    def floats(self, values) -> None:
        array = np.ascontiguousarray(values, dtype="<f8")
        self._hash.update(struct.pack("<I", array.size) + array.tobytes())

    def arrivals(self, arrivals) -> None:
        self.floats([a.time_s for a in arrivals])
        self.floats([a.velocity_m_s for a in arrivals])
        self.text(",".join(a.particle.particle_type.name for a in arrivals))

    def relay(self, relay) -> None:
        self.text(report_digest(relay.report))
        self.text(relay.raw_bytes)
        self.floats([relay.uploaded_bytes])

    def session(self, result) -> None:
        self.relay(result.relay)
        decryption = result.decryption
        self.text(decryption.epoch_counts)
        self.text(
            (
                decryption.observed_peak_count,
                decryption.merge_credits,
                decryption.anomalous_groups,
            )
        )
        self.text((result.auth.accepted, result.auth.user_id))
        self.text(result.auth.recovered.as_string())
        self.text(result.diagnosis.label)
        self.floats([result.diagnosis.concentration_per_ul])

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


@pytest.fixture
def recorded_arrivals(monkeypatch):
    """Every ``schedule_arrivals`` result, in call order."""
    calls = []
    original = TransportModel.schedule_arrivals

    def recording(self, *args, **kwargs):
        arrivals = original(self, *args, **kwargs)
        calls.append(arrivals)
        return arrivals

    monkeypatch.setattr(TransportModel, "schedule_arrivals", recording)
    return calls


def fig12_13_dilution_series(arrivals_log, monkeypatch) -> str:
    """Fig 12/13: plaintext bead counting runs relayed to the cloud."""
    device = MedSenDevice(rng=55)
    phone, server = Smartphone(), AnalysisServer()
    digest = _Digest()
    seed = 100
    for bead in (BEAD_3P58, BEAD_7P8):
        for concentration in (500.0, 2000.0):
            sample = Sample.from_concentrations(
                {bead: concentration}, volume_ul=5.0, rng=seed, poisson=True
            )
            capture = device.run_capture(
                sample, 30.0, encrypt=False, rng=np.random.default_rng(seed)
            )
            digest.arrivals(arrivals_log[-1])
            digest.floats([capture.pumped_volume_ul])
            digest.relay(phone.relay(capture.trace, server))
            seed += 1
    return digest.hexdigest()


def fig16_password_clusters(arrivals_log, monkeypatch) -> str:
    """Fig 16: three passwords whose bead clusters must be separated
    from the blood cells before authentication."""
    session = MedSenSession(rng=16)
    alphabet = session.config.alphabet
    digest = _Digest()
    for index, levels in enumerate(((1, 3), (3, 1), (2, 2))):
        identifier = CytoIdentifier(alphabet, levels=levels)
        session.authenticator.register(f"user-{index}", identifier)
        blood = Sample.from_concentrations(
            {BLOOD_CELL: 450.0}, volume_ul=10.0, rng=160 + index
        )
        result = session.run_diagnostic(
            blood, identifier, duration_s=40.0, rng=1600 + index
        )
        digest.arrivals(arrivals_log[-1])
        digest.session(result)
    return digest.hexdigest()


def hiv_monitoring_example(arrivals_log, monkeypatch) -> str:
    """``examples/hiv_monitoring.py``: six 120 s monitoring sessions."""
    results = []
    original = MedSenSession.run_diagnostic

    def recording(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        results.append(result)
        return result

    monkeypatch.setattr(MedSenSession, "run_diagnostic", recording)
    path = EXAMPLES_DIR / "hiv_monitoring.py"
    spec = importlib.util.spec_from_file_location("example_hiv_monitoring", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with contextlib.redirect_stdout(io.StringIO()):
        module.main()
    assert len(results) == len(arrivals_log) == len(module.TRAJECTORY)
    digest = _Digest()
    for arrivals, result in zip(arrivals_log, results):
        digest.arrivals(arrivals)
        digest.session(result)
    return digest.hexdigest()


def long_capture_300s(arrivals_log, monkeypatch) -> str:
    """§VII-B: one 300 s encrypted capture."""
    session = MedSenSession(rng=300)
    identifier = CytoIdentifier(session.config.alphabet, levels=(2, 1))
    session.authenticator.register("patient-300", identifier)
    blood = Sample.from_concentrations({BLOOD_CELL: 300.0}, volume_ul=10.0, rng=301)
    result = session.run_diagnostic(blood, identifier, duration_s=300.0, rng=302)
    digest = _Digest()
    digest.arrivals(arrivals_log[-1])
    digest.session(result)
    return digest.hexdigest()


#: (scenario name, scenario function, pinned SHA-256).
GOLDEN = [
    (
        "Fig 12/13 bead dilution series",
        fig12_13_dilution_series,
        "ad3452f424635f453d24418d799e570be5f40eaf666c0b7f8f57ff77637b72f1",
    ),
    (
        "Fig 16 password clusters",
        fig16_password_clusters,
        "b94e963ea13738f4d304a8b9b72f9c2f2b45d793a069b70aa19cc030a2225568",
    ),
    (
        "examples/hiv_monitoring.py",
        hiv_monitoring_example,
        "53b846e54f4941a7b3b7f01a3a50adfce5a7d292c21f43863075a24a95ff7add",
    ),
    (
        "300 s long capture",
        long_capture_300s,
        "cf60f9f41f1b919f1d29a92317fe210be25890e7b108013ca3025e38b784df03",
    ),
]


@pytest.mark.parametrize("scenario,run,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_session_golden_digest(scenario, run, digest, recorded_arrivals, monkeypatch):
    measured = run(recorded_arrivals, monkeypatch)
    assert measured == digest, (
        f"{scenario}: session digest changed ({measured} != pinned {digest}) — "
        f"some arrival, report, relay, decryption, auth or diagnosis bit "
        f"moved for this scenario; if the change is intentional, re-pin "
        f"the digest in this test"
    )
