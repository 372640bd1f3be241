"""The phone's sealed relay, end to end through a diagnostic session.

With ``Smartphone(channel=SecureChannel(secret))`` the upload carries an
MSF2 freshness token naming the relay span, and the cloud
(``AnalysisServer(transit_secret=secret)``) answers with an MSE2 sealed
report carrying its own span.  The phone opens the envelope before the
report goes anywhere: an honest exchange gives the session exactly what
the unsealed relay gives, and a flipped bit stops the session at the
phone with ``EnvelopeError``, before the controller decrypts anything.
"""

import pytest

from repro import CytoIdentifier, MedSenSession, Sample
from repro._util.errors import EnvelopeError
from repro.cloud.api import report_to_dict
from repro.cloud.server import AnalysisServer
from repro.guard.envelope import SecureChannel
from repro.mobile.phone import Smartphone
from repro.obs import EventLog, MetricsRegistry, Observer, TraceContext
from repro.particles import BLOOD_CELL

SECRET = b"phone-cloud-transit-secret"
SEED = 7


def run_session(sealed, observer=None, tamper=None):
    """A session set up for one 20 s diagnostic, and the call that runs it."""
    observer = observer or Observer(metrics=MetricsRegistry(), events=EventLog())
    if sealed:
        channel = SecureChannel(SECRET, observer=observer)
        phone = Smartphone(observer=observer, channel=channel)
        server = AnalysisServer(
            observer=observer, transit_secret=SECRET, freshness=channel.guard()
        )
    else:
        phone = Smartphone(observer=observer)
        server = AnalysisServer(observer=observer)
    if tamper is not None:
        seal = server.analyze_sealed
        server.analyze_sealed = lambda *args, **kwargs: tamper(seal(*args, **kwargs))
    session = MedSenSession(rng=SEED, phone=phone, server=server, observer=observer)
    identifier = CytoIdentifier(session.config.alphabet, (2, 1))
    session.authenticator.register("alice", identifier)
    blood = Sample.from_concentrations({BLOOD_CELL: 400.0}, volume_ul=10)
    return session, lambda: session.run_diagnostic(
        blood, identifier, duration_s=20.0, rng=SEED + 1
    )


def spans_named(observer, name):
    return [
        span
        for root in observer.tracer.roots
        for span in root.walk()
        if span.name == name
    ]


@pytest.fixture(scope="module")
def relays():
    observer = Observer(metrics=MetricsRegistry(), events=EventLog())
    sealed_session, run = run_session(sealed=True, observer=observer)
    sealed = run()
    _, run = run_session(sealed=False)
    return observer, sealed_session, sealed, run()


class TestHonestSealedRelay:
    def test_same_report_and_outcome_as_the_unsealed_relay(self, relays):
        _, session, sealed, plain = relays
        assert sealed.relay.report.count > 0
        assert report_to_dict(sealed.relay.report) == report_to_dict(plain.relay.report)
        assert sealed.decryption.epoch_counts == plain.decryption.epoch_counts
        assert sealed.bead_counts == plain.bead_counts
        assert sealed.diagnosis.label == plain.diagnosis.label
        assert sealed.auth.accepted == plain.auth.accepted
        assert (session.phone.channel.opened, session.phone.channel.refused) == (1, 0)

    def test_relay_span_links_the_cloud_span(self, relays):
        observer = relays[0]
        (relay,) = spans_named(observer, "relay")
        (cloud,) = spans_named(observer, "cloud_analysis")
        assert TraceContext(cloud.trace_id, cloud.span_id) in relay.links
        # The MSF2 token carried the relay's identity to the cloud (kept
        # as a link, since the cloud span already nests under the relay).
        assert relay.context() in cloud.links


class TestTamperedResponse:
    def test_flipped_bit_refused_before_the_controller(self, monkeypatch):
        sent = []

        def flip(blob):
            sent.append(blob)
            tampered = bytearray(blob)
            tampered[len(tampered) // 2] ^= 0x01
            return bytes(tampered)

        session, run = run_session(sealed=True, tamper=flip)
        decrypted = []
        monkeypatch.setattr(
            session.device, "decrypt", lambda report: decrypted.append(report)
        )
        with pytest.raises(EnvelopeError, match="failed authentication"):
            run()
        assert [blob[:4] for blob in sent] == [b"MSE2"]
        assert decrypted == []
        assert session.store.n_records == 0
        assert (session.phone.channel.opened, session.phone.channel.refused) == (0, 1)
