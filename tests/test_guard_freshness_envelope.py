"""Replay/freshness tokens and tamper-evident report envelopes."""

import struct

import numpy as np
import pytest

from repro._util.errors import (
    EnvelopeError,
    MalformedPayloadError,
    ReplayError,
    StaleEpochError,
    ValidationError,
)
from repro.cloud.server import AnalysisServer
from repro.guard.envelope import (
    SecureChannel,
    open_report,
    seal_report,
)
from repro.guard.freshness import (
    TOKEN_BYTES,
    FreshnessGuard,
    TokenMinter,
    mint_token,
    parse_token,
)
from repro.obs import (
    REPLAY_DETECTED,
    STALE_EPOCH_REJECTED,
    EventLog,
    ManualClock,
    MetricsRegistry,
    Observer,
)

SECRET = b"test-shared-secret"


@pytest.fixture
def observer():
    return Observer(metrics=MetricsRegistry(), events=EventLog())


def honest_trace(seed=0, n=900):
    from types import SimpleNamespace

    rng = np.random.default_rng(seed)
    voltages = 0.01 * rng.standard_normal((2, n))
    return SimpleNamespace(
        voltages=voltages,
        sampling_rate_hz=450.0,
        carrier_frequencies_hz=(500e3, 2500e3),
        n_channels=2,
        n_samples=n,
    )


class TestTokens:
    def test_mint_parse_round_trip(self):
        nonce = bytes(range(16))
        blob = mint_token(SECRET, key_epoch=7, nonce=nonce, minted_at_s=12.5)
        assert len(blob) == TOKEN_BYTES
        token = parse_token(blob, SECRET)
        assert token.nonce == nonce
        assert token.key_epoch == 7
        assert token.minted_at_s == 12.5

    def test_each_mint_is_unique(self):
        minter = TokenMinter(SECRET)
        assert minter.mint() != minter.mint()
        assert minter.minted == 2

    @pytest.mark.parametrize(
        "blob",
        [b"", b"short", bytes(TOKEN_BYTES - 1), bytes(TOKEN_BYTES + 1), 3.14],
    )
    def test_malformed_refused(self, blob):
        with pytest.raises(MalformedPayloadError):
            parse_token(blob, SECRET)

    def test_every_bitflip_position_refused(self):
        blob = mint_token(SECRET, key_epoch=1, nonce=bytes(16))
        for index in range(len(blob)):
            tampered = bytearray(blob)
            tampered[index] ^= 0x01
            with pytest.raises(MalformedPayloadError):
                parse_token(bytes(tampered), SECRET)

    def test_wrong_secret_refused(self):
        blob = mint_token(SECRET, key_epoch=0)
        with pytest.raises(MalformedPayloadError):
            parse_token(blob, b"other-secret")

    def test_empty_secret_rejected(self):
        with pytest.raises(ValidationError):
            mint_token(b"", key_epoch=0)


class TestFreshnessGuard:
    def test_fresh_token_admitted(self):
        guard = FreshnessGuard(SECRET)
        token = guard.minter().mint()
        assert guard.admit(token).key_epoch == 0
        assert guard.admitted == 1

    def test_replay_refused(self, observer):
        guard = FreshnessGuard(SECRET)
        token = guard.minter().mint()
        guard.admit(token, observer=observer)
        with pytest.raises(ReplayError):
            guard.admit(token, observer=observer)
        assert guard.replays_refused == 1
        assert observer.metrics.counter("guard.replay_detected").value == 1
        assert REPLAY_DETECTED in [e.kind for e in observer.events.events]

    def test_epoch_window(self, observer):
        guard = FreshnessGuard(SECRET, key_epoch=2, epoch_window=1)
        guard.admit(mint_token(SECRET, key_epoch=2))
        guard.admit(mint_token(SECRET, key_epoch=1))  # inside the window
        with pytest.raises(StaleEpochError):
            guard.admit(mint_token(SECRET, key_epoch=0), observer=observer)
        with pytest.raises(StaleEpochError):  # future epochs never admit
            guard.admit(mint_token(SECRET, key_epoch=3), observer=observer)
        assert guard.stale_refused == 2
        assert observer.metrics.counter("guard.stale_epoch").value == 2
        assert STALE_EPOCH_REJECTED in [e.kind for e in observer.events.events]

    def test_rotation_in_lockstep(self):
        guard = FreshnessGuard(SECRET, epoch_window=0)
        minter = guard.minter()
        guard.advance_epoch()
        with pytest.raises(StaleEpochError):
            guard.admit(minter.mint())  # phone missed the rotation
        minter.advance_epoch()
        guard.admit(minter.mint())

    def test_max_age(self):
        clock = ManualClock()
        guard = FreshnessGuard(SECRET, max_age_s=10.0, clock=clock)
        minter = guard.minter(clock=clock)
        stale = minter.mint()
        clock.advance(11.0)
        with pytest.raises(StaleEpochError, match="old"):
            guard.admit(stale)
        guard.admit(minter.mint())  # freshly minted still admits

    def test_nonce_registry_bounded(self):
        guard = FreshnessGuard(SECRET, capacity=8)
        minter = guard.minter()
        for _ in range(20):
            guard.admit(minter.mint())
        assert guard.n_seen == 8

    def test_rollover_prunes_unreachable_nonces(self):
        # Epoch rollover is a natural purge point: a nonce minted below
        # the admission window can never replay again, so keeping it
        # only wastes registry capacity.
        guard = FreshnessGuard(SECRET, epoch_window=1)
        minter = guard.minter()
        for _ in range(5):
            guard.admit(minter.mint())
        assert guard.n_seen == 5 and guard.pruned == 0
        guard.advance_epoch()  # epoch-0 nonces still inside the window
        assert guard.n_seen == 5 and guard.pruned == 0
        minter.advance_epoch()
        for _ in range(3):
            guard.admit(minter.mint())
        guard.advance_epoch()  # now epoch 2: the 5 epoch-0 nonces fall out
        assert guard.pruned == 5
        assert guard.n_seen == 3
        guard.advance_epoch()  # and the epoch-1 batch follows
        assert guard.pruned == 8
        assert guard.n_seen == 0

    def test_prune_keeps_window_replay_protection(self):
        guard = FreshnessGuard(SECRET, epoch_window=1)
        minter = guard.minter()
        token = minter.mint()
        guard.admit(token)
        guard.advance_epoch()
        # The old-epoch token is still inside the admission window, so
        # its nonce must still be held against replay.
        with pytest.raises(ReplayError):
            guard.admit(token)


class TestEnvelopes:
    def test_seal_open_round_trip(self):
        from tests.test_guard_admission import make_report

        report = make_report()
        sealed = seal_report(report, SECRET, key_epoch=3)
        assert struct.unpack_from("<I", sealed, 20) == (3,)  # MSE1 key_epoch
        opened = open_report(sealed, SECRET)
        assert opened.count == report.count
        assert opened.duration_s == report.duration_s
        assert [p.time_s for p in opened.peaks] == [p.time_s for p in report.peaks]

    def test_every_region_tamper_evident(self, observer):
        from tests.test_guard_admission import make_report

        sealed = seal_report(make_report(), SECRET)
        for index in (0, 4, 25, len(sealed) // 2, len(sealed) - 1):
            tampered = bytearray(sealed)
            tampered[index] ^= 0x01
            with pytest.raises(EnvelopeError):
                open_report(bytes(tampered), SECRET, observer=observer)
        assert observer.metrics.counter("guard.envelope_rejected").value == 5

    @pytest.mark.parametrize("blob", [b"", b"xx", object()])
    def test_malformed_refused(self, blob):
        with pytest.raises(EnvelopeError):
            open_report(blob, SECRET)

    def test_wrong_secret_refused(self):
        from tests.test_guard_admission import make_report

        sealed = seal_report(make_report(), SECRET)
        with pytest.raises(EnvelopeError):
            open_report(sealed, b"other-secret")

    def test_authentic_deeply_nested_plaintext_refused(self, observer):
        # Only a holder of the secret can seal this, but a broken peer
        # still gets the typed refusal, not a RecursionError.
        from repro.crypto.keyshare import new_nonce, seal
        from repro.guard import envelope

        nonce = new_nonce(None)
        header = envelope._FIXED.pack(envelope._MAGIC, nonce, 0)
        blob = seal(SECRET, envelope._LABEL, nonce, header, b"[" * 100000)
        with pytest.raises(EnvelopeError, match="nested too deeply"):
            open_report(blob, SECRET, observer=observer)
        assert observer.metrics.counter("guard.envelope_rejected").value == 1

    def test_channel_round_trip(self):
        from tests.test_guard_admission import make_report

        channel = SecureChannel(SECRET, key_epoch=1)
        report = make_report()
        opened = channel.receive(channel.seal(report))
        assert opened.count == report.count
        assert channel.opened == 1 and channel.refused == 0

    def test_channel_counts_refusals(self):
        channel = SecureChannel(SECRET)
        with pytest.raises(EnvelopeError):
            channel.receive(b"garbage")
        assert channel.refused == 1


class TestServerIntegration:
    """The guard wired into the cloud ingest path."""

    def make_guarded(self, observer, **guard_kwargs):
        guard = FreshnessGuard(SECRET, **guard_kwargs)
        server = AnalysisServer(
            observer=observer, freshness=guard, transit_secret=SECRET
        )
        return server, guard

    def test_token_required(self, observer):
        server, _ = self.make_guarded(observer)
        with pytest.raises(MalformedPayloadError, match="freshness token"):
            server.analyze(honest_trace())

    def test_replay_refused_despite_new_request_id(self, observer):
        server, guard = self.make_guarded(observer)
        token = guard.minter().mint()
        trace = honest_trace()
        server.analyze(trace, request_id="req-A", freshness_token=token)
        # The attacker rewrites the request id; dedup cannot save them.
        with pytest.raises(ReplayError):
            server.analyze(trace, request_id="req-B", freshness_token=token)
        assert observer.metrics.counter("guard.replay_detected").value == 1

    def test_freshness_consumed_before_dedup(self, observer):
        # Even an honest-looking duplicate (same request id, same token)
        # is refused by the nonce registry, never served from cache.
        server, guard = self.make_guarded(observer)
        token = guard.minter().mint()
        trace = honest_trace()
        server.analyze(trace, request_id="req-A", freshness_token=token)
        with pytest.raises(ReplayError):
            server.analyze(trace, request_id="req-A", freshness_token=token)

    def test_honest_retries_with_fresh_tokens_admit(self, observer):
        server, guard = self.make_guarded(observer)
        minter = guard.minter()
        trace = honest_trace()
        first = server.analyze(
            trace, request_id="req-A", freshness_token=minter.mint()
        )
        # A legitimate retry mints a new token; dedup returns the cache.
        second = server.analyze(
            trace, request_id="req-A", freshness_token=minter.mint()
        )
        assert second is first

    def test_analyze_sealed_round_trip(self, observer):
        server, guard = self.make_guarded(observer)
        channel = SecureChannel(SECRET)
        sealed = server.analyze_sealed(
            honest_trace(), freshness_token=channel.new_token()
        )
        report = channel.receive(sealed)
        assert report.duration_s == pytest.approx(2.0)
        tampered = bytearray(sealed)
        tampered[len(tampered) // 2] ^= 0x10
        with pytest.raises(EnvelopeError):
            channel.receive(bytes(tampered))

    def test_sealed_requires_transit_secret(self):
        from repro._util.errors import ConfigurationError

        server = AnalysisServer()
        with pytest.raises(ConfigurationError):
            server.analyze_sealed(honest_trace())


class TestClientIntegration:
    def test_duplicate_delivery_refused_by_guard(self, observer):
        from repro.cloud.network import NetworkModel, UnreliableNetworkModel
        from repro.serving.client import ResilientAnalysisClient

        guard = FreshnessGuard(SECRET)
        server = AnalysisServer(observer=observer, freshness=guard)
        link = UnreliableNetworkModel(
            base=NetworkModel(), duplicate_probability=1.0
        )
        client = ResilientAnalysisClient(
            server,
            link=link,
            rng=7,
            observer=observer,
            token_minter=guard.minter(),
        )
        report = client.analyze(honest_trace())
        assert report.duration_s == pytest.approx(2.0)
        assert client.duplicates_seen == 1
        assert client.duplicates_refused == 1
        assert observer.metrics.counter("serve.duplicates_refused").value == 1
        assert observer.metrics.counter("guard.replay_detected").value == 1
