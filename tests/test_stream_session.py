"""Streaming session protocol: gateway state machine, resume, epochs.

These are the unit-level checks behind the ``stream`` drill: every
refusal is typed, duplicates ack idempotently without re-analysis, the
epoch-overlap window is exactly as wide as configured, and the watchdog
walks sessions ACTIVE → SUSPENDED → REAPED on the injected clock.
"""

import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest

from repro._util.errors import (
    EnvelopeError,
    ResumeAuthError,
    SequenceGapError,
    SessionReapedError,
    SessionStateError,
    StaleEpochError,
    UnknownSessionError,
    ValidationError,
)
from repro._util.rng import ensure_rng
from repro.dsp import PeakDetector
from repro.guard.freshness import TokenMinter
from repro.stream import (
    RateController,
    StreamGateway,
    StreamSessionConfig,
    report_digest,
    seal_chunk,
    synthetic_stream_trace,
)

SECRET = b"unit-test-stream-secret"
FS = 1000.0


class ManualClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_gateway(clock=None, **config_kwargs):
    config = StreamSessionConfig(**config_kwargs) if config_kwargs else None
    return StreamGateway(SECRET, config=config, clock=clock)


def open_session(gateway, tenant="clinic-00", n_channels=2, minter=None):
    minter = minter or TokenMinter(SECRET, key_epoch=gateway.key_epoch)
    return gateway.open_session(tenant, n_channels, FS, minter.mint())


def chunks_of(trace, step):
    for pos in range(0, trace.shape[1], step):
        yield trace[:, pos : pos + step]


def send_all(gateway, opened, trace, step=512, key_epoch=None):
    epoch = gateway.key_epoch if key_epoch is None else key_epoch
    for seq, samples in enumerate(chunks_of(trace, step)):
        blob = seal_chunk(
            samples, SECRET, opened.session_key, seq,
            key_epoch=epoch, sampling_rate_hz=FS,
        )
        gateway.ingest_chunk(blob)


class TestHappyPath:
    def test_streamed_close_matches_one_shot(self):
        gateway = make_gateway()
        trace = synthetic_stream_trace(ensure_rng(3), n_channels=2, n_samples=2100)
        opened = open_session(gateway)
        send_all(gateway, opened, trace)
        outcome = gateway.close_session(opened.session_id)
        assert outcome.digest == report_digest(PeakDetector().detect(trace, FS))
        assert outcome.n_chunks == 5 and outcome.n_samples == 2100
        assert outcome.n_duplicates == 0 and not outcome.degraded

    def test_session_ids_namespaced_per_tenant(self):
        gateway = make_gateway()
        a = open_session(gateway, tenant="clinic-aa")
        b = open_session(gateway, tenant="clinic-bb")
        assert a.session_id == "clinic-aa/s0"
        assert b.session_id == "clinic-bb/s1"
        assert a.session_key != b.session_key
        assert a.resume_token != b.resume_token

    def test_open_rejects_bad_geometry(self):
        gateway = make_gateway()
        minter = TokenMinter(SECRET)
        with pytest.raises(ValidationError):
            gateway.open_session("clinic-00", 0, FS, minter.mint())
        with pytest.raises(ValidationError):
            gateway.open_session("clinic-00", 2, -1.0, minter.mint())
        with pytest.raises(ValidationError):
            gateway.open_session("", 2, FS, minter.mint())


class TestOrderingAndDuplicates:
    def test_duplicate_chunk_acks_without_reanalysis(self):
        gateway = make_gateway()
        trace = synthetic_stream_trace(ensure_rng(5), n_channels=2, n_samples=1024)
        opened = open_session(gateway)
        blob = seal_chunk(
            trace[:, :512], SECRET, opened.session_key, 0, sampling_rate_hz=FS
        )
        first = gateway.ingest_chunk(blob)
        analysed = gateway.chunks_analyzed
        replay = gateway.ingest_chunk(blob)
        assert not first.duplicate and replay.duplicate
        assert replay.cursor == first.cursor == 1
        assert gateway.chunks_analyzed == analysed

    def test_gap_refused_with_expected_seq(self):
        gateway = make_gateway()
        opened = open_session(gateway)
        trace = synthetic_stream_trace(ensure_rng(6), n_channels=2, n_samples=512)
        blob = seal_chunk(
            trace, SECRET, opened.session_key, 4, sampling_rate_hz=FS
        )
        with pytest.raises(SequenceGapError) as excinfo:
            gateway.ingest_chunk(blob)
        assert excinfo.value.expected_seq == 0

    def test_unknown_session_key_refused(self):
        gateway = make_gateway()
        open_session(gateway)
        trace = synthetic_stream_trace(ensure_rng(7), n_channels=2, n_samples=600)
        blob = seal_chunk(
            trace, SECRET, b"\x00" * 16, 0, sampling_rate_hz=FS
        )
        with pytest.raises(UnknownSessionError):
            gateway.ingest_chunk(blob)

    def test_tampered_envelope_refused_before_session_lookup(self):
        gateway = make_gateway()
        opened = open_session(gateway)
        trace = synthetic_stream_trace(ensure_rng(8), n_channels=2, n_samples=600)
        blob = bytearray(
            seal_chunk(trace, SECRET, opened.session_key, 0, sampling_rate_hz=FS)
        )
        blob[-1] ^= 0x01
        with pytest.raises(EnvelopeError):
            gateway.ingest_chunk(bytes(blob))


class TestResume:
    def test_resume_reports_cursor_and_replays_nothing(self):
        gateway = make_gateway()
        trace = synthetic_stream_trace(ensure_rng(9), n_channels=2, n_samples=1536)
        opened = open_session(gateway)
        send_all(gateway, opened, trace, step=512)
        analysed = gateway.chunks_analyzed
        info = gateway.resume(opened.session_id, opened.resume_token)
        assert info.cursor == 3
        assert gateway.chunks_analyzed == analysed
        outcome = gateway.close_session(opened.session_id)
        assert outcome.digest == report_digest(PeakDetector().detect(trace, FS))

    def test_resume_with_wrong_token_refused(self):
        gateway = make_gateway()
        opened = open_session(gateway)
        with pytest.raises(ResumeAuthError):
            gateway.resume(opened.session_id, "0" * 32)

    @pytest.mark.parametrize("token", ["é" * 32, "\ud800" * 32])
    def test_resume_with_non_ascii_token_refused(self, token):
        gateway = make_gateway()
        opened = open_session(gateway)
        with pytest.raises(ResumeAuthError):
            gateway.resume(opened.session_id, token)

    def test_resume_unknown_session_refused(self):
        gateway = make_gateway()
        with pytest.raises(UnknownSessionError):
            gateway.resume("clinic-00/s9", "0" * 32)


class TestEpochRotation:
    def test_previous_epoch_accepted_within_window_only(self):
        gateway = make_gateway(epoch_overlap_chunks=2)
        trace = synthetic_stream_trace(ensure_rng(10), n_channels=2, n_samples=2048)
        opened = open_session(gateway)
        old_epoch = gateway.key_epoch
        gateway.rotate_epoch()
        # Two straggler chunks sealed under the old epoch ride the
        # overlap window; the third is refused typed.
        for seq in range(2):
            blob = seal_chunk(
                trace[:, seq * 512 : (seq + 1) * 512], SECRET,
                opened.session_key, seq,
                key_epoch=old_epoch, sampling_rate_hz=FS,
            )
            gateway.ingest_chunk(blob)
        assert gateway.epoch_overlap_accepted == 2
        stale = seal_chunk(
            trace[:, 1024:1536], SECRET, opened.session_key, 2,
            key_epoch=old_epoch, sampling_rate_hz=FS,
        )
        with pytest.raises(StaleEpochError):
            gateway.ingest_chunk(stale)
        # The session itself is still healthy at the new epoch.
        fresh = seal_chunk(
            trace[:, 1024:1536], SECRET, opened.session_key, 2,
            key_epoch=gateway.key_epoch, sampling_rate_hz=FS,
        )
        assert gateway.ingest_chunk(fresh).cursor == 3

    def test_two_epochs_behind_never_accepted(self):
        gateway = make_gateway()
        trace = synthetic_stream_trace(ensure_rng(11), n_channels=2, n_samples=512)
        opened = open_session(gateway)
        old_epoch = gateway.key_epoch
        gateway.rotate_epoch()
        gateway.rotate_epoch()
        blob = seal_chunk(
            trace, SECRET, opened.session_key, 0,
            key_epoch=old_epoch, sampling_rate_hz=FS,
        )
        with pytest.raises(StaleEpochError):
            gateway.ingest_chunk(blob)

    def test_rotation_prunes_nonce_registry(self):
        gateway = make_gateway()
        for _ in range(3):
            open_session(gateway)
        before = gateway.freshness.pruned
        for _ in range(gateway.freshness.epoch_window + 1):
            gateway.rotate_epoch()
        assert gateway.freshness.pruned >= before + 3


class TestWatchdog:
    def test_idle_session_suspends_then_reaps(self):
        clock = ManualClock()
        gateway = make_gateway(clock=clock, suspend_after_s=10.0, reap_after_s=30.0)
        opened = open_session(gateway)
        clock.now = 11.0
        suspended, reaped = gateway.sweep()
        assert suspended == (opened.session_id,) and reaped == ()
        assert gateway.session_state(opened.session_id) == "suspended"
        clock.now = 42.0
        suspended, reaped = gateway.sweep()
        assert reaped == (opened.session_id,)
        with pytest.raises(SessionReapedError):
            gateway.resume(opened.session_id, opened.resume_token)

    def test_heartbeat_defers_suspension(self):
        clock = ManualClock()
        gateway = make_gateway(clock=clock, suspend_after_s=10.0, reap_after_s=30.0)
        opened = open_session(gateway)
        clock.now = 8.0
        gateway.heartbeat(opened.session_id)
        clock.now = 15.0
        suspended, _ = gateway.sweep()
        assert suspended == ()
        assert gateway.session_state(opened.session_id) == "active"

    def test_suspended_session_must_resume_before_chunks(self):
        clock = ManualClock()
        gateway = make_gateway(clock=clock, suspend_after_s=10.0, reap_after_s=30.0)
        trace = synthetic_stream_trace(ensure_rng(12), n_channels=2, n_samples=512)
        opened = open_session(gateway)
        clock.now = 11.0
        gateway.sweep()
        blob = seal_chunk(
            trace, SECRET, opened.session_key, 0, sampling_rate_hz=FS
        )
        with pytest.raises(SessionStateError):
            gateway.ingest_chunk(blob)
        gateway.resume(opened.session_id, opened.resume_token)
        assert gateway.ingest_chunk(blob).cursor == 1


class TestJournal:
    def test_replay_rebuilds_identical_report(self):
        gateway = make_gateway()
        trace = synthetic_stream_trace(ensure_rng(13), n_channels=2, n_samples=1600)
        opened = open_session(gateway)
        send_all(gateway, opened, trace, step=400)
        replayed = gateway.replay_journal(opened.session_id)
        outcome = gateway.close_session(opened.session_id)
        assert report_digest(replayed) == outcome.digest
        assert outcome.digest == report_digest(PeakDetector().detect(trace, FS))

    def test_close_frees_the_journal(self):
        gateway = make_gateway()
        trace = synthetic_stream_trace(ensure_rng(14), n_channels=2, n_samples=1024)
        session_ids = []
        for tenant in ("clinic-00", "clinic-01", "clinic-02"):
            opened = open_session(gateway, tenant=tenant)
            send_all(gateway, opened, trace, step=256)
            assert len(gateway.journal_blobs(opened.session_id)) == 4
            gateway.close_session(opened.session_id)
            session_ids.append(opened.session_id)
        for session_id in session_ids:
            assert gateway.journal_blobs(session_id) == ()
            with pytest.raises(SessionStateError):
                gateway.replay_journal(session_id)


class TestClosedSessionMemory:
    def test_closed_sessions_keep_only_a_tombstone(self):
        # A long capture's report holds hundreds of peaks; the caller
        # gets it from close_session and the gateway must not keep it.
        gateway = make_gateway()
        minter = TokenMinter(SECRET, key_epoch=gateway.key_epoch)
        trace = synthetic_stream_trace(ensure_rng(21), n_channels=2, n_samples=1200)

        def stream_and_close(index):
            opened = open_session(gateway, tenant=f"clinic-{index:02d}", minter=minter)
            send_all(gateway, opened, trace, step=600)
            return gateway.close_session(opened.session_id).report.count

        tracemalloc.start()
        try:
            for index in range(2):
                stream_and_close(index)
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for index in range(2, 22):
                assert stream_and_close(index) > 30
            gc.collect()
            growth = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert growth / 20 < 4096
        with pytest.raises(SessionStateError):  # the tombstone still refuses
            gateway.close_session("clinic-21/s21")


class TestRateController:
    def test_backoff_halves_to_floor_then_flags(self):
        config = StreamSessionConfig(
            chunk_samples=512, min_chunk_samples=64, max_chunk_samples=512
        )
        controller = RateController(config)
        sizes = []
        for _ in range(5):
            controller.on_backpressure()
            sizes.append(controller.chunk_samples)
        assert sizes == [256, 128, 64, 64, 64]
        assert controller.floored

    def test_growth_needs_consecutive_clean_acks(self):
        config = StreamSessionConfig(
            chunk_samples=512, min_chunk_samples=64, max_chunk_samples=512
        )
        controller = RateController(config)
        for _ in range(3):
            controller.on_backpressure()
        assert controller.chunk_samples == 64
        for _ in range(3):
            controller.on_clean_ack()
        controller.on_backpressure()  # resets the clean streak
        for _ in range(3):
            controller.on_clean_ack()
        assert controller.chunk_samples == 64
        controller.on_clean_ack()
        assert controller.chunk_samples == 128

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            StreamSessionConfig(chunk_samples=0)
        with pytest.raises(ValidationError):
            StreamSessionConfig(min_chunk_samples=1024, max_chunk_samples=512)
        with pytest.raises(ValidationError):
            dataclasses.replace(StreamSessionConfig(), epoch_overlap_chunks=-1)
