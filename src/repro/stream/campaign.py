"""The streaming drill: scripted link faults, checked invariants.

``run_stream`` drives real :class:`~repro.stream.session.DeviceStreamer`
/ :class:`~repro.stream.session.StreamGateway` pairs through every
failure the streaming lane claims to survive — disconnects in both
flavours, dropped chunks, a mid-stream key rotation, sustained
congestion, and a device that simply vanishes — and checks the lane's
contract after each:

* ``stream-bit-identical`` — streamed output equals the one-shot
  pipeline bit-for-bit, across varied chunk sizes.
* ``stream-resume-replays-nothing`` — disconnect + resume re-analyses
  zero chunks; retransmits of acked chunks dedupe at the cursor.
* ``stream-epoch-rotation-window`` — chunks sealed just before a
  rotation land inside the bounded overlap; stragglers past it refuse.
* ``stream-reorder-refused`` — a future-seq chunk at resume refuses
  with the expected cursor; replays of acked chunks ack idempotently.
* ``stream-congestion-degrades`` — a congested link shrinks chunks to
  the floor and the outcome degrades (through the standard
  degraded-diagnosis policy) instead of failing — and is *still*
  bit-identical.
* ``stream-watchdog-reaps`` — silent sessions suspend then reap on
  deadline; heartbeats keep an idle-but-alive session off the list.
* ``stream-journal-rebuild`` — replaying the acked-chunk journal just
  before the close frees it reproduces the closed session's report
  digest exactly.

Everything is seeded; the report digest is deterministic, so the drill
can gate CI (``python -m repro stream --smoke``).
"""

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro._util.drill import DrillReport, InvariantResult, canonical_digest
from repro._util.errors import (
    SequenceGapError,
    SessionReapedError,
    SessionStateError,
    StaleEpochError,
)
from repro.dsp.peakdetect import PeakDetector
from repro.obs import NULL_OBSERVER, ManualClock
from repro.serving.request import derive_request_rng
from repro.stream.envelope import seal_chunk
from repro.stream.session import (
    DeviceStreamer,
    StreamGateway,
    StreamSessionConfig,
    degraded_stream_diagnosis,
    report_digest,
)

_SECRET = b"stream-drill-shared-secret"


@dataclass
class StreamReport(DrillReport):
    """Everything one streaming drill produced."""

    seed: int = 0
    smoke: bool = False
    outcome_digests: List[str] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)

    def title(self) -> str:
        return f"stream drill seed {self.seed}{' (smoke)' if self.smoke else ''}"

    def summary_lines(self) -> List[str]:
        return [
            "link              "
            f"{self.counters.get('chunks_sent', 0)} chunks sent, "
            f"{self.counters.get('retransmits', 0)} retransmits, "
            f"{self.counters.get('disconnects', 0)} disconnects, "
            f"{self.counters.get('duplicate_acks', 0)} duplicate acks",
            "sessions          "
            f"{self.counters.get('sessions', 0)} run, "
            f"{self.counters.get('rotations', 0)} epoch rotations, "
            f"{self.counters.get('suspended', 0)} suspended, "
            f"{self.counters.get('reaped', 0)} reaped, "
            f"{self.counters.get('degraded', 0)} degraded",
        ]


class _ScriptedLink:
    """Deterministic fault schedule in the injector's duck type."""

    def __init__(
        self,
        drop_seqs: Tuple[int, ...] = (),
        disconnects: Optional[Dict[int, str]] = None,
        congest_all: bool = False,
    ) -> None:
        self.drop_seqs = set(drop_seqs)
        self.disconnects = dict(disconnects or {})
        self.congest_all = congest_all

    def should_drop_chunk(self, label: str, seq: int, attempt: int) -> bool:
        return attempt == 0 and seq in self.drop_seqs

    def disconnect_mode(self, label: str, seq: int) -> Optional[str]:
        return self.disconnects.get(seq)

    def congestion_signal(self, label: str, seq: int) -> bool:
        return self.congest_all


class _ReplayBeforeClose:
    """Gateway proxy: rebuilds each session from its journal just
    before ``close_session`` frees it."""

    def __init__(self, gateway: StreamGateway) -> None:
        self.gateway = gateway
        self.rebuilt: Dict[str, Any] = {}

    def __getattr__(self, name: str) -> Any:
        return getattr(self.gateway, name)

    def close_session(self, session_id: str):
        self.rebuilt[session_id] = self.gateway.replay_journal(session_id)
        return self.gateway.close_session(session_id)


def synthetic_stream_trace(
    rng: np.random.Generator,
    n_channels: int = 3,
    n_samples: int = 4000,
    sampling_rate_hz: float = 1000.0,
) -> np.ndarray:
    """A drifting multi-channel trace with well-separated dips."""
    t = np.arange(n_samples, dtype=float)
    trace = np.ones((n_channels, n_samples))
    for ch in range(n_channels):
        trace[ch] += 0.02 * np.sin(
            2.0 * np.pi * t / n_samples * rng.uniform(1.0, 3.0)
        )
    n_peaks = max(n_samples // 400, 3)
    centers = rng.choice(
        np.arange(120, n_samples - 120, 40), size=n_peaks, replace=False
    )
    for center in centers:
        width = rng.uniform(3.0, 10.0)
        depth = rng.uniform(0.01, 0.06)
        bump = np.exp(-0.5 * ((t - center) / width) ** 2)
        for ch in range(n_channels):
            trace[ch] -= depth * rng.uniform(0.6, 1.0) * bump
    trace += rng.normal(0.0, 1e-4, trace.shape)
    return trace


def _one_shot_digest(trace: np.ndarray, sampling_rate_hz: float) -> str:
    return report_digest(PeakDetector().detect(trace, sampling_rate_hz))


def run_stream(
    seed: int = 0,
    smoke: bool = False,
    observer: Any = NULL_OBSERVER,
) -> StreamReport:
    """Run the full streaming drill; deterministic for a given seed."""
    report = StreamReport(seed=seed, smoke=smoke)
    checks = report.invariants
    counters = report.counters
    for key in (
        "chunks_sent",
        "retransmits",
        "disconnects",
        "duplicate_acks",
        "sessions",
        "rotations",
        "suspended",
        "reaped",
        "degraded",
    ):
        counters[key] = 0

    def track(streamer: DeviceStreamer) -> None:
        counters["sessions"] += 1
        counters["chunks_sent"] += streamer.chunks_sent
        counters["retransmits"] += streamer.retransmits
        counters["disconnects"] += streamer.disconnects
        counters["duplicate_acks"] += streamer.duplicate_acks

    # ------------------------------------------------------------------
    # Phase 1 — bit-identity across chunk geometries, clean link.
    # ------------------------------------------------------------------
    n_identity = 2 if smoke else 4
    chunk_menu = (192, 333, 512, 1024)
    mismatches: List[str] = []
    for trial in range(n_identity):
        rng = derive_request_rng(seed, "stream#identity", trial)
        fs = 1000.0
        trace = synthetic_stream_trace(
            rng, n_samples=2500 if smoke else 4000, sampling_rate_hz=fs
        )
        chunk = chunk_menu[trial % len(chunk_menu)]
        config = StreamSessionConfig(
            chunk_samples=chunk, min_chunk_samples=64, max_chunk_samples=chunk
        )
        gateway = StreamGateway(
            _SECRET, config=config, observer=observer
        )
        streamer = DeviceStreamer(
            trace, fs, f"clinic-{trial:02d}", _SECRET,
            config=config, observer=observer, rng=rng,
        )
        outcome = streamer.run(gateway)
        track(streamer)
        report.outcome_digests.append(outcome.digest)
        expected = _one_shot_digest(trace, fs)
        if outcome.digest != expected:
            mismatches.append(
                f"trial {trial} chunk {chunk}: {outcome.digest} != {expected}"
            )
    checks.append(
        InvariantResult(
            name="stream-bit-identical",
            ok=not mismatches,
            detail="; ".join(mismatches),
        )
    )

    # ------------------------------------------------------------------
    # Phase 2 — disconnect + resume replays nothing; journal rebuild.
    # ------------------------------------------------------------------
    rng = derive_request_rng(seed, "stream#resume", 0)
    fs = 1000.0
    trace = synthetic_stream_trace(rng, n_samples=3513, sampling_rate_hz=fs)
    config = StreamSessionConfig(
        chunk_samples=512, min_chunk_samples=128, max_chunk_samples=512
    )
    gateway = StreamGateway(_SECRET, config=config, observer=observer)
    link = _ScriptedLink(
        drop_seqs=(1, 5), disconnects={2: "chunk-lost", 4: "ack-lost"}
    )
    streamer = DeviceStreamer(
        trace, fs, "clinic-resume", _SECRET,
        config=config, observer=observer, rng=rng,
    )
    replaying = _ReplayBeforeClose(gateway)
    outcome = streamer.run(replaying, injector=link)
    track(streamer)
    report.outcome_digests.append(outcome.digest)
    expected = _one_shot_digest(trace, fs)
    problems: List[str] = []
    if outcome.digest != expected:
        problems.append(f"digest {outcome.digest} != one-shot {expected}")
    n_chunks = -(-trace.shape[1] // config.chunk_samples)
    if gateway.chunks_analyzed != n_chunks:
        problems.append(
            f"{gateway.chunks_analyzed} chunks analysed, expected {n_chunks} "
            "(a resume replayed work)"
        )
    if streamer.disconnects != 2:
        problems.append(f"{streamer.disconnects} disconnects, scripted 2")
    if streamer.duplicate_acks < 1:
        problems.append("ack-lost retransmit was not deduplicated")
    if streamer.retransmits < 2:
        problems.append(f"{streamer.retransmits} retransmits, scripted >= 2")
    checks.append(
        InvariantResult(
            name="stream-resume-replays-nothing",
            ok=not problems,
            detail="; ".join(problems),
        )
    )
    rebuilt = replaying.rebuilt[outcome.session_id]
    checks.append(
        InvariantResult(
            name="stream-journal-rebuild",
            ok=report_digest(rebuilt) == outcome.digest,
            detail=f"{report_digest(rebuilt)} vs {outcome.digest}",
        )
    )

    # ------------------------------------------------------------------
    # Phase 3 — mid-stream epoch rotation inside the overlap window,
    # then adversarial probes: stale straggler, future seq, replay.
    # ------------------------------------------------------------------
    rng = derive_request_rng(seed, "stream#rotation", 0)
    fs = 1000.0
    trace = synthetic_stream_trace(rng, n_samples=3200, sampling_rate_hz=fs)
    config = StreamSessionConfig(
        chunk_samples=512,
        min_chunk_samples=128,
        max_chunk_samples=512,
        epoch_overlap_chunks=4,
    )
    gateway = StreamGateway(_SECRET, config=config, observer=observer)
    streamer = DeviceStreamer(
        trace, fs, "clinic-rotate", _SECRET,
        config=config, observer=observer, rng=rng,
    )

    def rotate_schedule(s: DeviceStreamer, seq: int) -> None:
        # The controller rotates at chunk 2; the device catches up at
        # chunk 4 — chunks 2 and 3 ride the overlap window still
        # sealed under the old epoch.
        if seq == 2:
            gateway.rotate_epoch()
        elif seq == 4:
            s.advance_epoch()

    outcome = streamer.run(gateway, before_chunk=rotate_schedule)
    track(streamer)
    counters["rotations"] += gateway.rotations
    report.outcome_digests.append(outcome.digest)
    expected = _one_shot_digest(trace, fs)
    problems = []
    if outcome.digest != expected:
        problems.append(f"digest {outcome.digest} != one-shot {expected}")
    if gateway.epoch_overlap_accepted != 2:
        problems.append(
            f"{gateway.epoch_overlap_accepted} overlap chunks accepted, "
            "expected exactly 2"
        )
    checks.append(
        InvariantResult(
            name="stream-epoch-rotation-window",
            ok=not problems,
            detail="; ".join(problems),
        )
    )

    # Adversarial probes against a fresh session on the same gateway.
    probe_problems: List[str] = []
    probe_rng = derive_request_rng(seed, "stream#probes", 0)
    probe = DeviceStreamer(
        trace[:, :1024], fs, "clinic-probe", _SECRET,
        key_epoch=gateway.key_epoch,
        config=config, observer=observer, rng=probe_rng,
    )
    opened = gateway.open_session(
        "clinic-probe", trace.shape[0], fs, probe.minter.mint()
    )
    first = seal_chunk(
        trace[:, :512], _SECRET, opened.session_key, seq=0,
        key_epoch=gateway.key_epoch, sampling_rate_hz=fs,
        nonce=probe_rng.bytes(16),
    )
    gateway.ingest_chunk(first)
    analysed_before = gateway.chunks_analyzed
    # Straggler from two epochs ago: outside any overlap window.
    gateway.rotate_epoch()
    counters["rotations"] += 1
    stale = seal_chunk(
        trace[:, 512:1024], _SECRET, opened.session_key, seq=1,
        key_epoch=gateway.key_epoch - 2, sampling_rate_hz=fs,
        nonce=probe_rng.bytes(16),
    )
    try:
        gateway.ingest_chunk(stale)
        probe_problems.append("stale-epoch straggler was accepted")
    except StaleEpochError:
        pass
    # Reordered future chunk: must refuse with the expected cursor.
    future = seal_chunk(
        trace[:, 512:1024], _SECRET, opened.session_key, seq=5,
        key_epoch=gateway.key_epoch, sampling_rate_hz=fs,
        nonce=probe_rng.bytes(16),
    )
    try:
        gateway.ingest_chunk(future)
        probe_problems.append("future-seq chunk was accepted")
    except SequenceGapError as error:
        if error.expected_seq != 1:
            probe_problems.append(
                f"gap refusal advertised seq {error.expected_seq}, cursor is 1"
            )
    # Replay of an acked chunk: idempotent ack, nothing re-analysed.
    ack = gateway.ingest_chunk(first)
    if not ack.duplicate or ack.cursor != 1:
        probe_problems.append("replayed chunk was not answered as duplicate")
    if gateway.chunks_analyzed != analysed_before:
        probe_problems.append("replayed chunk was re-analysed")
    checks.append(
        InvariantResult(
            name="stream-reorder-refused",
            ok=not probe_problems,
            detail="; ".join(probe_problems),
        )
    )

    # ------------------------------------------------------------------
    # Phase 4 — congestion: shrink to the floor, degrade, stay correct.
    # ------------------------------------------------------------------
    from repro.core.device import MedSenDevice
    from repro.core.diagnosis import CD4_STAGING
    from repro.particles.library import get_particle_type
    from repro.particles.sample import Sample
    from repro.resilience.health import OK

    rng = derive_request_rng(seed, "stream#congestion", 0)
    sample = Sample.from_concentrations(
        {get_particle_type("blood_cell"): 400.0},
        volume_ul=10.0,
        rng=rng,
    )
    device = MedSenDevice(rng=rng, observer=observer)
    capture = device.run_capture(sample, 2.0 if smoke else 4.0, encrypt=True)
    voltages = capture.trace.voltages
    fs = capture.trace.sampling_rate_hz
    config = StreamSessionConfig(
        chunk_samples=512, min_chunk_samples=64, max_chunk_samples=512
    )
    gateway = StreamGateway(_SECRET, config=config, observer=observer)
    streamer = DeviceStreamer(
        voltages, fs, "clinic-congested", _SECRET,
        config=config, observer=observer, rng=rng,
    )
    outcome = streamer.run(gateway, injector=_ScriptedLink(congest_all=True))
    track(streamer)
    report.outcome_digests.append(outcome.digest)
    problems = []
    if not outcome.degraded:
        problems.append("congested stream did not degrade")
    else:
        counters["degraded"] += 1
    if not streamer.controller.floored:
        problems.append("rate controller never hit the chunk floor")
    if streamer.controller.chunk_samples != config.min_chunk_samples:
        problems.append(
            f"chunk size settled at {streamer.controller.chunk_samples}, "
            f"floor is {config.min_chunk_samples}"
        )
    expected = _one_shot_digest(voltages, fs)
    if outcome.digest != expected:
        problems.append(f"digest {outcome.digest} != one-shot {expected}")
    diagnosis = degraded_stream_diagnosis(
        device,
        outcome,
        pumped_volume_ul=capture.pumped_volume_ul,
        diagnostic=CD4_STAGING,
        observer=observer,
    )
    if diagnosis.status == OK:
        problems.append("degraded stream still diagnosed OK")
    checks.append(
        InvariantResult(
            name="stream-congestion-degrades",
            ok=not problems,
            detail="; ".join(problems),
        )
    )

    # ------------------------------------------------------------------
    # Phase 5 — the watchdog: suspend on silence, reap on deadline.
    # ------------------------------------------------------------------
    clock = ManualClock()
    config = StreamSessionConfig(
        chunk_samples=512,
        min_chunk_samples=128,
        max_chunk_samples=512,
        suspend_after_s=15.0,
        reap_after_s=60.0,
    )
    gateway = StreamGateway(
        _SECRET, config=config, observer=observer, clock=clock
    )
    rng = derive_request_rng(seed, "stream#watchdog", 0)
    trace = synthetic_stream_trace(rng, n_samples=2048, sampling_rate_hz=1000.0)
    idle = DeviceStreamer(
        trace, 1000.0, "clinic-idle", _SECRET,
        config=config, observer=observer, rng=rng,
    )
    alive = DeviceStreamer(
        trace, 1000.0, "clinic-alive", _SECRET,
        config=config, observer=observer, rng=rng,
    )
    opened_idle = gateway.open_session(
        "clinic-idle", trace.shape[0], 1000.0, idle.minter.mint()
    )
    opened_alive = gateway.open_session(
        "clinic-alive", trace.shape[0], 1000.0, alive.minter.mint()
    )
    problems = []

    def chunk_for(opened, streamer, seq: int, lo: int, hi: int) -> bytes:
        return seal_chunk(
            trace[:, lo:hi], _SECRET, opened.session_key, seq=seq,
            key_epoch=0, sampling_rate_hz=1000.0, nonce=rng.bytes(16),
        )

    gateway.ingest_chunk(chunk_for(opened_idle, idle, 0, 0, 512))
    gateway.ingest_chunk(chunk_for(opened_alive, alive, 0, 0, 512))
    clock.advance(10.0)
    gateway.heartbeat(opened_alive.session_id)
    clock.advance(10.0)  # idle silent for 20 s, alive for 10 s
    suspended, reaped = gateway.sweep()
    counters["suspended"] += len(suspended)
    if list(suspended) != [opened_idle.session_id] or reaped:
        problems.append(
            f"sweep suspended {suspended!r} / reaped {reaped!r}, "
            "expected the idle session suspended only"
        )
    try:
        gateway.ingest_chunk(chunk_for(opened_idle, idle, 1, 512, 1024))
        problems.append("suspended session accepted a chunk without resume")
    except SessionStateError:
        pass
    info = gateway.resume(opened_idle.session_id, opened_idle.resume_token)
    if info.cursor != 1:
        problems.append(f"resume advertised cursor {info.cursor}, expected 1")
    gateway.ingest_chunk(chunk_for(opened_idle, idle, 1, 512, 1024))
    # Now go silent past both deadlines: suspend, then reap.
    clock.advance(20.0)
    gateway.sweep()
    counters["suspended"] += 1
    clock.advance(61.0)
    _, reaped = gateway.sweep()
    counters["reaped"] += len(reaped)
    if opened_idle.session_id not in reaped:
        problems.append("silent session was never reaped")
    try:
        gateway.resume(opened_idle.session_id, opened_idle.resume_token)
        problems.append("reaped session accepted a resume")
    except SessionReapedError:
        pass
    try:
        gateway.ingest_chunk(chunk_for(opened_idle, idle, 2, 1024, 1536))
        problems.append("reaped session accepted a chunk")
    except SessionReapedError:
        pass
    if gateway.session_state(opened_alive.session_id) != "reaped":
        # The alive session also went silent above; it reaps on the
        # same sweeps, which is fine — what matters is that heartbeats
        # deferred its suspension at the 20 s mark.
        pass
    checks.append(
        InvariantResult(
            name="stream-watchdog-reaps",
            ok=not problems,
            detail="; ".join(problems),
        )
    )

    # ------------------------------------------------------------------
    # Final report digest (deterministic; no wall-clock anywhere).
    # ------------------------------------------------------------------
    report.digest = canonical_digest(
        {
            "drill": "stream",
            "seed": seed,
            "smoke": smoke,
            "invariants": [(inv.name, inv.ok, inv.detail) for inv in checks],
            "outcomes": report.outcome_digests,
            "counters": dict(sorted(counters.items())),
        },
        16,
    )
    return report
