"""Disconnection-tolerant streaming monitoring (the streaming lane).

A point-of-care monitor cannot hold a session's worth of trace in RAM
or trust a clinic's uplink to stay alive — this package lets the device
ship its trace as sealed chunks and still get the *exact* one-shot
answer:

* :mod:`~repro.stream.envelope` — MSS1, the per-chunk authenticated
  envelope (epoch + session + seq bound under the MAC).
* :mod:`~repro.stream.session` — resumable sessions: per-session
  cursor + acked-chunk journal (resume replays nothing), deadline
  watchdog (suspend → reap), mid-stream key-epoch rotation with a
  bounded overlap window, and adaptive rate control that degrades
  instead of failing under congestion.
* :mod:`~repro.stream.campaign` — the scripted streaming drill behind
  ``python -m repro stream`` and the CI gate.

The DSP core (chunked windowed detrend + carry-over peak detection,
bit-identical to the one-shot path) lives in
:mod:`repro.dsp.windowed`; this package is the protocol around it.
"""

from repro.stream.campaign import (
    StreamReport,
    run_stream,
    synthetic_stream_trace,
)
from repro.stream.envelope import (
    HEADER_BYTES,
    MAX_CHUNK_BYTES,
    MAX_CHUNK_CHANNELS,
    MAX_CHUNK_SAMPLES,
    StreamChunk,
    open_chunk,
    seal_chunk,
)
from repro.stream.session import (
    ChunkAck,
    DeviceStreamer,
    OpenedStream,
    RateController,
    ResumeInfo,
    StreamGateway,
    StreamOutcome,
    StreamSessionConfig,
    degraded_stream_diagnosis,
    report_digest,
)

__all__ = [
    "ChunkAck",
    "DeviceStreamer",
    "HEADER_BYTES",
    "MAX_CHUNK_BYTES",
    "MAX_CHUNK_CHANNELS",
    "MAX_CHUNK_SAMPLES",
    "OpenedStream",
    "RateController",
    "ResumeInfo",
    "StreamChunk",
    "StreamGateway",
    "StreamOutcome",
    "StreamReport",
    "StreamSessionConfig",
    "degraded_stream_diagnosis",
    "open_chunk",
    "report_digest",
    "run_stream",
    "seal_chunk",
    "synthetic_stream_trace",
]
