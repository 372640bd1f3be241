"""Long-capture processing: streaming analysis and data volumes (§VII-B).

The paper's stress test runs a sample for 3 hours, producing ~600 MB of
CSV that zip compression shrinks to ~240 MB.  This example plays a
scaled-down version (10 minutes) of that workflow:

* the capture is processed *in streaming chunks* as it is acquired —
  peaks surface long before the run ends;
* the streamed report is checked bit-identical to batch detection;
* measured bytes/second and the DEFLATE ratio are extrapolated to the
  full 3-hour run and compared with §VII-B's numbers.

Run:  python examples/long_capture_streaming.py
"""

import numpy as np

from repro.core.device import MedSenDevice
from repro.dsp.peakdetect import PeakDetector
from repro.dsp.recording import CsvRecordingModel, compression_ratio
from repro.dsp.windowed import WindowedPeakDetector
from repro.particles import BEAD_7P8, Sample
from repro.stream import report_digest

DURATION_S = 600.0
CHUNK_S = 20.0


def main() -> None:
    device = MedSenDevice(rng=9)
    sample = Sample.from_concentrations({BEAD_7P8: 2000.0}, volume_ul=20)
    print(f"acquiring {DURATION_S / 60:.0f} min of plaintext capture...")
    capture = device.run_capture(
        sample, DURATION_S, encrypt=False, rng=np.random.default_rng(1)
    )
    trace = capture.trace
    print(f"capture: {trace.n_channels} channels x {trace.n_samples} samples")

    # --- streaming analysis ---
    streaming = WindowedPeakDetector(trace.n_channels, trace.sampling_rate_hz)
    chunk = int(CHUNK_S * trace.sampling_rate_hz)
    emitted_so_far = 0
    for start in range(0, trace.n_samples, chunk):
        emitted_so_far += streaming.feed(trace.voltages[:, start : start + chunk])
        if start % (5 * chunk) == 0:
            t = start / trace.sampling_rate_hz
            print(f"  t={t:5.0f}s: {emitted_so_far} peaks emitted so far")
    report = streaming.finish()

    batch = PeakDetector().detect(trace.voltages, trace.sampling_rate_hz)
    if report_digest(report) != report_digest(batch):
        raise SystemExit("streamed report differs from batch detection")
    print(f"\nstreaming total: {report.count} peaks, bit-identical to batch; "
          f"ground truth arrivals: {capture.ground_truth.total_arrived}")

    # --- data volume extrapolation ---
    model = CsvRecordingModel()
    slice_payload = model.encode(trace.voltages[:, : int(60 * 450)], 450.0)
    ratio = compression_ratio(slice_payload)
    bytes_per_s = len(slice_payload) / 60.0
    raw_3h = bytes_per_s * 3 * 3600
    print("\n3-hour extrapolation (paper: ~600 MB raw -> ~240 MB zipped):")
    print(f"  raw CSV:   {raw_3h / 1e6:6.0f} MB "
          f"({trace.n_channels} carriers; the paper used 8)")
    print(f"  zipped:    {raw_3h * ratio / 1e6:6.0f} MB (ratio {ratio:.2f})")


if __name__ == "__main__":
    main()
