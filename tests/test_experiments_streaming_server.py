"""Library experiment runners and the server's streaming mode."""

import numpy as np
import pytest

from repro.analysis.calibration import fit_calibration
from repro.cloud.server import AnalysisServer
from repro.experiments import (
    acquire_particle_events,
    make_fig14_capture,
    run_bead_dilution_series,
    single_key_plan,
)
from repro.hardware.acquisition import AcquiredTrace
from repro.particles import BEAD_7P8
from repro.physics.noise import NoiseModel
from repro.physics.peaks import PulseEvent, synthesize_pulse_train
from tests._dsp_oracle import report_digest


class TestExperimentRunners:
    def test_single_key_plan_defaults(self):
        plan = single_key_plan({9, 2})
        assert plan.schedule.n_epochs == 1
        assert plan.array.n_outputs == 9
        assert plan.multiplication_factor_at(0.0) == 3

    def test_acquire_particle_events_chain(self):
        plan = single_key_plan({9, 2})
        events, trace, report = acquire_particle_events(
            plan, BEAD_7P8, [1.0, 2.5], 4.0, rng=3
        )
        assert len(events) == 6
        assert report.count == 6
        assert trace.n_channels == 5

    def test_dilution_series_shape(self):
        estimated, measured = run_bead_dilution_series(
            BEAD_7P8,
            concentrations_per_ul=(500.0, 1500.0),
            runs_per_concentration=1,
            duration_s=40.0,
        )
        assert estimated.shape == measured.shape == (2,)
        assert measured[1] > measured[0]

    def test_fig14_capture_exact_length(self):
        capture = make_fig14_capture(12345)
        assert capture.shape == (1, 12345)


class TestStreamingServer:
    def make_trace(self, duration_s=90.0):
        centers = np.arange(1.0, duration_s - 1.0, 2.0)
        events = [
            PulseEvent(center_s=c, width_s=0.02, amplitudes=np.array([0.01]))
            for c in centers
        ]
        voltages = synthesize_pulse_train(events, 1, 450.0, duration_s)
        voltages = NoiseModel(white_sigma=1e-4).apply(voltages, 450.0, rng=0)
        return (
            AcquiredTrace(voltages, 450.0, (500e3,)),
            len(centers),
        )

    def test_streaming_matches_batch(self):
        trace, n_true = self.make_trace()
        server = AnalysisServer()
        batch = server.analyze(trace)
        streamed = server.analyze_streaming(trace, chunk_s=13.0)
        assert batch.count == n_true
        assert report_digest(streamed) == report_digest(batch)
        assert server.jobs_processed == 2

    def test_streaming_accounting(self):
        trace, _ = self.make_trace(duration_s=60.0)
        server = AnalysisServer()
        server.analyze_streaming(trace)
        assert server.total_processing_time_s > 0
        assert len(server.history) == 1
        assert server.last_job().report.count > 0
