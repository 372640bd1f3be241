"""Library experiment runners."""

from repro.analysis.calibration import fit_calibration
from repro.experiments import (
    acquire_particle_events,
    make_fig14_capture,
    run_bead_dilution_series,
    single_key_plan,
)
from repro.particles import BEAD_7P8


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
