"""Repeatability model and cloud message protocol."""

import numpy as np
import pytest

from repro._util.errors import ValidationError
from repro.analysis.repeatability import (
    counting_cv,
    empirical_cv,
    is_repeatable,
    required_sample_size,
)
from repro.cloud.api import (
    AnalysisRequest,
    AnalysisResponse,
    StoreRequest,
    report_from_dict,
    report_to_dict,
)
from repro.dsp.peakdetect import DetectedPeak, PeakReport


class TestRepeatability:
    def test_paper_20k_rule(self):
        # §VI-B: 20K cells give repeatable counts; small samples do not.
        assert is_repeatable(20_000)
        assert not is_repeatable(200)

    def test_cv_decreases_with_sample_size(self):
        sizes = [100, 1_000, 10_000, 100_000]
        cvs = [counting_cv(n) for n in sizes]
        assert all(b < a for a, b in zip(cvs, cvs[1:]))

    def test_cv_converges_to_floor(self):
        assert counting_cv(10**9, system_floor=0.02) == pytest.approx(0.02, rel=0.01)

    def test_required_sample_size_roundtrip(self):
        n = required_sample_size(0.05, system_floor=0.02)
        assert counting_cv(n, system_floor=0.02) <= 0.0501

    def test_unreachable_target_rejected(self):
        with pytest.raises(ValidationError):
            required_sample_size(0.01, system_floor=0.02)

    def test_empirical_cv(self):
        counts = [100, 110, 90, 105, 95]
        cv = empirical_cv(counts)
        assert cv == pytest.approx(np.std(counts, ddof=1) / np.mean(counts))

    def test_empirical_cv_validation(self):
        with pytest.raises(ValidationError):
            empirical_cv([5])
        with pytest.raises(ValidationError):
            empirical_cv([0, 0])


def sample_report():
    peaks = (
        DetectedPeak(1.0, 0.01, 0.02, np.array([0.01, 0.005]), 450),
        DetectedPeak(2.0, 0.02, 0.015, np.array([0.02, 0.01]), 900),
    )
    return PeakReport(peaks, 10.0, 450.0, 0)


class TestCloudApi:
    def test_analysis_request_roundtrip(self):
        request = AnalysisRequest("cap-1", 5, 27000, 450.0, 123456)
        recovered = AnalysisRequest.from_json(request.to_json())
        assert recovered == request

    def test_analysis_response_roundtrip(self):
        response = AnalysisResponse("cap-1", sample_report())
        recovered = AnalysisResponse.from_json(response.to_json())
        assert recovered.capture_id == "cap-1"
        assert recovered.report.count == 2
        assert recovered.report.peaks[0].time_s == pytest.approx(1.0)
        assert np.allclose(
            recovered.report.peaks[1].amplitudes, [0.02, 0.01]
        )

    def test_store_request_roundtrip(self):
        request = StoreRequest("id-key", "cap-1", (("k", "v"),))
        recovered = StoreRequest.from_json(request.to_json())
        assert recovered == request

    def test_report_dict_roundtrip(self):
        report = sample_report()
        recovered = report_from_dict(report_to_dict(report))
        assert recovered.count == report.count
        assert recovered.duration_s == report.duration_s

    def test_wrong_message_type_rejected(self):
        request = AnalysisRequest("cap-1", 1, 10, 450.0, 5)
        with pytest.raises(ValidationError):
            AnalysisResponse.from_json(request.to_json())

    def test_missing_field_rejected(self):
        with pytest.raises(ValidationError):
            AnalysisRequest.from_json('{"type": "analysis_request"}')

    @pytest.mark.parametrize("cls", [AnalysisRequest, AnalysisResponse, StoreRequest])
    def test_deep_nesting_rejected(self, cls):
        with pytest.raises(ValidationError, match="nested too deeply"):
            cls.from_json("[" * 100000)

    def test_invalid_construction(self):
        with pytest.raises(ValidationError):
            AnalysisRequest("", 1, 10, 450.0, 5)
        with pytest.raises(ValidationError):
            StoreRequest("", "cap", ())
