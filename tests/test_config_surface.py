"""The serving stack's settable surface and the constants behind it.

Each config object's field names are pinned, so a new knob fails here
under its own name; each value that is a module constant rather than
an option is pinned too, so a moved default fails the same way.
"""

import dataclasses
import inspect

from repro.core.diagnosis import CD4_STAGING
from repro.core.protocol import MARKER_TYPE_NAME, MedSenSession
from repro.fleet.cluster import FleetTierConfig
from repro.guard.admission import admit_session_params
from repro.mobile import phone
from repro.serving import scheduler
from repro.serving.scheduler import FleetConfig
from repro.stream import session
from repro.stream.session import StreamSessionConfig


def field_names(config_type):
    return tuple(f.name for f in dataclasses.fields(config_type))


class TestFieldNames:
    def test_fleet_config(self):
        assert field_names(FleetConfig) == (
            "seed",
            "n_workers",
            "queue_capacity",
            "network",
            "drop_probability",
            "timeout_probability",
            "duplicate_probability",
            "retry",
            "deadline_s",
            "realtime_network",
            "freshness_secret",
            "auth_lockout",
        )

    def test_smartphone(self):
        assert field_names(phone.Smartphone) == (
            "network",
            "local_analysis_threshold_samples",
            "observer",
            "admission",
            "channel",
        )

    def test_stream_session_config(self):
        assert field_names(StreamSessionConfig) == (
            "chunk_samples",
            "min_chunk_samples",
            "max_chunk_samples",
            "suspend_after_s",
            "reap_after_s",
            "epoch_overlap_chunks",
            "max_attempts",
        )

    def test_fleet_tier_config(self):
        assert field_names(FleetTierConfig) == (
            "n_shards",
            "shard",
            "max_inflight",
            "journal",
            "journal_dir",
            "request_timeout_s",
        )


class TestConstants:
    def test_fleet(self):
        assert scheduler.POISON_THRESHOLD == 2
        assert scheduler.BREAKER_FAILURE_THRESHOLD == 5
        assert scheduler.BREAKER_RECOVERY_S == 5.0
        assert scheduler.NETWORK_TIMEOUT_S == 2.0

    def test_fleet_wiring(self):
        fleet = scheduler.FleetScheduler(
            FleetConfig(n_workers=1, drop_probability=0.1)
        )
        assert fleet.breaker.failure_threshold == scheduler.BREAKER_FAILURE_THRESHOLD
        assert fleet.breaker.recovery_time_s == scheduler.BREAKER_RECOVERY_S
        assert fleet.link.timeout_s == scheduler.NETWORK_TIMEOUT_S
        assert not fleet.server.keep_history

    def test_admission_caps(self):
        parameters = inspect.signature(admit_session_params).parameters
        assert parameters["max_duration_s"].default == 3600.0
        assert parameters["max_pipette_volume_ul"].default == 1000.0

    def test_stream_rate_control(self):
        assert session.CONGESTION_BACKOFF == 0.5
        assert session.CLEAN_ACKS_TO_GROW == 4

    def test_phone(self):
        assert phone.COMPRESSION_LEVEL == 6
        assert phone.COMPRESSION_BYTES_PER_S == 40e6
        assert phone.RECORDING == phone.CsvRecordingModel()

    def test_session(self):
        assert MARKER_TYPE_NAME == "blood_cell"
        assert inspect.signature(MedSenSession).parameters[
            "diagnostic"
        ].default is CD4_STAGING
