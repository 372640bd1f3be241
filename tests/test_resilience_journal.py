"""Record journal: bit-identical replay and corruption quarantine."""

import numpy as np
import pytest

from repro.dsp.peakdetect import DetectedPeak, PeakReport
from repro.obs import RECORD_QUARANTINED, EventLog, ManualClock, MetricsRegistry, Observer
from repro.resilience import RecordJournal, recover_store, replay_journal
from repro.resilience.journal import decode_entry, encode_entry
from repro.cloud.storage import RecordStore


def make_report(n_peaks=2):
    peaks = tuple(
        DetectedPeak(
            time_s=1.0 + i,
            depth=0.01 * (i + 1),
            width_s=0.02,
            amplitudes=(0.01, 0.002),
            sample_index=450 * (i + 1),
        )
        for i in range(n_peaks)
    )
    return PeakReport(peaks, 20.0, 450.0, 0)


@pytest.fixture
def journal_path(tmp_path):
    return str(tmp_path / "records.journal")


def journaled_store(path, start=100.0):
    clock = ManualClock(start)
    return RecordStore(clock=clock, journal=RecordJournal(path))


class TestRoundTrip:
    def test_encode_decode_round_trip(self, journal_path):
        store = journaled_store(journal_path)
        record = store.store("id-a", make_report(), metadata={"k": "v"})
        decoded = decode_entry(encode_entry(record))
        assert decoded.payload() == record.payload()
        assert decoded.checksum == record.checksum
        assert decoded.verify()

    def test_replay_recovers_bit_identically(self, journal_path):
        store = journaled_store(journal_path)
        originals = [
            store.store("id-a", make_report(1)),
            store.store("id-b", make_report(3)),
            store.store("id-a", make_report(2)),
        ]
        store.journal.close()
        recovered, replay = recover_store(journal_path)
        assert replay.n_quarantined == 0
        assert [r.payload() for r in replay.records] == [
            r.payload() for r in originals
        ]
        assert recovered.identifiers() == ("id-a", "id-b")
        assert [r.payload() for r in recovered.fetch("id-a")] == [
            r.payload() for r in store.fetch("id-a")
        ]

    def test_recovered_store_continues_sequence(self, journal_path):
        store = journaled_store(journal_path)
        store.store("id-a", make_report())
        store.store("id-a", make_report())
        store.journal.close()
        recovered, _ = recover_store(journal_path)
        fresh = recovered.store("id-a", make_report())
        assert fresh.sequence_number == 3

    def test_missing_journal_replays_empty(self, tmp_path):
        replay = replay_journal(str(tmp_path / "never-written.journal"))
        assert replay.n_recovered == 0
        assert replay.n_quarantined == 0


class TestQuarantine:
    def fill(self, path, n=3):
        store = journaled_store(path)
        for i in range(n):
            store.store(f"id-{i}", make_report(i + 1))
        store.journal.close()
        return store

    def test_corrupt_line_quarantined_others_recovered(self, journal_path):
        self.fill(journal_path, n=3)
        with open(journal_path) as handle:
            lines = handle.readlines()
        # Damage the middle record's payload digits.
        lines[1] = lines[1].replace("1", "2", 1)
        with open(journal_path, "w") as handle:
            handle.writelines(lines)
        observer = Observer(metrics=MetricsRegistry(), events=EventLog())
        _, replay = recover_store(journal_path, observer=observer)
        assert replay.n_recovered == 2
        assert replay.n_quarantined == 1
        assert replay.quarantined[0].line_number == 2
        kinds = [e.kind for e in observer.events.events]
        assert RECORD_QUARANTINED in kinds
        assert observer.metrics.counter("journal.quarantined").value == 1

    def test_decode_refuses_deep_nesting_as_value_error(self):
        with pytest.raises(ValueError, match="nested too deeply"):
            decode_entry("[" * 100000)

    def test_deeply_nested_line_quarantined_others_recovered(self, journal_path):
        # 200 KB of open brackets: under the line cap, past the JSON
        # decoder's recursion limit.
        self.fill(journal_path, n=2)
        with open(journal_path, "a") as handle:
            handle.write("[" * 200_000 + "\n")
        store = journaled_store(journal_path, start=200.0)
        store.store("id-9", make_report(1))
        store.journal.close()
        _, replay = recover_store(journal_path)
        assert replay.n_recovered == 3
        assert [q.line_number for q in replay.quarantined] == [3]
        assert "nested too deeply" in replay.quarantined[0].reason

    def test_truncated_final_line_quarantined(self, journal_path):
        self.fill(journal_path, n=2)
        raw = open(journal_path).read().rstrip("\n")
        with open(journal_path, "w") as handle:
            handle.write(raw[: len(raw) - 10])  # torn mid-write
        _, replay = recover_store(journal_path)
        assert replay.n_recovered == 1
        assert replay.n_quarantined == 1

    def test_truncated_tail_mid_record_spares_standby_state(self, journal_path):
        """A ship torn mid-record quarantines the partial line only:
        the standby applies the intact prefix, stays internally
        consistent, and accepts the retransmitted full line later (the
        ``repro.fleet.replication`` apply path)."""
        store = self.fill(journal_path, n=3)
        originals = [
            record
            for identifier in store.identifiers()
            for record in store.fetch(identifier)
        ]
        lines = [encode_entry(record) for record in originals]
        torn = lines[:-1] + [lines[-1][: len(lines[-1]) // 2]]
        standby = RecordStore(clock=ManualClock(200.0))
        quarantined = 0
        for line in torn:
            try:
                standby._restore(decode_entry(line))
            except ValueError:
                quarantined += 1
        assert quarantined == 1
        assert standby.n_records == len(originals) - 1
        for record in originals[:-1]:
            stored = standby.fetch(record.identifier_key)
            assert any(r.payload() == record.payload() for r in stored)
            assert all(r.verify() for r in stored)
        # The retransmitted intact line applies cleanly afterwards.
        standby._restore(decode_entry(lines[-1]))
        assert standby.n_records == len(originals)
        assert all(
            r.verify()
            for identifier in standby.identifiers()
            for r in standby.fetch(identifier)
        )

    def test_garbage_line_quarantined(self, journal_path):
        self.fill(journal_path, n=1)
        with open(journal_path, "a") as handle:
            handle.write("not json at all\n")
        _, replay = recover_store(journal_path)
        assert replay.n_recovered == 1
        assert replay.n_quarantined == 1

    def test_decode_rejects_crc_mismatch(self, journal_path):
        import json

        store = journaled_store(journal_path)
        record = store.store("id-a", make_report())
        line = encode_entry(record)
        entry = json.loads(line)
        entry["crc"] ^= 1
        with pytest.raises(ValueError, match="CRC"):
            decode_entry(json.dumps(entry))
        # Tampered payload under a recomputed-looking frame still fails
        # the record's own checksum.
        entry = json.loads(line)
        entry["payload"]["sequence_number"] = 999
        with pytest.raises(ValueError):
            decode_entry(json.dumps(entry))


class TestOversizedLines:
    """A maliciously huge journal line is quarantined, never loaded whole."""

    def write_journal(self, path, lines):
        with open(path, "w") as handle:
            for line in lines:
                handle.write(line + "\n")

    def honest_line(self, key="id-a"):
        clock = ManualClock(100.0)
        store = RecordStore(clock=clock)
        return encode_entry(store.store(key, make_report()))

    def test_oversized_line_quarantined_neighbours_survive(self, journal_path):
        observer = Observer(metrics=MetricsRegistry(), events=EventLog())
        self.write_journal(
            journal_path,
            [self.honest_line("id-a"), "x" * 4096, self.honest_line("id-b")],
        )
        replay = replay_journal(journal_path, observer=observer, max_line_bytes=1024)
        assert replay.n_recovered == 2
        assert replay.n_quarantined == 1
        assert replay.quarantined[0].line_number == 2
        assert "cap" in replay.quarantined[0].reason
        assert observer.metrics.counter("journal.oversized_lines").value == 1

    def test_default_cap_admits_honest_lines(self, journal_path):
        from repro.resilience.journal import MAX_JOURNAL_LINE_BYTES

        line = self.honest_line()
        assert len(line) < MAX_JOURNAL_LINE_BYTES
        self.write_journal(journal_path, [line])
        replay = replay_journal(journal_path)
        assert replay.n_recovered == 1 and replay.n_quarantined == 0

    def test_oversized_unterminated_final_line(self, journal_path):
        self.write_journal(journal_path, [self.honest_line()])
        with open(journal_path, "a") as handle:
            handle.write("y" * 5000)  # torn giant line, no newline
        replay = replay_journal(journal_path, max_line_bytes=1024)
        assert replay.n_recovered == 1
        assert replay.n_quarantined == 1

    def test_cap_must_be_positive(self, journal_path):
        from repro._util.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            replay_journal(journal_path, max_line_bytes=0)
