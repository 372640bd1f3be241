"""Replicated primary's reply path: shipped lines equal a full-scan oracle.

A replicated primary attaches to each successful reply the journal lines
of the records it has not shipped yet under the session's identifier
key.  The shard examines each committed record once (a per-key cursor
into the store); ``tests/_ship_oracle.py`` re-reads the key's whole
history on every reply.  These tests drive an in-process
:class:`~repro.fleet.shard._ShardRuntime` through a list-collecting
channel and hold every reply's ``journal_entry`` to the oracle's —
across repeat visits, a shared key, a re-delivered submission, journal
recovery and standby promotion — and count content hashes to pin the
once-per-record cost.  A replicated request encodes its record three
times (store, ship-time verify, standby decode), and both journals hold
exactly the reference codec's lines (``tests/_record_codec_oracle.py``).
"""

import itertools

import pytest
from hypothesis import given

import repro.cloud.storage as storage_module
import repro.fleet.shard as shard_module
from repro.core.config import MedSenConfig
from repro.dsp.peakdetect import PeakReport
from repro.fleet import rollup_telemetry
from repro.fleet.messages import (
    JournalShip,
    LeaseGrant,
    RegisterTenant,
    ShipAck,
    SubmitRequest,
    SubmitResponse,
)
from repro.fleet.shard import ShardSpec, _ShardRuntime
from repro.resilience.journal import recover_store
from repro.serving import ClinicWorkload, FleetConfig

from tests import _record_codec_oracle as codec_oracle
from tests._ship_oracle import ShipOracle, snapshot
from tests.test_record_canonical_form import ADMITTED_STORES, PROPERTY, assert_replays_to

WORKLOAD = ClinicWorkload(n_tenants=2, requests_per_tenant=12, duration_s=8.0, seed=11)
IDENTIFIERS = WORKLOAD.identifiers(MedSenConfig())
TENANTS = WORKLOAD.tenant_ids()
PARTITION = "part-00"


class ListChannel:
    """Stands in for the shard's pipe: records every sent frame."""

    garbage_frames = 0

    def __init__(self) -> None:
        self.sent = []

    def send(self, msg_id, payload) -> None:
        self.sent.append((msg_id, payload))


def make_spec(shard_id="part-00-a", journal_path=None):
    return ShardSpec(
        shard_id=shard_id,
        fleet=FleetConfig(seed=11, n_workers=2, queue_capacity=32),
        journal_path=journal_path,
        partition=PARTITION,
        replicated=True,
    )


class Shard:
    """One in-process runtime plus the oracle every reply is held to.

    The oracle is seeded from the runtime's store when the harness is
    built (fresh, recovered, or promoted), exactly as the shard seeds
    its own known-hash set.
    """

    def __init__(self, spec) -> None:
        self.runtime = _ShardRuntime(spec, ListChannel())
        self.oracle = ShipOracle(self.runtime.store)
        self._msg_id = 0
        self._checked = 0
        self.responses = []

    def close(self) -> None:
        self.runtime.scheduler.shutdown()
        if self.runtime.journal is not None:
            self.runtime.journal.close()

    def dispatch(self, msg) -> None:
        self._msg_id += 1
        self.runtime.dispatch(self._msg_id, msg)

    def register(self, tenant, identifier_tenant=None) -> None:
        self.dispatch(RegisterTenant(tenant, IDENTIFIERS[identifier_tenant or tenant]))

    def submit(self, tenant, sequence, identifier_tenant=None) -> None:
        self.dispatch(
            SubmitRequest(
                tenant_id=tenant,
                tenant_sequence=sequence,
                blood=WORKLOAD.blood_sample(TENANTS.index(tenant), sequence),
                identifier=IDENTIFIERS[identifier_tenant or tenant],
                duration_s=WORKLOAD.duration_s,
            )
        )

    def settle(self):
        """Finish every in-flight session, sweep, and check each reply.

        Sessions are complete before the sweep, so the store is still
        while the oracle reads its snapshot and the shard ships.
        """
        for future in self.runtime.pending.values():
            future.wait(120)
        records = snapshot(self.runtime.store)
        self.runtime.sweep()
        new = [
            payload
            for _, payload in self.runtime.channel.sent[self._checked:]
            if isinstance(payload, SubmitResponse)
        ]
        self._checked = len(self.runtime.channel.sent)
        for response in new:
            if response.ok and not response.duplicate:
                expected = self.oracle.entry(records, response.outcome.record_key)
            else:
                expected = None  # cached and failed replies ship nothing
            assert response.journal_entry == expected
        self.responses.extend(new)
        return new


def lines(response):
    return response.journal_entry.split("\n") if response.journal_entry else []


@pytest.fixture
def shards():
    opened = []

    def build(spec):
        shard = Shard(spec)
        opened.append(shard)
        return shard

    yield build
    for shard in opened:
        shard.close()


class TestShippedLinesMatchFullScan:
    def test_sequential_same_tenant_requests(self, shards):
        shard = shards(make_spec())
        shard.register(TENANTS[0])
        for sequence in range(4):
            shard.submit(TENANTS[0], sequence)
            (response,) = shard.settle()
            # Every session commits one record, shipped with its reply.
            assert len(lines(response)) == 1

    def test_two_tenants_sharing_one_password(self, shards):
        # The second tenant presents the first tenant's cyto-coded
        # password, so both tenants' records pile up under the keys
        # that password decodes to.  Eight sessions finish before one
        # sweep: the first reply under a key carries every record
        # committed there, and later replies under it find nothing new.
        shard = shards(make_spec())
        shard.register(TENANTS[0])
        for sequence in range(4):
            shard.submit(TENANTS[0], sequence)
            shard.submit(TENANTS[1], sequence, identifier_tenant=TENANTS[0])
        sizes = [len(lines(response)) for response in shard.settle()]
        assert sum(sizes) == 8
        assert max(sizes) > 1 and 0 in sizes
        # Then one visit at a time, onto the keys' existing histories.
        for sequence in range(4, 6):
            shard.submit(TENANTS[1], sequence, identifier_tenant=TENANTS[0])
            (response,) = shard.settle()
            assert len(lines(response)) == 1

    def test_redelivered_submission(self, shards):
        shard = shards(make_spec())
        shard.register(TENANTS[0])
        shard.submit(TENANTS[0], 0)
        (original,) = shard.settle()
        shard.submit(TENANTS[0], 0)  # transport-level duplicate
        shard.submit(TENANTS[0], 1)
        duplicate, fresh = shard.settle()
        assert duplicate.duplicate and duplicate.outcome == original.outcome
        assert len(lines(fresh)) == 1

    def test_runtime_recovered_from_a_journal(self, shards, tmp_path):
        spec = make_spec(journal_path=str(tmp_path / "part-00-a.journal"))
        before = shards(spec)
        before.register(TENANTS[0])
        for sequence in range(2):
            before.submit(TENANTS[0], sequence)
            before.settle()
        before.close()

        after = shards(spec)
        assert after.runtime.recovered_records == 2
        after.register(TENANTS[0])
        for sequence in range(2, 4):
            after.submit(TENANTS[0], sequence)
            (response,) = after.settle()
            # Recovered records are never re-shipped.
            assert len(lines(response)) == 1

    def test_standby_promoted_by_lease_grant(self, shards):
        primary = shards(make_spec("part-00-a"))
        standby = shards(make_spec("part-00-b"))
        standby.dispatch(LeaseGrant(PARTITION, 1, "standby", 1.0))
        primary.register(TENANTS[0])
        for sequence in range(3):
            primary.submit(TENANTS[0], sequence)
            (response,) = primary.settle()
            standby.dispatch(JournalShip(PARTITION, 1, tuple(lines(response))))
        assert standby.runtime.replica_applied == 3

        standby.dispatch(LeaseGrant(PARTITION, 2, "primary", 1.0))
        # The promoted shard's known set is every record it applied.
        standby.oracle = ShipOracle(standby.runtime.store)
        standby.register(TENANTS[0])
        for sequence in range(3, 5):
            standby.submit(TENANTS[0], sequence)
            (response,) = standby.settle()
            assert response.epoch == 2
            # The applied records are known; only the new one ships.
            assert len(lines(response)) == 1


@pytest.fixture
def hash_calls(monkeypatch):
    """Sequence numbers of the records the shard content-hashes."""
    calls = []
    real = shard_module.record_content_hash

    def counting(record, payload_text=None):
        calls.append(record.sequence_number)
        return real(record, payload_text)

    monkeypatch.setattr(shard_module, "record_content_hash", counting)
    return calls


class TestEachRecordExaminedOnce:
    def test_twelve_requests_hash_twelve_records(self, shards, hash_calls):
        shard = shards(make_spec())
        shard.register(TENANTS[0])
        for sequence in range(WORKLOAD.requests_per_tenant):
            shard.submit(TENANTS[0], sequence)
            shard.settle()
        shipped = [line for response in shard.responses for line in lines(response)]
        assert len(shipped) == len(hash_calls) == 12
        assert len(set(hash_calls)) == 12
        # The full scan re-hashed every repeat key's history.
        assert shard.oracle.hashed > 12

    def test_one_key_history_is_not_rescanned(self, shards, hash_calls):
        # Twelve visits committed under one identifier key: the full
        # scan hashes 1 + 2 + ... + 12 = 78 records, the shard 12.
        shard = shards(make_spec())
        key = IDENTIFIERS[TENANTS[0]].as_string()
        for visit in range(12):
            report = PeakReport((), float(visit + 1), 450.0, 0)
            shard.runtime.store.store(key, report)
            records = snapshot(shard.runtime.store)
            entry = shard.runtime._entry_for_shipping(key)
            assert entry == shard.oracle.entry(records, key)
            assert len(entry.split("\n")) == 1
        assert len(hash_calls) == 12
        assert shard.oracle.hashed == 78


class TestReplyPathTelemetry:
    def test_one_observation_per_request_and_per_ship(self, shards):
        primary = shards(make_spec("part-00-a"))
        standby = shards(make_spec("part-00-b"))
        standby.dispatch(LeaseGrant(PARTITION, 1, "standby", 1.0))
        primary.register(TENANTS[0])
        n_requests = 3
        for sequence in range(n_requests):
            primary.submit(TENANTS[0], sequence)
            (response,) = primary.settle()
            standby.dispatch(JournalShip(PARTITION, 1, tuple(lines(response))))
        fleet = rollup_telemetry(
            [primary.runtime.telemetry(), standby.runtime.telemetry()]
        )
        assert fleet.histogram("fleet.ship_prepare_s").count == n_requests
        assert fleet.histogram("replica.apply_s").count == n_requests


class TestStandbyQuarantine:
    def test_deeply_nested_line_quarantined_rest_applied(self, shards):
        primary = shards(make_spec("part-00-a"))
        standby = shards(make_spec("part-00-b"))
        standby.dispatch(LeaseGrant(PARTITION, 1, "standby", 1.0))
        primary.register(TENANTS[0])
        primary.submit(TENANTS[0], 0)
        (response,) = primary.settle()
        nested = "[" * 100000
        standby.dispatch(JournalShip(PARTITION, 1, (nested, *lines(response))))
        _, reply = standby.runtime.channel.sent[-1]
        assert isinstance(reply, ShipAck)
        assert (reply.quarantined, reply.applied) == (1, 1)
        assert standby.runtime.store.n_records == 1


class TestStandbyHoldsWhatThePrimaryStored:
    def test_admitted_records_replicate_to_themselves(self, shards):
        # Every record admission lets in (int reals, numpy scalars, bool
        # indices, string metadata) ships as a line the standby applies
        # to the very record the primary holds.
        primary = shards(make_spec("part-00-a"))
        standby = shards(make_spec("part-00-b"))
        standby.dispatch(LeaseGrant(PARTITION, 1, "standby", 1.0))
        visits = itertools.count()

        @PROPERTY
        @given(ADMITTED_STORES)
        def check(stored):
            key, report, metadata = stored
            key = f"{key}#{next(visits)}"  # one record per key, none deduplicated
            record = primary.runtime.store.store(key, report, metadata)
            entry = primary.runtime._entry_for_shipping(key)
            standby.dispatch(JournalShip(PARTITION, 1, (entry,)))
            _, reply = standby.runtime.channel.sent[-1]
            assert (reply.applied, reply.quarantined) == (1, 0)
            (replica,) = standby.runtime.store.fetch(key)
            assert_replays_to(replica, record)

        check()


class CountingEncoder:
    """Stands in for the codec's one encoder; counts while switched on."""

    def __init__(self, real) -> None:
        self.real = real
        self.calls = 0
        self.on = False

    def encode(self, obj):
        if self.on:
            self.calls += 1
        return self.real.encode(obj)


@pytest.fixture
def encodes(monkeypatch):
    counter = CountingEncoder(storage_module._ENCODER)
    monkeypatch.setattr(storage_module, "_ENCODER", counter)
    return counter


def commit_order(store):
    records = [r for key in store.identifiers() for r in store.fetch(key)]
    return sorted(records, key=lambda record: record.sequence_number)


def assert_journal_is_oracle_lines(runtime):
    """The journal file holds the reference codec's lines for the store."""
    runtime.journal.close()
    with open(runtime.spec.journal_path, encoding="utf-8") as handle:
        written = handle.read().splitlines()
    assert written == [codec_oracle.encode_entry(r) for r in commit_order(runtime.store)]
    recovered, replay = recover_store(runtime.spec.journal_path)
    assert replay.n_quarantined == 0
    assert [codec_oracle.encode_entry(r) for r in replay.records] == written
    return written


class TestEachRecordEncodedOnce:
    @staticmethod
    def replicate(primary, standby, encodes, tenant, sequence):
        """One replicated request; returns the record encodes it took."""
        encodes.calls, encodes.on = 0, True
        primary.submit(tenant, sequence)
        for future in primary.runtime.pending.values():
            future.wait(120)
        primary.runtime.sweep()
        _, response = primary.runtime.channel.sent[-1]
        if standby is not None:
            standby.dispatch(JournalShip(PARTITION, 1, tuple(lines(response))))
        encodes.on = False
        assert len(lines(response)) == 1
        return encodes.calls

    def test_three_encodes_and_oracle_journals(self, shards, encodes, tmp_path):
        spec_a = make_spec("part-00-a", journal_path=str(tmp_path / "a.journal"))
        spec_b = make_spec("part-00-b", journal_path=str(tmp_path / "b.journal"))
        primary, standby = shards(spec_a), shards(spec_b)
        standby.dispatch(LeaseGrant(PARTITION, 1, "standby", 1.0))
        primary.register(TENANTS[0])
        # store, the ship-time fetch verify, the standby's decode
        for sequence in range(3):
            assert self.replicate(primary, standby, encodes, TENANTS[0], sequence) == 3
        assert standby.runtime.replica_applied == 3
        shipped = assert_journal_is_oracle_lines(primary.runtime)
        assert assert_journal_is_oracle_lines(standby.runtime) == shipped

        # The primary's process restarts on its journal and keeps going.
        primary.close()
        restarted = shards(spec_a)
        assert restarted.runtime.recovered_records == 3
        restarted.register(TENANTS[0])
        assert self.replicate(restarted, None, encodes, TENANTS[0], 3) == 2
        assert len(assert_journal_is_oracle_lines(restarted.runtime)) == 4

        # The standby is promoted and serves on top of what it applied.
        standby.dispatch(LeaseGrant(PARTITION, 2, "primary", 1.0))
        standby.register(TENANTS[1])
        assert self.replicate(standby, None, encodes, TENANTS[1], 0) == 2
        promoted = assert_journal_is_oracle_lines(standby.runtime)
        assert promoted[:3] == shipped and len(promoted) == 4
