"""``repro.fleet`` — the multi-process sharded cloud tier.

The single-process serving stack (:mod:`repro.serving`) scales until
one interpreter is the bottleneck; this package shards it across worker
**processes** while keeping the determinism contract intact: every
honest numeric output is a pure function of ``(fleet seed, tenant,
tenant_sequence)``, so a 4-shard fleet, a 1-shard fleet, and the
single-process tier produce bit-identical results for the same traffic
(Paper §2's trusted-sensing guarantee survives horizontal scaling).

Layers, bottom up:

* :mod:`~repro.fleet.ring` — consistent-hash ring (tenant → shard);
* :mod:`~repro.fleet.transport` — checksummed ``MSFT`` frames over
  pipes, garbage refused before unpickling;
* :mod:`~repro.fleet.messages` — the frozen wire dataclasses;
* :mod:`~repro.fleet.shard` — the worker process: a full
  scheduler + server + journaled store partition per shard;
* :mod:`~repro.fleet.cluster` — parent-side supervision: spawn,
  health, drain, kill, restart-with-recovery;
* :mod:`~repro.fleet.frontdoor` — the asyncio ingest path: guard
  admission, bounded inflight with typed shedding, sequencing,
  routing, trace propagation, epoch fencing and hinted handoff;
* :mod:`~repro.fleet.replication` — replicated partitions: a
  primary + synchronous standby per hash-ring partition, journal
  shipping before ack, lease-based failover with stale-epoch fencing,
  anti-entropy rejoin from the shipped history;
* :mod:`~repro.fleet.failover` — the ``python -m repro failover``
  drill: SIGKILL a loaded primary and assert zero acked loss, bounded
  MTTR, fencing, and bit-identical honest outcomes;
* :mod:`~repro.fleet.loadgen` — heavy-tailed million-user arrival
  replay in bounded memory;
* :mod:`~repro.fleet.campaign` — the ``python -m repro fleet``
  smoke/drill campaigns (determinism, recovery, shedding invariants).
"""

from repro.fleet.campaign import ALL_PHASES, FleetReport, run_fleet
from repro.fleet.cluster import (
    FleetCluster,
    FleetTierConfig,
    ShardCrashedError,
    ShardHandle,
    ShardRequestError,
    rollup_telemetry,
)
from repro.fleet.failover import FailoverReport, run_failover
from repro.fleet.frontdoor import (
    AsyncFrontDoor,
    FleetRequestFailedError,
    FleetSaturatedError,
)
from repro.fleet.loadgen import (
    LoadProfile,
    LoadReport,
    SpaceSaving,
    generate_arrivals,
    replay,
)
from repro.fleet.messages import (
    JournalShip,
    LeaseGrant,
    SessionOutcome,
    ShardHealth,
    ShardTelemetry,
    ShipAck,
)
from repro.fleet.replication import (
    Lease,
    LeaseTable,
    ReplicatedCluster,
    ReplicationConfig,
)
from repro.fleet.ring import DEFAULT_VNODES, HashRing
from repro.fleet.shard import ShardSpec, shard_main, store_content_hashes
from repro.fleet.transport import (
    FRAME_MAGIC,
    FrameChannel,
    MAX_FRAME_BYTES,
    decode_frame,
    encode_frame,
)

__all__ = [
    "ALL_PHASES",
    "AsyncFrontDoor",
    "DEFAULT_VNODES",
    "FRAME_MAGIC",
    "FailoverReport",
    "FleetCluster",
    "FleetReport",
    "FleetRequestFailedError",
    "FleetSaturatedError",
    "FleetTierConfig",
    "FrameChannel",
    "HashRing",
    "JournalShip",
    "Lease",
    "LeaseGrant",
    "LeaseTable",
    "LoadProfile",
    "LoadReport",
    "MAX_FRAME_BYTES",
    "ReplicatedCluster",
    "ReplicationConfig",
    "SessionOutcome",
    "ShardCrashedError",
    "ShardHandle",
    "ShardHealth",
    "ShardRequestError",
    "ShardSpec",
    "ShardTelemetry",
    "ShipAck",
    "SpaceSaving",
    "decode_frame",
    "encode_frame",
    "generate_arrivals",
    "replay",
    "rollup_telemetry",
    "run_failover",
    "run_fleet",
    "shard_main",
    "store_content_hashes",
]
