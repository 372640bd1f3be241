"""Parent-side shard supervision: spawn, route, heal, drain, restart.

:class:`FleetCluster` owns N shard **processes** (each running
:func:`~repro.fleet.shard.shard_main`) plus the consistent-hash ring
that maps tenants onto them.  Every shard gets a dedicated duplex pipe
wrapped in a :class:`~repro.fleet.transport.FrameChannel`; a
:class:`ShardHandle` pairs the channel with a receiver thread that
resolves one :class:`concurrent.futures.Future` per outstanding message
id, so replies may arrive in any order (sessions finish whenever the
shard's worker pool finishes them) and the asyncio front door can
``await`` them without blocking its event loop.

Lifecycle is explicit and observable:

* **spawn** — fork/spawn the process, emit ``fleet.shard_spawned``;
* **health** — synchronous :class:`~repro.fleet.messages.HealthCheck`
  round trip with a timeout (a wedged shard is indistinguishable from a
  dead one, so both fail the probe);
* **drain** — stop routing new tenants to the shard, let in-flight work
  finish, then take its points off the ring (minimal key movement);
* **kill / restart** — hard-kill for chaos drills, then respawn from
  the *same* :class:`~repro.fleet.shard.ShardSpec`: the journal path is
  unchanged, so the replacement recovers its store partition
  bit-identically and re-enrols its tenants.

The cluster never shares interpreter state with its shards — telemetry
crosses back as lossless sketch state and is merged with
:func:`rollup_telemetry`.
"""

import multiprocessing as mp
import os
import shutil
import tempfile
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro._util.errors import (
    ConfigurationError,
    MedSenError,
    OversizedPayloadError,
    ValidationError,
)
from repro.fleet.messages import (
    Ack,
    Drain,
    ErrorReply,
    HealthCheck,
    RegisterTenant,
    ShardHealth,
    ShardStoreDigest,
    ShardTelemetry,
    Shutdown,
    SnapshotRequest,
    StoreDigest,
)
from repro.fleet.ring import HashRing
from repro.fleet.shard import ShardSpec, shard_main
from repro.fleet.transport import FrameChannel
from repro.obs import (
    NULL_OBSERVER,
    SHARD_DRAINED,
    SHARD_EXITED,
    SHARD_RESTARTED,
    SHARD_SPAWNED,
)
from repro.obs.metrics import ExponentialHistogram, MetricsRegistry
from repro.serving.scheduler import FleetConfig


class ShardCrashedError(MedSenError):
    """The shard process died (or its pipe broke) with replies pending."""


class ShardRequestError(MedSenError):
    """A shard refused a request with a typed :class:`ErrorReply`."""

    def __init__(self, shard_id: str, error_type: str, error_message: str) -> None:
        super().__init__(f"[{shard_id}] {error_type}: {error_message}")
        self.shard_id = shard_id
        self.error_type = error_type
        self.error_message = error_message


def rollup_telemetry(snapshots: Sequence[ShardTelemetry]) -> MetricsRegistry:
    """Fleet-wide roll-up of per-shard telemetry into one registry.

    Counters are summed; histograms merge bucket by bucket, so the
    fleet p99 is the true cross-shard p99 (to bucket resolution), never
    an average of per-shard percentiles.  Gauges stay namespaced as
    ``name[shard-NN]``: a gauge is a point-in-time reading, and summing
    gauges across shards would fabricate a number no shard reported.
    """
    if not snapshots:
        raise ConfigurationError("rollup_telemetry needs at least one shard")
    fleet = MetricsRegistry()
    for shard in snapshots:
        for name, value in sorted(shard.counters.items()):
            fleet.counter(name).inc(value)
        for name, value in sorted(shard.gauges.items()):
            fleet.gauge(f"{name}[{shard.shard_id}]").set(value)
        for name, state in sorted(shard.quantiles.get("histograms", {}).items()):
            fleet.histogram(name).merge_from(ExponentialHistogram.from_state(state))
    return fleet


@dataclass(frozen=True)
class FleetTierConfig:
    """Everything that parameterises the sharded tier.

    Parameters
    ----------
    n_shards:
        Worker processes to spawn (each one full serving stack).
    shard:
        Template :class:`~repro.serving.scheduler.FleetConfig` applied
        to every shard — the shared fleet seed lives here, which is why
        honest outputs do not depend on shard count.
    max_inflight:
        Front-door bound on concurrently admitted sessions; beyond it
        submissions are shed with a typed refusal.
    journal:
        When True each shard appends committed records to its own
        journal file, enabling bit-identical restart recovery.
    journal_dir:
        Where shard journals live; ``None`` allocates (and later
        removes) a temporary directory.
    request_timeout_s:
        Parent-side ceiling on any single shard round trip.

    The ring places :data:`~repro.fleet.ring.DEFAULT_VNODES` points per
    shard.
    """

    n_shards: int = 2
    shard: FleetConfig = field(default_factory=FleetConfig)
    max_inflight: int = 64
    journal: bool = False
    journal_dir: Optional[str] = None
    request_timeout_s: float = 120.0

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ConfigurationError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.max_inflight < 1:
            raise ConfigurationError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )
        if not self.request_timeout_s > 0:
            raise ConfigurationError(
                f"request_timeout_s must be > 0, got {self.request_timeout_s}"
            )


def _mp_context():
    """``fork`` where the platform has it (cheap on Linux), else ``spawn``."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


class ShardHandle:
    """Parent-side endpoint of one shard process.

    ``request`` is thread-safe (sends are serialised under a lock) and
    returns a :class:`concurrent.futures.Future` resolved by the
    handle's receiver thread — with the reply payload on success, with
    :class:`ShardRequestError` for a typed refusal, or with
    :class:`ShardCrashedError` if the process dies first.
    """

    def __init__(self, spec: ShardSpec, ctx, observer=NULL_OBSERVER) -> None:
        self.spec = spec
        self.observer = observer
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=shard_main,
            args=(spec, child_conn),
            name=f"medsen-{spec.shard_id}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.channel = FrameChannel(parent_conn)
        self._lock = threading.Lock()
        self._next_msg_id = 0
        self._pending: Dict[int, Future] = {}
        self._closed = False
        self._receiver = threading.Thread(
            target=self._receive_loop,
            name=f"recv-{spec.shard_id}",
            daemon=True,
        )
        self._receiver.start()

    # ------------------------------------------------------------------
    @property
    def shard_id(self) -> str:
        return self.spec.shard_id

    @property
    def alive(self) -> bool:
        return self.process.is_alive() and not self._closed

    @property
    def inflight(self) -> int:
        with self._lock:
            return len(self._pending)

    def request(self, payload) -> Future:
        """Send one message; the returned future resolves with the reply."""
        future: Future = Future()
        with self._lock:
            if self._closed:
                future.set_exception(
                    ShardCrashedError(f"shard {self.shard_id} is down")
                )
                return future
            msg_id = self._next_msg_id
            self._next_msg_id += 1
            self._pending[msg_id] = future
            try:
                self.channel.send(msg_id, payload)
            except (OSError, ValueError, BrokenPipeError) as exc:
                self._pending.pop(msg_id, None)
                error = ShardCrashedError(
                    f"shard {self.shard_id} pipe is gone: {exc}"
                )
                error.__cause__ = exc  # provenance survives the Future hop
                future.set_exception(error)
        return future

    def call(self, payload, timeout: Optional[float] = None):
        """Synchronous :meth:`request` (control-plane convenience)."""
        return self.request(payload).result(timeout=timeout)

    # ------------------------------------------------------------------
    def _receive_loop(self) -> None:
        while True:
            try:
                msg_id, payload = self.channel.recv()
            except (EOFError, OSError):
                break
            except (ValidationError, OversizedPayloadError):
                continue  # counted by the channel; keep receiving
            with self._lock:
                future = self._pending.pop(msg_id, None)
            if future is None:
                continue
            if isinstance(payload, ErrorReply):
                future.set_exception(
                    ShardRequestError(
                        payload.shard_id, payload.error_type, payload.error_message
                    )
                )
            else:
                future.set_result(payload)
        self._fail_pending(f"shard {self.shard_id} connection closed")

    def _fail_pending(self, reason: str) -> None:
        with self._lock:
            self._closed = True
            pending = list(self._pending.values())
            self._pending.clear()
        for future in pending:
            if not future.done():
                future.set_exception(ShardCrashedError(reason))

    # ------------------------------------------------------------------
    def kill(self) -> None:
        """Hard-kill the process (chaos drill); pending requests fail."""
        if self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=10.0)
        try:
            self.channel.close()
        except OSError:
            pass
        self._receiver.join(timeout=5.0)
        self._fail_pending(f"shard {self.shard_id} was killed")

    def close(self, timeout: float = 10.0) -> None:
        """Join the process after a clean shutdown message."""
        self.process.join(timeout=timeout)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=5.0)
        try:
            self.channel.close()
        except OSError:
            pass
        self._receiver.join(timeout=5.0)
        self._fail_pending(f"shard {self.shard_id} shut down")


class FleetCluster:
    """N shard processes, a ring, and the lifecycle verbs over them."""

    def __init__(
        self, config: FleetTierConfig = FleetTierConfig(), observer=NULL_OBSERVER
    ) -> None:
        if config.n_shards < 1:
            raise MedSenError(f"n_shards must be >= 1, got {config.n_shards}")
        self.config = config
        self.observer = observer
        self.ctx = _mp_context()
        self.ring = HashRing()
        self._handles: Dict[str, ShardHandle] = {}
        self._registered: Dict[str, object] = {}  # tenant -> identifier
        self._started = False
        self._journal_dir: Optional[str] = None
        self._owns_journal_dir = False

    # ------------------------------------------------------------------
    def _journal_path(self, shard_id: str) -> Optional[str]:
        if not self.config.journal:
            return None
        if self._journal_dir is None:
            if self.config.journal_dir is not None:
                self._journal_dir = self.config.journal_dir
                os.makedirs(self._journal_dir, exist_ok=True)
            else:
                self._journal_dir = tempfile.mkdtemp(prefix="medsen-fleet-")
                self._owns_journal_dir = True
        return os.path.join(self._journal_dir, f"{shard_id}.journal")

    def _spec(self, shard_id: str) -> ShardSpec:
        # Shards share the fleet seed: a session's RNG derives from
        # (seed, tenant, tenant_sequence), so partitioning is invisible
        # to honest numeric outputs.
        return ShardSpec(
            shard_id=shard_id,
            fleet=replace(self.config.shard),
            journal_path=self._journal_path(shard_id),
        )

    def start(self) -> "FleetCluster":
        """Spawn every shard and place it on the ring."""
        if self._started:
            raise MedSenError("cluster already started")
        for index in range(self.config.n_shards):
            shard_id = f"shard-{index:02d}"
            self._handles[shard_id] = ShardHandle(
                self._spec(shard_id), self.ctx, observer=self.observer
            )
            self.ring.add_shard(shard_id)
            self.observer.event(SHARD_SPAWNED, shard=shard_id)
            self.observer.incr("fleet.shards_spawned")
        self._started = True
        return self

    def __enter__(self) -> "FleetCluster":
        return self.start() if not self._started else self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    @property
    def shard_ids(self) -> List[str]:
        return sorted(self._handles)

    def handle_for(self, tenant_id: str) -> ShardHandle:
        """The live handle owning ``tenant_id`` (ring assignment)."""
        return self._handles[self.ring.assign(tenant_id)]

    def handle(self, shard_id: str) -> ShardHandle:
        try:
            return self._handles[shard_id]
        except KeyError:
            raise MedSenError(f"no such shard {shard_id!r}") from None

    # ------------------------------------------------------------------
    def register_tenant(self, tenant_id: str, identifier) -> None:
        """Enrol a tenant's cyto-coded password on **every** shard.

        The auth directory is replicated fleet-wide, not partitioned:
        authentication matches the *measured* (noisy) identifier
        against the whole enrolled population, so a shard that saw only
        its own tenants would resolve borderline matches differently
        than the single-process tier and break bit-identity.  Records,
        by contrast, stay partitioned — a session's record lands only
        on the shard that ran it.
        """
        futures = [
            handle.request(RegisterTenant(tenant_id=tenant_id, identifier=identifier))
            for _, handle in sorted(self._handles.items())
            if handle.alive
        ]
        for future in futures:
            reply = future.result(timeout=self.config.request_timeout_s)
            assert isinstance(reply, Ack)
        self._registered[tenant_id] = identifier

    def _reenroll(self, shard_id: str) -> int:
        """Replay the full auth directory onto one (fresh) shard."""
        handle = self._handles[shard_id]
        futures = [
            handle.request(RegisterTenant(tenant_id=tenant_id, identifier=identifier))
            for tenant_id, identifier in sorted(self._registered.items())
        ]
        for future in futures:
            future.result(timeout=self.config.request_timeout_s)
        return len(futures)

    # ------------------------------------------------------------------
    def health(self, timeout: Optional[float] = None) -> Dict[str, ShardHealth]:
        """Probe every live shard (round trip with a deadline)."""
        timeout = timeout if timeout is not None else self.config.request_timeout_s
        futures = {
            shard_id: handle.request(HealthCheck())
            for shard_id, handle in sorted(self._handles.items())
            if handle.alive
        }
        return {sid: fut.result(timeout=timeout) for sid, fut in futures.items()}

    def telemetry(self, timeout: Optional[float] = None) -> List[ShardTelemetry]:
        """Collect every shard's metrics + sketch state."""
        timeout = timeout if timeout is not None else self.config.request_timeout_s
        futures = [
            handle.request(SnapshotRequest())
            for _, handle in sorted(self._handles.items())
            if handle.alive
        ]
        return [fut.result(timeout=timeout) for fut in futures]

    def store_digests(
        self, timeout: Optional[float] = None
    ) -> Dict[str, ShardStoreDigest]:
        """Content hashes of every shard's record partition."""
        timeout = timeout if timeout is not None else self.config.request_timeout_s
        futures = {
            shard_id: handle.request(StoreDigest())
            for shard_id, handle in sorted(self._handles.items())
            if handle.alive
        }
        return {sid: fut.result(timeout=timeout) for sid, fut in futures.items()}

    def fleet_record_hashes(self, timeout: Optional[float] = None) -> List[str]:
        """Sorted union of record content hashes across all partitions —
        directly comparable with a single-process store's hashes."""
        merged: List[str] = []
        for digest in self.store_digests(timeout=timeout).values():
            merged.extend(digest.record_hashes)
        return sorted(merged)

    # ------------------------------------------------------------------
    def drain(self, shard_id: str, timeout: Optional[float] = None) -> ShardHealth:
        """Gracefully drain one shard and take it off the ring.

        In-flight sessions finish first (the shard acknowledges only
        when empty); afterwards its arcs fall to ring successors and
        remembered tenants are re-enrolled on their new owners.
        """
        handle = self.handle(shard_id)
        timeout = timeout if timeout is not None else self.config.request_timeout_s
        final = handle.call(Drain(), timeout=timeout)
        self.ring.remove_shard(shard_id)
        del self._handles[shard_id]
        handle.call(Shutdown(), timeout=timeout)
        handle.close()
        self.observer.event(SHARD_DRAINED, shard=shard_id)
        self.observer.incr("fleet.shards_drained")
        return final

    def kill(self, shard_id: str) -> None:
        """Hard-kill one shard (chaos drill). The ring keeps its slot —
        the tenant partition is frozen until :meth:`restart`."""
        handle = self.handle(shard_id)
        handle.kill()
        self.observer.event(
            SHARD_EXITED, shard=shard_id, exitcode=handle.process.exitcode
        )
        self.observer.incr("fleet.shards_killed")

    def restart(self, shard_id: str) -> ShardHandle:
        """Respawn a dead shard from its original spec.

        The journal path is unchanged, so the replacement process
        recovers its record partition bit-identically, and remembered
        tenants are re-enrolled before any new traffic lands.
        """
        old = self.handle(shard_id)
        if old.process.is_alive():
            old.kill()
        spec = old.spec
        self._handles[shard_id] = ShardHandle(spec, self.ctx, observer=self.observer)
        reenrolled = self._reenroll(shard_id)
        self.observer.event(SHARD_RESTARTED, shard=shard_id, reenrolled=reenrolled)
        self.observer.incr("fleet.shards_restarted")
        return self._handles[shard_id]

    # ------------------------------------------------------------------
    def shutdown(self, timeout: float = 30.0) -> None:
        """Clean stop: drain + shutdown every live shard, then reap."""
        futures = []
        for shard_id, handle in sorted(self._handles.items()):
            if handle.alive:
                futures.append((handle, handle.request(Shutdown())))
        for handle, future in futures:
            try:
                future.result(timeout=timeout)
            except Exception:  # best effort: a wedged shard is reaped below
                pass
            handle.close()
        for handle in self._handles.values():
            if handle.process.is_alive():
                handle.kill()
        self._handles.clear()
        self._started = False
        if self._owns_journal_dir and self._journal_dir is not None:
            shutil.rmtree(self._journal_dir, ignore_errors=True)
            self._journal_dir = None
            self._owns_journal_dir = False
