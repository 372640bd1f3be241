"""The serving job model: requests, futures, and per-request RNG.

A tenant (patient / clinic identifier string) submits a
:class:`SessionRequest`; the scheduler hands back a
:class:`SessionFuture` the caller can block on.  Each request owns a
child RNG derived *only* from ``(fleet seed, tenant, sequence)`` —
never from worker identity or arrival order — so an 8-worker fleet run
produces bit-identical per-patient outcomes to a serial replay of the
same submissions (the concurrency determinism guarantee,
``tests/test_serving_scheduler.py``).
"""

import hashlib
import logging
import threading
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro._util.errors import MedSenError
from repro.auth.identifier import CytoIdentifier
from repro.particles.sample import Sample

# Request lifecycle states.
class RequestState:
    """String constants for a request's lifecycle."""

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    REJECTED = "rejected"


def derive_request_rng(
    seed: int, tenant_id: str, sequence: int
) -> np.random.Generator:
    """Child generator for one request, stable across interleavings.

    The tenant string is folded to a 64-bit tag with BLAKE2b (Python's
    builtin ``hash`` is salted per process and would break replays) and
    combined with the fleet seed and the tenant's submission sequence
    number through a :class:`numpy.random.SeedSequence` spawn key.
    """
    if sequence < 0:
        raise ValueError(f"sequence must be >= 0, got {sequence}")
    tag = int.from_bytes(
        hashlib.blake2b(tenant_id.encode("utf-8"), digest_size=8).digest(), "big"
    )
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(tag, sequence))
    )


@dataclass(frozen=True)
class SessionRequest:
    """One queued diagnostic job.

    Parameters
    ----------
    tenant_id:
        The submitting identity (fair scheduling is per tenant).
    blood, identifier:
        The patient sample and cyto-coded password for the session.
    duration_s, pipette_volume_ul:
        Capture parameters, as in
        :meth:`~repro.core.protocol.MedSenSession.run_diagnostic`.
    sequence:
        Global submission index (assigned by the scheduler).
    tenant_sequence:
        This tenant's submission index (drives the request RNG).
    deadline_s:
        Budget for the cloud exchange, charged in modelled network time
        plus backoff waits; ``None`` disables the deadline.
    """

    tenant_id: str
    blood: Sample
    identifier: CytoIdentifier
    duration_s: float = 60.0
    pipette_volume_ul: float = 2.0
    sequence: int = 0
    tenant_sequence: int = 0
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.tenant_id:
            raise MedSenError("tenant_id must be non-empty")
        if self.duration_s <= 0:
            raise MedSenError("duration_s must be > 0")


@dataclass
class SessionFuture:
    """Caller-side handle on a queued request.

    Thread-safe: the scheduler's worker resolves it; any number of
    threads may :meth:`wait` / :meth:`result`, and any thread may
    :meth:`add_done_callback` to be told when it finishes.
    """

    request: SessionRequest
    state: str = RequestState.PENDING
    queue_wait_s: float = 0.0
    latency_s: float = 0.0
    _result: Optional[object] = None
    _error: Optional[BaseException] = None
    _done: threading.Event = field(default_factory=threading.Event)
    _callbacks: List[Callable[["SessionFuture"], None]] = field(
        default_factory=list, repr=False
    )
    _callbacks_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False
    )

    # ------------------------------------------------------------------
    def done(self) -> bool:
        """Whether the request has finished (any terminal state)."""
        return self._done.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until terminal; returns False on timeout."""
        return self._done.wait(timeout)

    def result(self, timeout: Optional[float] = None):
        """The session's :class:`~repro.core.protocol.SessionResult`.

        Blocks until the request finishes; re-raises the failure if the
        request errored or was rejected.
        """
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"request {self.request.sequence} not done within {timeout} s"
            )
        if self._error is not None:
            raise self._error
        return self._result

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        """The failure, if any, once terminal."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"request {self.request.sequence} not done within {timeout} s"
            )
        return self._error

    def add_done_callback(self, fn: Callable[["SessionFuture"], None]) -> None:
        """Call ``fn(future)`` once, when the request reaches a terminal state.

        ``fn`` runs on the thread that finishes the request (a scheduler
        worker), or at once on the calling thread if the request is
        already done.  An exception raised by ``fn`` is logged and
        ignored: a faulty observer must never take down the worker that
        resolved the request.
        """
        with self._callbacks_lock:
            if not self._done.is_set():
                self._callbacks.append(fn)
                return
        _run_callback(fn, self)

    # ------------------------------------------------------------------
    # Scheduler-side transitions
    # ------------------------------------------------------------------
    def _mark_running(self) -> None:
        self.state = RequestState.RUNNING

    def _resolve(self, result: object) -> None:
        self._result = result
        self.state = RequestState.COMPLETED
        self._finish()

    def _fail(self, error: BaseException, rejected: bool = False) -> None:
        self._error = error
        self.state = RequestState.REJECTED if rejected else RequestState.FAILED
        self._finish()

    def _finish(self) -> None:
        with self._callbacks_lock:
            self._done.set()
            callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            _run_callback(fn, self)


def _run_callback(fn: Callable[[SessionFuture], None], future: SessionFuture) -> None:
    try:
        fn(future)
    except Exception:  # noqa: BLE001 - see SessionFuture.add_done_callback
        logging.getLogger(__name__).exception(
            "done callback %r raised for request %s", fn, future.request.sequence
        )
