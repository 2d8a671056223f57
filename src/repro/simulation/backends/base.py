"""The execution-backend protocol and its shared currency.

A sweep is a list of pure tasks and a pure worker function; *where* the
attempts actually execute — in this process, on a hardened process pool,
or coordinated across processes through a shared result-store directory
— is an :class:`ExecutionBackend`.  The resilience layer
(:mod:`repro.simulation.resilience`) sits **above** this protocol: it
owns retries, backoff, per-task deadlines, crash blame attribution and
the failure manifest, and drives any backend through the same four
methods.  A new backend therefore inherits the whole resilience story
for free, and the differential determinism suite can assert that every
backend serializes to byte-identical canonical results.

The protocol is deliberately small:

* :meth:`ExecutionBackend.submit` — dispatch one ``(index, attempt)``
  ticket; raises :class:`BackendBroken` when the fabric is already dead
  at dispatch time (the ticket was never started and is innocent).
* :meth:`ExecutionBackend.progress` — deliver finished attempts as
  :class:`Completion` records and report what is still genuinely in
  flight (asynchronous work only; a backend that computes synchronously
  inside ``progress`` reports nothing in flight, which is exactly why
  per-task deadlines are not enforced on the serial path).
* :meth:`ExecutionBackend.cancel` — reclaim the fabric *now* (kill hung
  workers, release claim files) and return the tickets that were in
  flight but did not finish, so the caller can requeue or blame them.
  Attempts that finished before the cancel are buffered and delivered
  by the next ``progress`` call — completed work is never discarded.
* :meth:`ExecutionBackend.shutdown` — graceful end-of-run teardown;
  idempotent, safe after ``cancel``.

Everything a backend returns travels as a :class:`TaskEnvelope` — the
same per-task outcome record the resilience layer has always used — so
worker-side tracebacks, attempt counts and timings are uniform across
backends.
"""

from __future__ import annotations

import abc
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, TypeVar

__all__ = [
    "STATUS_OK",
    "STATUS_ERROR",
    "STATUS_TIMEOUT",
    "POLL_INTERVAL_S",
    "TaskEnvelope",
    "guarded_call",
    "Completion",
    "InFlight",
    "BackendProgress",
    "BackendBroken",
    "CounterHook",
    "ExecutionBackend",
]

TaskT = TypeVar("TaskT")
ResultT = TypeVar("ResultT")

#: How long one ``progress()`` poll may block while work is outstanding,
#: in seconds; bounds how stale per-task deadline checks can get.
POLL_INTERVAL_S = 0.05

STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_TIMEOUT = "timeout"

#: Telemetry mirror signature: ``hook(counter_name, amount)``.
CounterHook = Callable[[str, float], None]


@dataclass
class TaskEnvelope:
    """Outcome of one sweep task across all of its attempts.

    Attributes:
        index: position in the submitted task list.
        status: ``ok`` / ``error`` / ``timeout``.
        result: the worker's return value when ``ok``, else None.
        error_type: exception class name when ``error``.
        error_message: stringified exception when ``error``/``timeout``.
        traceback_text: worker-side traceback when available (a worker
            that dies abruptly leaves none).
        attempts: how many times the task was attempted.
        elapsed_s: wall-clock duration of the *successful* attempt (or
            the last failed one).
        cached: True when the result was served from the result store
            rather than computed (``attempts`` is then 0) — including a
            result a shared-store peer computed and published.
    """

    index: int
    status: str = STATUS_OK
    result: Any = None
    error_type: str = ""
    error_message: str = ""
    traceback_text: str = ""
    attempts: int = 0
    elapsed_s: float = 0.0
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "index": self.index,
            "status": self.status,
            "attempts": self.attempts,
            "elapsed_s": self.elapsed_s,
        }
        if self.cached:
            out["cached"] = True
        if not self.ok:
            out["error_type"] = self.error_type
            out["error_message"] = self.error_message
            out["traceback"] = self.traceback_text
        return out


def guarded_call(
    worker: Callable[[TaskT], ResultT], task: TaskT, index: int, attempt: int
) -> TaskEnvelope:
    """Run one task attempt, capturing any exception into its envelope.

    The traceback is rendered to text *here* — inside whatever process
    executes the attempt — so it crosses any process boundary as a plain
    string instead of a pickled exception (whose unpickling is itself a
    failure mode).  ``KeyboardInterrupt`` and other ``BaseException``s
    deliberately propagate.
    """
    started = time.perf_counter()
    try:
        result = worker(task)
    except Exception as exc:
        return TaskEnvelope(
            index=index,
            status=STATUS_ERROR,
            error_type=type(exc).__name__,
            error_message=str(exc),
            traceback_text=traceback.format_exc(),
            attempts=attempt,
            elapsed_s=time.perf_counter() - started,
        )
    return TaskEnvelope(
        index=index,
        status=STATUS_OK,
        result=result,
        attempts=attempt,
        elapsed_s=time.perf_counter() - started,
    )


@dataclass(frozen=True)
class Completion:
    """One finished attempt, as reported by ``progress()``.

    ``broken=True`` means the attempt's fabric died under it (a worker
    process exiting mid-task); ``envelope`` is then None and blame is
    the resilience layer's job (the crash cannot be attributed from the
    wreckage alone when several attempts shared the fabric).
    """

    index: int
    attempt: int
    envelope: Optional[TaskEnvelope]
    broken: bool = False


@dataclass(frozen=True)
class InFlight:
    """One attempt the backend is genuinely still working on (or waiting
    for), with the monotonic instant that work started — the deadline
    clock the resilience layer reads."""

    index: int
    attempt: int
    since_monotonic: float


@dataclass
class BackendProgress:
    """Everything one ``progress()`` call has to say."""

    completions: List[Completion] = field(default_factory=list)
    in_flight: List[InFlight] = field(default_factory=list)


class BackendBroken(RuntimeError):
    """The execution fabric died at dispatch time.

    Raised by ``submit`` when the ticket could not be started at all;
    the ticket is innocent by construction and should be requeued.  This
    is resilience-layer control flow, not a user-facing error — the
    caller reclaims the fabric with ``cancel()`` and carries on.
    """


class ExecutionBackend(abc.ABC):
    """Where sweep attempts execute (see module docstring).

    Concrete backends are constructed per run with the task list and the
    worker function; the resilience layer then owns the instance and
    guarantees exactly one ``shutdown()`` at end of run (``cancel()``
    may additionally happen any number of times in between).

    Attributes:
        name: the resolved backend name recorded on run manifests
            (``serial`` / ``process`` / ``shared-store``).
        capacity: how many tickets may usefully be in flight at once;
            the resilience layer submits no more than this before
            polling.
        persists_results: True when the backend itself publishes each
            completed result to the result store as part of its
            transport contract (the shared-store backend must, so peer
            processes can read it); the sweep runner then skips its own
            persist hook to avoid double writes.
    """

    name: str = "?"
    capacity: int = 1
    persists_results: bool = False

    def __init__(self, counters: Optional[CounterHook] = None) -> None:
        self._counters = counters

    def _count(self, counter: str, amount: float = 1.0) -> None:
        """Mirror one ``sweep.backend.*`` counter when telemetry is bound."""
        if self._counters is not None:
            self._counters(counter, amount)

    @abc.abstractmethod
    def submit(self, index: int, attempt: int) -> None:
        """Dispatch one attempt of task ``index``.

        Raises:
            BackendBroken: the fabric is already dead; the ticket was
                never started.
        """

    @abc.abstractmethod
    def progress(self, timeout_s: float = POLL_INTERVAL_S) -> BackendProgress:
        """Deliver finished attempts; block at most ``timeout_s``.

        Backends that compute synchronously (serial, shared-store local
        compute) finish at most one ticket per call so the caller's
        retry/deadline bookkeeping stays fresh.
        """

    @abc.abstractmethod
    def cancel(self) -> List[Tuple[int, int]]:
        """Reclaim the fabric now; return unfinished ``(index, attempt)``s.

        Attempts that finished before the cancel are buffered for the
        next ``progress()`` call, never discarded.  After ``cancel`` the
        backend must accept fresh ``submit`` calls (a process pool
        respawns lazily).
        """

    @abc.abstractmethod
    def shutdown(self) -> None:
        """Graceful end-of-run teardown; idempotent, safe after cancel."""
