"""Hardened process-pool execution backend.

Wraps ``concurrent.futures.ProcessPoolExecutor`` behind the
:class:`~repro.simulation.backends.base.ExecutionBackend` protocol.  The
pool is created lazily (a cancel leaves the backend ready to respawn on
the next submit) and every teardown path — backend cancel, end-of-run
shutdown after an interrupt, and the resilience layer's hung-pool
respawn — goes through one helper, :func:`reap_executor`, so the
process-table-capture ordering bug class can only be fixed (or broken)
in one place.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.connection import wait as wait_for_sentinels
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from .base import (
    POLL_INTERVAL_S,
    BackendBroken,
    BackendProgress,
    Completion,
    CounterHook,
    ExecutionBackend,
    InFlight,
    guarded_call,
)

__all__ = ["ProcessPoolBackend", "reap_executor"]

TaskT = TypeVar("TaskT")
ResultT = TypeVar("ResultT")

#: Longest :func:`reap_executor` waits for terminated workers to exit.
REAP_TIMEOUT_S = 5.0


def reap_executor(executor: ProcessPoolExecutor) -> None:
    """Shut an executor down *now*, reclaiming even hung workers.

    ``shutdown(wait=False, cancel_futures=True)`` alone never reclaims a
    worker stuck in user code, so any still-live worker processes are
    terminated explicitly.  The process table must be captured *before*
    ``shutdown`` — it clears ``_processes`` even with ``wait=False``, and
    a hung worker would otherwise keep the executor's management thread
    (and interpreter exit) blocked until the worker returned.

    This is the single kill path shared by the backend-facing
    ``cancel()``, the resilience layer's hung-pool respawn, and
    interrupt teardown; callers must never capture the process table or
    call ``shutdown(wait=False)`` themselves.

    Returns once every captured worker has exited and its exit code is
    recorded (or after :data:`REAP_TIMEOUT_S`).  Exit is read from each
    worker's sentinel, never from one ``poll()``: the executor's
    management thread ``waitpid``s the same children, and whichever
    thread loses that race sees ``ECHILD`` and reports a dead worker as
    alive until the winner publishes the exit code.
    """
    table = getattr(executor, "_processes", None)
    processes = list(table.values()) if table else []
    executor.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        if process.exitcode is None:
            process.terminate()
    deadline = time.monotonic() + REAP_TIMEOUT_S
    pending = {process.sentinel: process for process in processes}
    while pending and time.monotonic() < deadline:
        for sentinel in wait_for_sentinels(
            list(pending), timeout=deadline - time.monotonic()
        ):
            del pending[sentinel]
    for process in processes:
        while process.exitcode is None and time.monotonic() < deadline:
            time.sleep(0.001)


class ProcessPoolBackend(ExecutionBackend):
    """Execute attempts on a lazily-(re)spawned process pool."""

    name = "process"

    def __init__(
        self,
        tasks: Sequence[TaskT],
        worker: Callable[[TaskT], ResultT],
        workers: int,
        counters: Optional[CounterHook] = None,
    ) -> None:
        super().__init__(counters)
        self._tasks = tasks
        self._worker = worker
        self._workers = max(1, workers)
        # Keep the pool saturated while bounding parent-side memory for
        # completed-but-uncollected futures.
        self.capacity = 2 * self._workers
        self._executor: Optional[ProcessPoolExecutor] = None
        # future -> (index, attempt, dispatched_monotonic)
        self._running: Dict["Future[Any]", Tuple[int, int, float]] = {}
        # Attempts that finished during a cancel are delivered by the
        # next progress() call — completed work is never discarded.
        self._buffered: List[Completion] = []

    def _pool(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self._workers)
        return self._executor

    def submit(self, index: int, attempt: int) -> None:
        try:
            future = self._pool().submit(
                guarded_call, self._worker, self._tasks[index], index, attempt
            )
        except BrokenProcessPool as exc:
            raise BackendBroken(str(exc)) from exc
        self._running[future] = (index, attempt, time.monotonic())
        self._count("sweep.backend.submits_total")

    def progress(self, timeout_s: float = POLL_INTERVAL_S) -> BackendProgress:
        progress = BackendProgress()
        if self._buffered:
            progress.completions.extend(self._buffered)
            self._buffered.clear()
        elif self._running:
            done, _ = wait(
                set(self._running), timeout=timeout_s,
                return_when=FIRST_COMPLETED,
            )
            for future in done:
                index, attempt, _started = self._running.pop(future)
                progress.completions.append(self._collect(future, index, attempt))
        progress.in_flight = [
            InFlight(index=index, attempt=attempt, since_monotonic=started)
            for index, attempt, started in self._running.values()
        ]
        return progress

    def _collect(self, future: "Future[Any]", index: int, attempt: int) -> Completion:
        try:
            envelope = future.result()
        except BrokenProcessPool:
            self._count("sweep.backend.broken_total")
            return Completion(index=index, attempt=attempt, envelope=None, broken=True)
        self._count("sweep.backend.completions_total")
        return Completion(index=index, attempt=attempt, envelope=envelope)

    def cancel(self) -> List[Tuple[int, int]]:
        unfinished: List[Tuple[int, int]] = []
        for future, (index, attempt, _started) in list(self._running.items()):
            if future.done():
                self._buffered.append(self._collect(future, index, attempt))
            else:
                future.cancel()
                unfinished.append((index, attempt))
        self._running.clear()
        if self._executor is not None:
            reap_executor(self._executor)
            self._executor = None
        if unfinished:
            self._count("sweep.backend.cancelled_total", float(len(unfinished)))
        return unfinished

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        self._running.clear()
