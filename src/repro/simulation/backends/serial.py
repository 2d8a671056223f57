"""In-process serial execution backend.

Runs every attempt synchronously in the calling process — the reference
backend for the differential determinism suite and the forced choice for
pure-analytic sweeps (where process spawn costs more than the maths).
``submit`` only queues; the actual compute happens one ticket per
``progress`` call, so the resilience loop above keeps identical shape
across backends.  Nothing is ever reported in flight, which preserves
the long-standing contract that per-task deadlines are not enforced on
the serial path (a deadline cannot preempt the calling thread anyway).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Sequence, Tuple, TypeVar

from .base import (
    POLL_INTERVAL_S,
    BackendProgress,
    Completion,
    CounterHook,
    ExecutionBackend,
    guarded_call,
)

__all__ = ["SerialBackend"]

TaskT = TypeVar("TaskT")
ResultT = TypeVar("ResultT")


class SerialBackend(ExecutionBackend):
    """Execute attempts inline, one per ``progress`` call."""

    name = "serial"
    capacity = 1

    def __init__(
        self,
        tasks: Sequence[TaskT],
        worker: Callable[[TaskT], ResultT],
        counters: Optional[CounterHook] = None,
    ) -> None:
        super().__init__(counters)
        self._tasks = tasks
        self._worker = worker
        self._queue: Deque[Tuple[int, int]] = deque()

    def submit(self, index: int, attempt: int) -> None:
        self._queue.append((index, attempt))
        self._count("sweep.backend.submits_total")

    def progress(self, timeout_s: float = POLL_INTERVAL_S) -> BackendProgress:
        progress = BackendProgress()
        if not self._queue:
            return progress
        index, attempt = self._queue.popleft()
        envelope = guarded_call(self._worker, self._tasks[index], index, attempt)
        progress.completions.append(
            Completion(index=index, attempt=attempt, envelope=envelope)
        )
        self._count("sweep.backend.completions_total")
        return progress

    def cancel(self) -> List[Tuple[int, int]]:
        unfinished = list(self._queue)
        self._queue.clear()
        if unfinished:
            self._count("sweep.backend.cancelled_total", float(len(unfinished)))
        return unfinished

    def shutdown(self) -> None:
        self._queue.clear()
