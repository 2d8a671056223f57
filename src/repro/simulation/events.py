"""Discrete-event engine.

A minimal but strict event queue: events fire in (time, insertion order)
order, callbacks may schedule further events, and time never flows
backwards.  All times are milliseconds of simulated time.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Iterable, List, Optional, Tuple

from repro.errors import SimulationError

EventCallback = Callable[[float], None]


class EventQueue:
    """Priority queue of timed callbacks with deterministic tie-breaking."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, EventCallback]] = []
        self._counter = itertools.count()
        self.now_ms = 0.0
        self._fired = 0

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def events_fired(self) -> int:
        """Number of events processed so far."""
        return self._fired

    def snapshot(self) -> Tuple[float, int, int]:
        """(now_ms, queued, fired) — the engine state telemetry probes
        sample; a method (not three property reads) so one probe callback
        observes a consistent triple."""
        return (self.now_ms, len(self._heap), self._fired)

    def schedule(self, time_ms: float, callback: EventCallback) -> None:
        """Schedule a callback at an absolute simulated time.

        Raises:
            SimulationError: if the time is in the simulated past.
        """
        if time_ms < self.now_ms - 1e-9:
            raise SimulationError(
                f"cannot schedule event at {time_ms} ms; now is {self.now_ms} ms"
            )
        heapq.heappush(self._heap, (time_ms, next(self._counter), callback))

    def schedule_after(self, delay_ms: float, callback: EventCallback) -> None:
        """Schedule a callback ``delay_ms`` after the current time."""
        if delay_ms < 0:
            raise SimulationError(f"delay cannot be negative, got {delay_ms}")
        self.schedule(self.now_ms + delay_ms, callback)

    def schedule_batch(self, events: Iterable[Tuple[float, EventCallback]]) -> None:
        """Schedule many (time_ms, callback) pairs at once.

        When the queue is empty — the trace-replay case, where every arrival
        is known up front — the heap is built in one O(n) heapify instead of
        n O(log n) pushes.  Ordering semantics are identical to calling
        :meth:`schedule` in iteration order.
        """
        entries = []
        for time_ms, callback in events:
            if time_ms < self.now_ms - 1e-9:
                raise SimulationError(
                    f"cannot schedule event at {time_ms} ms; now is {self.now_ms} ms"
                )
            entries.append((time_ms, next(self._counter), callback))
        if not self._heap:
            self._heap[:] = entries
            heapq.heapify(self._heap)
        else:
            for entry in entries:
                heapq.heappush(self._heap, entry)

    def step(self) -> bool:
        """Fire the next event.  Returns False when the queue is empty."""
        if not self._heap:
            return False
        time_ms, _, callback = heapq.heappop(self._heap)
        if time_ms < self.now_ms - 1e-9:  # pragma: no cover - defensive
            raise SimulationError("event queue time went backwards")
        self.now_ms = max(self.now_ms, time_ms)
        self._fired += 1
        callback(self.now_ms)
        return True

    def run(self, until_ms: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, a time horizon, or an event budget.

        Args:
            until_ms: stop once the next event lies beyond this time (the
                event is left queued).
            max_events: stop after firing this many events (guards against
                runaway feedback loops in tests).
        """
        # One loop for every case, with the heap and ``heappop`` in locals:
        # an absent horizon or budget is infinite, so it costs a float
        # comparison per event.  ``now_ms`` and ``events_fired`` are updated
        # before each callback, exactly as :meth:`step` does, so probes and
        # controllers reading them mid-run see the same values.  The heap
        # list is never rebound while a queue is live (:meth:`schedule_batch`
        # refills it in place), so the alias stays valid when callbacks
        # schedule more events.
        heap = self._heap
        pop = heapq.heappop
        horizon = math.inf if until_ms is None else until_ms
        budget = math.inf if max_events is None else max_events
        fired = 0
        while heap:
            if heap[0][0] > horizon:
                self.now_ms = max(self.now_ms, horizon)
                return
            if fired >= budget:
                raise SimulationError(
                    f"event budget of {max_events} exhausted at t={self.now_ms} ms"
                )
            time_ms, _, callback = pop(heap)
            now = self.now_ms
            if time_ms > now:
                now = self.now_ms = time_ms
            elif time_ms < now - 1e-9:  # pragma: no cover - defensive
                raise SimulationError("event queue time went backwards")
            self._fired += 1
            fired += 1
            callback(now)
        # The heap drained before the horizon: the simulated clock still
        # advances to it, so callers scheduling relative to ``now_ms`` after
        # run() observe the same clock whether or not events filled the span.
        if until_ms is not None:
            self.now_ms = max(self.now_ms, until_ms)
