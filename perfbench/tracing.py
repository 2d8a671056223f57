"""Benchmark-side spans around calls into the program's layers.

A traced run installs wrappers around layer entry points (module
functions and class methods looked up at call time), records one span
per call — name, start, end, parent, run id — in memory, and restores
the originals afterwards.  Nothing inside ``src/`` is instrumented; the
spans sit at the boundary the benchmark can see.

A layer's self time is the sum, over its spans, of the span's duration
minus the part of that interval covered by its child spans.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, TypeVar

from common import mark, net_s

T = TypeVar("T")


class Tracer:
    """In-memory span recorder for one single-threaded traced run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: [id, name, start_s, end_s, parent_id]
        self._spans: List[List[Any]] = []
        self._stack: List[int] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    def begin(self, name: str) -> int:
        span_id = len(self._spans)
        parent = self._stack[-1] if self._stack else None
        self._spans.append([span_id, name, time.perf_counter(), None, parent])
        self._stack.append(span_id)
        return span_id

    def end(self, span_id: int) -> None:
        self._spans[span_id][3] = time.perf_counter()
        popped = self._stack.pop()
        if popped != span_id:  # pragma: no cover - would be a wrapper bug
            raise RuntimeError("span stack out of order")

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        span_id = self.begin(name)
        try:
            yield
        finally:
            self.end(span_id)

    def record(self, name: str, start: float, end: float) -> None:
        """A span the caller timed itself: concurrent code, no parent."""
        self._spans.append([len(self._spans), name, start, end, None])

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    # -- installing wrappers -------------------------------------------------

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """Wrap ``owner.attr`` (a module function or a method defined on
        the class itself) in a span named ``name``.

        ``after(result, *args, **kwargs)`` runs outside the span, so the
        counts it takes cost the layer nothing.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span_id = self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(span_id)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------

    def spans(self) -> List[Dict[str, Any]]:
        return [
            {
                "run": self.run_id,
                "id": span_id,
                "name": name,
                "start_s": start,
                "end_s": end,
                "parent": parent,
            }
            for span_id, name, start, end, parent in self._spans
        ]

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name."""
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for _, _, start, end, parent in self._spans:
            if parent is not None:
                children[parent].append((start, end))
        totals: Dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _ in self._spans:
            covered = _covered(children.get(span_id, ()), start, end)
            totals[name] += (end - start) - covered
        return dict(totals)


def _covered(intervals: Any, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def abba(plain: Callable[[], T], traced: Callable[[], T], pairs: int) -> Tuple[List[T], List[T], float, float]:
    """Run ``plain`` and ``traced`` alternately (A B B A ...), ``pairs``
    times each, so a steady drift in host speed cancels out of the
    difference.  Returns both result lists and both mean host times
    (``common.net_s``)."""
    results: Dict[bool, List[T]] = {False: [], True: []}
    walls: Dict[bool, List[float]] = {False: [], True: []}
    order = [False, True, True, False] * ((pairs + 1) // 2)
    for is_traced in order[: 2 * pairs]:
        start = mark()
        results[is_traced].append((traced if is_traced else plain)())
        walls[is_traced].append(net_s(start, mark()))
    return (
        results[False],
        results[True],
        sum(walls[False]) / pairs,
        sum(walls[True]) / pairs,
    )
