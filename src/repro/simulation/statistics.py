"""Response-time statistics and CDFs.

Figure 4 reports response-time CDFs over the bins (5, 10, 20, 40, 60, 90,
120, 150, 200, 200+) milliseconds plus the mean; this module reproduces
those quantities from the simulator's completed requests.

Percentile and CDF queries are served from an incrementally maintained
sorted view: samples accumulate in arrival order, and a query merges only
the unsorted tail into the cached sorted prefix (two sorted runs, which
timsort merges in linear time).  Interleaving ``add()`` and queries is
therefore cheap — the per-request reporting loops of the DTM policies and
the closed-loop workloads no longer pay an O(n log n) re-sort per query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.errors import SimulationError

#: The response-time bin edges (ms) of the paper's Figure 4 CDF plots.
PAPER_CDF_BINS_MS: Tuple[float, ...] = (5, 10, 20, 40, 60, 90, 120, 150, 200)


def percentile_from_sorted(data: Sequence[float], q: float) -> float:
    """q-th percentile of an ascending-sorted sample, linear interpolation.

    This is the *one* percentile formula in the codebase: the incremental
    :class:`ResponseTimeStats` path and the numpy batch path both
    evaluate exactly these IEEE-754 operations, so the two agree bit for
    bit on the same samples (the fast-path differential suite asserts it).

    Edge cases are explicit: ``q=0`` returns the minimum and ``q=100`` the
    maximum without interpolating (``rank`` is then an exact integer);
    a single sample answers every percentile; duplicate values interpolate
    between equal numbers, which is exact.
    """
    if not data:
        raise SimulationError("no samples recorded")
    if not 0 <= q <= 100:
        raise SimulationError(f"percentile must be in [0, 100], got {q}")
    if len(data) == 1:
        return data[0]
    rank = q / 100 * (len(data) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if hi > len(data) - 1:  # pragma: no cover - float-safety clamp
        hi = len(data) - 1
    if lo == hi:
        return data[lo]
    frac = rank - lo
    value = data[lo] * (1 - frac) + data[hi] * frac
    # The true percentile lies in [data[lo], data[hi]]; IEEE-754 rounding
    # can land a hair outside (subnormal products underflow to zero), so
    # clamp to keep min <= p(q) <= max exact for every input.
    if value < data[lo]:
        return data[lo]
    if value > data[hi]:
        return data[hi]
    return value


def percentiles_batch(samples: "object", qs: Sequence[float]) -> "object":
    """Vectorized percentiles of an (unsorted) numpy sample vector.

    Requires numpy.  Returns a ``float64`` array, one entry per ``q``,
    each bitwise identical to ``percentile_from_sorted(sorted(samples), q)``
    — the same formula evaluated with the same float64 operations.
    """
    import numpy as np

    data = np.sort(np.asarray(samples, dtype=np.float64))
    n = int(data.size)
    if n == 0:
        raise SimulationError("no samples recorded")
    out = np.empty(len(qs), dtype=np.float64)
    for i, q in enumerate(qs):
        if not 0 <= q <= 100:
            raise SimulationError(f"percentile must be in [0, 100], got {q}")
        if n == 1:
            out[i] = data[0]
            continue
        rank = q / 100 * (n - 1)
        lo = math.floor(rank)
        hi = math.ceil(rank)
        if hi > n - 1:  # pragma: no cover - float-safety clamp
            hi = n - 1
        if lo == hi:
            out[i] = data[lo]
        else:
            frac = rank - lo
            value = data[lo] * (1 - frac) + data[hi] * frac
            # Same clamp as percentile_from_sorted, same IEEE operations —
            # the two paths must stay bit-identical.
            if value < data[lo]:
                value = data[lo]
            elif value > data[hi]:
                value = data[hi]
            out[i] = value
    return out


def cdf_batch(
    samples: "object", bins_ms: Sequence[float] = PAPER_CDF_BINS_MS
) -> List[Tuple[float, float]]:
    """Vectorized :meth:`ResponseTimeStats.cdf` over a numpy sample vector.

    Requires numpy.  Same ``<= edge`` semantics (``searchsorted`` with
    ``side='right'`` on the sorted samples); the fraction is the same
    ``count / n`` division, so results match the scalar path bit for bit.
    """
    import numpy as np

    data = np.sort(np.asarray(samples, dtype=np.float64))
    n = int(data.size)
    if n == 0:
        raise SimulationError("no samples recorded")
    edges = sorted(bins_ms)
    counts = np.searchsorted(data, np.asarray(edges, dtype=np.float64), side="right")
    return [(edge, int(count) / n) for edge, count in zip(edges, counts)]


@dataclass
class ResponseTimeStats:
    """Accumulates response times and derives summary statistics."""

    samples_ms: List[float] = field(default_factory=list)
    #: sorted copy of ``samples_ms[:_sorted_len]``; lazily extended on query.
    _sorted: List[float] = field(default_factory=list, repr=False, compare=False)
    _sorted_len: int = field(default=0, repr=False, compare=False)

    def add(self, response_ms: float) -> None:
        """Record one response time (invalidates the sorted view's tail)."""
        if response_ms < 0:
            raise SimulationError(f"response time cannot be negative, got {response_ms}")
        self.samples_ms.append(response_ms)

    def __len__(self) -> int:
        return len(self.samples_ms)

    @property
    def count(self) -> int:
        return len(self.samples_ms)

    def _sorted_view(self) -> List[float]:
        """The samples in sorted order, refreshed incrementally.

        Only the samples added since the last query are sorted; they are
        then merged with the cached sorted prefix.  If ``samples_ms`` was
        mutated out from under us (shrunk or replaced), fall back to a full
        re-sort so external list surgery stays correct.
        """
        n = len(self.samples_ms)
        if self._sorted_len > n:
            self._sorted = sorted(self.samples_ms)
            self._sorted_len = n
        elif self._sorted_len < n:
            tail = sorted(self.samples_ms[self._sorted_len :])
            merged = self._sorted + tail
            merged.sort()  # two sorted runs: timsort merges in O(n)
            self._sorted = merged
            self._sorted_len = n
        return self._sorted

    def mean_ms(self) -> float:
        """Average response time."""
        if not self.samples_ms:
            raise SimulationError("no samples recorded")
        return sum(self.samples_ms) / len(self.samples_ms)

    def percentile_ms(self, q: float) -> float:
        """q-th percentile (0 <= q <= 100), linear interpolation."""
        if not self.samples_ms:
            raise SimulationError("no samples recorded")
        return percentile_from_sorted(self._sorted_view(), q)

    def median_ms(self) -> float:
        """Median response time."""
        return self.percentile_ms(50)

    def max_ms(self) -> float:
        """Worst response time."""
        if not self.samples_ms:
            raise SimulationError("no samples recorded")
        return self._sorted_view()[-1]

    def cdf(self, bins_ms: Sequence[float] = PAPER_CDF_BINS_MS) -> List[Tuple[float, float]]:
        """Cumulative fraction of responses at or below each bin edge.

        Returns:
            [(edge_ms, fraction), ...] in increasing edge order; an
            implicit final (inf, 1.0) bin covers the "200+" tail.
        """
        if not self.samples_ms:
            raise SimulationError("no samples recorded")
        edges = sorted(bins_ms)
        data = self._sorted_view()
        result: List[Tuple[float, float]] = []
        index = 0
        for edge in edges:
            while index < len(data) and data[index] <= edge:
                index += 1
            result.append((edge, index / len(data)))
        return result

    def merged_with(self, other: "ResponseTimeStats") -> "ResponseTimeStats":
        """A new stats object pooling both sample sets."""
        return ResponseTimeStats(samples_ms=self.samples_ms + other.samples_ms)
