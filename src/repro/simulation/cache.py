"""Segmented disk buffer cache.

Models the on-drive cache the paper configures at 4 MB: a set of segments,
each holding one contiguous LBA run, managed LRU.  Reads that fall entirely
inside a segment are cache hits (served at electronic speed); misses fetch
the requested range plus a read-ahead tail into a recycled segment.  Writes
are write-through — they always reach the media — but update any overlapping
cached segments so subsequent reads stay coherent.

Lookups go through a start-sorted segment index rather than a linear scan
of every segment: bisection finds the window of segments that could contain
the queried LBA (bounded by the longest cached run), so the read path stays
cheap even with large segment counts.  Capacity is enforced both ways — by
segment count and by total cached bytes — so oversized requests cannot
inflate the cache past its configured size.
"""

from __future__ import annotations

import bisect
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.errors import SimulationError
from repro.units import BYTES_PER_SECTOR, MIB

if TYPE_CHECKING:  # pragma: no cover - cycle broken at runtime
    from repro.telemetry import Telemetry

#: bisection sentinel sorting after every segment id at one start LBA.
_INF = float("inf")


@dataclass
class CacheStats:
    """Hit/miss counters."""

    read_hits: int = 0
    read_misses: int = 0
    writes: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.read_hits + self.read_misses

    @property
    def hit_ratio(self) -> float:
        return self.read_hits / self.lookups if self.lookups else 0.0


class DiskCache:
    """Segmented LRU cache over LBA ranges.

    Args:
        size_bytes: total cache capacity (paper: 4 MB).
        segments: number of segments the capacity is divided into.
        read_ahead_sectors: sectors prefetched past each missed read.
    """

    def __init__(
        self,
        size_bytes: int = 4 * MIB,
        segments: int = 16,
        read_ahead_sectors: int = 64,
    ) -> None:
        if size_bytes <= 0:
            raise SimulationError(f"cache size must be positive, got {size_bytes}")
        if segments < 1:
            raise SimulationError(f"segment count must be >= 1, got {segments}")
        if read_ahead_sectors < 0:
            raise SimulationError("read-ahead cannot be negative")
        self.capacity_sectors = max(size_bytes // BYTES_PER_SECTOR, 1)
        self.segment_sectors = max(size_bytes // BYTES_PER_SECTOR // segments, 1)
        self.max_segments = segments
        self.read_ahead_sectors = read_ahead_sectors
        #: segment id -> (start_lba, length); OrderedDict gives LRU order.
        self._segments: "OrderedDict[int, Tuple[int, int]]" = OrderedDict()
        #: start-sorted (start_lba, segment id) pairs for bisect lookups.
        self._index: List[Tuple[int, int]] = []
        #: longest cached run, bounding the lookup window; None = recompute.
        self._max_length: Optional[int] = 0
        self._cached_sectors = 0
        self._next_id = 0
        #: segment id -> monotonically increasing last-use stamp (LRU order).
        self._use_stamps: dict = {}
        self._stamp_counter = 0
        self.stats = CacheStats()
        #: set by :meth:`bind_telemetry`; None keeps the hot path free.
        self._tel: Optional["Telemetry"] = None
        self._subject = ""

    def bind_telemetry(self, telemetry: Optional["Telemetry"], subject: str) -> None:
        """Mirror hit/miss/eviction activity into a telemetry registry.

        Trace events for hits and misses are recorded by the owning disk
        (which knows the simulated clock); the cache itself only feeds
        counters, so binding costs nothing on the lookup path beyond the
        existing stats increments plus one guarded counter bump.
        """
        from repro.telemetry import maybe

        self._tel = maybe(telemetry)
        self._subject = subject

    # -- queries -------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._segments)

    @property
    def cached_sectors(self) -> int:
        """Total sectors currently held across all segments."""
        return self._cached_sectors

    @property
    def cached_bytes(self) -> int:
        """Total bytes currently held across all segments."""
        return self._cached_sectors * BYTES_PER_SECTOR

    def _containing_segment(self, lba: int, sectors: int) -> Optional[int]:
        """Id of the least-recently-used segment containing the range.

        Only segments whose start lies in ``(lba - max_length, lba]`` can
        contain ``lba``, so the scan walks backwards from the bisection
        point through that bounded window.  Among multiple containing
        segments (overlapping fills) the least recently used one is
        returned — the same segment the original front-to-back LRU scan
        found — so hit accounting and eviction order are unchanged.
        """
        if not self._index:
            return None
        if self._max_length is None:
            self._max_length = max(length for _, length in self._segments.values())
        end = lba + sectors
        index = self._index
        segments = self._segments
        stamps = self._use_stamps
        best_id: Optional[int] = None
        position = bisect.bisect_right(index, (lba, _INF))
        floor = lba - self._max_length
        for k in range(position - 1, -1, -1):
            start, seg_id = index[k]
            if start <= floor:
                break
            if start <= lba and end <= start + segments[seg_id][1]:
                if best_id is None or stamps[seg_id] < stamps[best_id]:
                    best_id = seg_id
        return best_id

    def contains(self, lba: int, sectors: int) -> bool:
        """Whether [lba, lba+sectors) lies entirely inside one segment."""
        return self._containing_segment(lba, sectors) is not None

    def lookup_read(self, lba: int, sectors: int) -> bool:
        """Read-path lookup: records a hit or miss and refreshes LRU."""
        if sectors <= 0:
            raise SimulationError(f"sectors must be positive, got {sectors}")
        seg_id = self._containing_segment(lba, sectors)
        if seg_id is not None:
            self._segments.move_to_end(seg_id)
            self._stamp_counter += 1
            self._use_stamps[seg_id] = self._stamp_counter
            self.stats.read_hits += 1
            if self._tel is not None:
                self._tel.count(f"{self._subject}.cache_hits")
            return True
        self.stats.read_misses += 1
        if self._tel is not None:
            self._tel.count(f"{self._subject}.cache_misses")
        return False

    # -- fills and writes -----------------------------------------------------------

    def fill_after_read(self, lba: int, sectors: int, disk_sectors: int) -> Tuple[int, int]:
        """Install the segment fetched on a read miss.

        Args:
            lba: requested start; must lie on the disk.
            sectors: requested length; must be positive.
            disk_sectors: total disk size (read-ahead is clipped to it).

        Returns:
            The (start, length) actually fetched — request plus read-ahead,
            truncated to the segment size, the end of the disk, and the
            total cache capacity.

        Raises:
            SimulationError: if the request starts off the end of the disk
                (which would previously install a zero/negative-length
                segment) or ``sectors`` is not positive.
        """
        if sectors <= 0:
            raise SimulationError(f"sectors must be positive, got {sectors}")
        if disk_sectors <= 0:
            raise SimulationError(f"disk size must be positive, got {disk_sectors}")
        if not 0 <= lba < disk_sectors:
            raise SimulationError(
                f"fill at LBA {lba} lies outside the disk ({disk_sectors} sectors)"
            )
        length = min(
            sectors + self.read_ahead_sectors,
            self.segment_sectors,
            disk_sectors - lba,
        )
        # A request larger than one segment is still cached whole (the
        # drive streamed it through the buffer) — but never beyond the
        # total capacity or the end of the disk.
        length = max(length, min(sectors, disk_sectors - lba))
        length = min(length, self.capacity_sectors)
        self._install(lba, length)
        return lba, length

    def note_write(self, lba: int, sectors: int) -> None:
        """Write-through bookkeeping: keep overlapping segments coherent.

        Overlapping cached segments are truncated (or dropped) rather than
        updated in place — a conservative model of drives that invalidate on
        write — except when the write lies wholly inside a segment, which is
        treated as updated data and kept.
        """
        if sectors <= 0:
            raise SimulationError(f"sectors must be positive, got {sectors}")
        self.stats.writes += 1
        end = lba + sectors
        doomed = []
        for seg_id, (start, length) in self._segments.items():
            seg_end = start + length
            if start <= lba and end <= seg_end:
                continue  # interior update: segment stays valid
            if start < end and lba < seg_end:
                doomed.append(seg_id)
        for seg_id in doomed:
            self._evict(seg_id)

    # -- internals -----------------------------------------------------------------

    def _evict(self, seg_id: int) -> None:
        start, length = self._segments.pop(seg_id)
        self._index.remove((start, seg_id))
        self._use_stamps.pop(seg_id, None)
        self._cached_sectors -= length
        self.stats.evictions += 1
        if self._tel is not None:
            self._tel.count(f"{self._subject}.cache_evictions")
        if self._max_length is not None and length >= self._max_length:
            self._max_length = None  # recompute lazily on next lookup

    def _install(self, start: int, length: int) -> None:
        while self._segments and (
            len(self._segments) >= self.max_segments
            or self._cached_sectors + length > self.capacity_sectors
        ):
            oldest_id = next(iter(self._segments))
            self._evict(oldest_id)
        seg_id = self._next_id
        self._next_id += 1
        self._segments[seg_id] = (start, length)
        bisect.insort(self._index, (start, seg_id))
        self._stamp_counter += 1
        self._use_stamps[seg_id] = self._stamp_counter
        self._cached_sectors += length
        if self._max_length is not None and length > self._max_length:
            self._max_length = length

    def clear(self) -> None:
        """Drop all cached segments (stats are kept)."""
        self._segments.clear()
        self._index.clear()
        self._use_stamps.clear()
        self._cached_sectors = 0
        self._max_length = 0
