"""Striping and RAID-5 across multiple disks.

The logical address space is striped over the member disks in fixed stripe
units.  RAID-0 simply scatters; RAID-5 (left-symmetric, the common layout)
rotates a parity unit across the disks and services small writes with the
classic read-modify-write: read old data and old parity, then write new
data and new parity.  Full-stripe writes skip the pre-read.

A logical request is decomposed into *phases*; all children of a phase run
concurrently, and a phase may only start when the previous one finished
(the RMW write phase waits for its pre-reads).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

from repro.errors import SimulationError

#: One child access: ``(disk, lba, sectors, is_write)`` — the member
#: disk, the physical LBA on it, the length and the direction.
Child = Tuple[int, int, int, bool]
#: A request's phased plan as nested tuples: the phases run one after
#: another, the children of one phase concurrently.
Phases = Tuple[Tuple[Child, ...], ...]


class ArrayGeometry:
    """Base striping geometry.

    Args:
        disk_count: number of member disks.
        stripe_unit_sectors: contiguous sectors per disk per stripe row
            (the paper's RAID-5 uses 16 x 512-byte blocks).
        disk_sectors: usable sectors per member disk.
    """

    def __init__(self, disk_count: int, stripe_unit_sectors: int, disk_sectors: int) -> None:
        if disk_count < 1:
            raise SimulationError(f"need at least one disk, got {disk_count}")
        if stripe_unit_sectors < 1:
            raise SimulationError("stripe unit must be positive")
        if disk_sectors < stripe_unit_sectors:
            raise SimulationError("disk smaller than one stripe unit")
        self.disk_count = disk_count
        self.stripe_unit = stripe_unit_sectors
        self.disk_sectors = disk_sectors

    @property
    def logical_sectors(self) -> int:
        """Usable logical capacity in sectors."""
        raise NotImplementedError

    @property
    def mapping(self) -> Tuple[str, int, int, int]:
        """What fixes the logical-to-physical map: the geometry class,
        disk count, stripe unit and per-disk size.  Two RAID-0 or RAID-5
        geometries with equal mappings plan every request alike."""
        return (type(self).__name__, self.disk_count, self.stripe_unit, self.disk_sectors)

    def plan(self, lba: int, sectors: int, is_write: bool) -> Phases:
        """Decompose a logical access into phased child accesses."""
        raise NotImplementedError

    def _check_range(self, lba: int, sectors: int) -> None:
        if lba < 0 or sectors < 1:
            raise SimulationError(
                f"logical access needs lba >= 0 and sectors >= 1, "
                f"got lba={lba}, sectors={sectors}"
            )
        if lba + sectors > self.logical_sectors:
            raise SimulationError(
                f"logical access [{lba}, {lba + sectors}) exceeds "
                f"array capacity {self.logical_sectors}"
            )

    def _units(self, lba: int, sectors: int) -> Iterator[Tuple[int, int, int]]:
        """Yield (stripe_unit_index, offset_in_unit, length) runs."""
        remaining = sectors
        while remaining > 0:
            unit = lba // self.stripe_unit
            offset = lba % self.stripe_unit
            length = min(remaining, self.stripe_unit - offset)
            yield unit, offset, length
            lba += length
            remaining -= length


class Raid0Geometry(ArrayGeometry):
    """Plain striping (also used for the paper's non-RAID multi-disk
    systems, where data is spread across independent spindles)."""

    @property
    def logical_sectors(self) -> int:
        units_per_disk = self.disk_sectors // self.stripe_unit
        return units_per_disk * self.stripe_unit * self.disk_count

    def locate_unit(self, unit: int) -> Tuple[int, int]:
        """(disk, physical start LBA) of a logical stripe unit."""
        disk = unit % self.disk_count
        row = unit // self.disk_count
        return disk, row * self.stripe_unit

    def plan(self, lba: int, sectors: int, is_write: bool) -> Phases:
        """One child per touched disk, in disk order, in closed form.

        The stripe units a request covers on one disk lie in consecutive
        rows, so they are physically contiguous: each disk's child runs
        from its first unit (offset into the request's first unit) to
        its last (cut at the request's end) — what the unit walk plus
        :func:`_coalesce` merges, in O(disks) instead of O(units).
        """
        self._check_range(lba, sectors)
        unit = self.stripe_unit
        count = self.disk_count
        end_lba = lba + sectors
        first = lba // unit
        last = (end_lba - 1) // unit
        children: List[Child] = []
        for u in range(first, min(last, first + count - 1) + 1):
            final = u + (last - u) // count * count  # last unit on this disk
            start = (u // count) * unit
            if u == first:
                start += lba % unit
            end = (final // count) * unit
            end += (end_lba - 1) % unit + 1 if final == last else unit
            children.append((u % count, start, end - start, is_write))
        children.sort()  # by disk: each touched disk has one child
        return (tuple(children),)


class Raid5Geometry(ArrayGeometry):
    """Left-symmetric RAID-5.

    In stripe row ``r`` the parity lives on disk ``(n-1-r) mod n`` and data
    units fill the remaining disks starting just after the parity disk.
    """

    def __init__(self, disk_count: int, stripe_unit_sectors: int, disk_sectors: int) -> None:
        if disk_count < 3:
            raise SimulationError(f"RAID-5 needs >= 3 disks, got {disk_count}")
        super().__init__(disk_count, stripe_unit_sectors, disk_sectors)

    @property
    def data_disks(self) -> int:
        return self.disk_count - 1

    @property
    def logical_sectors(self) -> int:
        rows = self.disk_sectors // self.stripe_unit
        return rows * self.stripe_unit * self.data_disks

    def parity_disk(self, row: int) -> int:
        """Parity disk of a stripe row."""
        return (self.disk_count - 1 - row % self.disk_count) % self.disk_count

    def locate_unit(self, unit: int) -> Tuple[int, int]:
        """(disk, physical start LBA) of a logical data unit."""
        row = unit // self.data_disks
        position = unit % self.data_disks
        parity = self.parity_disk(row)
        disk = (parity + 1 + position) % self.disk_count
        return disk, row * self.stripe_unit

    def plan(self, lba: int, sectors: int, is_write: bool) -> Phases:
        self._check_range(lba, sectors)
        if is_write:
            return self._plan_write(lba, sectors)
        children: List[Child] = []
        for unit, offset, length in self._units(lba, sectors):
            disk, start = self.locate_unit(unit)
            children.append((disk, start + offset, length, False))
        return (_coalesce(children),)

    def _plan_write(self, lba: int, sectors: int) -> Phases:
        by_row: Dict[int, List[Tuple[int, int, int]]] = {}
        for unit, offset, length in self._units(lba, sectors):
            by_row.setdefault(unit // self.data_disks, []).append((unit, offset, length))
        pre_reads: List[Child] = []
        writes: List[Child] = []
        for row, runs in sorted(by_row.items()):
            parity = self.parity_disk(row)
            parity_lba = row * self.stripe_unit
            full_units = {u for u, off, ln in runs if off == 0 and ln == self.stripe_unit}
            full_stripe = len(full_units) == self.data_disks
            for unit, offset, length in runs:
                disk, start = self.locate_unit(unit)
                writes.append((disk, start + offset, length, True))
                if not full_stripe:
                    pre_reads.append((disk, start + offset, length, False))
            writes.append((parity, parity_lba, self.stripe_unit, True))
            if not full_stripe:
                pre_reads.append((parity, parity_lba, self.stripe_unit, False))
        if pre_reads:
            return (_coalesce(pre_reads), _coalesce(writes))
        return (_coalesce(writes),)


class Raid1Geometry(ArrayGeometry):
    """Mirrored pair (RAID-1).

    Writes propagate to both disks; reads are served by ``read_target``,
    which DTM policies may steer — the paper (§5.4) suggests directing
    reads at one mirror while the other cools, then alternating.

    The stripe unit is irrelevant for mirroring; the logical space equals
    one member disk.
    """

    def __init__(self, disk_sectors: int) -> None:
        super().__init__(disk_count=2, stripe_unit_sectors=1, disk_sectors=disk_sectors)
        self.read_target = 0

    @property
    def logical_sectors(self) -> int:
        return self.disk_sectors

    def set_read_target(self, disk: int) -> None:
        """Point subsequent reads at one mirror."""
        if disk not in (0, 1):
            raise SimulationError(f"mirror index must be 0 or 1, got {disk}")
        self.read_target = disk

    def plan(self, lba: int, sectors: int, is_write: bool) -> Phases:
        self._check_range(lba, sectors)
        if is_write:
            return (((0, lba, sectors, True), (1, lba, sectors, True)),)
        return (((self.read_target, lba, sectors, False),),)


def _coalesce(children: Sequence[Child]) -> Tuple[Child, ...]:
    """Merge physically contiguous same-disk, same-direction accesses."""
    if len(children) < 2:
        return tuple(children)
    merged: List[Child] = []
    for child in sorted(children, key=lambda c: (c[0], c[3], c[1])):  # disk, is_write, lba
        if merged:
            disk, lba, sectors, is_write = merged[-1]
            if disk == child[0] and is_write == child[3] and lba + sectors == child[1]:
                merged[-1] = (disk, lba, sectors + child[2], is_write)
                continue
        merged.append(child)
    return tuple(merged)
