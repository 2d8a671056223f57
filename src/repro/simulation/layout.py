"""Logical-to-physical mapping of a ZBR disk.

LBAs are laid out cylinder-major: within a cylinder, all of surface 0's
sectors, then surface 1's, and so on; cylinders run from the outer edge
(zone 0, fastest) inward, which is how real drives place low LBAs on the
fast outer tracks.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Tuple

from repro.capacity.zones import ZonedSurface
from repro.errors import SimulationError


@dataclass(frozen=True)
class SectorAddress:
    """Physical location of one sector.

    Attributes:
        cylinder: track index (0 = outermost).
        surface: recording surface index.
        sector: sector index within the track.
        zone: ZBR zone index of the cylinder.
        sectors_per_track: track capacity in the containing zone.
    """

    cylinder: int
    surface: int
    sector: int
    zone: int
    sectors_per_track: int


class DiskLayout:
    """Cylinder-major LBA mapping over a zoned surface replicated across
    surfaces.

    Args:
        surface: the ZBR layout of one surface.
        surfaces: number of recording surfaces.
    """

    def __init__(self, surface: ZonedSurface, surfaces: int) -> None:
        if surfaces < 1:
            raise SimulationError(f"surfaces must be >= 1, got {surfaces}")
        self.surface = surface
        self.surfaces = surfaces
        self._zone_start_lba: List[int] = []
        self._zone_start_cyl: List[int] = []
        self._zone_spt: List[int] = []
        lba = 0
        for zone in surface.zones:
            self._zone_start_lba.append(lba)
            self._zone_start_cyl.append(zone.first_track)
            self._zone_spt.append(zone.sectors_per_track)
            lba += zone.track_count * zone.sectors_per_track * surfaces
        self.total_sectors = lba
        if self.total_sectors <= 0:
            raise SimulationError("layout has no usable sectors")
        #: lazily built numpy zone tables for :meth:`locate_batch`.
        self._numpy_tables: object = None

    @property
    def cylinders(self) -> int:
        """Number of cylinders."""
        return self.surface.cylinders

    def address(self, lba: int) -> Tuple[int, int, int, int, int]:
        """Physical address of an LBA as a plain tuple, in
        :class:`SectorAddress` field order: ``(cylinder, surface, sector,
        zone, sectors_per_track)``.

        The one cylinder-major mapping: :meth:`locate`, :meth:`cylinder_of`
        and the mechanical timing loop all go through it.
        """
        if not 0 <= lba < self.total_sectors:
            raise SimulationError(
                f"LBA {lba} out of range [0, {self.total_sectors})"
            )
        z = bisect_right(self._zone_start_lba, lba) - 1
        spt = self._zone_spt[z]
        rel_cyl, rem = divmod(lba - self._zone_start_lba[z], spt * self.surfaces)
        surface, sector = divmod(rem, spt)
        return self._zone_start_cyl[z] + rel_cyl, surface, sector, z, spt

    def locate(self, lba: int) -> SectorAddress:
        """Physical address of an LBA."""
        return SectorAddress(*self.address(lba))

    def lba_of(self, cylinder: int, surface: int, sector: int) -> int:
        """Inverse of :func:`locate`."""
        if not 0 <= cylinder < self.cylinders:
            raise SimulationError(f"cylinder {cylinder} out of range")
        if not 0 <= surface < self.surfaces:
            raise SimulationError(f"surface {surface} out of range")
        zone = self.surface.zone_of_track(cylinder)
        spt = zone.sectors_per_track
        if not 0 <= sector < spt:
            raise SimulationError(
                f"sector {sector} out of range for zone {zone.index} (spt {spt})"
            )
        z = zone.index
        rel_cyl = cylinder - self._zone_start_cyl[z]
        return (
            self._zone_start_lba[z]
            + rel_cyl * spt * self.surfaces
            + surface * spt
            + sector
        )

    def cylinder_of(self, lba: int) -> int:
        """Cylinder containing an LBA (no :class:`SectorAddress` is built)."""
        return self.address(lba)[0]

    def _lookup_tables(self) -> tuple:
        """Per-zone numpy arrays backing :meth:`locate_batch` (lazy).

        Requires numpy; the exact simulation path never calls this, so a
        numpy-less environment can still import and run the simulator.
        """
        tables = self._numpy_tables
        if tables is None:
            import numpy as np

            tables = (
                np.asarray(self._zone_start_lba, dtype=np.int64),
                np.asarray(self._zone_start_cyl, dtype=np.int64),
                np.asarray(self._zone_spt, dtype=np.int64),
            )
            self._numpy_tables = tables
        return tables

    def locate_batch(self, lbas: "object") -> tuple:
        """Vectorized :meth:`locate` over an int array of LBAs.

        Requires numpy.  Returns ``(cylinder, surface, sector, spt)``
        int64 arrays; pure integer arithmetic, so the values agree exactly
        with element-wise :meth:`locate`.
        """
        import numpy as np

        start_lba, start_cyl, zone_spt = self._lookup_tables()
        lba = np.asarray(lbas, dtype=np.int64)
        if lba.size and (int(lba.min()) < 0 or int(lba.max()) >= self.total_sectors):
            raise SimulationError("batch LBA out of range")
        z = np.searchsorted(start_lba, lba, side="right") - 1
        spt = zone_spt[z]
        per_cylinder = spt * self.surfaces
        rel = lba - start_lba[z]
        cylinder = start_cyl[z] + rel // per_cylinder
        rem = rel % per_cylinder
        return cylinder, rem // spt, rem % spt, spt

    def sectors_per_track_at(self, cylinder: int) -> int:
        """Track capacity at a cylinder."""
        return self.surface.zone_of_track(cylinder).sectors_per_track
