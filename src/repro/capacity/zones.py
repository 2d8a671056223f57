"""Zoned Bit Recording (ZBR) layout.

Outer tracks are longer and can hold more bits, but per-track sector counts
would need per-track channel rates.  ZBR groups tracks into zones; every
track in a zone carries the sector count of the zone's *shortest* (innermost)
track, trading a little capacity for channel simplicity.  Modern drives use
around 30 zones; the paper's roadmap experiments use 50.

This module computes the track layout of one surface: track radii (paper
eq. 1), raw bits per track, the zone partition, and the usable sectors per
track after servo and ECC overheads are charged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import List, Tuple

from repro.capacity.ecc import ecc_bits_for_technology
from repro.capacity.recording import RecordingTechnology
from repro.capacity.servo import servo_bits_per_sector
from repro.constants import STROKE_EFFICIENCY
from repro.errors import RecordingError
from repro.geometry.platter import Platter
from repro.units import BITS_PER_SECTOR


@dataclass(frozen=True)
class Zone:
    """One ZBR zone on a surface.

    Attributes:
        index: zone number; 0 is the outermost zone.
        first_track: index of the zone's outermost track.
        track_count: number of tracks in the zone.
        min_track_radius_in: radius of the zone's innermost track, inches.
        raw_bits_per_track: raw bit capacity of the innermost track.
        sectors_per_track: usable 512-byte sectors allocated to every track
            in the zone after servo/ECC derating.
    """

    index: int
    first_track: int
    track_count: int
    min_track_radius_in: float
    raw_bits_per_track: float
    sectors_per_track: int

    @property
    def sectors(self) -> int:
        """Total usable sectors in the zone (one surface)."""
        return self.track_count * self.sectors_per_track


class ZonedSurface:
    """ZBR layout of a single recording surface.

    Args:
        platter: platter geometry.
        technology: recording technology (BPI/TPI).
        zone_count: number of ZBR zones.
        stroke_efficiency: fraction of the radial band usable for data
            tracks (default 2/3 per the paper).

    Raises:
        RecordingError: if the configuration yields no usable tracks or the
            zone count exceeds the track count.
    """

    def __init__(
        self,
        platter: Platter,
        technology: RecordingTechnology,
        zone_count: int = 30,
        stroke_efficiency: float = STROKE_EFFICIENCY,
    ) -> None:
        if zone_count < 1:
            raise RecordingError(f"zone count must be >= 1, got {zone_count}")
        if not 0.0 < stroke_efficiency <= 1.0:
            raise RecordingError(
                f"stroke efficiency must be in (0, 1], got {stroke_efficiency}"
            )
        self.platter = platter
        self.technology = technology
        self.zone_count = zone_count
        self.stroke_efficiency = stroke_efficiency

        band = platter.radial_band_in
        self._cylinders = int(stroke_efficiency * band * technology.tpi)
        if self._cylinders < 1:
            raise RecordingError(
                "configuration yields zero tracks: "
                f"band={band:.3f} in, TPI={technology.tpi:.0f}"
            )
        if zone_count > self._cylinders:
            raise RecordingError(
                f"zone count {zone_count} exceeds track count {self._cylinders}"
            )

    # -- track-level geometry ---------------------------------------------------

    @property
    def cylinders(self) -> int:
        """Number of data tracks on the surface (paper: n_cylin)."""
        return self._cylinders

    def track_radius_in(self, track: int) -> float:
        """Radius of track ``track`` in inches (track 0 is outermost).

        Tracks are uniformly spaced between the inner and outer radii
        (paper eq. 1).
        """
        self._check_track(track)
        n = self._cylinders
        if n == 1:
            return self.platter.outer_radius_in
        r_i = self.platter.inner_radius_in
        r_o = self.platter.outer_radius_in
        return r_i + (r_o - r_i) * (n - track - 1) / (n - 1)

    def track_perimeter_in(self, track: int) -> float:
        """Perimeter of a track in inches."""
        return 2.0 * math.pi * self.track_radius_in(track)

    def raw_track_bits(self, track: int) -> float:
        """Raw bit capacity of a track: perimeter times linear density."""
        return self.track_perimeter_in(track) * self.technology.bpi

    def _check_track(self, track: int) -> None:
        if not 0 <= track < self._cylinders:
            raise RecordingError(
                f"track {track} out of range [0, {self._cylinders})"
            )

    # -- overheads ---------------------------------------------------------------

    @cached_property
    def servo_bits(self) -> int:
        """Embedded-servo bits charged per sector."""
        return servo_bits_per_sector(self._cylinders)

    @cached_property
    def ecc_bits(self) -> int:
        """ECC bits charged per sector at this areal density."""
        return ecc_bits_for_technology(self.technology)

    @property
    def overhead_fraction(self) -> float:
        """Fraction of raw track bits consumed by servo + ECC.

        The paper charges ``C_servo + C_ECC`` bits against each 4096-bit
        sector; expressed as a derating fraction of the raw track capacity
        this is ``(servo + ecc) / 4096`` (see DESIGN.md for why this
        accounting reproduces the paper's Table 3 IDR_density column).
        """
        return (self.servo_bits + self.ecc_bits) / BITS_PER_SECTOR

    def usable_track_bits(self, track: int) -> float:
        """Track bits available for user data after servo/ECC derating."""
        return self.raw_track_bits(track) * (1.0 - self.overhead_fraction)

    # -- zones --------------------------------------------------------------------

    @cached_property
    def zones(self) -> Tuple[Zone, ...]:
        """The ZBR zone partition, outermost zone first.

        Tracks are split as evenly as possible; any remainder tracks are
        assigned to the innermost zones (one extra track each) so every track
        belongs to exactly one zone.

        Computed once per distinct (diameter, BPI, TPI, zone count, stroke
        efficiency) per process and shared by every surface with those
        values; the tuple and its frozen zones cannot be mutated.
        """
        return _zone_table(
            self.platter.diameter_in,
            self.technology.bpi,
            self.technology.tpi,
            self.zone_count,
            self.stroke_efficiency,
        )

    def _partition(self) -> Tuple[Zone, ...]:
        """The zone partition, computed afresh (see :attr:`zones`)."""
        base, remainder = divmod(self._cylinders, self.zone_count)
        zones: List[Zone] = []
        first = 0
        for index in range(self.zone_count):
            count = base + (1 if index >= self.zone_count - remainder else 0)
            innermost = first + count - 1
            raw_min = self.raw_track_bits(innermost)
            usable_min = self.usable_track_bits(innermost)
            sectors = int(usable_min // BITS_PER_SECTOR)
            zones.append(
                Zone(
                    index=index,
                    first_track=first,
                    track_count=count,
                    min_track_radius_in=self.track_radius_in(innermost),
                    raw_bits_per_track=raw_min,
                    sectors_per_track=sectors,
                )
            )
            first += count
        return tuple(zones)

    def zone_of_track(self, track: int) -> Zone:
        """Zone containing the given track."""
        self._check_track(track)
        for zone in self.zones:
            if zone.first_track <= track < zone.first_track + zone.track_count:
                return zone
        raise RecordingError(f"track {track} not covered by any zone")  # pragma: no cover

    @property
    def sectors_per_track_zone0(self) -> int:
        """Sectors per track in the outermost zone (paper's n_tz0, sets IDR)."""
        return self.zones[0].sectors_per_track

    @cached_property
    def sectors_per_surface(self) -> int:
        """Total usable sectors on one surface (memoized like :attr:`zones`)."""
        return _surface_sectors(
            self.platter.diameter_in,
            self.technology.bpi,
            self.technology.tpi,
            self.zone_count,
            self.stroke_efficiency,
        )

    def raw_bits_per_surface(self) -> float:
        """Raw (pre-ZBR, pre-overhead) bits on the recordable annulus.

        This is the per-surface term of the paper's C_max formula:
        ``eta * pi * (r_o^2 - r_i^2) * BPI * TPI``.
        """
        return (
            self.stroke_efficiency
            * self.platter.annulus_area_in2()
            * self.technology.areal_density
        )


#: Distinct zone partitions one process keeps.  A Figure 2 roadmap needs
#: 33 (11 years x 3 platter sizes); Table 1's drives and the simulated
#: mechanisms add a few more.
ZONE_MEMO_SIZE = 128


# Per-process memo of a pure partition, keyed on exactly the values it is
# computed from: every process computes bit-identical zones for a key, so
# copies cannot diverge observably.  ``typed`` keeps ``2`` and ``2.0``
# apart, so each caller gets exactly what an unmemoized build of its own
# values would give.  An invalid configuration raises and is never cached.
@lru_cache(maxsize=ZONE_MEMO_SIZE, typed=True)
def _zone_table(
    diameter_in: float,
    bpi: float,
    tpi: float,
    zone_count: int,
    stroke_efficiency: float,
) -> Tuple[Zone, ...]:
    surface = ZonedSurface(
        platter=Platter(diameter_in=diameter_in),
        technology=RecordingTechnology(bpi=bpi, tpi=tpi),
        zone_count=zone_count,
        stroke_efficiency=stroke_efficiency,
    )
    return surface._partition()


# The integer sum over one memoized table, keyed like ``_zone_table``.
@lru_cache(maxsize=ZONE_MEMO_SIZE, typed=True)
def _surface_sectors(
    diameter_in: float,
    bpi: float,
    tpi: float,
    zone_count: int,
    stroke_efficiency: float,
) -> int:
    table = _zone_table(diameter_in, bpi, tpi, zone_count, stroke_efficiency)
    return sum(zone.sectors for zone in table)
