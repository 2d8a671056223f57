"""Mechanical timing of a disk access.

Given the head position and the platter's (continuously rotating) angular
position, computes the seek, rotational-latency, head-switch and media
transfer components of servicing a request — including multi-track and
multi-cylinder transfers with track/cylinder skew, the mechanism that lets
sequential reads continue across track boundaries without losing a whole
revolution.

Skews are derived from the head-switch and track-to-track seek times at the
configured RPM, as real drives do, so sequential throughput stays sensible
across the large RPM sweeps of the paper's Figure 4 experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import SimulationError
from repro.performance.seek import SeekModel
from repro.simulation.layout import DiskLayout
from repro.units import rotation_time_ms


@dataclass
class ServiceBreakdown:
    """Timing components of one mechanical access, in milliseconds."""

    overhead_ms: float = 0.0
    seek_ms: float = 0.0
    rotational_ms: float = 0.0
    head_switch_ms: float = 0.0
    transfer_ms: float = 0.0

    @property
    def total_ms(self) -> float:
        return (
            self.overhead_ms
            + self.seek_ms
            + self.rotational_ms
            + self.head_switch_ms
            + self.transfer_ms
        )


class DiskMechanics:
    """Timing engine for one disk.

    Args:
        layout: the disk's LBA mapping.
        seek_model: seek-time curve.
        rpm: spindle speed.
        head_switch_ms: time to activate an adjacent head in a cylinder.
        settle_ms: extra settle time after any seek.
        controller_overhead_ms: fixed per-request command processing.
        skew_margin_rev: extra angular margin added to computed skews.
    """

    def __init__(
        self,
        layout: DiskLayout,
        seek_model: SeekModel,
        rpm: float,
        head_switch_ms: float = 0.3,
        settle_ms: float = 0.1,
        controller_overhead_ms: float = 0.2,
        skew_margin_rev: float = 0.02,
    ) -> None:
        if rpm <= 0:
            raise SimulationError(f"rpm must be positive, got {rpm}")
        self.layout = layout
        self.seek_model = seek_model
        self.rpm = rpm
        self.head_switch_ms = head_switch_ms
        self.settle_ms = settle_ms
        self.controller_overhead_ms = controller_overhead_ms
        self.period_ms = rotation_time_ms(rpm)
        track_to_track = seek_model.parameters.track_to_track_ms + settle_ms
        self.track_skew_rev = min(0.45, head_switch_ms / self.period_ms + skew_margin_rev)
        self.cylinder_skew_rev = min(0.45, track_to_track / self.period_ms + skew_margin_rev)

    # -- service timing -----------------------------------------------------------

    def timing(
        self,
        start_ms: float,
        head_cylinder: int,
        lba: int,
        sectors: int,
    ) -> Tuple[float, float, float, float, int, int]:
        """One-pass mechanical timing of a media access.

        Walks the access track by track.  Each chunk's physical address
        comes from :meth:`DiskLayout.address`; its target angle is the sector fraction plus the track skew
        (``cylinder * cylinder_skew_rev + surface * track_skew_rev``, mod
        one revolution), and the rotational wait is the angular distance
        from the platter position at the current time to that target —
        the float expressions and operation order of
        :func:`repro.performance.rotation.wait_for_angle_ms`.

        Args:
            start_ms: absolute time the disk starts working on the request.
            head_cylinder: cylinder the head currently sits on.
            lba: starting logical block.
            sectors: transfer length.

        Returns:
            ``(seek_ms, rotational_ms, head_switch_ms, transfer_ms,
            end_cylinder, first_cylinder)``; the controller overhead is
            :attr:`controller_overhead_ms`, charged before the first chunk.
        """
        layout = self.layout
        if sectors <= 0:
            raise SimulationError(f"sectors must be positive, got {sectors}")
        if lba < 0 or lba + sectors > layout.total_sectors:
            raise SimulationError(
                f"access [{lba}, {lba + sectors}) exceeds disk size "
                f"{layout.total_sectors}"
            )
        address = layout.address
        period = self.period_ms
        cylinder_skew = self.cylinder_skew_rev
        track_skew = self.track_skew_rev
        seek_time_ms = self.seek_model.seek_time_ms
        settle = self.settle_ms
        head_switch = self.head_switch_ms
        seek_sum = rot_sum = switch_sum = transfer_sum = 0.0
        t = start_ms + self.controller_overhead_ms
        current_cylinder = head_cylinder
        current_surface = -1
        first_cylinder = -1
        remaining = sectors
        position = lba
        while remaining > 0:
            cylinder, surface, sector, _, spt = address(position)
            if first_cylinder < 0:
                first_cylinder = cylinder
            if cylinder != current_cylinder:
                seek = seek_time_ms(abs(cylinder - current_cylinder)) + settle
                seek_sum += seek
                t += seek
                current_cylinder = cylinder
            elif current_surface >= 0 and surface != current_surface:
                # Post-switch alignment follows; with well-chosen skews the
                # rotational wait after it is small.
                switch_sum += head_switch
                t += head_switch
            current_surface = surface
            target = (
                sector / spt + (cylinder * cylinder_skew + surface * track_skew) % 1.0
            ) % 1.0
            delta = (target - (0.0 + t / period) % 1.0) % 1.0
            if delta >= 1.0:
                # Float artifact: (-epsilon) % 1.0 can return exactly 1.0;
                # the head is already on target.
                delta = 0.0
            wait = delta * period
            rot_sum += wait
            t += wait
            chunk = spt - sector
            if remaining < chunk:
                chunk = remaining
            transfer = chunk * period / spt
            transfer_sum += transfer
            t += transfer
            remaining -= chunk
            position += chunk
        return seek_sum, rot_sum, switch_sum, transfer_sum, current_cylinder, first_cylinder

    def service(
        self,
        start_ms: float,
        head_cylinder: int,
        lba: int,
        sectors: int,
    ) -> Tuple[ServiceBreakdown, int]:
        """Timing of a full media access (see :meth:`timing`).

        Returns:
            (breakdown, final_cylinder): the timing decomposition and the
            cylinder the head ends on.
        """
        seek, rotation, switch, transfer, end_cylinder, _ = self.timing(
            start_ms, head_cylinder, lba, sectors
        )
        breakdown = ServiceBreakdown(
            overhead_ms=self.controller_overhead_ms,
            seek_ms=seek,
            rotational_ms=rotation,
            head_switch_ms=switch,
            transfer_ms=transfer,
        )
        return breakdown, end_cylinder

    def average_access_ms(self) -> float:
        """Rule-of-thumb random access time: average seek + half rotation."""
        return self.seek_model.average_seek_ms() + self.period_ms / 2.0
