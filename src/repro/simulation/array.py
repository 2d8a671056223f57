"""Storage array: fans logical requests out to member disks.

Implements the phased execution of :mod:`repro.simulation.raid` plans: all
children of a phase are issued together; the next phase starts when the
last child of the current phase completes; the logical request completes
with its final phase.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import SimulationError
from repro.simulation.disk import SimulatedDisk
from repro.simulation.events import EventQueue
from repro.simulation.raid import ArrayGeometry, Phases
from repro.simulation.request import Request

LogicalCompletion = Callable[[Request, float], None]


class _InFlight:
    """Book-keeping for one logical request being executed."""

    __slots__ = ("logical", "phases", "phase_index", "outstanding")

    def __init__(self, logical: Request, phases: Phases) -> None:
        self.logical = logical
        self.phases = phases
        self.phase_index = 0
        self.outstanding = 0


class StorageArray:
    """A set of disks behind one logical address space.

    Args:
        disks: member disks (must all share the event queue).
        geometry: striping/RAID geometry; its ``disk_count`` must match.
        events: the simulation event queue.
        on_complete: callback for each completed logical request.
    """

    def __init__(
        self,
        disks: Sequence[SimulatedDisk],
        geometry: ArrayGeometry,
        events: EventQueue,
        on_complete: Optional[LogicalCompletion] = None,
    ) -> None:
        if len(disks) != geometry.disk_count:
            raise SimulationError(
                f"geometry expects {geometry.disk_count} disks, got {len(disks)}"
            )
        for disk in disks:
            if disk.total_sectors < geometry.disk_sectors:
                raise SimulationError(
                    f"disk {disk.name} smaller ({disk.total_sectors}) than the "
                    f"geometry's per-disk size {geometry.disk_sectors}"
                )
        self.disks = list(disks)
        self.geometry = geometry
        self.events = events
        self.on_complete = on_complete
        self._tracking: Dict[int, _InFlight] = {}
        self.completed: List[Request] = []
        for disk in self.disks:
            disk.on_complete = self._child_completed

    @property
    def logical_sectors(self) -> int:
        """Usable logical capacity in sectors."""
        return self.geometry.logical_sectors

    # -- submission ----------------------------------------------------------------

    def submit(self, request: Request, phases: Optional[Phases] = None) -> None:
        """Accept a logical request at the current simulated time.

        ``phases`` is the request's plan when the caller made it ahead
        of time (see :mod:`repro.simulation.preplan`); otherwise the
        geometry plans the request now.
        """
        if phases is None:
            phases = self.geometry.plan(
                request.lba, request.sectors, request.is_write
            )
        if not phases:
            raise SimulationError("geometry produced an empty plan")
        flight = _InFlight(logical=request, phases=phases)
        self._tracking[request.request_id] = flight
        self._issue_phase(flight)

    def _issue_phase(self, flight: _InFlight) -> None:
        phase = flight.phases[flight.phase_index]
        flight.outstanding = len(phase)
        if flight.outstanding == 0:  # pragma: no cover - defensive
            raise SimulationError("empty phase in access plan")
        now = self.events.now_ms
        logical = flight.logical
        disks = self.disks
        for disk, lba, sectors, is_write in phase:
            disks[disk].submit(
                Request(
                    arrival_ms=now,
                    lba=lba,
                    sectors=sectors,
                    is_write=is_write,
                    parent=logical,
                )
            )

    def _child_completed(self, child: Request, now: float) -> None:
        if child.parent is None:
            return
        flight = self._tracking.get(child.parent.request_id)
        if flight is None:
            raise SimulationError(
                f"completion for unknown logical request {child.parent.request_id}"
            )
        flight.outstanding -= 1
        if flight.outstanding > 0:
            return
        flight.phase_index += 1
        if flight.phase_index < len(flight.phases):
            self._issue_phase(flight)
            return
        logical = flight.logical
        logical.completion_ms = now
        del self._tracking[logical.request_id]
        self.completed.append(logical)
        if self.on_complete is not None:
            self.on_complete(logical, now)

    # -- introspection ------------------------------------------------------------

    def in_flight(self) -> int:
        """Number of logical requests currently executing."""
        return len(self._tracking)
