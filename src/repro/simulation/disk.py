"""The simulated disk drive.

Ties together the ZBR layout, the mechanical timing engine, the buffer
cache and a request scheduler behind an event-driven interface: callers
submit requests and receive a completion callback; the disk services one
request at a time, drawing the next from its scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import TYPE_CHECKING, Callable, Optional, Tuple

from repro.capacity.zones import ZonedSurface
from repro.errors import SimulationError
from repro.geometry.platter import Platter
from repro.performance.seek import SeekModel, seek_parameters_for_platter
from repro.simulation.cache import DiskCache
from repro.simulation.events import EventQueue
from repro.simulation.layout import DiskLayout
from repro.simulation.mechanics import DiskMechanics
from repro.simulation.request import Request
from repro.simulation.scheduler import FCFSScheduler, Scheduler
from repro.units import (
    BYTES_PER_SECTOR,
    MIB,
    interface_mb_per_s_to_bytes_per_s,
    seconds_to_ms,
)

if TYPE_CHECKING:  # pragma: no cover - cycle broken at runtime
    from repro.faults import DiskFaultInjector
    from repro.telemetry import Telemetry

CompletionCallback = Callable[[Request, float], None]

#: Electronic service time for a cache hit, milliseconds.
CACHE_HIT_MS = 0.1


@dataclass
class DiskStats:
    """Operational counters for one disk."""

    requests_completed: int = 0
    reads: int = 0
    writes: int = 0
    busy_ms: float = 0.0
    seek_ms: float = 0.0
    rotational_ms: float = 0.0
    transfer_ms: float = 0.0
    seeks_with_movement: int = 0
    total_seek_cylinders: int = 0
    faults_injected: int = 0
    fault_ms: float = 0.0
    _last: float = field(default=0.0, repr=False)

    def utilization(self, elapsed_ms: float) -> float:
        """Fraction of elapsed time the disk was servicing requests."""
        if elapsed_ms <= 0:
            return 0.0
        return min(self.busy_ms / elapsed_ms, 1.0)

    def mean_seek_distance(self) -> float:
        """Average cylinders moved per completed request."""
        if self.requests_completed == 0:
            return 0.0
        return self.total_seek_cylinders / self.requests_completed


class SimulatedDisk:
    """One disk attached to an event queue.

    Args:
        name: label used in error messages.
        layout: LBA mapping.
        seek_model: seek-time curve.
        rpm: spindle speed.
        events: the simulation's event queue.
        cache: buffer cache (None disables caching).
        scheduler: queue discipline (default FCFS).
        bus_mb_per_s: interface transfer rate (Ultra160-class default).
        on_complete: callback fired at each request completion.
        fault_injector: deterministic media/servo fault source; charges
            extra latency on media accesses (cache hits are immune).
    """

    def __init__(
        self,
        name: str,
        layout: DiskLayout,
        seek_model: SeekModel,
        rpm: float,
        events: EventQueue,
        cache: Optional[DiskCache] = None,
        scheduler: Optional[Scheduler] = None,
        bus_mb_per_s: float = 160.0,
        on_complete: Optional[CompletionCallback] = None,
        telemetry: Optional["Telemetry"] = None,
        fault_injector: Optional["DiskFaultInjector"] = None,
    ) -> None:
        if bus_mb_per_s <= 0:
            raise SimulationError("bus rate must be positive")
        self.name = name
        self.layout = layout
        self.seek_model = seek_model
        self.events = events
        self.cache = cache
        self.scheduler = scheduler if scheduler is not None else FCFSScheduler()
        self.bus_mb_per_s = bus_mb_per_s
        self.on_complete = on_complete
        self.fault_injector = fault_injector
        self.mechanics = DiskMechanics(layout, seek_model, rpm)
        self.head_cylinder = 0
        self.busy = False
        self.stats = DiskStats()
        from repro.telemetry import maybe

        #: one pointer check per hook keeps the untelemetered path free.
        self._tel = maybe(telemetry)
        if self._tel is not None and cache is not None:
            cache.bind_telemetry(self._tel, name)

    # -- configuration ------------------------------------------------------------

    @property
    def rpm(self) -> float:
        """Current spindle speed."""
        return self.mechanics.rpm

    def set_rpm(self, rpm: float) -> None:
        """Change spindle speed (multi-speed disks); in-flight service times
        already scheduled are unaffected."""
        previous = self.mechanics.rpm
        self.mechanics = DiskMechanics(self.layout, self.seek_model, rpm)
        if self._tel is not None and rpm != previous:
            self._tel.record(
                self.events.now_ms,
                "rpm_change",
                self.name,
                from_rpm=previous,
                to_rpm=rpm,
            )
            self._tel.count(f"{self.name}.rpm_changes")
            self._tel.set_gauge(f"{self.name}.rpm", rpm)

    @property
    def total_sectors(self) -> int:
        """Disk size in sectors."""
        return self.layout.total_sectors

    def capacity_bytes(self) -> int:
        """Disk size in bytes."""
        return self.total_sectors * BYTES_PER_SECTOR

    # -- submission ----------------------------------------------------------------

    def submit(self, request: Request) -> None:
        """Accept a request at the current simulated time."""
        if request.lba + request.sectors > self.layout.total_sectors:
            raise SimulationError(
                f"{self.name}: request [{request.lba}, {request.end_lba}) "
                f"exceeds disk size {self.total_sectors}"
            )
        if self.busy:
            self.scheduler.add(request)
        else:
            self._begin(request, self.events.now_ms)

    def queue_depth(self) -> int:
        """Requests waiting (not counting the one in service)."""
        return len(self.scheduler)

    # -- service -------------------------------------------------------------------

    @property
    def bus_mb_per_s(self) -> float:
        """Interface transfer rate, decimal MB/s (settable)."""
        return self._bus_mb_per_s

    @bus_mb_per_s.setter
    def bus_mb_per_s(self, value: float) -> None:
        self._bus_mb_per_s = value
        self._bus_bytes_per_s = interface_mb_per_s_to_bytes_per_s(value)

    def _bus_ms(self, sectors: int) -> float:
        return seconds_to_ms(sectors * BYTES_PER_SECTOR / self._bus_bytes_per_s)

    def _service_time(self, request: Request, now: float) -> float:
        """Service time for a request starting now, updating cache/head."""
        lba = request.lba
        sectors = request.sectors
        bus = self._bus_ms(sectors)
        cache = self.cache
        if request.is_write:
            if cache is not None:
                cache.note_write(lba, sectors)
        elif cache is not None:
            if cache.lookup_read(lba, sectors):
                if self._tel is not None:
                    self._tel.record(now, "cache_hit", self.name, lba=lba, sectors=sectors)
                return CACHE_HIT_MS + bus
            if self._tel is not None:
                self._tel.record(now, "cache_miss", self.name, lba=lba, sectors=sectors)
        mechanics = self.mechanics
        head = self.head_cylinder
        seek, rotation, switch, transfer, end_cyl, first_cyl = mechanics.timing(
            now, head, lba, sectors
        )
        stats = self.stats
        stats.seek_ms += seek
        stats.rotational_ms += rotation
        stats.transfer_ms += transfer
        distance = abs(first_cyl - head)
        if distance > 0:
            stats.seeks_with_movement += 1
            stats.total_seek_cylinders += distance
            if self._tel is not None:
                self._tel.record(
                    self.events.now_ms,
                    "seek",
                    self.name,
                    cylinders=distance,
                    seek_ms=seek,
                )
                self._tel.observe(f"{self.name}.seek_ms", seek)
        self.head_cylinder = end_cyl
        if cache is not None and not request.is_write:
            cache.fill_after_read(lba, sectors, self.layout.total_sectors)
        total = mechanics.controller_overhead_ms + seek + rotation + switch + transfer
        return total + bus + self._fault_penalty_ms(now)

    def _fault_penalty_ms(self, now: float) -> float:
        """Injected-fault latency for one media access (0 when healthy).

        Consulted only on paths that touch the media — cache hits never
        fault — so the injector's per-access ordinal advances identically
        in any run that replays the same trace.
        """
        if self.fault_injector is None:
            return 0.0
        fault = self.fault_injector.media_access_fault(self.mechanics)
        if fault is None:
            return 0.0
        self.stats.faults_injected += 1
        self.stats.fault_ms += fault.extra_ms
        if self._tel is not None:
            self._tel.record(
                now,
                "fault_injected",
                self.name,
                fault=fault.kind,
                extra_ms=fault.extra_ms,
                ecc_retries=fault.ecc_retries,
            )
            self._tel.count(f"{self.name}.faults_injected")
            self._tel.count("faults.injected")
            self._tel.observe("faults.extra_ms", fault.extra_ms)
        return fault.extra_ms

    def _begin(self, request: Request, now: float) -> None:
        self.busy = True
        request.start_service_ms = now
        service = self._service_time(request, now)
        self.stats.busy_ms += service
        if self._tel is not None:
            self._tel.record(
                now,
                "request_dispatch",
                self.name,
                lba=request.lba,
                sectors=request.sectors,
                write=request.is_write,
                queued=len(self.scheduler),
                service_ms=service,
            )
            self._tel.observe(f"{self.name}.service_ms", service)
        self.events.schedule(now + service, partial(self._finish, request))

    def _finish(self, request: Request, now: float) -> None:
        request.completion_ms = now
        self.stats.requests_completed += 1
        if request.is_write:
            self.stats.writes += 1
        else:
            self.stats.reads += 1
        if self._tel is not None:
            self._tel.record(
                now,
                "request_complete",
                self.name,
                lba=request.lba,
                sectors=request.sectors,
                write=request.is_write,
                wait_ms=now - request.arrival_ms,
            )
            self._tel.count(f"{self.name}.requests")
        if self.on_complete is not None:
            self.on_complete(request, now)
        next_request = self.scheduler.next(self.head_cylinder)
        if next_request is not None:
            self._begin(next_request, now)
        else:
            self.busy = False


#: Distinct drive mechanisms one process keeps built.  The workload
#: catalog has three, and one fresh service job cycles through all of them.
MECHANISM_MEMO_SIZE = 8


def standard_mechanism(
    diameter_in: float = 3.3,
    platters: int = 2,
    kbpi: float = 480.0,
    ktpi: float = 30.0,
    zone_count: int = 30,
) -> Tuple[DiskLayout, SeekModel]:
    """The ZBR layout and seek curve of a disk built from drive-model
    parameters (see :func:`standard_disk`), without the disk itself.

    Built once per distinct value per process: equal parameters, however
    they are passed, return the very same objects, so the member disks
    of an array, the rungs of an RPM ladder and successive jobs of one
    process all share them.  Nothing mutates either after construction
    (their lazy tables are pure), so sharing is safe across threads.
    """
    return _mechanism(diameter_in, platters, kbpi, ktpi, zone_count)


# Per-process memo of a pure builder: every process builds identical
# mechanisms for a key, so copies cannot diverge observably.  ``typed``
# keeps ``480`` and ``480.0`` apart, so each caller gets exactly what an
# unmemoized build of its own arguments would give.
@lru_cache(maxsize=MECHANISM_MEMO_SIZE, typed=True)
def _mechanism(
    diameter_in: float, platters: int, kbpi: float, ktpi: float, zone_count: int
) -> Tuple[DiskLayout, SeekModel]:
    from repro.capacity.recording import RecordingTechnology

    surface = ZonedSurface(
        platter=Platter(diameter_in=diameter_in),
        technology=RecordingTechnology.from_kilo_units(kbpi, ktpi),
        zone_count=zone_count,
    )
    layout = DiskLayout(surface, surfaces=2 * platters)
    seek_model = SeekModel(
        seek_parameters_for_platter(diameter_in), cylinders=surface.cylinders
    )
    return layout, seek_model


def standard_disk(
    name: str,
    events: EventQueue,
    diameter_in: float = 3.3,
    platters: int = 2,
    kbpi: float = 480.0,
    ktpi: float = 30.0,
    rpm: float = 10000.0,
    zone_count: int = 30,
    cache_bytes: int = 4 * MIB,
    scheduler: Optional[Scheduler] = None,
    on_complete: Optional[CompletionCallback] = None,
    telemetry: Optional["Telemetry"] = None,
    fault_injector: Optional["DiskFaultInjector"] = None,
) -> SimulatedDisk:
    """Convenience factory: a disk built from drive-model parameters.

    Uses the library's capacity model to derive the ZBR layout and the
    platter-size seek correlation for the seek curve — the same path the
    paper uses to synthesize drives "for the appropriate year".
    """
    layout, seek_model = standard_mechanism(
        diameter_in=diameter_in,
        platters=platters,
        kbpi=kbpi,
        ktpi=ktpi,
        zone_count=zone_count,
    )
    cache = DiskCache(size_bytes=cache_bytes) if cache_bytes > 0 else None
    return SimulatedDisk(
        name=name,
        layout=layout,
        seek_model=seek_model,
        rpm=rpm,
        events=events,
        cache=cache,
        scheduler=scheduler,
        on_complete=on_complete,
        telemetry=telemetry,
        fault_injector=fault_injector,
    )
