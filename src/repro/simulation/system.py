"""The complete simulated storage system: array + disks + event engine.

Replays a workload trace open-loop (requests arrive at their trace times
regardless of completions, as DiskSim does for trace-driven runs) and
collects response-time statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - cycle broken at runtime
    from repro.faults import FaultConfig
    from repro.telemetry import Telemetry
from repro.simulation.array import StorageArray
from repro.simulation.cache import DiskCache
from repro.simulation.disk import SimulatedDisk, standard_mechanism
from repro.simulation.events import EventQueue
from repro.simulation.raid import ArrayGeometry, Phases, Raid0Geometry, Raid5Geometry
from repro.simulation.request import Request
from repro.simulation.statistics import ResponseTimeStats
from repro.units import GB_MARKETING, MIB
from repro.workloads.trace import Trace


@dataclass
class SimulationReport:
    """Outcome of replaying one trace.

    Attributes:
        trace_name: workload label.
        rpm: member-disk spindle speed used.
        stats: logical response-time statistics.
        requests: number of logical requests completed.
        simulated_ms: simulated time at the last completion.
        disk_utilizations: per-disk busy fractions.
        cache_hit_ratio: pooled read hit ratio across disks.
        fault_summary: pooled injected-fault counters across disks (see
            :meth:`repro.faults.FaultStats.as_dict`); None when the run
            had no fault injection configured.
    """

    trace_name: str
    rpm: float
    stats: ResponseTimeStats
    requests: int
    simulated_ms: float
    disk_utilizations: List[float]
    cache_hit_ratio: float
    fault_summary: Optional[Dict[str, Any]] = None

    def mean_response_ms(self) -> float:
        return self.stats.mean_ms()


class StorageSystem:
    """One array-backed storage system ready to replay traces.

    Args:
        disks: member disks.
        geometry: striping geometry binding them together.
        events: event queue shared by all components.
    """

    def __init__(
        self,
        disks: Sequence[SimulatedDisk],
        geometry: ArrayGeometry,
        events: EventQueue,
        telemetry: Optional["Telemetry"] = None,
    ) -> None:
        from repro.telemetry import maybe

        self.events = events
        self.stats = ResponseTimeStats()
        self._tel = maybe(telemetry)
        self.array = StorageArray(
            disks=disks,
            geometry=geometry,
            events=events,
            on_complete=self._logical_done,
        )
        if self._tel is not None:
            self._register_probes()

    def _register_probes(self) -> None:
        """System-level time series: queue depths, utilization, cache, RPM."""
        assert self._tel is not None
        probes = self._tel.probes
        events = self.events
        probes.add("events.queued", lambda: float(len(events)))
        probes.add("inflight", lambda: float(self.array.in_flight()))
        probes.add("rpm", lambda: self.disks[0].rpm, unit="rpm")
        for disk in self.array.disks:
            probes.add(
                f"{disk.name}.queue_depth",
                (lambda d=disk: float(d.queue_depth())),
            )
            probes.add(
                f"{disk.name}.utilization",
                (
                    lambda d=disk: d.stats.utilization(events.now_ms)
                    if events.now_ms > 0
                    else 0.0
                ),
            )
            if disk.cache is not None:
                probes.add(
                    f"{disk.name}.cache_hit_ratio",
                    (lambda d=disk: d.cache.stats.hit_ratio),
                )

    def _logical_done(self, request: Request, now: float) -> None:
        self.stats.add(request.response_time_ms)
        if self._tel is not None:
            self._tel.record(
                now,
                "logical_complete",
                "system",
                lba=request.lba,
                sectors=request.sectors,
                write=request.is_write,
                response_ms=request.response_time_ms,
            )
            self._tel.observe("response_ms", request.response_time_ms)
            self._tel.count("logical_requests")

    @property
    def disks(self) -> List[SimulatedDisk]:
        return self.array.disks

    def _arrive(self, request: Request, phases: Optional[Phases], now: float) -> None:
        self.array.submit(request, phases)

    def _arrive_traced(
        self, request: Request, phases: Optional[Phases], now: float
    ) -> None:
        assert self._tel is not None
        self._tel.record(
            self.events.now_ms,
            "request_issue",
            "system",
            lba=request.lba,
            sectors=request.sectors,
            write=request.is_write,
        )
        self.array.submit(request, phases)

    def run_trace(
        self,
        trace: Trace,
        max_events: Optional[int] = None,
        phases: Optional[Sequence[Phases]] = None,
    ) -> SimulationReport:
        """Replay a trace to completion and report statistics.

        ``phases``, when given, holds each record's plan on this array in
        trace order (:meth:`repro.simulation.preplan.PrePlan.phases_for`);
        otherwise each request is planned as it arrives.
        """
        if len(trace) == 0:
            raise SimulationError(f"trace {trace.name!r} is empty")
        capacity = self.array.logical_sectors
        if trace.max_lba() > capacity:
            raise SimulationError(
                f"trace {trace.name!r} addresses {trace.max_lba()} sectors but the "
                f"array holds {capacity}"
            )
        if phases is not None and len(phases) != len(trace):
            raise SimulationError(
                f"{len(phases)} plan(s) for the {len(trace)} records of {trace.name!r}"
            )
        arrivals = []
        arrive = self._arrive_traced if self._tel is not None else self._arrive
        plans: Iterable[Optional[Phases]] = (
            phases if phases is not None else repeat(None)
        )
        for record, plan in zip(trace, plans):
            request = Request(
                arrival_ms=record.time_ms,
                lba=record.lba,
                sectors=record.sectors,
                is_write=record.is_write,
            )
            arrivals.append((record.time_ms, partial(arrive, request, plan)))
        self.events.schedule_batch(arrivals)
        if self._tel is not None:
            self._tel.probes.attach(self.events)
        self.events.run(max_events=max_events)
        if self.array.in_flight():
            raise SimulationError(
                f"{self.array.in_flight()} logical requests never completed"
            )
        elapsed = self.events.now_ms
        utilizations = [d.stats.utilization(elapsed) for d in self.disks]
        hits = sum(d.cache.stats.read_hits for d in self.disks if d.cache)
        lookups = sum(d.cache.stats.lookups for d in self.disks if d.cache)
        return SimulationReport(
            trace_name=trace.name,
            rpm=self.disks[0].rpm,
            stats=self.stats,
            requests=self.stats.count,
            simulated_ms=elapsed,
            disk_utilizations=utilizations,
            cache_hit_ratio=hits / lookups if lookups else 0.0,
            fault_summary=self.fault_summary(),
        )

    def fault_summary(self) -> Optional[Dict[str, Any]]:
        """Pooled injected-fault counters across member disks.

        Returns None when no disk carries a fault injector, so reports of
        fault-free runs stay unchanged.
        """
        from repro.faults import FaultStats

        injectors = [d.fault_injector for d in self.disks if d.fault_injector]
        if not injectors:
            return None
        pooled = FaultStats()
        for injector in injectors:
            pooled.merge(injector.stats)
        return pooled.as_dict()


def array_geometry(
    disk_count: int,
    disk_capacity_gb: float,
    media_sectors: int,
    raid5: bool = False,
    stripe_unit_sectors: int = 16,
) -> ArrayGeometry:
    """The striping geometry of :func:`build_system`'s array.

    ``disk_capacity_gb`` clips each member's usable portion; a disk
    whose media (``media_sectors``) holds less keeps all of it.
    """
    requested_sectors = int(disk_capacity_gb * GB_MARKETING) // 512
    per_disk = min(requested_sectors, media_sectors)
    if per_disk < stripe_unit_sectors:
        raise SimulationError("per-disk capacity below one stripe unit")
    if raid5:
        return Raid5Geometry(disk_count, stripe_unit_sectors, per_disk)
    return Raid0Geometry(disk_count, stripe_unit_sectors, per_disk)


def build_system(
    disk_count: int,
    rpm: float,
    disk_capacity_gb: float,
    raid5: bool = False,
    stripe_unit_sectors: int = 16,
    diameter_in: float = 3.3,
    platters: int = 2,
    kbpi: float = 480.0,
    ktpi: float = 30.0,
    zone_count: int = 30,
    cache_bytes: int = 4 * MIB,
    scheduler_name: str = "fcfs",
    telemetry: Optional["Telemetry"] = None,
    fault_config: Optional["FaultConfig"] = None,
) -> StorageSystem:
    """Build a storage system from workload-table parameters (Fig. 4a).

    The member disks come from the library's drive models and share one
    layout and seek curve (:func:`~repro.simulation.disk.standard_mechanism`
    builds each distinct drive once per process); each keeps its own
    mechanics, cache, scheduler and statistics.  ``disk_capacity_gb``
    clips the usable portion of each disk so a trace's address space
    matches the paper's systems even when the modeled media holds more.
    When ``fault_config`` injects disk faults, each member disk gets its
    own injector keyed by the disk's name, so the fault sequence is
    independent of disk count and replay order.
    """
    if disk_count < 1:
        raise SimulationError(f"disk count must be >= 1, got {disk_count}")
    if disk_capacity_gb <= 0:
        raise SimulationError("disk capacity must be positive")
    layout, seek_model = standard_mechanism(
        diameter_in=diameter_in,
        platters=platters,
        kbpi=kbpi,
        ktpi=ktpi,
        zone_count=zone_count,
    )
    events = EventQueue()
    disks: List[SimulatedDisk] = []
    from repro.simulation.scheduler import make_scheduler

    inject = fault_config is not None and fault_config.injects_disk_faults
    for index in range(disk_count):
        name = f"disk{index}"
        injector = (
            fault_config.injector_for(name)
            if inject and fault_config is not None
            else None
        )
        disks.append(
            SimulatedDisk(
                name=name,
                layout=layout,
                seek_model=seek_model,
                rpm=rpm,
                events=events,
                cache=DiskCache(size_bytes=cache_bytes) if cache_bytes > 0 else None,
                scheduler=make_scheduler(
                    scheduler_name,
                    layout.cylinder_of,
                    telemetry=telemetry,
                    subject=name,
                ),
                telemetry=telemetry,
                fault_injector=injector,
            )
        )
    geometry = array_geometry(
        disk_count,
        disk_capacity_gb,
        layout.total_sectors,
        raid5=raid5,
        stripe_unit_sectors=stripe_unit_sectors,
    )
    return StorageSystem(
        disks=disks, geometry=geometry, events=events, telemetry=telemetry
    )
