"""Fleet sweeps: content-keyed rack tasks over the execution backends.

A fleet run fans out one task per rack — racks are thermally independent
of each other (they couple *internally* through shared air), so they are
the natural parallel unit, and a rack task is small enough to rebuild
its whole world from the frozen description alone.  The fleet is one
more sweep family for :func:`repro.simulation.resilience.run_kind`
(:func:`fleet_sweep_kind`), shaped like those in
:mod:`repro.simulation.sweep`:

* a frozen :class:`RackTask` carrying every input;
* a module-level pure worker (:func:`_run_rack_task`) so tasks pickle
  under any start method;
* a content key (:func:`fleet_task_key`) and an exact payload codec
  derived from the dataclasses by the record codec in
  :mod:`repro.store.canonical`; :meth:`RackTask.immaterial_fields` names
  the knobs that fold to None, so fleet runs cache/resume/dedup through
  the result store and stay byte-identical across the serial, process
  and shared-store backends;
* a canonical results document (:func:`fleet_results_json_bytes`) — the
  byte-identity currency of the fleet differential suite.

Fault injection inside a rack task scopes each drive's injector with its
fleet identity (``rack/e<enclosure>/s<slot>``), so two drives with
identical configs draw *different* deterministic fault streams — the
regression `tests/test_fleet.py` pins down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import FleetError
from repro.faults import FaultConfig
from repro.fleet.dtm import FleetDTMPolicy, coordinate_rack
from repro.fleet.reliability import ReliabilityParams, drive_afr, fleet_reliability
from repro.fleet.tiering import TieringPolicy, plan_rack_tiering
from repro.fleet.topology import FleetSpec, RackSpec
from repro.store.canonical import config_key, material, record_from_payload, record_payload
from repro.units import rotation_time_ms

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.simulation.resilience import BackendSpec, SweepKind, SweepRunReport
    from repro.store import ResultStore

__all__ = [
    "FLEET_TASK_KIND",
    "FLEET_RESULTS_SCHEMA",
    "RackTask",
    "DriveReport",
    "RackResult",
    "build_rack_tasks",
    "fleet_task_key",
    "rack_result_to_payload",
    "rack_result_from_payload",
    "fleet_summary",
    "fleet_results_document",
    "fleet_results_json_bytes",
    "fleet_sweep_kind",
    "rack_task_cost",
    "run_fleet_sweep",
]

#: Task-family tag salted into every fleet-rack key.  Bump the suffix
#: when RackResult changes shape (the payload codec version).
FLEET_TASK_KIND = "fleet_rack/1"

#: Schema of the fleet results document written by ``--results-out`` and
#: compared byte-for-byte by the fleet differential suite.
FLEET_RESULTS_SCHEMA = "repro.fleet_results/1"


@dataclass(frozen=True)
class RackTask:
    """One rack's full simulation: coupling + DTM + tiering + AFR.

    ``accesses_per_drive`` and ``average_seek_ms`` only shape the fault
    replay, so without a ``fault_config`` they are immaterial (folded to
    None in the key).  ``tiering_*`` knobs are immaterial when
    ``tiering_extents`` is 0.
    """

    rack: RackSpec
    envelope_c: float
    rpm_levels: Tuple[float, ...]
    max_rounds: int = 64
    base_afr: float = 0.02
    reference_c: float = 40.0
    mttr_hours: float = 12.0
    tiering_extents: int = 0
    tiering_seed: int = 0
    tiering_target_utilization: float = 0.7
    accesses_per_drive: int = 256
    average_seek_ms: float = 3.6
    fault_config: Optional[FaultConfig] = None

    def label(self) -> str:
        """Human-readable task identity for manifests and logs."""
        return f"{self.rack.name}[{self.rack.drive_count}d]"

    def immaterial_fields(self) -> Tuple[str, ...]:
        """Fields whose feature is off in this task: they shape nothing."""
        off: Tuple[str, ...] = ()
        if self.tiering_extents <= 0:
            off += ("tiering_seed", "tiering_target_utilization")
        if self.fault_config is None:
            off += ("accesses_per_drive", "average_seek_ms")
        return off


@dataclass(frozen=True)
class DriveReport:
    """Final state of one drive slot after coordination."""

    enclosure: int
    slot: int
    rpm: float
    local_inlet_c: float
    internal_air_c: float
    afr: float
    #: per-drive fault counters (:meth:`repro.faults.FaultStats.as_dict`)
    #: when the task injected faults; None otherwise.
    faults: Optional[dict] = field(default=None, repr=False)


@dataclass(frozen=True)
class RackResult:
    """Summary of one rack task, cheap to pickle back from a worker."""

    rack: str
    drive_count: int
    converged: bool
    rounds: int
    residual_breaches: int
    capacity_fraction: float
    total_heat_w: float
    max_internal_c: float
    mean_internal_c: float
    expected_annual_failures: float
    mean_afr: float
    worst_afr: float
    availability: float
    #: every throttle step as (round, enclosure, slot, from_rpm, to_rpm).
    throttle_events: Tuple[Tuple[int, int, int, float, float], ...]
    drives: Tuple[DriveReport, ...] = field(repr=False)
    #: tiering plan summary when the task enabled tiering; None otherwise.
    tiering: Optional[dict] = field(default=None, repr=False)


class _FaultTimebase:
    """Minimal mechanics facade for fault penalties.

    :meth:`repro.faults.DiskFaultInjector.media_access_fault` derives
    its latency penalties from three timing quantities of the disk —
    rotation period, settle time, average seek — which is all a fleet
    drive needs to expose (no layout, no event queue).
    """

    class _Seek:
        def __init__(self, average_ms: float) -> None:
            self._average_ms = average_ms

        def average_seek_ms(self) -> float:
            return self._average_ms

    def __init__(self, rpm: float, average_seek_ms: float) -> None:
        self.period_ms = rotation_time_ms(rpm)
        self.settle_ms = 0.1
        self.seek_model = self._Seek(average_seek_ms)


def _run_rack_task(task: RackTask) -> RackResult:
    """Simulate one rack from its frozen description alone (pure)."""
    policy = FleetDTMPolicy(
        rpm_levels=task.rpm_levels,
        envelope_c=task.envelope_c,
        max_rounds=task.max_rounds,
    )
    tiering_summary = None
    initial_rpms: Optional[List[List[float]]] = None
    if task.tiering_extents > 0:
        lead = task.rack.enclosures[0]
        plan = plan_rack_tiering(
            task.rack.drive_count,
            policy.profile(),
            TieringPolicy(
                extents=task.tiering_extents,
                seed=task.tiering_seed,
                target_utilization=task.tiering_target_utilization,
            ),
            diameter_in=lead.diameter_in,
            platter_count=lead.platter_count,
            vcm_duty=lead.vcm_duty,
        )
        # The flat hottest-first levels become the starting assignment;
        # the DTM coordinator may throttle further, never back up.
        initial_rpms = []
        cursor = 0
        for enclosure in task.rack.enclosures:
            initial_rpms.append(
                list(plan.drive_levels[cursor : cursor + enclosure.drives])
            )
            cursor += enclosure.drives
        tiering_summary = {
            "extents": plan.extents,
            "migrated_extents": plan.migrated_extents,
            "baseline_power_w": plan.baseline_power_w,
            "planned_power_w": plan.planned_power_w,
            "saved_power_w": plan.saved_power_w,
            "total_demand": plan.total_demand,
        }
    coord = coordinate_rack(task.rack, policy, initial_rpms=initial_rpms)
    drives_thermal = list(coord.profile.iter_drives())
    params = ReliabilityParams(
        base_afr=task.base_afr,
        reference_c=task.reference_c,
        mttr_hours=task.mttr_hours,
    )
    aggregate = fleet_reliability(
        [d.internal_air_c for d in drives_thermal], params
    )
    reports = []
    for drive in drives_thermal:
        faults = None
        if task.fault_config is not None and task.fault_config.injects_disk_faults:
            injector = task.fault_config.injector_for(
                "disk", scope=f"{task.rack.name}/e{drive.enclosure}/s{drive.slot}"
            )
            timebase = _FaultTimebase(drive.rpm, task.average_seek_ms)
            for _ in range(task.accesses_per_drive):
                injector.media_access_fault(timebase)  # type: ignore[arg-type]
            faults = injector.stats.as_dict()
        reports.append(
            DriveReport(
                enclosure=drive.enclosure,
                slot=drive.slot,
                rpm=drive.rpm,
                local_inlet_c=drive.local_inlet_c,
                internal_air_c=drive.internal_air_c,
                afr=drive_afr(drive.internal_air_c, params),
                faults=faults,
            )
        )
    internals = [d.internal_air_c for d in drives_thermal]
    return RackResult(
        rack=task.rack.name,
        drive_count=len(reports),
        converged=coord.converged,
        rounds=coord.rounds,
        residual_breaches=coord.residual_breaches,
        capacity_fraction=coord.capacity_fraction,
        total_heat_w=coord.profile.total_heat_w,
        max_internal_c=max(internals),
        mean_internal_c=sum(internals) / len(internals),
        expected_annual_failures=aggregate.expected_annual_failures,
        mean_afr=aggregate.mean_afr,
        worst_afr=aggregate.worst_afr,
        availability=aggregate.availability,
        throttle_events=tuple(
            (e.round, e.enclosure, e.slot, e.from_rpm, e.to_rpm)
            for e in coord.events
        ),
        drives=tuple(reports),
        tiering=tiering_summary,
    )


# ---------------------------------------------------------------------------
# Result-store integration: the task key and the result codec
# ---------------------------------------------------------------------------


def fleet_task_key(task: RackTask) -> str:
    """The canonical content key of one rack task."""
    return config_key(FLEET_TASK_KIND, material(task, task.immaterial_fields()))


def rack_result_to_payload(result: RackResult) -> Dict[str, object]:
    """Serialize one rack result into an exact strict-JSON payload."""
    return record_payload(result)


def rack_result_from_payload(payload: Dict[str, object]) -> RackResult:
    """Reconstruct a result indistinguishable from a computed one."""
    return record_from_payload(RackResult, payload)


def fleet_summary(
    results: Sequence[Optional[RackResult]],
) -> Optional[Dict[str, object]]:
    """Fleet-wide aggregates over the healthy rack results.

    None when no rack completed.  Availability and capacity are
    drive-weighted means; expected annual failures and heat are sums —
    all pure arithmetic over the rack payloads, so every backend (and a
    rebuild from cached entries) assembles identical bytes.
    """
    healthy = [r for r in results if r is not None]
    if not healthy:
        return None
    drives = sum(r.drive_count for r in healthy)
    return {
        "racks": len(healthy),
        "drives": drives,
        "converged": all(r.converged for r in healthy),
        "throttle_steps": sum(len(r.throttle_events) for r in healthy),
        "capacity_fraction": (
            sum(r.capacity_fraction * r.drive_count for r in healthy) / drives
        ),
        "total_heat_w": sum(r.total_heat_w for r in healthy),
        "max_internal_c": max(r.max_internal_c for r in healthy),
        "expected_annual_failures": sum(
            r.expected_annual_failures for r in healthy
        ),
        "availability": (
            sum(r.availability * r.drive_count for r in healthy) / drives
        ),
        "tiering_saved_power_w": sum(
            r.tiering["saved_power_w"] for r in healthy if r.tiering is not None
        ),
    }


def fleet_results_document(
    results: Sequence[Optional[RackResult]],
) -> Dict[str, object]:
    """The :data:`FLEET_RESULTS_SCHEMA` document for a (possibly holey)
    fleet sweep."""
    return {
        "schema": FLEET_RESULTS_SCHEMA,
        "results": [
            rack_result_to_payload(r) if r is not None else None
            for r in results
        ],
        "summary": fleet_summary(results),
    }


def fleet_results_json_bytes(
    results: Sequence[Optional[RackResult]],
) -> bytes:
    """Canonical serialized fleet results — the byte-identity currency."""
    from repro.store import stable_json

    return (stable_json(fleet_results_document(results)) + "\n").encode("utf-8")


def build_rack_tasks(
    fleet: FleetSpec,
    policy: Optional[FleetDTMPolicy] = None,
    reliability: Optional[ReliabilityParams] = None,
    tiering: Optional[TieringPolicy] = None,
    fault_config: Optional[FaultConfig] = None,
    accesses_per_drive: int = 256,
    average_seek_ms: float = 3.6,
) -> List[RackTask]:
    """One task per rack, in fleet order.

    Policy/reliability/tiering validation happens here, in the parent,
    before any fork (the frozen dataclasses validate in __init__).
    """
    if accesses_per_drive < 0:
        raise FleetError(
            f"accesses_per_drive cannot be negative, got {accesses_per_drive}"
        )
    policy = policy if policy is not None else FleetDTMPolicy(
        envelope_c=fleet.envelope_c
    )
    reliability = reliability if reliability is not None else ReliabilityParams()
    tiering = tiering if tiering is not None else TieringPolicy()
    return [
        RackTask(
            rack=rack,
            envelope_c=policy.envelope_c,
            rpm_levels=policy.rpm_levels,
            max_rounds=policy.max_rounds,
            base_afr=reliability.base_afr,
            reference_c=reliability.reference_c,
            mttr_hours=reliability.mttr_hours,
            tiering_extents=tiering.extents,
            tiering_seed=tiering.seed,
            tiering_target_utilization=tiering.target_utilization,
            accesses_per_drive=accesses_per_drive,
            average_seek_ms=average_seek_ms,
            fault_config=fault_config,
        )
        for rack in fleet.racks
    ]


#: Serial seconds per drive of a rack task: 14 racks of 72 drives took
#: 17.6-18.0 ms through ``run_kind(..., backend="serial")``, warm
#: (17.6-17.9 us a drive; racks of 240 drives ran 16.5-18.0 us a drive),
#: medians of 7 runs in two quiet sessions of ``tools/measure_dispatch.py``
#: on a 2-core x86-64 host.
FLEET_SECONDS_PER_DRIVE = 18e-6


def rack_task_cost(task: RackTask) -> float:
    """Estimated serial seconds of one rack task."""
    return task.rack.drive_count * FLEET_SECONDS_PER_DRIVE


def fleet_sweep_kind() -> "SweepKind":
    """The fleet family's :class:`SweepKind`.

    Built per run, from this module's attributes at call time, so a
    rebound worker or codec (tracing, tests) is what the run uses.
    """
    from repro.simulation.resilience import SweepKind

    return SweepKind(
        name=FLEET_TASK_KIND,
        worker=_run_rack_task,
        key=fleet_task_key,
        encode=rack_result_to_payload,
        decode=rack_result_from_payload,
        document=fleet_results_document,
        cost=rack_task_cost,
    )


def run_fleet_sweep(
    tasks: Sequence[RackTask],
    workers: Optional[int] = None,
    retries: int = 0,
    backoff_s: float = 0.0,
    timeout_s: Optional[float] = None,
    telemetry: Optional[object] = None,
    store: Optional["ResultStore"] = None,
    backend: "BackendSpec" = None,
) -> Tuple[List[Optional[RackResult]], "SweepRunReport"]:
    """Fan rack tasks out over whichever execution backend.

    With a store (or the ``shared-store`` backend, which materializes
    the default one), completed racks are served from / persisted to it
    — bit-identical either way, which is what makes fleet sweeps resume
    for free and agree across backends.

    Returns:
        (results with None holes for failed racks, the run report).
    """
    from repro.simulation.resilience import run_kind

    report = run_kind(
        fleet_sweep_kind(),
        tasks,
        store=store,
        workers=workers,
        retries=retries,
        backoff_s=backoff_s,
        timeout_s=timeout_s,
        telemetry=telemetry,
        backend=backend,
    )
    return report.results(), report
