"""Sweep families for the paper's roadmap and workload experiments.

The paper's headline experiments are embarrassingly parallel sweeps:
Figure 2 evaluates the thermally constrained roadmap for three platter
counts over eleven years, and Figure 4 replays five trace-driven
workloads at four spindle speeds each.  This module defines both as
sweep families (``*_sweep_kind()``) for
:func:`repro.simulation.resilience.run_kind`, the one runner behind every
backend, the result store, retries and manifests:

* **Pure tasks.** Each sweep point is a small frozen dataclass holding
  every input (including the RNG seed for synthetic traces); the
  module-level worker rebuilds its world from that description alone, so
  no mutable state crosses process boundaries.
* **Derived keys and codecs.** A task's key is the
  :func:`repro.store.material` form of its dataclass (fields listed by
  ``immaterial_fields()`` fold to None) and a result's payload its
  :func:`repro.store.record_payload` form, so a new field needs no codec
  edit; a change to what a result *means* still bumps
  ``CODE_SCHEMA_VERSION``.
* **Byte-identity.** Every backend returns results in task order and a
  cached result decodes equal to a computed one, so
  :func:`results_json_bytes` agrees across backends and cold, warm and
  resumed runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.constants import (
    ROADMAP_FIRST_YEAR,
    ROADMAP_LAST_YEAR,
    ROADMAP_PLATTER_COUNTS,
    ROADMAP_PLATTER_SIZES_IN,
)
from repro.errors import EngineRefused, SimulationError, TraceError
from repro.faults import FaultConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.scaling.roadmap import RoadmapPoint
    from repro.simulation.resilience import BackendSpec, SweepKind, SweepRunReport
    from repro.store import ResultStore
    from repro.telemetry import Telemetry

#: Default span of the Figure 2 roadmap sweep.
ROADMAP_YEARS: Tuple[int, ...] = tuple(range(ROADMAP_FIRST_YEAR, ROADMAP_LAST_YEAR + 1))


def resolve_workers(workers: Optional[int], task_count: int) -> int:
    """Actual worker-process count for a sweep.

    ``None`` asks for one worker per available core, capped at the task
    count; ``0`` and ``1`` (and single-core hosts) select the in-process
    serial path, which produces identical results.  Negative counts are
    an error.
    """
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 0:
        raise SimulationError(f"worker count cannot be negative, got {workers}")
    return max(1, min(workers, task_count))


# ---------------------------------------------------------------------------
# Figure 2: roadmap sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoadmapTask:
    """One roadmap evaluation: a platter count over a span of years.

    A task covers *all* years for one platter count (rather than one
    (year, count) cell) so the per-diameter envelope search inside
    :func:`repro.scaling.thermal_roadmap` is computed once per task, as the
    serial implementation does.
    """

    platter_count: int
    years: Tuple[int, ...] = ROADMAP_YEARS
    sizes: Tuple[float, ...] = ROADMAP_PLATTER_SIZES_IN


def _run_roadmap_task(task: RoadmapTask) -> List["RoadmapPoint"]:
    from repro.scaling.roadmap import thermal_roadmap

    return thermal_roadmap(
        platter_count=task.platter_count, years=task.years, sizes=task.sizes
    )


#: Task-family tag salted into every roadmap key.
ROADMAP_TASK_KIND = "roadmap_sweep/1"


def roadmap_task_key(task: RoadmapTask) -> str:
    """The canonical content key of one roadmap task."""
    from repro.store import config_key, material

    return config_key(ROADMAP_TASK_KIND, material(task))


def roadmap_points_to_payload(points: Sequence["RoadmapPoint"]) -> List[object]:
    """Serialize one task's roadmap points into an exact payload."""
    from repro.store import record_payload

    return [record_payload(point) for point in points]


def roadmap_points_from_payload(payload: Sequence[Dict[str, object]]) -> List["RoadmapPoint"]:
    """Rebuild one task's roadmap points from their payload."""
    from repro.scaling.roadmap import RoadmapPoint
    from repro.store import record_from_payload

    return [record_from_payload(RoadmapPoint, point) for point in payload]


#: Serial seconds per (year, size) point of a roadmap task: the three
#: Figure 2 panels (3 x 11 years x 3 sizes = 99 points) took 5.8-6.3 ms
#: through ``run_kind(..., backend="serial")``, warm (59-64 us a point,
#: medians of 7-9 runs in three sessions of ``tools/measure_dispatch.py``
#: on a 2-core x86-64 host).
ROADMAP_SECONDS_PER_POINT = 60e-6


def roadmap_task_cost(task: RoadmapTask) -> float:
    """Estimated serial seconds of one roadmap task."""
    return len(task.years) * len(task.sizes) * ROADMAP_SECONDS_PER_POINT


def roadmap_sweep_kind() -> "SweepKind":
    """The Figure 2 family's :class:`SweepKind` (see
    :func:`workload_sweep_kind` for the call-time lookup)."""
    from repro.simulation.resilience import SweepKind

    return SweepKind(
        name=ROADMAP_TASK_KIND,
        worker=_run_roadmap_task,
        key=roadmap_task_key,
        encode=roadmap_points_to_payload,
        decode=roadmap_points_from_payload,
        cost=roadmap_task_cost,
    )


def sweep_roadmap(
    platter_counts: Sequence[int] = ROADMAP_PLATTER_COUNTS,
    years: Sequence[int] = ROADMAP_YEARS,
    sizes: Sequence[float] = ROADMAP_PLATTER_SIZES_IN,
    workers: Optional[int] = None,
    backend: BackendSpec = None,
) -> Dict[int, List["RoadmapPoint"]]:
    """Fan the Figure 2 roadmap out over platter counts.

    Runs through :func:`repro.simulation.resilience.run_kind` like every
    other sweep, so all three backends apply (``shared-store``
    materializes the default store) and the first failing task raises a
    :class:`repro.errors.SweepExecutionError`.

    Returns:
        {platter_count: [RoadmapPoint, ...]} with points ordered exactly as
        :func:`repro.scaling.thermal_roadmap` orders them (year-major).
    """
    from repro.simulation.resilience import run_kind

    tasks = [
        RoadmapTask(platter_count=count, years=tuple(years), sizes=tuple(sizes))
        for count in platter_counts
    ]
    report = run_kind(roadmap_sweep_kind(), tasks, workers=workers, backend=backend)
    report.raise_on_failure()
    return {task.platter_count: points for task, points in zip(tasks, report.ok_results())}


# ---------------------------------------------------------------------------
# Figure 4: workload RPM sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadTask:
    """One trace replay: a catalog workload at one spindle speed.

    ``telemetry=True`` instruments the replay (metrics, event trace,
    time-series probes at ``probe_interval_ms``) and ships the full
    telemetry snapshot back as a plain dict — picklable, so the parallel
    path carries it across process boundaries unchanged.
    ``trace_capacity`` bounds the shipped event trace.
    ``fault_config`` (a frozen :class:`repro.faults.FaultConfig`) injects
    deterministic drive faults into the replay; the result then carries a
    ``fault_summary``.
    ``engine`` selects the simulation engine (see
    :mod:`repro.simulation.fastpath`): ``exact`` (the event-driven
    simulator), ``analytic`` (the closed-form estimator), or ``auto``
    (analytic where it qualifies, else exact).
    """

    workload: str
    rpm: float
    requests: int = 6000
    seed: int = 1
    keep_samples: bool = False
    telemetry: bool = False
    probe_interval_ms: float = 100.0
    trace_capacity: int = 4096
    fault_config: Optional[FaultConfig] = None
    engine: str = "exact"

    def label(self) -> str:
        """Human-readable task identity for manifests and logs."""
        base = f"{self.workload}@{self.rpm:.0f}rpm(seed={self.seed})"
        if self.engine != "exact":
            base += f"[{self.engine}]"
        return base

    def immaterial_fields(self) -> Tuple[str, ...]:
        """Fields that shape nothing here: the telemetry shape knobs when
        the replay is not instrumented (folded to None in the key)."""
        return () if self.telemetry else ("probe_interval_ms", "trace_capacity")


@dataclass(frozen=True)
class WorkloadSweepResult:
    """Summary of one replay, cheap to pickle back from a worker.

    ``samples_ms`` is populated only when the task asked for it
    (``keep_samples=True``) — the full sample vector is what makes the
    parallel path byte-identical checkable, but it is megabytes at paper
    scale, so summaries travel by default.
    """

    workload: str
    rpm: float
    requests: int
    seed: int
    mean_ms: float
    median_ms: float
    p95_ms: float
    max_ms: float
    simulated_ms: float
    max_utilization: float
    cache_hit_ratio: float
    cdf: Tuple[Tuple[float, float], ...]
    samples_ms: Tuple[float, ...] = field(default=(), repr=False)
    #: full telemetry snapshot (schema ``repro.telemetry/1``) when the
    #: task asked for instrumentation; None otherwise.
    telemetry: Optional[dict] = field(default=None, repr=False)
    #: aggregated fault-injection counters (see
    #: :meth:`repro.faults.FaultStats.as_dict`) when the task injected
    #: faults; None otherwise.
    fault_summary: Optional[dict] = field(default=None, repr=False)
    #: the engine that actually produced this result — ``exact`` when a
    #: fast engine fell back (so fallbacks are visible in the output).
    engine: str = "exact"


def _run_workload_task(task: WorkloadTask) -> WorkloadSweepResult:
    from repro.simulation.preplan import preplan
    from repro.workloads import workload as lookup

    if task.engine != "exact":
        from repro.simulation.fastpath import run_fast_task

        fast = run_fast_task(task)
        if fast is not None:
            return fast

    spec = lookup(task.workload)
    plan = preplan(spec, task.requests, task.seed)
    tel = None
    if task.telemetry:
        from repro.telemetry import Telemetry

        tel = Telemetry(
            trace_capacity=task.trace_capacity,
            probe_interval_ms=task.probe_interval_ms,
        )
    system = spec.build_system(
        task.rpm, telemetry=tel, fault_config=task.fault_config
    )
    report = system.run_trace(
        plan.trace, phases=plan.phases_for(system.array.geometry)
    )
    return WorkloadSweepResult(
        workload=task.workload,
        rpm=task.rpm,
        requests=report.requests,
        seed=task.seed,
        mean_ms=report.stats.mean_ms(),
        median_ms=report.stats.median_ms(),
        p95_ms=report.stats.percentile_ms(95),
        max_ms=report.stats.max_ms(),
        simulated_ms=report.simulated_ms,
        max_utilization=max(report.disk_utilizations),
        cache_hit_ratio=report.cache_hit_ratio,
        cdf=tuple(report.stats.cdf()),
        samples_ms=tuple(report.stats.samples_ms) if task.keep_samples else (),
        telemetry=tel.as_dict() if tel is not None else None,
        fault_summary=report.fault_summary,
        engine="exact",
    )


# ---------------------------------------------------------------------------
# Result-store integration: task keys and the result codec
# ---------------------------------------------------------------------------

#: Task-family tag salted into every workload-sweep key.  Bump the suffix
#: when WorkloadSweepResult changes shape (the payload codec version).
#: /2: results gained the ``engine`` field and keys fold the requested
#: engine in — an analytic summary must never satisfy an exact request.
WORKLOAD_TASK_KIND = "workload_sweep/2"

#: Schema of the results document written by ``--results-out`` and used
#: for byte-identity checks in the differential suite.
RESULTS_SCHEMA = "repro.sweep_results/2"


def workload_task_key(task: WorkloadTask) -> str:
    """The canonical content key of one workload sweep point."""
    from repro.store import config_key, material

    return config_key(WORKLOAD_TASK_KIND, material(task, task.immaterial_fields()))


def workload_result_to_payload(result: WorkloadSweepResult) -> Dict[str, object]:
    """Serialize one result into an exact, strict-JSON-safe payload."""
    from repro.store import record_payload

    return record_payload(result)


def workload_result_from_payload(payload: Dict[str, object]) -> WorkloadSweepResult:
    """Reconstruct a result indistinguishable from a freshly computed one."""
    from repro.store import record_from_payload

    return record_from_payload(WorkloadSweepResult, payload)


def results_document(
    results: Sequence[Optional[WorkloadSweepResult]],
) -> Dict[str, object]:
    """The :data:`RESULTS_SCHEMA` document for a (possibly holey) sweep."""
    return {
        "schema": RESULTS_SCHEMA,
        "results": [
            workload_result_to_payload(r) if r is not None else None
            for r in results
        ],
    }


def results_json_bytes(
    results: Sequence[Optional[WorkloadSweepResult]],
) -> bytes:
    """Canonical serialized results — the byte-identity currency.

    Two runs of the same sweep (serial, parallel, cached, resumed) agree
    exactly when these bytes agree; the differential matrix and the CI
    store-smoke job compare nothing else.
    """
    from repro.store import stable_json

    return (stable_json(results_document(results)) + "\n").encode("utf-8")


def build_workload_tasks(
    names: Sequence[str],
    rpms: Optional[Sequence[float]] = None,
    rpm_steps: int = 4,
    requests: int = 6000,
    seed: int = 1,
    keep_samples: bool = False,
    telemetry: bool = False,
    probe_interval_ms: float = 100.0,
    trace_capacity: int = 4096,
    fault_config: Optional[FaultConfig] = None,
    engine: str = "exact",
) -> List[WorkloadTask]:
    """The (workload, RPM) task grid, workload-major then ladder order.

    Workload names, the engine name, the request count and the ladder
    length are validated here, before any fork, so bad input fails fast
    in the parent process.
    """
    from repro.simulation.fastpath import validate_engine
    from repro.workloads import workload as lookup

    validate_engine(engine)
    if requests < 1:
        raise TraceError(f"need at least one request, got {requests}")
    if rpms is None and rpm_steps < 1:
        raise SimulationError(f"need at least one RPM step, got {rpm_steps}")
    if rpms is not None and not rpms:
        raise SimulationError("need at least one RPM, got an empty ladder")
    tasks: List[WorkloadTask] = []
    for name in names:
        spec = lookup(name)  # validates the name before any fork
        ladder = tuple(rpms) if rpms is not None else spec.rpm_sweep(rpm_steps)
        for rpm in ladder:
            tasks.append(
                WorkloadTask(
                    workload=name,
                    rpm=rpm,
                    requests=requests,
                    seed=seed,
                    keep_samples=keep_samples,
                    telemetry=telemetry,
                    probe_interval_ms=probe_interval_ms,
                    trace_capacity=trace_capacity,
                    fault_config=fault_config,
                    engine=engine,
                )
            )
    return tasks


#: Serial seconds per replayed request of one rung, by the engine a task
#: plans, with the workload's pre-plan (trace and request plans) already
#: built: every process that replays a workload builds its pre-plan once,
#: serial or pooled, so a pool cannot split that work and the estimate
#: leaves it out.  The second rung of each workload of the 5-workload x
#: 4-rung x 4000-request exact ladder ran 22.3, 22.6 and 23.0 us a
#: request (from ~12 us for oltp to ~40 us for openmail's RAID-5
#: replays; the pre-plans cost another 7.3-7.8 us a request, once), and
#: the analytic engine answered a rung of oltp and search_engine at 4000
#: requests in 0.54, 0.57 and 0.87 us a request, against 3.7-7.1 us a
#: request for the pre-plans (three runs of ``tools/measure_dispatch.py``
#: on a 2-core x86-64 host; the median is kept).
WORKLOAD_SECONDS_PER_REQUEST = {"exact": 22.6e-6, "analytic": 0.57e-6}


def workload_task_cost(task: WorkloadTask) -> float:
    """Estimated serial seconds of one replay, on the engine it plans,
    past its workload's pre-plan (see :data:`WORKLOAD_SECONDS_PER_REQUEST`).

    A refused explicit ``analytic`` task fails on its first attempt, so
    it costs nothing to run; the worker raises the refusal.
    """
    from repro.simulation.fastpath import decide_engine

    try:
        engine = decide_engine(task)
    except EngineRefused:
        return 0.0
    return task.requests * WORKLOAD_SECONDS_PER_REQUEST[engine]


def workload_sweep_kind() -> "SweepKind":
    """The workload family's :class:`SweepKind`.

    Built per run, from this module's attributes at call time, so a
    rebound worker or codec (tracing, tests) is what the run uses.
    """
    from repro.simulation.resilience import SweepKind

    return SweepKind(
        name=WORKLOAD_TASK_KIND,
        worker=_run_workload_task,
        key=workload_task_key,
        encode=workload_result_to_payload,
        decode=workload_result_from_payload,
        document=results_document,
        cost=workload_task_cost,
    )


def sweep_workloads(
    names: Sequence[str],
    rpms: Optional[Sequence[float]] = None,
    rpm_steps: int = 4,
    requests: int = 6000,
    seed: int = 1,
    workers: Optional[int] = None,
    keep_samples: bool = False,
    telemetry: bool = False,
    probe_interval_ms: float = 100.0,
    trace_capacity: int = 4096,
    fault_config: Optional[FaultConfig] = None,
    engine: str = "exact",
    store: Optional["ResultStore"] = None,
    backend: BackendSpec = None,
) -> List[WorkloadSweepResult]:
    """Fan Figure 4 replays out over (workload, RPM) points.

    Args:
        names: catalog workload names.
        rpms: explicit RPM ladder; by default each workload's own
            ``rpm_sweep(rpm_steps)`` ladder (base, +5K, ...).
        requests / seed: synthetic-trace shape, forwarded to every task.
        workers: process count (None = all cores; 0/1 = serial in-process).
        keep_samples: carry the full response-time sample vector back.
        telemetry: instrument every replay; each result then carries a
            full telemetry snapshot dict (time series, trace, metrics).
        probe_interval_ms / trace_capacity: telemetry shape, forwarded to
            every task.
        fault_config: inject deterministic drive faults into every replay
            (same plan, per-disk seeds derived inside each task).
        engine: simulation engine for every task (see
            :mod:`repro.simulation.fastpath`); pure-analytic sweeps
            cost less than a process pool and run in-process (see
            :func:`repro.simulation.resilience.plan_dispatch`).
        store: optional :class:`repro.store.ResultStore`; completed points
            are served from / persisted to it (bit-identical either way).
        backend: execution backend name/instance/None (see
            :data:`BackendSpec`); ``shared-store`` without an explicit
            store materializes the default one.

    Returns:
        One result per (workload, RPM) point, ordered workload-major in the
        order given, then by ascending ladder position.
    """
    _, report = sweep_workloads_resilient(
        names,
        rpms=rpms,
        rpm_steps=rpm_steps,
        requests=requests,
        seed=seed,
        workers=workers,
        keep_samples=keep_samples,
        telemetry=telemetry,
        probe_interval_ms=probe_interval_ms,
        trace_capacity=trace_capacity,
        fault_config=fault_config,
        engine=engine,
        retries=0,
        store=store,
        backend=backend,
    )
    report.raise_on_failure()
    return report.ok_results()


def sweep_workloads_resilient(
    names: Sequence[str],
    rpms: Optional[Sequence[float]] = None,
    rpm_steps: int = 4,
    requests: int = 6000,
    seed: int = 1,
    workers: Optional[int] = None,
    keep_samples: bool = False,
    telemetry: bool = False,
    probe_interval_ms: float = 100.0,
    trace_capacity: int = 4096,
    fault_config: Optional[FaultConfig] = None,
    engine: str = "exact",
    retries: int = 2,
    backoff_s: float = 0.0,
    timeout_s: Optional[float] = None,
    run_telemetry: Optional["Telemetry"] = None,
    store: Optional["ResultStore"] = None,
    backend: BackendSpec = None,
) -> Tuple[List[Optional[WorkloadSweepResult]], "SweepRunReport"]:
    """The Figure 4 sweep with partial-results semantics.

    Unlike :func:`sweep_workloads`, a failing point does not abort the
    run: every healthy point is returned (``None`` holes keep task
    alignment) together with the :class:`SweepRunReport` whose
    ``manifest()`` names each failed task.

    Args:
        retries / backoff_s / timeout_s: resilience knobs, see
            :func:`repro.simulation.resilience.run_kind`.
        run_telemetry: optional *parent-side* telemetry; receives the
            ``sweep.*`` retry/timeout/pool-break counters (distinct from
            ``telemetry=``, which instruments each replay inside its
            worker).
        store: optional :class:`repro.store.ResultStore`; hits skip the
            executor entirely, misses are persisted as they complete, and
            the report (and its manifest) gains store accounting —
            re-running a partially failed sweep with the same store only
            recomputes the failed points.
        backend: execution backend name/instance/None (see
            :data:`BackendSpec`); the resolved name lands on
            ``report.backend`` and in the manifest.
    """
    from repro.simulation.resilience import run_kind

    tasks = build_workload_tasks(
        names,
        rpms=rpms,
        rpm_steps=rpm_steps,
        requests=requests,
        seed=seed,
        keep_samples=keep_samples,
        telemetry=telemetry,
        probe_interval_ms=probe_interval_ms,
        trace_capacity=trace_capacity,
        fault_config=fault_config,
        engine=engine,
    )
    report = run_kind(
        workload_sweep_kind(),
        tasks,
        store=store,
        workers=workers,
        retries=retries,
        backoff_s=backoff_s,
        timeout_s=timeout_s,
        telemetry=run_telemetry,
        backend=backend,
    )
    return report.results(), report
