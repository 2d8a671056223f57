"""Fast simulation engine: the analytic estimator, and engine selection.

The event-driven simulator (`repro.simulation.system`) is the *exact*
engine: every request is an event, every seek/rotation/transfer is
computed scalar by scalar.  That costs roughly a second per 6000-request
replay — fine for one Figure 4 ladder, painful for the thousands of
(RPM, platter, workload) points the roadmap experiments sweep.  This
module adds one faster engine behind the same task interface:

* **analytic** — no event loop at all: a closed-form G/G/1 approximation
  (Allen–Cunneen, the two-moment generalization of M/G/1
  Pollaczek–Khinchine) per member disk.  Service-time moments come from
  batch geometry computed with numpy over the whole trace at once (real
  per-request seek distances under FCFS, expected half-rotation latency,
  zone-aware transfer times); arrival moments come from the actual
  generated trace.  The estimate is approximate by construction — the
  tolerance contract lives in the ``ANALYTIC_*`` constants below and in
  ``docs/fastpath.md``.

Engine selection (``decide_engine``) is static and cheap: fault
injection, telemetry, kept samples, RAID-5 phased plans, high
sequentiality or high estimated utilization refuse the analytic engine
(its steady-state open-queue assumptions break).  ``auto`` means
analytic where it is accepted, else exact, and falls back silently (the
result's ``engine`` field records what actually ran); an explicit
``--engine analytic`` request that cannot be honored raises
:class:`EngineRefused`.

numpy is required by the analytic engine but is **not** imported at
module import time: the exact path must import and run in a numpy-less
environment (CI checks this).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from repro.errors import EngineRefused, SimulationError
from repro.units import (
    BYTES_PER_SECTOR,
    interface_mb_per_s_to_bytes_per_s,
    rotation_time_ms,
    seconds_to_ms,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.simulation.preplan import SpecGeometry
    from repro.simulation.sweep import WorkloadSweepResult, WorkloadTask
    from repro.workloads.catalog import WorkloadSpec

#: The engine names accepted by tasks and the CLI.
ENGINES: Tuple[str, ...] = ("exact", "analytic", "auto")

#: Tolerance contract of the analytic engine, relative to the exact
#: engine on *qualifying* tasks (see docs/fastpath.md).  The differential
#: suite enforces these bounds across the workload catalog.
ANALYTIC_MEAN_RTOL = 0.35
ANALYTIC_P95_RTOL = 0.75
ANALYTIC_UTILIZATION_ATOL = 0.15
ANALYTIC_HIT_RATIO_ATOL = 0.30

#: Analytic qualification limits: workloads more sequential than this
#: are cache/skew-dominated, and estimated per-disk utilization beyond
#: the static limit (or, at runtime, the hard limit) has no steady state
#: the open-queue formula can describe.
ANALYTIC_MAX_SEQUENTIAL = 0.30
ANALYTIC_MAX_RHO_STATIC = 0.90
ANALYTIC_MAX_RHO_RUNTIME = 0.95

#: Bus rate of the simulated member disks (SimulatedDisk default).
_BUS_MB_PER_S = 160.0


def have_numpy() -> bool:
    """Whether the analytic engine's numpy dependency is importable."""
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def validate_engine(engine: str) -> str:
    """Check an engine name (raises :class:`SimulationError`)."""
    if engine not in ENGINES:
        raise SimulationError(
            f"unknown engine {engine!r}; choose from {', '.join(ENGINES)}"
        )
    return engine


# ---------------------------------------------------------------------------
# Shared per-workload geometry and trace (see repro.simulation.preplan)
# ---------------------------------------------------------------------------


def _spec(task: "WorkloadTask") -> "WorkloadSpec":
    from repro.workloads import workload as lookup

    return lookup(task.workload)


def _seek_table(geo: "SpecGeometry") -> "object":
    """Seek-time table over every cylinder distance (bit-equal to the
    scalar :meth:`SeekModel.seek_time_ms`), kept with the geometry."""
    table = geo.seek_table
    if table is None:
        import numpy as np

        model = geo.seek_model
        table = model.seek_time_ms_batch(np.arange(model.cylinders, dtype=np.int64))
        geo.seek_table = table
    return table


# ---------------------------------------------------------------------------
# Engine selection
# ---------------------------------------------------------------------------


def analytic_refusal(task: "WorkloadTask") -> Optional[str]:
    """Why the analytic engine cannot run this task (None = it can)."""
    if task.fault_config is not None:
        return "fault injection requires the exact engine"
    if task.telemetry:
        return "telemetry instrumentation requires the exact engine"
    if task.keep_samples:
        return "the analytic engine has no per-request samples to keep"
    spec = _spec(task)
    if spec.raid5:
        return "RAID-5 read-modify-write phases are not modeled analytically"
    if spec.shape.sequential_fraction > ANALYTIC_MAX_SEQUENTIAL:
        return (
            f"sequential fraction {spec.shape.sequential_fraction:.2f} exceeds "
            f"{ANALYTIC_MAX_SEQUENTIAL:.2f} (cache/skew-dominated)"
        )
    rho = _estimate_rho(task, spec)
    if rho > ANALYTIC_MAX_RHO_STATIC:
        return (
            f"estimated per-disk utilization {rho:.2f} exceeds "
            f"{ANALYTIC_MAX_RHO_STATIC:.2f} (no usable steady state)"
        )
    if not have_numpy():
        return "numpy is not available"
    return None


def _estimate_rho(task: "WorkloadTask", spec: "WorkloadSpec") -> float:
    """Shape-level per-disk utilization estimate (no trace generation)."""
    from repro.simulation.preplan import spec_geometry

    geo = spec_geometry(spec)
    layout = geo.layout
    model = geo.seek_model
    period = rotation_time_ms(task.rpm)
    sizes, weights = zip(*spec.shape.size_mix)
    mean_sectors = sum(s * w for s, w in zip(sizes, weights)) / sum(weights)
    mean_spt = layout.total_sectors / (layout.cylinders * layout.surfaces)
    service = (
        0.2  # controller overhead
        + model.average_seek_ms()
        + 0.1  # settle
        + period / 2.0
        + mean_sectors * period / mean_spt
        + seconds_to_ms(
            mean_sectors
            * BYTES_PER_SECTOR
            / interface_mb_per_s_to_bytes_per_s(_BUS_MB_PER_S)
        )
    )
    per_disk_rate = 1.0 / (spec.shape.mean_interarrival_ms * geo.disk_count)
    return per_disk_rate * service


def decide_engine(task: "WorkloadTask") -> str:
    """The engine a task will actually run on (static, cheap, pure).

    ``exact`` always honors.  ``auto`` runs analytic when the analytic
    engine accepts the task and exact otherwise (the result's ``engine``
    field records which).  ``analytic`` raises :class:`EngineRefused`
    rather than silently answering with a different model.
    """
    engine = validate_engine(getattr(task, "engine", "exact"))
    if engine == "exact":
        return "exact"
    reason = analytic_refusal(task)
    if reason is None:
        return "analytic"
    if engine == "analytic":
        raise EngineRefused(f"analytic engine refused for {task.label()}: {reason}")
    return "exact"


def run_fast_task(task: "WorkloadTask") -> Optional["WorkloadSweepResult"]:
    """Run a task on the analytic engine when its plan lands there.

    Returns None when the plan (or a runtime refusal under ``auto``)
    lands on the exact engine — the caller then runs the event-driven
    simulator.  Raises :class:`EngineRefused` only for an explicit
    ``analytic`` request that cannot be honored.
    """
    if decide_engine(task) == "exact":
        return None
    try:
        return run_workload_task_analytic(task)
    except EngineRefused:
        if task.engine == "analytic":
            raise
        return None


# ---------------------------------------------------------------------------
# Analytic estimator
# ---------------------------------------------------------------------------


def run_workload_task_analytic(task: "WorkloadTask") -> "WorkloadSweepResult":
    """Estimate a task's statistics in closed form (no event loop).

    Per member disk: the first two service-time moments come from batch
    geometry over the whole trace (FCFS head movement over the actual per-disk
    request sequence, expected half-rotation latency, zone-aware
    transfer, bus); the Allen–Cunneen G/G/1 approximation then gives the
    mean queueing delay ``Wq ≈ (Ca²+Cs²)/2 · ρ/(1−ρ) · E[S]``.  The
    response-time distribution is approximated by the per-request service
    times shifted by their disk's ``Wq``.

    Raises:
        EngineRefused: when any disk's utilization reaches
            ``ANALYTIC_MAX_RHO_RUNTIME`` (the open queue has no steady
            state to summarize).
    """
    import numpy as np

    from repro.simulation.preplan import preplan, spec_geometry
    from repro.simulation.statistics import (
        cdf_batch,
        percentiles_batch,
    )
    from repro.simulation.sweep import WorkloadSweepResult

    spec = _spec(task)
    geo = spec_geometry(spec)
    layout = geo.layout
    geometry = geo.array
    disk_count = geo.disk_count
    trace = preplan(spec, task.requests, task.seed).trace
    n = len(trace)
    arrival = np.fromiter((r.time_ms for r in trace), dtype=np.float64, count=n)
    lba = np.fromiter((r.lba for r in trace), dtype=np.int64, count=n)
    sectors = np.fromiter((r.sectors for r in trace), dtype=np.int64, count=n)

    # Single-unit placement: the request is charged to the disk holding
    # its first stripe unit (requests straddling a unit boundary are rare
    # at the catalog's coarse non-RAID striping; see docs/fastpath.md).
    su = geometry.stripe_unit
    unit = lba // su
    disk = (unit % disk_count).astype(np.int64)
    plba = (unit // disk_count) * su + (lba % su)
    end = np.minimum(plba + sectors - 1, layout.total_sectors - 1)
    cyl, _, _, spt = layout.locate_batch(plba)
    end_cyl, _, _, _ = layout.locate_batch(end)

    # FCFS per-disk service order equals arrival order, so the seek
    # sequence is cylinder-to-cylinder along each disk's request stream.
    distance = np.zeros(n, dtype=np.int64)
    for d in range(disk_count):
        mask = disk == d
        k = int(mask.sum())
        if k == 0:
            continue
        start_cyls = cyl[mask]
        prev = np.empty(k, dtype=np.int64)
        prev[0] = 0  # heads park on cylinder 0
        prev[1:] = end_cyl[mask][:-1]
        distance[mask] = np.abs(start_cyls - prev)
    seek_table = _seek_table(geo)
    period = rotation_time_ms(task.rpm)
    seek = np.where(distance > 0, seek_table[distance] + 0.1, 0.0)
    transfer = sectors * period / spt
    bus = seconds_to_ms(
        sectors * BYTES_PER_SECTOR / interface_mb_per_s_to_bytes_per_s(_BUS_MB_PER_S)
    )
    service = 0.2 + seek + period / 2.0 + transfer + bus

    span = float(arrival[-1])
    if span <= 0:
        raise EngineRefused("degenerate trace span")

    wait = np.zeros(n, dtype=np.float64)
    rho_max = 0.0
    for d in range(disk_count):
        mask = disk == d
        k = int(mask.sum())
        if k == 0:
            continue
        s_d = service[mask]
        es = float(np.mean(s_d))
        rho = (k / span) * es
        rho_max = max(rho_max, rho)
        if rho >= ANALYTIC_MAX_RHO_RUNTIME:
            raise EngineRefused(
                f"analytic engine refused for {task.label()}: per-disk "
                f"utilization {rho:.2f} >= {ANALYTIC_MAX_RHO_RUNTIME:.2f}"
            )
        # Arrival burstiness is measured per disk: splitting the (bursty)
        # global stream across the array thins it, and the thinned
        # streams are much smoother than the whole — using the global
        # SCV here overestimates queueing on bursty multi-disk workloads
        # by 2x and more.
        if k >= 2:
            gaps_d = np.diff(arrival[mask])
            mean_gap = float(np.mean(gaps_d))
            ca2 = (
                float(np.var(gaps_d)) / (mean_gap * mean_gap)
                if mean_gap > 0
                else 1.0
            )
        else:
            ca2 = 1.0
        cs2 = float(np.var(s_d)) / (es * es) if es > 0 else 0.0
        wq = ((ca2 + cs2) / 2.0) * (rho / (1.0 - rho)) * es
        wait[mask] = max(wq, 0.0)

    response = service + wait
    med, p95 = percentiles_batch(response, (50, 95))
    return WorkloadSweepResult(
        workload=task.workload,
        rpm=task.rpm,
        requests=n,
        seed=task.seed,
        mean_ms=float(np.mean(response)),
        median_ms=float(med),
        p95_ms=float(p95),
        max_ms=float(np.max(response)),
        simulated_ms=float(np.max(arrival + response)),
        max_utilization=min(rho_max, 1.0),
        cache_hit_ratio=0.0,
        cdf=tuple(cdf_batch(response)),
        samples_ms=(),
        telemetry=None,
        fault_summary=None,
        engine="analytic",
    )


# A symbol the numpy-less CI check imports to prove the module itself
# (not just the exact path) stays importable without numpy.
__all__ = [
    "ANALYTIC_MEAN_RTOL",
    "ANALYTIC_P95_RTOL",
    "ANALYTIC_UTILIZATION_ATOL",
    "ANALYTIC_HIT_RATIO_ATOL",
    "ENGINES",
    "EngineRefused",
    "analytic_refusal",
    "decide_engine",
    "have_numpy",
    "run_fast_task",
    "run_workload_task_analytic",
    "validate_engine",
]
