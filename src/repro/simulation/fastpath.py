"""Fast simulation engines: vectorized batch replay and analytic estimator.

The event-driven simulator (`repro.simulation.system`) is the *exact*
engine: every request is an event, every seek/rotation/transfer is
computed scalar by scalar.  That costs roughly a second per 6000-request
replay — fine for one Figure 4 ladder, painful for the thousands of
(RPM, platter, workload) points the roadmap experiments sweep.  This
module adds two faster engines behind the same task interface:

* **vectorized** — the same simulation, restructured: all per-request
  geometry (LBA→CHS chunks, skewed target angles, transfer times, seek
  distances) is precomputed with numpy over the whole trace at once, and
  a lean event loop replays dispatch/completion using those tables plus
  the real per-disk :class:`~repro.simulation.cache.DiskCache` objects.
  Every floating-point operation the exact engine performs is replicated
  in the same order, so the resulting statistics are **byte-identical**
  to the exact engine's (the differential suite asserts it).

* **analytic** — no event loop at all: a closed-form G/G/1 approximation
  (Allen–Cunneen, the two-moment generalization of M/G/1
  Pollaczek–Khinchine) per member disk.  Service-time moments come from
  the same vectorized geometry (real per-request seek distances under
  FCFS, expected half-rotation latency, zone-aware transfer times);
  arrival moments come from the actual generated trace.  The estimate is
  approximate by construction — the tolerance contract lives in the
  ``ANALYTIC_*`` constants below and in ``docs/fastpath.md``.

Engine selection (``decide_engine``) is static and cheap: fault
injection, telemetry, or RAID-5 phased plans force the exact engine;
high sequentiality or high estimated utilization additionally refuse the
analytic engine (its steady-state open-queue assumptions break).  An
explicit ``--engine analytic`` request that cannot be honored raises
:class:`EngineRefused`; ``--engine vectorized`` and ``--engine auto``
fall back silently (the result's ``engine`` field records what actually
ran).

numpy is required by both fast engines but is **not** imported at module
import time: the exact path must import and run in a numpy-less
environment (CI checks this).
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
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
ENGINES: Tuple[str, ...] = ("exact", "vectorized", "analytic", "auto")

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
#: Electronic service time of a cache hit (disk.CACHE_HIT_MS).
_CACHE_HIT_MS = 0.1


class EngineRefused(SimulationError):
    """An explicitly requested fast engine cannot honor this task."""


def have_numpy() -> bool:
    """Whether the fast engines' numpy dependency is importable."""
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


def vectorized_refusal(task: "WorkloadTask") -> Optional[str]:
    """Why the vectorized engine cannot run this task (None = it can)."""
    if task.fault_config is not None:
        return "fault injection requires the exact engine"
    if task.telemetry:
        return "telemetry instrumentation requires the exact engine"
    if _spec(task).raid5:
        return "RAID-5 phased plans are exact-only"
    if not have_numpy():
        return "numpy is not available"
    return None


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

    ``exact`` always honors.  ``vectorized`` falls back to ``exact`` when
    it cannot honor the task (fallbacks are recorded in the result's
    ``engine`` field).  ``analytic`` raises :class:`EngineRefused` rather
    than silently answering with a different model.  ``auto`` prefers
    analytic, then vectorized, then exact.
    """
    engine = validate_engine(getattr(task, "engine", "exact"))
    if engine == "exact":
        return "exact"
    if engine == "vectorized":
        return "exact" if vectorized_refusal(task) is not None else "vectorized"
    if engine == "analytic":
        reason = analytic_refusal(task)
        if reason is not None:
            raise EngineRefused(
                f"analytic engine refused for {task.label()}: {reason}"
            )
        return "analytic"
    # auto
    if analytic_refusal(task) is None:
        return "analytic"
    if vectorized_refusal(task) is None:
        return "vectorized"
    return "exact"


def planned_engines(tasks: Sequence["WorkloadTask"]) -> Optional[List[str]]:
    """Planned engine per task, or None when planning itself refuses.

    Used by the sweep front-ends to decide whether a process pool is
    worth spawning; a refusal is deliberately *not* raised here — the
    per-task worker raises it so resilient sweeps get per-task outcomes.
    """
    try:
        return [decide_engine(task) for task in tasks]
    except EngineRefused:
        return None


def all_analytic(tasks: Sequence["WorkloadTask"]) -> bool:
    """True when *every* task plans onto the closed-form analytic engine.

    Such a sweep finishes in milliseconds of arithmetic; the sweep
    planner (:func:`repro.simulation.sweep.plan_sweep_workers`) forces it
    serial so no execution backend spawns processes for it.  Tasks that
    request ``exact`` (the common case) short-circuit to False without
    planning anything.
    """
    if not tasks or any(task.engine == "exact" for task in tasks):
        return False
    planned = planned_engines(tasks)
    return planned is not None and all(p == "analytic" for p in planned)


def run_fast_task(task: "WorkloadTask") -> Optional["WorkloadSweepResult"]:
    """Run a task on its planned fast engine.

    Returns None when the plan (or a runtime refusal under ``auto``)
    lands on the exact engine — the caller then runs the event-driven
    simulator.  Raises :class:`EngineRefused` only for an explicit
    ``analytic`` request that cannot be honored.
    """
    engine = decide_engine(task)
    if engine == "exact":
        return None
    if engine == "analytic":
        try:
            return run_workload_task_analytic(task)
        except EngineRefused:
            if task.engine == "analytic":
                raise
            if vectorized_refusal(task) is None:
                return run_workload_task_vectorized(task)
            return None
    return run_workload_task_vectorized(task)


# ---------------------------------------------------------------------------
# Vectorized exact replay
# ---------------------------------------------------------------------------


def _chunk_geometry(np, layout, child_lba, child_sectors):
    """CSR chunk decomposition of every child access at once.

    Iterates over chunk *depth* (a child touching k tracks contributes to
    the first k rounds) while staying vectorized across children — the
    same walk ``DiskMechanics.service`` does one chunk at a time.

    Returns ``(offsets, cyl, surf, sec, spt, length)``: child ``i`` owns
    chunk rows ``offsets[i]:offsets[i+1]`` in media order.
    """
    n = int(child_lba.size)
    pos = child_lba.astype(np.int64, copy=True)
    remaining = child_sectors.astype(np.int64, copy=True)
    active = np.arange(n, dtype=np.int64)
    rounds = []
    counts = np.zeros(n, dtype=np.int64)
    while active.size:
        cyl, surf, sec, spt = layout.locate_batch(pos[active])
        chunk = np.minimum(remaining[active], spt - sec)
        rounds.append((active, cyl, surf, sec, spt, chunk))
        counts[active] += 1
        pos[active] += chunk
        remaining[active] -= chunk
        active = active[remaining[active] > 0]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    total = int(offsets[-1])
    out = tuple(np.empty(total, dtype=np.int64) for _ in range(5))
    for depth, (idx, cyl, surf, sec, spt, chunk) in enumerate(rounds):
        at = offsets[idx] + depth
        out[0][at] = cyl
        out[1][at] = surf
        out[2][at] = sec
        out[3][at] = spt
        out[4][at] = chunk
    return (offsets,) + out


def run_workload_task_vectorized(task: "WorkloadTask") -> "WorkloadSweepResult":
    """Replay a task through the lean vectorized engine.

    Produces statistics byte-identical to the exact engine: the event
    order (the exact queue's ``(time, insertion-seq)`` tie-break), the
    cache state machine (real :class:`DiskCache` instances) and every
    float operation of the mechanical model are replicated exactly —
    only the object plumbing of the event-driven simulator is gone.
    """
    import numpy as np

    from repro.simulation.cache import DiskCache
    from repro.simulation.mechanics import DiskMechanics
    from repro.simulation.preplan import preplan, spec_geometry
    from repro.simulation.statistics import ResponseTimeStats
    from repro.simulation.sweep import WorkloadSweepResult

    spec = _spec(task)
    geo = spec_geometry(spec)
    layout = geo.layout
    disk_count = geo.disk_count
    mech = DiskMechanics(layout, geo.seek_model, task.rpm)
    plan = preplan(spec, task.requests, task.seed)

    # -- decompose the trace into per-disk child accesses -----------------
    arrivals: List[float] = []
    child_disk: List[int] = []
    child_lba: List[int] = []
    child_sectors: List[int] = []
    child_write: List[bool] = []
    child_logical: List[int] = []
    children_of: List[List[int]] = []
    for li, (record, phases) in enumerate(
        zip(plan.trace, plan.phases_for(geo.array))
    ):
        arrivals.append(record.time_ms)
        if len(phases) != 1:  # pragma: no cover - Raid0 is single-phase
            raise EngineRefused("multi-phase plans require the exact engine")
        mine: List[int] = []
        for disk, lba, sectors, is_write in phases[0]:
            mine.append(len(child_disk))
            child_disk.append(disk)
            child_lba.append(lba)
            child_sectors.append(sectors)
            child_write.append(is_write)
            child_logical.append(li)
        children_of.append(mine)

    # -- vectorized chunk geometry and timing tables ----------------------
    c_lba = np.asarray(child_lba, dtype=np.int64)
    c_sectors = np.asarray(child_sectors, dtype=np.int64)
    offsets, k_cyl, k_surf, k_sec, k_spt, k_len = _chunk_geometry(
        np, layout, c_lba, c_sectors
    )
    # Target angle of each chunk's first sector: sector fraction plus the
    # track skew — the expression DiskMechanics.timing evaluates per chunk.
    skew = np.mod(
        k_cyl * mech.cylinder_skew_rev + k_surf * mech.track_skew_rev, 1.0
    )
    k_target = np.mod(k_sec / k_spt + skew, 1.0)
    k_transfer = k_len * mech.period_ms / k_spt
    # Transitions *within* a child (chunk 2..k): a one-cylinder seek or a
    # head switch, known statically.  First chunks are masked out — their
    # seek depends on the dynamic head position at dispatch time.
    total_chunks = int(offsets[-1])
    first_mask = np.zeros(total_chunks, dtype=bool)
    first_mask[offsets[:-1]] = True
    prev_cyl = np.empty(total_chunks, dtype=np.int64)
    prev_surf = np.empty(total_chunks, dtype=np.int64)
    if total_chunks:
        prev_cyl[0] = 0
        prev_cyl[1:] = k_cyl[:-1]
        prev_surf[0] = 0
        prev_surf[1:] = k_surf[:-1]
    dcy = np.abs(k_cyl - prev_cyl)
    seek_table = _seek_table(geo)
    pre_seek = np.where(
        (~first_mask) & (dcy > 0),
        seek_table[np.minimum(dcy, seek_table.size - 1)] + mech.settle_ms,
        0.0,
    )
    pre_switch = (~first_mask) & (dcy == 0) & (k_surf != prev_surf)
    bytes_per_s = interface_mb_per_s_to_bytes_per_s(_BUS_MB_PER_S)
    c_bus = seconds_to_ms(c_sectors * BYTES_PER_SECTOR / bytes_per_s)

    # Python lists index faster than numpy scalars in the replay loop.
    off_l = offsets.tolist()
    cyl_l = k_cyl.tolist()
    tgt_l = k_target.tolist()
    tr_l = k_transfer.tolist()
    pre_seek_l = pre_seek.tolist()
    pre_switch_l = pre_switch.tolist()
    seek_l = seek_table.tolist()
    bus_l = c_bus.tolist()
    lba_l = c_lba.tolist()
    sec_l = c_sectors.tolist()

    period = mech.period_ms
    overhead = mech.controller_overhead_ms
    settle = mech.settle_ms
    head_switch = mech.head_switch_ms
    total_sectors = layout.total_sectors

    # -- lean replay (exact event semantics) ------------------------------
    heads = [0] * disk_count
    busy = [False] * disk_count
    busy_ms = [0.0] * disk_count
    queues = [deque() for _ in range(disk_count)]
    caches = [DiskCache() for _ in range(disk_count)]
    outstanding = [len(mine) for mine in children_of]
    samples: List[float] = []
    n = len(arrivals)
    # Heap entries mirror the exact queue: (time, seq, is_finish, a, b).
    # schedule_batch hands arrivals seqs 0..n-1 in trace order, then every
    # completion takes the next seq at schedule time — replicated here.
    heap: List[Tuple[float, int, int, int, int]] = [
        (arrivals[i], i, 0, i, 0) for i in range(n)
    ]
    heapify(heap)
    counter = n
    now = 0.0

    def service_ms(ci: int, disk: int) -> float:
        """_service_time of the exact disk, using the precomputed tables."""
        bus = bus_l[ci]
        cache = caches[disk]
        if child_write[ci]:
            cache.note_write(lba_l[ci], sec_l[ci])
        elif cache.lookup_read(lba_l[ci], sec_l[ci]):
            return _CACHE_HIT_MS + bus
        a = off_l[ci]
        b = off_l[ci + 1]
        t = now + overhead
        seek_sum = 0.0
        rot_sum = 0.0
        switch_sum = 0.0
        transfer_sum = 0.0
        c0 = cyl_l[a]
        head = heads[disk]
        if c0 != head:
            s = seek_l[c0 - head if c0 > head else head - c0] + settle
            seek_sum += s
            t += s
        for j in range(a, b):
            if j > a:
                ps = pre_seek_l[j]
                # 0.0 is the "no transition" sentinel (real seeks include
                # the strictly positive settle time), so exact compare is right
                if ps != 0.0:  # thermolint: disable=TL002
                    seek_sum += ps
                    t += ps
                elif pre_switch_l[j]:
                    switch_sum += head_switch
                    t += head_switch
            cur = (t / period) % 1.0
            delta = (tgt_l[j] - cur) % 1.0
            if delta >= 1.0:
                delta = 0.0
            wait = delta * period
            rot_sum += wait
            t += wait
            x = tr_l[j]
            transfer_sum += x
            t += x
        heads[disk] = cyl_l[b - 1]
        if not child_write[ci]:
            cache.fill_after_read(lba_l[ci], sec_l[ci], total_sectors)
        total = overhead + seek_sum + rot_sum + switch_sum + transfer_sum
        return total + bus

    def begin(ci: int, disk: int) -> None:
        nonlocal counter
        service = service_ms(ci, disk)
        busy_ms[disk] += service
        busy[disk] = True
        heappush(heap, (now + service, counter, 1, disk, ci))
        counter += 1

    while heap:
        t, _, is_finish, a, b = heappop(heap)
        if t > now:
            now = t
        if is_finish:
            li = child_logical[b]
            outstanding[li] -= 1
            if outstanding[li] == 0:
                samples.append(now - arrivals[li])
            queue = queues[a]
            if queue:
                begin(queue.popleft(), a)
            else:
                busy[a] = False
        else:
            for ci in children_of[a]:
                disk = child_disk[ci]
                if busy[disk]:
                    queues[disk].append(ci)
                else:
                    begin(ci, disk)

    if len(samples) != n:  # pragma: no cover - defensive
        raise SimulationError(
            f"{n - len(samples)} logical requests never completed"
        )
    stats = ResponseTimeStats(samples_ms=samples)
    elapsed = now
    utilizations = [
        min(ms / elapsed, 1.0) if elapsed > 0 else 0.0 for ms in busy_ms
    ]
    hits = sum(c.stats.read_hits for c in caches)
    lookups = sum(c.stats.lookups for c in caches)
    return WorkloadSweepResult(
        workload=task.workload,
        rpm=task.rpm,
        requests=stats.count,
        seed=task.seed,
        mean_ms=stats.mean_ms(),
        median_ms=stats.median_ms(),
        p95_ms=stats.percentile_ms(95),
        max_ms=stats.max_ms(),
        simulated_ms=elapsed,
        max_utilization=max(utilizations),
        cache_hit_ratio=hits / lookups if lookups else 0.0,
        cdf=tuple(stats.cdf()),
        samples_ms=tuple(stats.samples_ms) if task.keep_samples else (),
        telemetry=None,
        fault_summary=None,
        engine="vectorized",
    )


# ---------------------------------------------------------------------------
# Analytic estimator
# ---------------------------------------------------------------------------


def run_workload_task_analytic(task: "WorkloadTask") -> "WorkloadSweepResult":
    """Estimate a task's statistics in closed form (no event loop).

    Per member disk: the first two service-time moments come from the
    vectorized geometry (FCFS head movement over the actual per-disk
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
    "planned_engines",
    "run_fast_task",
    "run_workload_task_analytic",
    "run_workload_task_vectorized",
    "validate_engine",
    "vectorized_refusal",
]
