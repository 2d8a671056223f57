"""Measure the constants of the sweep dispatch rule on this host.

``run_kind`` forks a process pool for a ``process`` request only when
``POOL_START_S + estimate / workers + tickets * POOL_TICKET_S`` is below
the misses' estimate: the serial seconds of their own work, which a pool
can split among its workers (see
``repro.simulation.resilience.plan_dispatch``).  This script re-measures
every constant of that rule, serial and on a two-worker pool, alternating
which runs first, and prints medians:

* the per-family rates (``ROADMAP_SECONDS_PER_POINT``,
  ``FLEET_SECONDS_PER_DRIVE``, ``WORKLOAD_SECONDS_PER_REQUEST``): serial
  wall time over the family's unit count, warm.  A workload rung is timed
  with its pre-plan already built (the second rung of a ladder): the
  pre-plan is work every process that replays the workload repeats, so
  a pool cannot split it and the rule leaves it out of the estimate;
* ``POOL_START_S`` and ``POOL_TICKET_S``: the least-squares fit of
  ``pool wall - shared - (serial wall - shared) / 2 = start-up + tickets
  x ticket cost`` over the roadmap panels, two rack sizes at several rack
  counts, exact workload sweeps of 5 workloads x 2 rungs at 200, 600 and
  4000 requests, and the all-analytic sweep of 2 workloads x 4 rungs at
  4000 requests.  ``shared`` is the sweep's repeated work: zero for
  roadmap panels and racks, and for a workload sweep the sum over its
  workloads of the first rung's time minus the second's (both workers
  build every workload's pre-plan when its rungs land on both);
* for every sweep, what the rule decides on the committed constants and
  which side was faster, so a crossover the constants misplace shows as
  a ``MISS`` line;
* the start-up of a pool over a trivial worker (``abs``), for scale.

Everything runs on two workers: the rule divides the estimate by the
resolved worker count, but its constants are only measured at two.

Usage (from the repository root, ~4 minutes on two cores)::

    PYTHONPATH=src python3 tools/measure_dispatch.py [--reps N]
"""

from __future__ import annotations

import argparse
import statistics
import time
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.fleet import TieringPolicy, build_rack_tasks, uniform_fleet
from repro.fleet.sweep import fleet_sweep_kind
from repro.simulation.backends import ProcessPoolBackend, SerialBackend
from repro.simulation.resilience import SweepKind, pool_pays, run_kind
from repro.simulation.sweep import (
    RoadmapTask,
    _run_workload_task,
    build_workload_tasks,
    roadmap_sweep_kind,
    workload_sweep_kind,
)

WORKLOADS = ("tpcc", "openmail", "oltp", "tpch", "search_engine")


def _wall(run: Callable[[], Any]) -> float:
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def serial_and_pool(
    kind: SweepKind, tasks: Sequence[Any], reps: int
) -> Tuple[float, float]:
    """Median run_kind wall time serial and on a 2-worker pool, warm."""
    run_kind(kind, tasks, backend="serial")
    serial: List[float] = []
    pool: List[float] = []
    for rep in range(reps):
        for pooled in (rep % 2 == 0, rep % 2 == 1):
            backend = (
                ProcessPoolBackend(tasks, kind.worker, 2)
                if pooled
                else SerialBackend(tasks, kind.worker)
            )
            (pool if pooled else serial).append(
                _wall(lambda: run_kind(kind, tasks, backend=backend))
            )
    return statistics.median(serial), statistics.median(pool)


def rung_split(tasks: Sequence[Any], reps: int) -> Tuple[float, float]:
    """``(shared, rung)`` seconds of a workload sweep of two or more
    workloads, each with two or more rungs: ``shared`` sums each
    workload's first rung minus its second (the pre-plan build), ``rung``
    sums the second rungs (one replay per workload, pre-plan built).
    Running the workloads in turn keeps each first rung cold (the
    pre-plan memo holds one workload)."""
    by_workload: Dict[str, List[Any]] = {}
    for task in tasks:
        by_workload.setdefault(task.workload, []).append(task)
    cold: Dict[str, List[float]] = {name: [] for name in by_workload}
    warm: Dict[str, List[float]] = {name: [] for name in by_workload}
    for _ in range(reps):
        for name, rungs in by_workload.items():
            cold[name].append(_wall(lambda: _run_workload_task(rungs[0])))
            warm[name].append(_wall(lambda: _run_workload_task(rungs[1])))
    rung = sum(statistics.median(warm[name]) for name in by_workload)
    first = sum(statistics.median(cold[name]) for name in by_workload)
    return max(first - rung, 0.0), rung


def decision(kind: SweepKind, tasks: Sequence[Any], serial: float, pool: float) -> str:
    """The rule's choice for ``tasks`` on two workers against the faster
    measured side: ``ok`` when they agree, ``MISS`` when they do not."""
    assert kind.cost is not None
    estimate = sum(kind.cost(task) for task in tasks)
    chosen = "pool" if pool_pays(estimate, len(tasks), 2) else "serial"
    faster = "pool" if pool < serial else "serial"
    verdict = "ok" if chosen == faster else "MISS"
    return (f"estimate {estimate * 1e3:.1f} ms, rule picks {chosen}, "
            f"{faster} faster: {verdict}")


def _racks(racks: int, enclosures: int, drives: int) -> List[Any]:
    fleet = uniform_fleet(racks, enclosures, drives, recirculation=0.2)
    return build_rack_tasks(fleet, tiering=TieringPolicy(extents=48, seed=3))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=7, help="runs per side")
    reps = parser.parse_args().reps

    fits: List[Tuple[int, float]] = []  # (tickets, pool overhead)
    roadmap = [RoadmapTask(platter_count=count) for count in (1, 2, 4)]
    serial, pool = serial_and_pool(roadmap_sweep_kind(), roadmap, reps)
    points = sum(len(t.years) * len(t.sizes) for t in roadmap)
    print(f"roadmap 3 panels: serial {serial * 1e3:.1f} ms, pool {pool * 1e3:.1f} ms, "
          f"{serial / points * 1e6:.1f} us/point; "
          f"{decision(roadmap_sweep_kind(), roadmap, serial, pool)}")
    fits.append((len(roadmap), pool - serial / 2))

    for enclosures, drives, counts in ((6, 12, (4, 14, 28, 56)), (10, 24, (4, 8, 16, 32))):
        for racks in counts:
            tasks = _racks(racks, enclosures, drives)
            serial, pool = serial_and_pool(fleet_sweep_kind(), tasks, reps)
            per_drive = serial / (racks * enclosures * drives)
            print(f"{racks} racks x {enclosures * drives} drives: serial "
                  f"{serial * 1e3:.1f} ms, pool {pool * 1e3:.1f} ms, "
                  f"{per_drive * 1e6:.1f} us/drive; "
                  f"{decision(fleet_sweep_kind(), tasks, serial, pool)}")
            fits.append((racks, pool - serial / 2))

    sweeps = [("exact", WORKLOADS, 2, requests) for requests in (200, 600, 4000)]
    sweeps += [("exact", WORKLOADS, 4, 4000), ("analytic", ("oltp", "search_engine"), 4, 4000)]
    for engine, names, steps, requests in sweeps:
        tasks = build_workload_tasks(names, rpm_steps=steps, requests=requests, engine=engine)
        shared, rung = rung_split(tasks, max(3, reps // 2))
        serial, pool = serial_and_pool(workload_sweep_kind(), tasks, max(3, reps // 2))
        print(f"workload {engine} {len(tasks)} x {requests}: serial {serial * 1e3:.1f} ms, "
              f"pool {pool * 1e3:.1f} ms, pre-plans {shared * 1e3:.1f} ms, "
              f"{rung / (len(names) * requests) * 1e6:.2f} us/request a rung; "
              f"{decision(workload_sweep_kind(), tasks, serial, pool)}")
        if steps == 2 or engine == "analytic":
            fits.append((len(tasks), pool - shared - (serial - shared) / 2))

    xs = [tickets for tickets, _ in fits]
    ys = [overhead for _, overhead in fits]
    mean_x, mean_y = statistics.mean(xs), statistics.mean(ys)
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum(
        (x - mean_x) ** 2 for x in xs
    )
    print(f"fit: POOL_START_S {(mean_y - slope * mean_x) * 1e3:.1f} ms, "
          f"POOL_TICKET_S {slope * 1e3:.2f} ms")

    trivial = SweepKind(name="trivial", worker=abs, key=str, encode=int, decode=int)
    serial, pool = serial_and_pool(trivial, [1], reps)
    print(f"trivial worker, one task: pool start-up {(pool - serial) * 1e3:.1f} ms")


if __name__ == "__main__":
    main()
