#!/usr/bin/env python3
"""Sweep-throughput benchmark: the PR1 performance trajectory anchor.

Times the two sweeps the ROADMAP cares about — the Figure 2 thermal
roadmap (3 platter counts x 11 years) and a Figure 4 trace replay ladder —
through the serial path and the parallel sweep runner, plus the
response-time statistics hot path (cached sorted view vs the seed's
re-sort-per-query behaviour).  Results land in a machine-readable
``BENCH_PR1.json`` (schema documented in DESIGN.md) so later PRs can track
the perf trajectory.

Usage:
    PYTHONPATH=src python benchmarks/bench_sweep.py [--quick]
        [--output BENCH_PR1.json] [--workers N]

The parallel-speedup figures are bounded by the host's core count; the
acceptance criterion (>= 3x on the Figure 2 sweep) applies on hosts with
>= 4 cores, and the JSON records ``host.cpu_count`` so that conditionality
is visible in the artifact.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:  # allow running without PYTHONPATH
    sys.path.insert(0, str(ROOT / "src"))

SCHEMA = "repro.bench_sweep/1"

#: Schema of the PR6 fast-engine artifact (``BENCH_PR6.json``).
FASTPATH_SCHEMA = "repro.bench_fastpath/1"


def _time(func):
    start = time.perf_counter()
    result = func()
    return result, time.perf_counter() - start


def bench_figure2(workers: Optional[int], quick: bool) -> dict:
    """Serial vs parallel Figure 2 roadmap sweep.

    One pass over the paper's grid is only tens of milliseconds, so a
    single-shot parallel timing would measure process-pool startup, not
    sweep throughput.  The task list therefore repeats the 3-platter-count
    sweep ``repeats`` times (every repetition does full work — no caching
    crosses task boundaries) and both paths run the identical list.
    """
    from repro.simulation.resilience import run_kind
    from repro.simulation.sweep import (
        ROADMAP_YEARS,
        RoadmapTask,
        resolve_workers,
        roadmap_sweep_kind,
    )

    platter_counts = (1, 2, 4)
    years = ROADMAP_YEARS[:3] if quick else ROADMAP_YEARS
    repeats = 2 if quick else 10
    tasks = [
        RoadmapTask(platter_count=count, years=years) for count in platter_counts
    ] * repeats

    def run(count: int) -> list:
        report = run_kind(roadmap_sweep_kind(), tasks, workers=count)
        report.raise_on_failure()
        return report.ok_results()

    serial, serial_s = _time(lambda: run(1))
    resolved = resolve_workers(workers, len(tasks))
    parallel, parallel_s = _time(lambda: run(resolved))
    return {
        "platter_counts": list(platter_counts),
        "years": len(years),
        "repeats": repeats,
        "points": sum(len(points) for points in serial[: len(platter_counts)]),
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "workers": resolved,
        "speedup": serial_s / parallel_s if parallel_s > 0 else None,
        "parallel_identical": serial == parallel,
    }


def bench_figure4(workers: Optional[int], quick: bool) -> dict:
    """Serial vs parallel replay of one Figure 4 RPM ladder."""
    from repro.simulation.sweep import resolve_workers, sweep_workloads

    name = "tpcc"
    requests = 600 if quick else 6000
    serial, serial_s = _time(
        lambda: sweep_workloads([name], requests=requests, workers=1)
    )
    resolved = resolve_workers(workers, len(serial))
    parallel, parallel_s = _time(
        lambda: sweep_workloads([name], requests=requests, workers=resolved)
    )
    return {
        "workload": name,
        "requests": requests,
        "rpm_steps": len(serial),
        "mean_ms": [round(r.mean_ms, 6) for r in serial],
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "workers": resolved,
        "speedup": serial_s / parallel_s if parallel_s > 0 else None,
        "parallel_identical": serial == parallel,
    }


def bench_stats_hot_path(quick: bool) -> dict:
    """Cached sorted view vs the seed's re-sort-per-query statistics.

    Emulates the per-request reporting loop: one percentile query every
    ``stride`` samples added, over ``n`` samples total.  The "resort"
    branch is the seed implementation verbatim (sort all samples on every
    query); the "cached" branch is today's ResponseTimeStats.
    """
    import math
    import random

    from repro.simulation.statistics import ResponseTimeStats

    n = 1000 if quick else 4000
    stride = 10
    rng = random.Random(7)
    samples = [rng.expovariate(0.1) for _ in range(n)]

    def seed_percentile(data: List[float], q: float) -> float:
        data = sorted(data)  # the seed re-sorted on every call
        rank = q / 100 * (len(data) - 1)
        lo, hi = math.floor(rank), math.ceil(rank)
        if lo == hi:
            return data[lo]
        frac = rank - lo
        return data[lo] * (1 - frac) + data[hi] * frac

    def run_resort():
        acc: List[float] = []
        out = 0.0
        for i, s in enumerate(samples):
            acc.append(s)
            if (i + 1) % stride == 0:
                out = seed_percentile(acc, 95)
        return out

    def run_cached():
        stats = ResponseTimeStats()
        out = 0.0
        for i, s in enumerate(samples):
            stats.add(s)
            if (i + 1) % stride == 0:
                out = stats.percentile_ms(95)
        return out

    resort_result, resort_s = _time(run_resort)
    cached_result, cached_s = _time(run_cached)
    return {
        "samples": n,
        "queries": n // stride,
        "resort_s": resort_s,
        "cached_s": cached_s,
        "speedup": resort_s / cached_s if cached_s > 0 else None,
        "identical": abs(resort_result - cached_result) < 1e-12,
    }


def bench_fastpath_analytic(quick: bool) -> dict:
    """Exact vs analytic engine on a qualifying 99-point roadmap ladder.

    Single-core on both sides: the claim is about the *loop itself*, not
    parallelism.  The exact side is sampled (``exact_points`` rungs) and
    extrapolated to the full ladder — running all 99 exact points would
    just multiply a measured constant — while the analytic engine runs
    the whole ladder for real.  Accuracy is checked on the sampled rungs
    against the documented tolerance.
    """
    from repro.simulation.fastpath import ANALYTIC_MEAN_RTOL
    from repro.simulation.sweep import sweep_workloads

    name = "oltp"
    requests = 600 if quick else 4000
    points = 12 if quick else 99
    exact_points = 4 if quick else 8
    rpms = [6000.0 + 200.0 * i for i in range(points)]
    exact, exact_s = _time(
        lambda: sweep_workloads([name], rpms=rpms[:exact_points],
                                requests=requests, workers=0)
    )
    analytic, analytic_s = _time(
        lambda: sweep_workloads([name], rpms=rpms, requests=requests,
                                workers=0, engine="analytic")
    )
    exact_full_s = exact_s * (points / exact_points)
    rel_errs = [
        abs(a.mean_ms - e.mean_ms) / e.mean_ms
        for e, a in zip(exact, analytic[:exact_points])
    ]
    return {
        "workload": name,
        "requests": requests,
        "rpm_points": points,
        "exact_points_measured": exact_points,
        "exact_serial_s": exact_s,
        "exact_serial_extrapolated_s": exact_full_s,
        "analytic_serial_s": analytic_s,
        "speedup": exact_full_s / analytic_s if analytic_s > 0 else None,
        "engines": sorted({r.engine for r in analytic}),
        "mean_rel_err_max": max(rel_errs),
        "mean_rtol": ANALYTIC_MEAN_RTOL,
        "within_tolerance": max(rel_errs) <= ANALYTIC_MEAN_RTOL,
    }


def bench_fastpath_vectorized(quick: bool) -> dict:
    """Exact vs vectorized engine on one RPM ladder, byte-identity gated."""
    import dataclasses

    from repro.simulation.sweep import results_json_bytes, sweep_workloads

    name = "oltp"
    requests = 600 if quick else 4000
    rpms = [9000.0, 12000.0, 15000.0, 18000.0, 21000.0, 24000.0]
    exact, exact_s = _time(
        lambda: sweep_workloads([name], rpms=rpms, requests=requests, workers=0)
    )
    fast, fast_s = _time(
        lambda: sweep_workloads([name], rpms=rpms, requests=requests,
                                workers=0, engine="vectorized")
    )
    normalized = [dataclasses.replace(r, engine="exact") for r in fast]
    return {
        "workload": name,
        "requests": requests,
        "rpm_points": len(rpms),
        "exact_serial_s": exact_s,
        "vectorized_serial_s": fast_s,
        "speedup": exact_s / fast_s if fast_s > 0 else None,
        "engines": sorted({r.engine for r in fast}),
        "byte_identical": results_json_bytes(normalized) == results_json_bytes(exact),
    }


def run_fastpath_bench(
    quick: bool = False, output: Optional[Path] = None
) -> dict:
    """Run the PR6 fast-engine benchmarks and (optionally) write the JSON."""
    report = {
        "schema": FASTPATH_SCHEMA,
        "pr": 6,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "quick": quick,
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "analytic_sweep": bench_fastpath_analytic(quick),
        "vectorized_replay": bench_fastpath_vectorized(quick),
        "notes": (
            "single-core comparisons; the >=10x criterion applies to "
            "analytic_sweep.speedup on the full (non-quick) ladder"
        ),
    }
    if output is not None:
        output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return report


def run_bench(
    quick: bool = False, workers: Optional[int] = None, output: Optional[Path] = None
) -> dict:
    """Run every benchmark and (optionally) write the JSON artifact."""
    report = {
        "schema": SCHEMA,
        "pr": 1,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "quick": quick,
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "figure2_roadmap": bench_figure2(workers, quick),
        "figure4_replay": bench_figure4(workers, quick),
        "stats_hot_path": bench_stats_hot_path(quick),
        "notes": (
            "parallel speedup is bounded by host cores; the >=3x Figure 2 "
            "criterion applies on hosts with >= 4 cores"
        ),
    }
    if output is not None:
        output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="miniature sweep for smoke testing"
    )
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument(
        "--fastpath",
        action="store_true",
        help="run the PR6 fast-engine benchmarks (writes BENCH_PR6.json)",
    )
    parser.add_argument(
        "--output", type=Path, default=None,
        help="where to write the JSON artifact "
        "(default BENCH_PR1.json, or BENCH_PR6.json with --fastpath)",
    )
    args = parser.parse_args(argv)
    if args.output is None:
        args.output = ROOT / ("BENCH_PR6.json" if args.fastpath else "BENCH_PR1.json")
    if args.fastpath:
        report = run_fastpath_bench(quick=args.quick, output=args.output)
        ana = report["analytic_sweep"]
        vec = report["vectorized_replay"]
        print(f"analytic sweep  : exact({ana['exact_points_measured']} of "
              f"{ana['rpm_points']} pts) {ana['exact_serial_s']:.3f}s -> "
              f"{ana['exact_serial_extrapolated_s']:.3f}s full ladder  "
              f"analytic {ana['analytic_serial_s']:.3f}s  "
              f"speedup {ana['speedup']:.1f}x  "
              f"within_tolerance={ana['within_tolerance']}")
        print(f"vectorized      : exact {vec['exact_serial_s']:.3f}s  "
              f"vectorized {vec['vectorized_serial_s']:.3f}s  "
              f"speedup {vec['speedup']:.2f}x  "
              f"byte_identical={vec['byte_identical']}")
        print(f"wrote {args.output}")
        ok = vec["byte_identical"] and ana["within_tolerance"]
        return 0 if ok else 1
    report = run_bench(quick=args.quick, workers=args.workers, output=args.output)
    fig2 = report["figure2_roadmap"]
    fig4 = report["figure4_replay"]
    stats = report["stats_hot_path"]
    print(f"figure2 roadmap : serial {fig2['serial_s']:.3f}s  "
          f"parallel({fig2['workers']}) {fig2['parallel_s']:.3f}s  "
          f"speedup {fig2['speedup']:.2f}x  identical={fig2['parallel_identical']}")
    print(f"figure4 replay  : serial {fig4['serial_s']:.3f}s  "
          f"parallel({fig4['workers']}) {fig4['parallel_s']:.3f}s  "
          f"speedup {fig4['speedup']:.2f}x  identical={fig4['parallel_identical']}")
    print(f"stats hot path  : resort {stats['resort_s']:.3f}s  "
          f"cached {stats['cached_s']:.3f}s  speedup {stats['speedup']:.2f}x")
    print(f"wrote {args.output}")
    ok = fig2["parallel_identical"] and fig4["parallel_identical"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
