"""``replay-ladder``: a cold Figure 4 sweep, engine-bound.

Every catalog workload on a 4-step RPM ladder, ``engine="exact"``, the
process backend with two workers and no store — the CLI defaults of
``repro sweep workload`` on a two-core host.  The sweep seed comes from
the benchmark seed.

Untraced run: ladders back to back for the measurement window; each
ladder's ``results_json_bytes`` must equal the first's, and after the
window an in-process serial replay of the same seed must match them.
Times are host time net of stolen CPU (``common.net_s``); a point's
worker-side time is scaled by its ladder's stolen share.

Traced run: one ladder on the process backend supplies the backend
figures from its ``SweepRunReport``; the same ladder then replays
in-process, alternately plain and with spans around
``WorkloadSpec.generate``, ``WorkloadSpec.build_system``,
``StorageSystem.run_trace`` and the ``ResponseTimeStats`` summary, and
every replay must match the process bytes.
"""

from __future__ import annotations

import time
from typing import Any, List, Tuple

from common import (
    WORKERS,
    Outcome,
    backend_figures,
    digest,
    mark,
    median,
    net_s,
    peak_rss_mb,
    percentile,
    steal_share,
    time_setup,
)
from tracing import Tracer, abba

NAMES = ("tpcc", "openmail", "oltp", "tpch", "search_engine")

SCALES = {
    "full": {"rpm_steps": 4, "requests": 4000},
    "tiny": {"rpm_steps": 2, "requests": 150},
}


def _ladder(seed: int, scale: str, backend: str, workers: int) -> Tuple[bytes, Any, float, float]:
    """One cold ladder: (results bytes, report, net seconds, stolen share)."""
    from repro.simulation.sweep import results_json_bytes, sweep_workloads_resilient

    shape = SCALES[scale]
    start = mark()
    results, report = sweep_workloads_resilient(
        list(NAMES),
        rpm_steps=shape["rpm_steps"],
        requests=shape["requests"],
        seed=seed,
        engine="exact",
        workers=workers,
        backend=backend,
        retries=0,
    )
    end = mark()
    return results_json_bytes(results), report, net_s(start, end), steal_share(start, end)


def _simulated_requests(report: Any) -> int:
    return sum(e.result.requests for e in report.envelopes if e.ok)


def run(seed: int, seconds: float, trace: bool, scale: str) -> Outcome:
    if trace:
        return _run_traced(seed, scale)
    out = Outcome()
    setup_s = time_setup("replay")
    _ladder(seed + 1, "tiny", "process", WORKERS)  # untimed: parent-side lazy imports

    reference = None
    ladder_s: List[float] = []
    point_ms: List[float] = []
    straggler_ms: List[float] = []
    stolen_shares: List[float] = []
    requests = 0
    window_start = time.perf_counter()
    while not ladder_s or time.perf_counter() - window_start < seconds:
        data, report, elapsed, stolen = _ladder(seed, scale, "process", WORKERS)
        out.attempted += len(report.envelopes)
        if report.failed:
            out.fail(f"{len(report.failed)} ladder point(s) failed", len(report.failed))
        if reference is None:
            reference = data
        elif data != reference:
            out.fail("ladder bytes differ between repetitions", len(report.envelopes))
        ladder_s.append(elapsed)
        stolen_shares.append(stolen)
        points = [e.elapsed_s * (1.0 - stolen) * 1000.0 for e in report.envelopes if e.ok]
        point_ms.extend(points)
        straggler_ms.append(max(points, default=0.0))
        requests = _simulated_requests(report)

    out.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    # Output check, outside the window: an in-process replay of the seed.
    serial, report, _, _ = _ladder(seed, scale, "serial", 0)
    if report.failed or serial != reference:
        out.fail("process-backend ladder differs from the in-process replay", len(report.envelopes))
    out.digests["results_json"] = digest(reference or b"")

    ladder_ms = median(ladder_s) * 1000.0
    out.metrics["setup_s"] = (setup_s, "s")
    out.metrics["primary_ms"] = (ladder_ms, "ms")
    out.metrics["secondary_ms"] = (percentile(point_ms, 50), "ms")
    out.metrics["tertiary_ms"] = (median(straggler_ms), "ms")
    out.figures["replay_req_per_s"] = (requests / (ladder_ms / 1000.0), "req/s")
    out.figures["stolen_share"] = (sum(stolen_shares) / len(stolen_shares), "ratio")
    out.figures["ladders"] = (float(len(ladder_s)), "count")
    out.figures["points"] = (float(len(point_ms)), "count")
    out.samples["ladder_s"] = ladder_s
    out.samples["point_ms"] = point_ms
    out.samples["straggler_ms"] = straggler_ms
    out.figures["point_p90_ms"] = (out.tail(point_ms, "ladder points"), "ms")
    return out


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def _install_spans(tracer: Tracer) -> None:
    from repro.simulation.statistics import ResponseTimeStats
    from repro.simulation.system import StorageSystem
    from repro.workloads.catalog import WorkloadSpec

    def after_generate(trace: Any, *args: Any, **kwargs: Any) -> None:
        tracer.count("workloads.requests", float(len(trace)))

    def after_run(report: Any, system: Any, *args: Any, **kwargs: Any) -> None:
        tracer.count("simulation.events_fired", float(system.events.events_fired))

    tracer.patch(WorkloadSpec, "generate", "workloads.generate", after_generate)
    tracer.patch(WorkloadSpec, "build_system", "simulation.build")
    tracer.patch(StorageSystem, "run_trace", "simulation.run_trace", after_run)
    for method in ("mean_ms", "median_ms", "percentile_ms", "max_ms", "cdf"):
        tracer.patch(ResponseTimeStats, method, "simulation.stats")


def _run_traced(seed: int, scale: str) -> Outcome:
    from repro.simulation.sweep import build_workload_tasks

    out = Outcome()
    shape = SCALES[scale]
    _ladder(seed + 1, "tiny", "process", WORKERS)  # untimed: parent-side lazy imports
    data, report, wall, _ = _ladder(seed, scale, "process", WORKERS)
    tasks = build_workload_tasks(
        list(NAMES), rpm_steps=shape["rpm_steps"], requests=shape["requests"], seed=seed
    )
    out.metrics.update(backend_figures([report], [wall], WORKERS, tasks))

    tracers: List[Tracer] = []

    def traced_ladder() -> Tuple[bytes, Any, float, float]:
        tracer = Tracer(run_id=f"replay-ladder-{seed}-{len(tracers)}")
        tracers.append(tracer)
        _install_spans(tracer)
        try:
            with tracer.span("sweep.ladder"):
                return _ladder(seed, scale, "serial", 0)
        finally:
            tracer.restore()

    plains, traceds, plain_wall, traced_wall = abba(
        lambda: _ladder(seed, scale, "serial", 0), traced_ladder, pairs=2
    )
    for name, (other, other_report, _, _) in [("process", (data, report, wall, 0.0))] + [
        ("in-process", r) for r in plains + traceds
    ]:
        points = len(other_report.envelopes)
        out.attempted += points
        if other_report.failed or other != data:
            out.fail(f"{name} ladder failed or differs from the process-backend ladder", points)
    out.digests["results_json"] = digest(data)

    tracer = tracers[0]
    self_s = tracer.self_times()
    run_s = self_s.get("simulation.run_trace", 0.0)
    events = tracer.counts.get("simulation.events_fired", 0.0)
    out.metrics.update(
        {
            "workloads.generate_s": (self_s.get("workloads.generate", 0.0), "s"),
            "workloads.requests": (tracer.counts.get("workloads.requests", 0.0), "count"),
            "simulation.build_s": (self_s.get("simulation.build", 0.0), "s"),
            "simulation.run_trace_s": (run_s, "s"),
            "simulation.stats_s": (self_s.get("simulation.stats", 0.0), "s"),
            "simulation.events_fired": (events, "count"),
            "simulation.host_us_per_event": (run_s / events * 1e6 if events else 0.0, "us"),
            "trace.untraced_wall_s": (plain_wall, "s"),
            "trace.traced_wall_s": (traced_wall, "s"),
            "trace.overhead_s": (traced_wall - plain_wall, "s"),
        }
    )
    out.spans = tracer.spans()
    return out
