"""``fleet-thermal``: thermal roadmap, then a cold and a warm fleet pass.

One cycle runs three phases in order:

1. thermal: the Figure 2 roadmap through ``sweep_roadmap`` (3 platter
   counts x 11 years) plus seeded cooling-sensitivity variants through
   ``thermal_roadmap(ambient_c=...)``;
2. cold: seeded 1008-drive fleets (``uniform_fleet(14, 6, 12)`` with a
   seeded recirculation, cooling budget and tiering) through
   ``run_fleet_sweep`` on the process backend with two workers, into a
   fresh ``ResultStore`` under ``perfbench/out``;
3. warm: the identical task lists again (all store hits), then
   ``fleet_results_json_bytes`` for each fleet.

Warm bytes must equal cold bytes, every cycle must reproduce the first,
and after the window an in-process serial run without a store must
reproduce both the roadmap and the fleet documents.  Phase times are
host time net of stolen CPU (``common.net_s``).  Seeded parameters
are stratified (one draw per equal-width band), so the work per pass
barely moves between seeds.
"""

from __future__ import annotations

import dataclasses
import os
import random
import time
from typing import Any, Dict, List, Tuple

from common import (
    WORKERS,
    Outcome,
    backend_figures,
    digest,
    mark,
    median,
    net_s,
    peak_rss_mb,
    remove_dir,
    scratch_dir,
    steal_share,
    time_setup,
)
from tracing import Tracer, abba

SCALES = {
    "full": {"fleets": 4, "variants": 4, "racks": 14, "enclosures": 6, "drives": 12},
    "tiny": {"fleets": 2, "variants": 1, "racks": 2, "enclosures": 4, "drives": 3},
}

PLATTER_COUNTS = (1, 2, 4)


def _bands(rng: random.Random, count: int, lo: float, hi: float) -> List[float]:
    """One uniform draw in each of ``count`` equal bands of [lo, hi),
    in a seeded order."""
    values = [lo + (hi - lo) * (i + rng.random()) / count for i in range(count)]
    rng.shuffle(values)
    return values


def make_inputs(seed: int, scale: str) -> Dict[str, Any]:
    """Every input of the workload, from the seed alone."""
    from repro.fleet import TieringPolicy, build_rack_tasks, uniform_fleet

    shape = SCALES[scale]
    rng = random.Random(f"fleet-thermal/{seed}")
    count = shape["fleets"]
    recirculation = _bands(rng, count, 0.10, 0.35)
    budget = _bands(rng, count, 220.0, 380.0)
    extents = _bands(rng, count, 24.0, 96.0)
    fleets = []
    for index in range(count):
        fleet = uniform_fleet(
            shape["racks"],
            shape["enclosures"],
            shape["drives"],
            cooling_budget_w=round(budget[index], 1),
            recirculation=round(recirculation[index], 3),
        )
        tiering = TieringPolicy(extents=int(extents[index]), seed=rng.randrange(2**31))
        fleets.append(build_rack_tasks(fleet, tiering=tiering))
    deltas = _bands(rng, shape["variants"], -2.0, 2.0)
    variants = [
        (PLATTER_COUNTS[i % len(PLATTER_COUNTS)], round(deltas[i], 2))
        for i in range(shape["variants"])
    ]
    drives = sum(task.rack.drive_count for tasks in fleets for task in tasks)
    return {"fleets": fleets, "variants": variants, "drives": drives}


def _thermal_phase(inputs: Dict[str, Any], backend: str, workers: int) -> Tuple[bytes, int]:
    from repro.scaling import roadmap
    from repro.simulation.sweep import sweep_roadmap
    from repro.store import stable_json

    panels = sweep_roadmap(PLATTER_COUNTS, workers=workers, backend=backend)
    points = [p for count in PLATTER_COUNTS for p in panels[count]]
    for platter_count, delta in inputs["variants"]:
        ambient = roadmap.cooling_budget_ambient_c(platter_count) + delta
        points.extend(roadmap.thermal_roadmap(platter_count=platter_count, ambient_c=ambient))
    data = stable_json([dataclasses.asdict(p) for p in points]).encode("utf-8")
    return data, len(points)


def _fleet_pass(fleets: List[Any], store: Any, backend: str, workers: int) -> Tuple[List[Any], List[Any]]:
    from repro.fleet import sweep as fleet_sweep

    outputs, reports = [], []
    for tasks in fleets:
        results, report = fleet_sweep.run_fleet_sweep(
            tasks, workers=workers, backend=backend, store=store
        )
        outputs.append(results)
        reports.append(report)
    return outputs, reports


def _documents(outputs: List[Any]) -> List[bytes]:
    from repro.fleet import sweep as fleet_sweep

    return [fleet_sweep.fleet_results_json_bytes(results) for results in outputs]


def _cycle(inputs: Dict[str, Any], backend: str, workers: int, out: Outcome) -> Dict[str, Any]:
    """One thermal -> cold -> warm cycle; returns its timings and bytes."""
    from repro.store import ResultStore

    fleets = inputs["fleets"]
    racks = sum(len(tasks) for tasks in fleets)
    store_dir = scratch_dir("fleet-store-")
    try:
        t0 = mark()
        thermal, points = _thermal_phase(inputs, backend, workers)
        t1 = mark()
        store = ResultStore(root=store_dir)
        cold, cold_reports = _fleet_pass(fleets, store, backend, workers)
        t2 = mark()
        warm, warm_reports = _fleet_pass(fleets, store, backend, workers)
        warm_docs = _documents(warm)
        t3 = mark()
    finally:
        remove_dir(store_dir)
    cold_docs = _documents(cold)
    out.attempted += len(PLATTER_COUNTS) + len(inputs["variants"]) + 2 * racks
    failed = sum(len(r.failed) for r in cold_reports + warm_reports)
    if failed:
        out.fail(f"{failed} rack task(s) failed", failed)
    hits = sum(r.store_hits for r in warm_reports)
    if hits != racks:
        out.fail(f"warm pass served {hits}/{racks} racks from the store", racks - hits)
    if warm_docs != cold_docs:
        out.fail("warm fleet documents differ from cold", len(fleets))
    return {
        "thermal_s": net_s(t0, t1),
        "cold_s": net_s(t1, t2),
        "warm_s": net_s(t2, t3),
        "stolen": steal_share(t0, t3),
        "thermal": thermal,
        "points": points,
        "docs": cold_docs,
        "cold_reports": cold_reports,
    }


def _reference(inputs: Dict[str, Any], first: Dict[str, Any], out: Outcome) -> None:
    """In-process serial run without a store must reproduce the cycle."""
    thermal, _ = _thermal_phase(inputs, "serial", 0)
    if thermal != first["thermal"]:
        out.fail("process-backend roadmap differs from the in-process run")
    docs = _documents(_fleet_pass(inputs["fleets"], None, "serial", 0)[0])
    if docs != first["docs"]:
        out.fail("fleet documents differ from the in-process run", len(docs))
    out.digests["roadmap_points"] = digest(first["thermal"])
    for index, doc in enumerate(first["docs"]):
        out.digests[f"fleet{index}"] = digest(doc)


def run(seed: int, seconds: float, trace: bool, scale: str) -> Outcome:
    inputs = make_inputs(seed, scale)
    if trace:
        return _run_traced(inputs, seed)
    out = Outcome()
    setup_dir = scratch_dir("fleet-setup-")
    try:
        setup_s = time_setup("fleet", [setup_dir])
    finally:
        remove_dir(setup_dir)

    # The first cycle is untimed (lazy imports) and is the one every timed
    # cycle must reproduce.
    first = _cycle(inputs, "process", WORKERS, out)
    cycles: List[Dict[str, float]] = []
    window_start = time.perf_counter()
    while not cycles or time.perf_counter() - window_start < seconds:
        cycle = _cycle(inputs, "process", WORKERS, out)
        if (cycle["thermal"], cycle["docs"]) != (first["thermal"], first["docs"]):
            out.fail("cycle outputs differ between repetitions")
        # keep only the timings, so the heap does not grow with the window
        cycles.append({k: cycle[k] for k in ("thermal_s", "cold_s", "warm_s", "stolen")})
    out.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    _reference(inputs, first, out)

    cold_ms = median([c["cold_s"] for c in cycles]) * 1000.0
    warm_ms = median([c["warm_s"] for c in cycles]) * 1000.0
    thermal_ms = median([c["thermal_s"] for c in cycles]) * 1000.0
    drives = inputs["drives"]
    out.metrics["setup_s"] = (setup_s, "s")
    out.metrics["primary_ms"] = (cold_ms, "ms")
    out.metrics["secondary_ms"] = (warm_ms, "ms")
    out.metrics["tertiary_ms"] = (thermal_ms, "ms")
    out.figures["fleet_cold_drives_per_s"] = (drives / (cold_ms / 1000.0), "drives/s")
    out.figures["fleet_warm_drives_per_s"] = (drives / (warm_ms / 1000.0), "drives/s")
    out.figures["roadmap_points_per_s"] = (first["points"] / (thermal_ms / 1000.0), "pts/s")
    out.figures["stolen_share"] = (sum(c["stolen"] for c in cycles) / len(cycles), "ratio")
    out.figures["cycles"] = (float(len(cycles)), "count")
    for key in ("thermal_s", "cold_s", "warm_s"):
        out.samples[key] = [c[key] for c in cycles]
    return out


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def _install_spans(tracer: Tracer) -> None:
    from repro.fleet import sweep as fleet_sweep
    from repro.scaling import roadmap
    from repro.store import ResultStore

    def after_coordinate(coord: Any, *args: Any, **kwargs: Any) -> None:
        tracer.count("fleet.dtm_rounds", float(coord.rounds))
        tracer.count("fleet.throttle_events", float(len(coord.events)))
        tracer.count("fleet.residual_breaches", float(coord.residual_breaches))

    def after_roadmap(points: Any, *args: Any, **kwargs: Any) -> None:
        tracer.count("scaling.roadmap_points", float(len(points)))

    def after_get(payload: Any, *args: Any, **kwargs: Any) -> None:
        tracer.count("store.hits" if payload is not None else "store.misses")

    def after_put(path: Any, *args: Any, **kwargs: Any) -> None:
        tracer.count("store.bytes_written", float(os.path.getsize(path)))

    def after_document(data: bytes, *args: Any, **kwargs: Any) -> None:
        tracer.count("codec.payload_bytes", float(len(data)))

    tracer.patch(roadmap, "thermal_roadmap", "scaling.roadmap", after_roadmap)
    tracer.patch(roadmap, "cooling_budget_ambient_c", "thermal.cooling_budget")
    tracer.patch(fleet_sweep, "plan_rack_tiering", "fleet.tiering")
    tracer.patch(fleet_sweep, "coordinate_rack", "fleet.coordinate", after_coordinate)
    tracer.patch(fleet_sweep, "fleet_reliability", "fleet.reliability")
    tracer.patch(fleet_sweep, "rack_result_to_payload", "codec.encode")
    tracer.patch(fleet_sweep, "rack_result_from_payload", "codec.decode")
    tracer.patch(fleet_sweep, "fleet_results_json_bytes", "codec.document", after_document)
    tracer.patch(ResultStore, "get", "store.get", after_get)
    tracer.patch(ResultStore, "put", "store.put", after_put)


def _run_traced(inputs: Dict[str, Any], seed: int) -> Outcome:
    out = Outcome()
    _cycle(inputs, "process", WORKERS, out)  # untimed: parent-side lazy imports
    base = _cycle(inputs, "process", WORKERS, out)
    tasks = [task for tasks in inputs["fleets"] for task in tasks]
    out.metrics.update(
        backend_figures(base["cold_reports"], [base["cold_s"]], WORKERS, tasks)
    )
    _cycle(inputs, "serial", 0, out)  # warm the in-process memo caches
    tracers: List[Tracer] = []

    def traced_cycle() -> Dict[str, Any]:
        tracer = Tracer(run_id=f"fleet-thermal-{seed}-{len(tracers)}")
        tracers.append(tracer)
        _install_spans(tracer)
        try:
            with tracer.span("cycle"):
                return _cycle(inputs, "serial", 0, out)
        finally:
            tracer.restore()

    plains, traceds, plain_wall, traced_wall = abba(
        lambda: _cycle(inputs, "serial", 0, out), traced_cycle, pairs=4
    )
    for cycle in plains + traceds:
        if (cycle["thermal"], cycle["docs"]) != (base["thermal"], base["docs"]):
            out.fail("in-process cycle differs from the process-backend cycle")
    out.digests["roadmap_points"] = digest(base["thermal"])
    for index, doc in enumerate(base["docs"]):
        out.digests[f"fleet{index}"] = digest(doc)

    tracer = tracers[0]
    self_s = tracer.self_times()
    hits = tracer.counts.get("store.hits", 0.0)
    misses = tracer.counts.get("store.misses", 0.0)
    for layer in (
        "scaling.roadmap", "thermal.cooling_budget", "fleet.tiering",
        "fleet.coordinate", "fleet.reliability", "codec.encode", "codec.decode",
        "codec.document", "store.get", "store.put",
    ):
        out.metrics[layer + "_s"] = (self_s.get(layer, 0.0), "s")
    for name in (
        "scaling.roadmap_points", "fleet.dtm_rounds", "fleet.throttle_events",
        "fleet.residual_breaches", "store.bytes_written", "codec.payload_bytes",
    ):
        out.metrics[name] = (tracer.counts.get(name, 0.0), "count")
    out.metrics["store.hits"] = (hits, "count")
    out.metrics["store.misses"] = (misses, "count")
    out.metrics["store.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    out.metrics["trace.untraced_wall_s"] = (plain_wall, "s")
    out.metrics["trace.traced_wall_s"] = (traced_wall, "s")
    out.metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    out.spans = tracer.spans()
    return out
