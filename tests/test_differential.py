"""Differential sweep matrix: every execution mode, one set of bytes.

PR 1 established serial == parallel; PR 4 extended it to fault-injected
runs; this suite extends it to the result store.  For each workload the
same sweep is executed six ways —

* **serial** (in-process, no store),
* **parallel** (2-worker process pool, no store),
* **fault-injected** (serial and parallel, deterministic fault plan),
* **cold store** (empty store: all misses, results persisted),
* **warm store** (same store: all hits, nothing computed),
* **resumed** (store pre-populated with *part* of the sweep, simulating
  a run that crashed halfway; the rest recomputed)

— and all of them must serialize to byte-identical canonical result JSON
(:func:`repro.simulation.sweep.results_json_bytes`).  Anything weaker
than byte equality would let a lossy codec or an unstable serialization
hide behind float tolerances.

The pluggable-backend PR widens the matrix along a second axis: the same
contract must hold under every execution backend (``serial``,
``process``, ``shared-store``) × {cold, warm, resumed, fault-injected},
and — because results are content-addressed by *configuration*, never by
transport — entries written under one backend must be warm hits under
every other.
"""

from __future__ import annotations

import pytest

from repro.faults import FaultConfig
from repro.simulation.sweep import (
    build_workload_tasks,
    results_json_bytes,
    sweep_workloads,
    sweep_workloads_resilient,
    workload_sweep_kind,
)
from repro.store import ResultStore
from tests.sweep_kinds import process_pool

#: ≥3 catalog workloads, as the differential contract requires.
WORKLOADS = ["tpcc", "oltp", "openmail"]

#: Small but non-trivial: two spindle speeds, a few hundred requests.
RPMS = [10000.0, 15000.0]
REQUESTS = 250
SEED = 7


def _sweep_kwargs(name: str) -> dict:
    return dict(names=[name], rpms=RPMS, requests=REQUESTS, seed=SEED)


def _matrix_sweep(backend, store, **kwargs):
    """One strict two-worker sweep on ``backend``, asserting it ran there.

    The ``process`` row gets a ready pool: these sweeps cost less than a
    pool, so a ``process`` request by name would run in-process and the
    row would compare serial with serial.
    """
    spec = backend
    if backend == "process":
        spec = process_pool(workload_sweep_kind(), build_workload_tasks(**kwargs))
    results, report = sweep_workloads_resilient(
        workers=2, store=store, backend=spec, retries=0, **kwargs
    )
    report.raise_on_failure()
    assert report.backend == backend
    return results


@pytest.mark.parametrize("name", WORKLOADS)
def test_differential_matrix(name, tmp_path):
    kwargs = _sweep_kwargs(name)

    serial = sweep_workloads(workers=0, **kwargs)
    parallel = _matrix_sweep("process", None, **kwargs)

    cold_store = ResultStore(root=tmp_path / "cold")
    cold = _matrix_sweep("process", cold_store, **kwargs)
    assert cold_store.hits == 0 and cold_store.puts == len(serial)

    warm = sweep_workloads(workers=0, store=cold_store, **kwargs)
    assert cold_store.hits == len(serial), "warm run must be all hits"

    # Resume-after-crash: a store holding only the first point, as if the
    # original run died after completing one task.  (Results persist as
    # they finish, so a killed run really does leave exactly this state.)
    crashed_store = ResultStore(root=tmp_path / "crashed")
    sweep_workloads(
        names=[name], rpms=RPMS[:1], requests=REQUESTS, seed=SEED,
        workers=0, store=crashed_store,
    )
    assert crashed_store.puts == 1
    resumed = _matrix_sweep("process", crashed_store, **kwargs)
    assert crashed_store.hits == 1, "the surviving point must be a hit"

    reference = results_json_bytes(serial)
    for label, run in (
        ("parallel", parallel),
        ("cold-store", cold),
        ("warm-store", warm),
        ("resumed", resumed),
    ):
        assert results_json_bytes(run) == reference, (
            f"{label} run of {name} diverged from the serial bytes"
        )


@pytest.mark.parametrize("name", WORKLOADS)
def test_differential_matrix_fault_injected(name, tmp_path):
    """The same matrix under deterministic fault injection."""
    fault = FaultConfig(seed=3, media_rate=0.05, servo_rate=0.01)
    kwargs = dict(_sweep_kwargs(name), fault_config=fault)

    serial = sweep_workloads(workers=0, **kwargs)
    parallel = _matrix_sweep("process", None, **kwargs)
    store = ResultStore(root=tmp_path / "store")
    cold = _matrix_sweep("process", store, **kwargs)
    warm = sweep_workloads(workers=0, store=store, **kwargs)
    assert store.hits == len(serial)

    assert any((r.fault_summary or {}).get("total_injected", 0) > 0
               for r in serial), "fault plan must actually inject"
    reference = results_json_bytes(serial)
    for label, run in (
        ("parallel", parallel), ("cold-store", cold), ("warm-store", warm),
    ):
        assert results_json_bytes(run) == reference, (
            f"fault-injected {label} run of {name} diverged"
        )


def test_fault_config_is_part_of_the_key(tmp_path):
    """A faulty and a healthy replay of the same point must never share
    a cache entry — the fault plan is a material key field."""
    store = ResultStore(root=tmp_path)
    healthy = sweep_workloads(
        workers=0, store=store, **_sweep_kwargs("tpcc")
    )
    injected = sweep_workloads(
        workers=0, store=store,
        fault_config=FaultConfig(seed=3, media_rate=0.05),
        **_sweep_kwargs("tpcc"),
    )
    assert store.hits == 0, "different fault plans must not collide"
    assert results_json_bytes(healthy) != results_json_bytes(injected)


def test_resilient_path_matches_strict_path_bytes(tmp_path):
    """The partial-results executor (with store) produces the same bytes
    as the strict one, holes permitting."""
    kwargs = _sweep_kwargs("tpcc")
    strict = sweep_workloads(workers=0, **kwargs)
    store = ResultStore(root=tmp_path)
    with_holes, report = sweep_workloads_resilient(
        workers=2, store=store, **kwargs
    )
    assert report.ok_count == len(strict)
    assert results_json_bytes(with_holes) == results_json_bytes(strict)
    # The manifest's store section names every task key.
    tasks = build_workload_tasks(**kwargs)
    manifest = report.manifest(task_labels=[t.label() for t in tasks])
    assert manifest["store"]["misses"] == len(tasks)
    assert len(manifest["store"]["task_keys"]) == len(tasks)


def test_telemetry_snapshots_round_trip_byte_identically(tmp_path):
    """Telemetry-instrumented results (the heaviest payloads: metric
    snapshots, event traces, probe series) survive the store exactly."""
    kwargs = dict(
        names=["tpcc"], rpms=RPMS[:1], requests=200, seed=SEED,
        telemetry=True, probe_interval_ms=50.0, trace_capacity=512,
    )
    direct = sweep_workloads(workers=0, **kwargs)
    store = ResultStore(root=tmp_path)
    sweep_workloads(workers=0, store=store, **kwargs)
    cached = sweep_workloads(workers=0, store=store, **kwargs)
    assert store.hits == 1
    assert results_json_bytes(cached) == results_json_bytes(direct)
    assert cached[0].telemetry is not None


# ---------------------------------------------------------------------------
# Cross-backend matrix: every backend, the same bytes (tentpole gate)
# ---------------------------------------------------------------------------

BACKENDS = ("serial", "process", "shared-store")


@pytest.mark.parametrize("backend", BACKENDS)
def test_cross_backend_matrix(backend, tmp_path):
    """{cold, warm, resumed, fault-injected} under each backend must all
    reproduce the serial reference bytes."""
    kwargs = _sweep_kwargs("tpcc")
    reference = results_json_bytes(sweep_workloads(workers=0, **kwargs))

    cold_store = ResultStore(root=tmp_path / "cold")
    cold = _matrix_sweep(backend, cold_store, **kwargs)
    assert cold_store.hits == 0 and cold_store.puts == len(RPMS)
    warm = _matrix_sweep(backend, cold_store, **kwargs)
    assert cold_store.hits == len(RPMS), "warm run must be all hits"
    assert cold_store.puts == len(RPMS), "warm run must compute nothing"

    crashed_store = ResultStore(root=tmp_path / "crashed")
    sweep_workloads(
        names=["tpcc"], rpms=RPMS[:1], requests=REQUESTS, seed=SEED,
        workers=0, store=crashed_store,
    )
    resumed = _matrix_sweep(backend, crashed_store, **kwargs)
    assert crashed_store.hits == 1, "the surviving point must be a hit"

    fault = FaultConfig(seed=3, media_rate=0.05, servo_rate=0.01)
    fault_reference = results_json_bytes(
        sweep_workloads(workers=0, fault_config=fault, **kwargs)
    )
    fault_store = ResultStore(root=tmp_path / "fault")
    injected = _matrix_sweep(backend, fault_store, fault_config=fault, **kwargs)

    for label, run, want in (
        ("cold", cold, reference),
        ("warm", warm, reference),
        ("resumed", resumed, reference),
        ("fault-injected", injected, fault_reference),
    ):
        assert results_json_bytes(run) == want, (
            f"{label} run on the {backend} backend diverged"
        )


def test_backend_is_not_part_of_the_key(tmp_path):
    """Entries written under one backend must be warm hits under every
    other — transport choice never enters the content key."""
    store = ResultStore(root=tmp_path)
    kwargs = _sweep_kwargs("oltp")
    cold = sweep_workloads(workers=0, store=store, backend="serial", **kwargs)
    assert store.puts == len(cold) and store.hits == 0
    reference = results_json_bytes(cold)
    for other in ("process", "shared-store"):
        warm = sweep_workloads(workers=2, store=store, backend=other, **kwargs)
        assert results_json_bytes(warm) == reference, (
            f"warm {other} run diverged from the serial-written entries"
        )
    assert store.hits == 2 * len(cold), "every backend must hit peer entries"
    assert store.puts == len(cold), "cross-backend warm runs computed nothing"


def test_resilient_report_records_backend(tmp_path):
    """The manifest (schema /2) names the backend that actually ran; the
    store section is unchanged by the backend choice."""
    store = ResultStore(root=tmp_path)
    kwargs = _sweep_kwargs("tpcc")
    _, report = sweep_workloads_resilient(
        workers=2, store=store, backend="shared-store", **kwargs
    )
    assert report.backend == "shared-store"
    manifest = report.manifest()
    assert manifest["schema"] == "repro.sweep_manifest/2"
    assert manifest["backend"] == "shared-store"
    assert manifest["store"]["misses"] == len(RPMS)


# ---------------------------------------------------------------------------
# Fleet matrix: rack tasks under every backend, one set of bytes
# ---------------------------------------------------------------------------


def _fleet_tasks():
    """A 3-enclosure fleet with every feature lit: recirculation,
    tiering, deterministic faults."""
    from repro.fleet import TieringPolicy, build_rack_tasks, uniform_fleet

    fleet = uniform_fleet(
        racks=2, enclosures_per_rack=3, drives_per_enclosure=2,
        recirculation=0.3,
    )
    return build_rack_tasks(
        fleet,
        tiering=TieringPolicy(extents=24, seed=5),
        fault_config=FaultConfig(seed=3, media_rate=0.05, servo_rate=0.01),
        accesses_per_drive=64,
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_fleet_cross_backend_matrix(backend, tmp_path):
    """A fleet sweep's canonical results JSON must be byte-identical
    across {cold, warm, resumed} on every execution backend."""
    from repro.fleet import fleet_results_json_bytes, run_fleet_sweep

    from repro.fleet.sweep import fleet_sweep_kind

    tasks = _fleet_tasks()
    serial_results, _ = run_fleet_sweep(tasks, backend="serial")
    reference = fleet_results_json_bytes(serial_results)

    def sweep(store):
        # A ready pool for the process row, as in _matrix_sweep.
        spec = process_pool(fleet_sweep_kind(), tasks) if backend == "process" else backend
        results, report = run_fleet_sweep(
            tasks, workers=2, store=store, backend=spec
        )
        assert report.backend == backend
        return results, report

    cold_store = ResultStore(root=tmp_path / "cold")
    cold, cold_report = sweep(cold_store)
    assert cold_report.store_misses == len(tasks)
    warm, warm_report = sweep(cold_store)
    assert warm_report.store_hits == len(tasks), "warm run must be all hits"

    # Resume-after-crash: only the first rack survived the original run.
    crashed_store = ResultStore(root=tmp_path / "crashed")
    run_fleet_sweep(tasks[:1], store=crashed_store, backend="serial")
    assert crashed_store.puts == 1
    resumed, resumed_report = sweep(crashed_store)
    assert resumed_report.store_hits == 1, "the surviving rack must be a hit"

    for label, run in (
        ("cold", cold), ("warm", warm), ("resumed", resumed),
    ):
        assert fleet_results_json_bytes(run) == reference, (
            f"fleet {label} run on the {backend} backend diverged"
        )


def test_fleet_task_keys_are_backend_independent(tmp_path):
    """Fleet entries written under one backend must be warm hits under
    every other — and the key never mentions the backend at all."""
    from repro.fleet import fleet_results_json_bytes, fleet_task_key, run_fleet_sweep

    tasks = _fleet_tasks()
    keys = [fleet_task_key(t) for t in tasks]
    assert len(set(keys)) == len(keys), "rack keys must be distinct"

    store = ResultStore(root=tmp_path)
    cold, _ = run_fleet_sweep(tasks, store=store, backend="serial")
    reference = fleet_results_json_bytes(cold)
    for other in ("process", "shared-store"):
        warm, report = run_fleet_sweep(
            tasks, workers=2, store=store, backend=other
        )
        assert [fleet_task_key(t) for t in tasks] == keys
        assert report.store_hits == len(tasks), (
            f"{other} run must hit the serial-written entries"
        )
        assert fleet_results_json_bytes(warm) == reference
    assert store.puts == len(tasks), "cross-backend warm runs computed nothing"
