"""Fast-engine differential gates.

``auto`` means analytic where the analytic engine accepts the task and
the exact event-driven simulator otherwise, so wherever it lands on
exact it must produce exact's bytes; the analytic engine claims a
documented tolerance.  This suite holds both to their claims across the
whole workload catalog and several spindle speeds, and pins the
selection rules: fault injection forces the exact engine, RAID-5 and
high-sequentiality workloads refuse the analytic engine, a runtime
refusal sends ``auto`` to exact, and a pure-analytic sweep never spawns
a process pool.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import SimulationError
from repro.faults import FaultConfig
from repro.simulation import fastpath
from repro.simulation.fastpath import (
    ANALYTIC_HIT_RATIO_ATOL,
    ANALYTIC_MEAN_RTOL,
    ANALYTIC_P95_RTOL,
    ANALYTIC_UTILIZATION_ATOL,
    ENGINES,
    EngineRefused,
    decide_engine,
    run_fast_task,
)
from repro.simulation.resilience import plan_dispatch
from repro.simulation.sweep import (
    WorkloadTask,
    _run_workload_task,
    build_workload_tasks,
    results_json_bytes,
    sweep_workloads,
    workload_task_key,
    workload_result_from_payload,
    workload_result_to_payload,
    workload_sweep_kind,
)
from repro.workloads import catalog

#: Every catalog workload, as the tentpole contract requires.
ALL_WORKLOADS = sorted(catalog())
#: At least three RPM points per workload.
RPMS = [10000.0, 15000.0, 20000.0]
REQUESTS = 400
SEED = 7

#: Workloads the analytic engine accepts (non-RAID-5, low sequentiality).
ANALYTIC_OK = ["oltp", "search_engine"]
#: Workloads it refuses: RAID-5 (tpcc, openmail) and too sequential (tpch).
ANALYTIC_REFUSED = ["openmail", "tpcc", "tpch"]


def _task(workload: str, rpm: float, **kwargs) -> WorkloadTask:
    base = dict(workload=workload, rpm=rpm, requests=REQUESTS, seed=SEED)
    base.update(kwargs)
    return WorkloadTask(**base)


# ---------------------------------------------------------------------------
# auto: analytic where accepted, else exact's bytes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", ALL_WORKLOADS)
@pytest.mark.parametrize("rpm", RPMS)
def test_auto_is_analytic_or_byte_identical_to_exact(workload, rpm):
    auto = _run_workload_task(_task(workload, rpm, engine="auto"))
    if workload in ANALYTIC_OK:
        assert auto.engine == "analytic"
        analytic = _run_workload_task(_task(workload, rpm, engine="analytic"))
        assert results_json_bytes([auto]) == results_json_bytes([analytic])
        return
    exact = _run_workload_task(_task(workload, rpm))
    # Engine label included: auto's fallback is the exact engine itself.
    assert auto.engine == "exact"
    assert results_json_bytes([auto]) == results_json_bytes([exact])


def test_auto_keep_samples_lands_on_exact():
    exact = _run_workload_task(_task("oltp", 15000.0, keep_samples=True))
    auto = _run_workload_task(
        _task("oltp", 15000.0, keep_samples=True, engine="auto")
    )
    assert auto.engine == "exact"
    assert len(auto.samples_ms) == REQUESTS
    assert auto.samples_ms == exact.samples_ms
    assert results_json_bytes([auto]) == results_json_bytes([exact])


def test_runtime_refusal_sends_auto_to_exact(monkeypatch):
    """A task the static plan accepts but whose measured utilization
    reaches the runtime limit: ``auto`` runs exact, ``analytic`` raises."""
    monkeypatch.setattr(fastpath, "ANALYTIC_MAX_RHO_RUNTIME", 1e-6)
    assert decide_engine(_task("oltp", 15000.0, engine="auto")) == "analytic"
    exact = _run_workload_task(_task("oltp", 15000.0))
    auto = _run_workload_task(_task("oltp", 15000.0, engine="auto"))
    assert auto.engine == "exact"
    assert results_json_bytes([auto]) == results_json_bytes([exact])
    with pytest.raises(EngineRefused, match="utilization"):
        _run_workload_task(_task("oltp", 15000.0, engine="analytic"))


# ---------------------------------------------------------------------------
# Analytic engine: tolerance contract
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", ANALYTIC_OK)
@pytest.mark.parametrize("rpm", RPMS)
def test_analytic_within_documented_tolerance(workload, rpm):
    exact = _run_workload_task(_task(workload, rpm, requests=1500))
    estimate = _run_workload_task(
        _task(workload, rpm, requests=1500, engine="analytic")
    )
    assert estimate.engine == "analytic"
    assert estimate.mean_ms == pytest.approx(
        exact.mean_ms, rel=ANALYTIC_MEAN_RTOL
    )
    assert estimate.p95_ms == pytest.approx(exact.p95_ms, rel=ANALYTIC_P95_RTOL)
    assert estimate.max_utilization == pytest.approx(
        exact.max_utilization, abs=ANALYTIC_UTILIZATION_ATOL
    )
    assert estimate.cache_hit_ratio == pytest.approx(
        exact.cache_hit_ratio, abs=ANALYTIC_HIT_RATIO_ATOL
    )
    # The estimator must still describe the same sweep point.
    assert (estimate.workload, estimate.rpm, estimate.seed) == (
        exact.workload,
        exact.rpm,
        exact.seed,
    )
    assert estimate.requests == exact.requests


def test_analytic_ladder_at_least_ten_times_faster_than_exact():
    """The analytic engine's reason to exist: on the full 99-point oltp
    ladder it beats the exact engine by >= 10x, serial on both sides.
    The exact side runs 8 rungs and is extrapolated to 99 (a measured
    per-rung constant times the rung count); each side takes the minimum
    of interleaved runs, so the ratio compares loops, not host noise."""
    rpms = [6000.0 + 200.0 * i for i in range(99)]
    exact_points = 8
    exact_s, analytic_s = [], []
    for _ in range(2):
        start = time.perf_counter()
        sweep_workloads(["oltp"], rpms=rpms[:exact_points], requests=4000,
                        workers=0)
        exact_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        analytic = sweep_workloads(["oltp"], rpms=rpms, requests=4000,
                                   workers=0, engine="analytic")
        analytic_s.append(time.perf_counter() - start)
    assert {r.engine for r in analytic} == {"analytic"}
    speedup = min(exact_s) * (len(rpms) / exact_points) / min(analytic_s)
    assert speedup >= 10.0, f"analytic ladder only {speedup:.1f}x faster"


@pytest.mark.parametrize(
    "workload, fragment",
    [
        ("tpcc", "RAID-5"),
        ("openmail", "RAID-5"),
        ("tpch", "sequential fraction"),
    ],
)
def test_analytic_refuses_unqualified_workloads(workload, fragment):
    with pytest.raises(EngineRefused, match=fragment):
        _run_workload_task(_task(workload, 15000.0, engine="analytic"))


def test_analytic_refuses_keep_samples():
    with pytest.raises(EngineRefused, match="samples"):
        decide_engine(_task("oltp", 15000.0, keep_samples=True, engine="analytic"))


# ---------------------------------------------------------------------------
# Selection rules / fallback
# ---------------------------------------------------------------------------


def test_fault_injection_forces_exact_engine():
    faults = FaultConfig(seed=3, media_rate=0.05)
    exact = _run_workload_task(_task("oltp", 15000.0, fault_config=faults))
    auto = _run_workload_task(
        _task("oltp", 15000.0, fault_config=faults, engine="auto")
    )
    assert auto.engine == "exact"
    assert results_json_bytes([auto]) == results_json_bytes([exact])
    with pytest.raises(EngineRefused, match="fault injection"):
        _run_workload_task(
            _task("oltp", 15000.0, fault_config=faults, engine="analytic")
        )


def test_auto_prefers_analytic_then_exact():
    assert decide_engine(_task("oltp", 15000.0, engine="auto")) == "analytic"
    # too sequential for analytic
    assert decide_engine(_task("tpch", 15000.0, engine="auto")) == "exact"
    # RAID-5 phased plans
    assert decide_engine(_task("tpcc", 15000.0, engine="auto")) == "exact"
    # keep_samples: the analytic engine has no per-request samples
    assert (
        decide_engine(_task("oltp", 15000.0, keep_samples=True, engine="auto"))
        == "exact"
    )


def test_run_fast_task_returns_none_for_exact_plans():
    for workload in ANALYTIC_REFUSED:
        assert run_fast_task(_task(workload, 15000.0, engine="auto")) is None
    assert run_fast_task(_task("oltp", 15000.0)) is None
    assert run_fast_task(_task("oltp", 15000.0, engine="auto")).engine == "analytic"


def test_build_workload_tasks_refuses_unknown_engine():
    with pytest.raises(SimulationError, match="unknown engine 'vectorized'"):
        build_workload_tasks(["oltp"], engine="vectorized")


def test_pure_analytic_sweep_spawns_no_pool(monkeypatch):
    """--engine analytic must never pay for a process pool (satellite 3)."""
    import repro.simulation.backends.process as backend_process

    class _Forbidden:
        def __init__(self, *args, **kwargs):
            raise AssertionError("process pool spawned for analytic sweep")

    monkeypatch.setattr(backend_process, "ProcessPoolExecutor", _Forbidden)
    results = sweep_workloads(
        names=["oltp"],
        rpms=RPMS,
        requests=REQUESTS,
        seed=SEED,
        workers=4,  # would spawn a pool for any simulation engine
        engine="analytic",
    )
    assert [r.engine for r in results] == ["analytic"] * len(RPMS)


def test_mixed_engine_sweep_still_allowed_to_pool():
    """The dispatch rule keeps the workers of a sweep with exact replays
    and runs an all-analytic one in-process.  Both are priced at the
    CLI's default 4000 requests (pricing runs nothing): at 400 even the
    exact replays cost less than a pool."""
    kind = workload_sweep_kind()
    tasks = build_workload_tasks(
        names=["oltp", "tpch"], rpms=RPMS, requests=4000, engine="auto"
    )
    assert {decide_engine(task) for task in tasks} == {"analytic", "exact"}
    assert plan_dispatch(kind, tasks, "process", 4, None)[0] == "process"
    analytic_only = build_workload_tasks(
        names=["oltp"], rpms=RPMS, requests=4000, engine="analytic"
    )
    assert plan_dispatch(kind, analytic_only, "process", 4, None)[0] == "serial"


# ---------------------------------------------------------------------------
# Store keys and codec
# ---------------------------------------------------------------------------


def test_engine_is_part_of_the_task_key():
    keys = {
        workload_task_key(_task("oltp", 15000.0, engine=engine))
        for engine in ENGINES
    }
    assert len(keys) == len(ENGINES) == 3, (
        "each engine must address distinct store entries"
    )


def test_result_payload_roundtrips_engine():
    result = _run_workload_task(_task("oltp", 15000.0, engine="analytic"))
    back = workload_result_from_payload(workload_result_to_payload(result))
    assert back == result
    assert back.engine == "analytic"


# ---------------------------------------------------------------------------
# The exact path must survive a numpy-less environment
# ---------------------------------------------------------------------------


def test_exact_path_runs_without_numpy(tmp_path):
    """A stub numpy that refuses to import must not break the exact engine."""
    stub = tmp_path / "numpy.py"
    stub.write_text("raise ImportError('numpy disabled for this test')\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        "from repro.simulation.fastpath import have_numpy\n"
        "assert not have_numpy()\n"
        "from repro.simulation.sweep import WorkloadTask, _run_workload_task\n"
        "r = _run_workload_task(WorkloadTask(workload='oltp', rpm=15000.0,"
        " requests=60, seed=1))\n"
        "assert r.engine == 'exact' and r.requests == 60\n"
        "t = WorkloadTask(workload='oltp', rpm=15000.0, requests=60, seed=1,"
        " engine='auto')\n"
        "r = _run_workload_task(t)\n"
        "assert r.engine == 'exact', r.engine\n"
        "print('ok')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": f"{tmp_path}:{src}", "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
