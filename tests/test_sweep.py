"""Tests for the parallel sweep runner (repro.simulation.sweep).

The load-bearing guarantee is that the parallel path is *byte-identical*
to the serial path: same tasks, same pure worker, results assembled in
task order.  These tests exercise that guarantee with a real process pool
(2 workers — works on any host, including single-core CI boxes) on scaled-
down versions of the Figure 2 and Figure 4 sweeps.
"""

import pytest

from repro.errors import SimulationError
from repro.simulation.resilience import run_kind
from repro.simulation.sweep import (
    ROADMAP_YEARS,
    RoadmapTask,
    WorkloadTask,
    _run_workload_task,
    build_workload_tasks,
    resolve_workers,
    roadmap_sweep_kind,
    sweep_roadmap,
    sweep_workloads,
    sweep_workloads_resilient,
    workload_sweep_kind,
)
from tests.sweep_kinds import plain_kind, process_pool


class TestResolveWorkers:
    def test_none_caps_at_task_count(self):
        assert resolve_workers(None, 1) == 1

    def test_explicit_count_respected(self):
        assert resolve_workers(3, 10) == 3

    def test_capped_by_tasks(self):
        assert resolve_workers(8, 2) == 2

    def test_zero_selects_serial_path(self):
        assert resolve_workers(0, 4) == 1

    def test_one_selects_serial_path(self):
        assert resolve_workers(1, 4) == 1

    def test_none_uses_cpu_count_capped_by_tasks(self):
        import os

        expected = min(os.cpu_count() or 1, 64)
        assert resolve_workers(None, 64) == max(1, expected)

    def test_rejects_negative(self):
        with pytest.raises(SimulationError):
            resolve_workers(-1, 4)


class TestRunSweep:
    def test_empty_tasks(self):
        assert _run_strict([], workers=4) == []

    def test_serial_order_preserved(self):
        assert _run_strict([3, 1, 2], workers=1) == [9, 1, 4]

    def test_parallel_order_preserved(self):
        tasks = list(range(20))
        assert _run_strict(tasks, workers=2) == [t * t for t in tasks]


def _square(x):
    return x * x


def _run_strict(tasks, workers):
    report = run_kind(plain_kind(_square), tasks, workers=workers, retries=0)
    report.raise_on_failure()
    return report.ok_results()


class TestRoadmapSweep:
    def test_parallel_matches_serial_exactly(self):
        years = ROADMAP_YEARS[:3]
        serial = sweep_roadmap(platter_counts=(1, 2), years=years, workers=1)
        tasks = [RoadmapTask(platter_count=c, years=years) for c in (1, 2)]
        kind = roadmap_sweep_kind()
        report = run_kind(kind, tasks, backend=process_pool(kind, tasks))
        assert report.backend == "process"
        parallel = {
            task.platter_count: points
            for task, points in zip(tasks, report.ok_results())
        }
        assert serial == parallel  # RoadmapPoint dataclasses compare by value

    def test_matches_direct_thermal_roadmap(self):
        from repro.scaling.roadmap import thermal_roadmap

        years = ROADMAP_YEARS[:2]
        by_count = sweep_roadmap(platter_counts=(1,), years=years, workers=1)
        assert by_count[1] == thermal_roadmap(platter_count=1, years=years)

    def test_result_keyed_and_ordered_by_platter_count(self):
        years = ROADMAP_YEARS[:2]
        by_count = sweep_roadmap(platter_counts=(4, 1), years=years, workers=1)
        assert list(by_count) == [4, 1]
        for points in by_count.values():
            assert [p.year for p in points] == sorted(p.year for p in points)

    def test_identical_on_every_backend(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
        years = ROADMAP_YEARS[:3]
        tasks = [RoadmapTask(platter_count=c, years=years) for c in (1, 2)]
        kind = roadmap_sweep_kind()
        runs = {}
        for backend in ("serial", "process", "shared-store"):
            # Two small panels cost less than a pool: the process row
            # gets a ready one so it still crosses process boundaries.
            spec = process_pool(kind, tasks) if backend == "process" else backend
            report = run_kind(kind, tasks, workers=2, backend=spec)
            report.raise_on_failure()
            assert report.backend == backend
            runs[backend] = dict(zip((1, 2), report.ok_results()))
        assert runs["serial"] == runs["process"] == runs["shared-store"]
        # The shared-store run went through the default store: a rerun
        # decodes every task from it, still identical.
        again = sweep_roadmap(
            platter_counts=(1, 2), years=years, workers=2, backend="shared-store"
        )
        assert again == runs["serial"]

    def test_second_run_on_a_store_is_all_hits(self, tmp_path):
        from repro.simulation.resilience import run_kind
        from repro.simulation.sweep import roadmap_sweep_kind
        from repro.store import ResultStore

        store = ResultStore(root=tmp_path / "store")
        tasks = [
            RoadmapTask(platter_count=count, years=ROADMAP_YEARS[:2])
            for count in (1, 4)
        ]
        cold = run_kind(roadmap_sweep_kind(), tasks, store=store, workers=0)
        warm = run_kind(roadmap_sweep_kind(), tasks, store=store, workers=0)
        assert cold.store_hits == 0
        assert warm.store_hits == len(tasks)
        assert warm.ok_results() == cold.ok_results()


class TestWorkloadSweep:
    def test_parallel_matches_serial_exactly(self):
        kwargs = dict(names=["tpcc"], requests=300, seed=7, keep_samples=True)
        serial = sweep_workloads(workers=1, **kwargs)
        pool = process_pool(workload_sweep_kind(), build_workload_tasks(**kwargs))
        parallel, report = sweep_workloads_resilient(backend=pool, retries=0, **kwargs)
        assert report.backend == "process"
        assert serial == parallel

    def test_deterministic_across_repeat_runs(self):
        first = sweep_workloads(["oltp"], requests=300, seed=3, workers=1)
        second = sweep_workloads(["oltp"], requests=300, seed=3, workers=1)
        assert first == second

    def test_seed_changes_results(self):
        a = sweep_workloads(["tpcc"], requests=300, seed=1, workers=1)
        b = sweep_workloads(["tpcc"], requests=300, seed=2, workers=1)
        assert a != b

    def test_order_is_workload_major_then_ladder(self):
        results = sweep_workloads(
            ["oltp", "tpcc"], requests=200, rpm_steps=2, workers=1
        )
        assert [(r.workload,) for r in results] == [
            ("oltp",), ("oltp",), ("tpcc",), ("tpcc",)
        ]
        assert results[0].rpm < results[1].rpm
        assert results[2].rpm < results[3].rpm

    def test_explicit_rpm_ladder(self):
        results = sweep_workloads(
            ["tpcc"], rpms=(12000.0, 18000.0), requests=200, workers=1
        )
        assert [r.rpm for r in results] == [12000.0, 18000.0]

    def test_unknown_workload_raises_before_fork(self):
        from repro.errors import TraceError

        with pytest.raises(TraceError):
            sweep_workloads(["nonesuch"], requests=100, workers=2)

    @pytest.mark.parametrize("requests", [0, -5])
    def test_request_count_below_one_raises_before_fork(self, requests):
        from repro.errors import TraceError
        from repro.simulation.sweep import build_workload_tasks

        with pytest.raises(TraceError):
            build_workload_tasks(["tpcc"], requests=requests)
        with pytest.raises(TraceError):
            sweep_workloads(["tpcc"], rpm_steps=1, requests=requests, workers=0)

    @pytest.mark.parametrize("steps", [0, -2])
    def test_empty_ladder_raises_before_fork(self, steps):
        from repro.errors import SimulationError
        from repro.simulation.sweep import build_workload_tasks

        with pytest.raises(SimulationError, match="at least one RPM step"):
            build_workload_tasks(["tpcc"], rpm_steps=steps, requests=50)
        with pytest.raises(SimulationError, match="at least one RPM step"):
            sweep_workloads(["tpcc"], rpm_steps=steps, requests=50, workers=0)
        # An explicit ladder does not read ``rpm_steps``, but must not be empty.
        (task,) = build_workload_tasks(
            ["tpcc"], rpms=(15000.0,), rpm_steps=steps, requests=50
        )
        assert task.rpm == 15000.0
        with pytest.raises(SimulationError, match="empty ladder"):
            build_workload_tasks(["tpcc"], rpms=(), requests=50)

    def test_summary_fields_consistent(self):
        (result,) = sweep_workloads(
            ["tpcc"], rpms=(15000.0,), requests=400, workers=1, keep_samples=True
        )
        assert result.requests == len(result.samples_ms) == 400
        assert result.median_ms <= result.p95_ms <= result.max_ms
        assert 0.0 <= result.cache_hit_ratio <= 1.0
        fractions = [f for _, f in result.cdf]
        assert fractions == sorted(fractions)

    def test_task_worker_roundtrip_matches_system_replay(self):
        """The sweep worker reproduces exactly what a hand-built replay does."""
        from repro.workloads import workload

        spec = workload("tpcc")
        trace = spec.generate(num_requests=300, seed=5)
        report = spec.build_system(spec.base_rpm).run_trace(trace)
        result = _run_workload_task(
            WorkloadTask(workload="tpcc", rpm=spec.base_rpm, requests=300, seed=5)
        )
        assert result.mean_ms == report.stats.mean_ms()
        assert result.simulated_ms == report.simulated_ms


class TestRoadmapTaskDefaults:
    def test_default_span_is_paper_grid(self):
        task = RoadmapTask(platter_count=2)
        assert task.years == ROADMAP_YEARS
        assert len(task.years) == 11
