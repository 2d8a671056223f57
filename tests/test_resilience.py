"""Tests for the resilient sweep executor (repro.simulation.resilience).

The contract under test: a sweep always yields *per-task outcomes* — a
raising worker, a hung worker, or a worker process that dies outright may
fail its own task, but every healthy point completes and the failure is
named in the manifest.  Process-killing tests use a real 2-worker pool.
"""

import os
import time

import pytest

from repro.cli import main
from repro.errors import EngineRefused, SimulationError, SweepExecutionError
from repro.simulation.resilience import (
    MANIFEST_SCHEMA,
    STATUS_ERROR,
    STATUS_TIMEOUT,
    SweepRunReport,
    TaskEnvelope,
    run_kind,
)
from tests.sweep_kinds import plain_kind


def _square(x):
    return x * x


def _raise_if_negative(x):
    if x < 0:
        raise ValueError(f"injected failure for task {x}")
    return x * x


def _refuse_if_negative(x):
    if x < 0:
        raise EngineRefused(f"engine refused task {x}")
    return x * x


def _exit_if_negative(x):
    if x < 0:
        os._exit(17)  # kill the worker process outright -> BrokenProcessPool
    return x * x


def _hang_if_negative(x):
    if x < 0:
        time.sleep(300.0)
    return x * x


def _fail_until_marker(arg):
    """Fail on the first attempt, succeed once the marker file exists."""
    x, marker = arg
    if os.path.exists(marker):
        return x * x
    with open(marker, "w", encoding="utf-8"):
        pass
    raise RuntimeError("transient fault (first attempt)")


class TestSerialPath:
    def test_all_ok(self):
        report = run_kind(plain_kind(_square), [1, 2, 3], workers=1)
        assert report.ok_results() == [1, 4, 9]
        assert report.results() == [1, 4, 9]
        assert not report.failed

    def test_empty(self):
        report = run_kind(plain_kind(_square), [], workers=1)
        assert report.envelopes == []

    def test_error_captured_with_traceback(self):
        report = run_kind(
            plain_kind(_raise_if_negative), [2, -1, 3], workers=1, retries=0
        )
        assert report.results() == [4, None, 9]
        (failure,) = report.failed
        assert failure.index == 1
        assert failure.status == STATUS_ERROR
        assert failure.error_type == "ValueError"
        assert "injected failure" in failure.error_message
        assert "ValueError" in failure.traceback_text

    def test_retry_recovers_transient_failure(self, tmp_path):
        marker = str(tmp_path / "attempted")
        report = run_kind(
            plain_kind(_fail_until_marker), [(3, marker)], workers=1, retries=1
        )
        assert report.ok_results() == [9]
        assert report.envelopes[0].attempts == 2
        assert report.retries == 1

    def test_retry_budget_exhausts(self):
        report = run_kind(
            plain_kind(_raise_if_negative), [-1], workers=1, retries=2
        )
        (failure,) = report.failed
        assert failure.attempts == 3

    def test_engine_refusal_fails_on_its_first_attempt(self):
        report = run_kind(
            plain_kind(_refuse_if_negative), [2, -1], workers=1, retries=2
        )
        assert report.results() == [4, None]
        (failure,) = report.failed
        assert failure.error_type == "EngineRefused"
        assert failure.attempts == 1
        assert report.retries == 0

    def test_cli_refusal_reports_one_attempt(self, capsys):
        code = main([
            "sweep", "workload", "tpch", "-n", "200", "--steps", "1",
            "--engine", "analytic", "--backend", "serial",
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert "after 1 attempt(s): [EngineRefused]" in err

    def test_invalid_arguments(self):
        with pytest.raises(SimulationError):
            run_kind(plain_kind(_square), [1], retries=-1)
        with pytest.raises(SimulationError):
            run_kind(plain_kind(_square), [1], backoff_s=-0.1)
        with pytest.raises(SimulationError):
            run_kind(plain_kind(_square), [1], timeout_s=0.0)


class TestParallelPath:
    def test_parallel_matches_serial(self):
        tasks = list(range(12))
        serial = run_kind(plain_kind(_square), tasks, workers=1)
        parallel = run_kind(plain_kind(_square), tasks, workers=2)
        assert serial.ok_results() == parallel.ok_results()

    def test_worker_raises_other_tasks_survive(self):
        tasks = [1, 2, -1, 4, 5]
        report = run_kind(
            plain_kind(_raise_if_negative), tasks, workers=2, retries=0
        )
        assert report.results() == [1, 4, None, 16, 25]
        (failure,) = report.failed
        assert failure.index == 2
        assert "injected failure" in failure.error_message

    def test_pool_break_mid_sweep_returns_every_healthy_point(self):
        """A task that kills its worker process must not take the sweep
        (or any healthy point) down with it."""
        tasks = [1, 2, 3, -1, 5, 6, 7, 8]
        report = run_kind(
            plain_kind(_exit_if_negative), tasks, workers=2, retries=0
        )
        assert report.pool_breaks >= 1
        assert report.results() == [1, 4, 9, None, 25, 36, 49, 64]
        (failure,) = report.failed
        assert failure.index == 3
        assert failure.error_type == "BrokenProcessPool"

    def test_pool_break_victims_are_retried_without_consuming_budget(self):
        """Tasks in flight when a neighbour breaks the pool are requeued
        at their current attempt count and still complete."""
        tasks = [-1] + list(range(1, 10))
        report = run_kind(
            plain_kind(_exit_if_negative), tasks, workers=2, retries=0
        )
        assert report.ok_count == 9
        for envelope in report.envelopes:
            if envelope.ok:
                assert envelope.result == envelope.index**2

    def test_timeout_marks_task_and_survivors_complete(self):
        tasks = [1, -1, 3, 4]
        report = run_kind(
            plain_kind(_hang_if_negative), tasks,
            workers=2, retries=0, timeout_s=1.0,
        )
        assert report.timeouts >= 1
        assert report.results() == [1, None, 9, 16]
        (failure,) = report.failed
        assert failure.status == STATUS_TIMEOUT
        assert "deadline" in failure.error_message

    def test_telemetry_counters_mirrored(self):
        from repro.telemetry import Telemetry

        tel = Telemetry()
        report = run_kind(
            plain_kind(_raise_if_negative), [1, -1, 3],
            workers=2, retries=1, telemetry=tel,
        )
        assert len(report.failed) == 1

        def value(name):
            metric = tel.registry.get(name)
            return metric.value if metric is not None else 0.0

        assert value("sweep.tasks_total") == 3.0
        assert value("sweep.tasks_ok") == 2.0
        assert value("sweep.tasks_failed_total") == 1.0
        assert value("sweep.task_errors_total") == 2.0  # two failed attempts
        assert value("sweep.retries_total") == 1.0


class TestStrictFrontEnd:
    """``raise_on_failure`` is how strict callers of the runner fail."""

    def test_run_sweep_raises_typed_error_with_traceback(self):
        report = run_kind(
            plain_kind(_raise_if_negative), [1, -1], workers=1, retries=0
        )
        with pytest.raises(SweepExecutionError) as excinfo:
            report.raise_on_failure()
        assert "ValueError" in str(excinfo.value)
        assert "injected failure" in excinfo.value.traceback_text

    def test_run_sweep_unchanged_on_success(self):
        report = run_kind(plain_kind(_square), [2, 3], workers=1, retries=0)
        report.raise_on_failure()
        assert report.ok_results() == [4, 9]


class TestManifest:
    def test_manifest_names_failed_task(self):
        report = run_kind(
            plain_kind(_raise_if_negative), [1, -1, 3], workers=1, retries=0
        )
        manifest = report.manifest(task_labels=["a", "b", "c"])
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["tasks_total"] == 3
        assert manifest["tasks_ok"] == 2
        assert manifest["tasks_failed"] == 1
        (entry,) = manifest["failures"]
        assert entry["task"] == "b"
        assert entry["index"] == 1
        assert entry["error_type"] == "ValueError"

    def test_manifest_is_json_serializable(self):
        import json

        report = run_kind(
            plain_kind(_raise_if_negative), [-1], workers=1, retries=2
        )
        text = json.dumps(report.manifest(), allow_nan=False)
        assert json.loads(text)["tasks_failed"] == 1

    def test_envelope_as_dict_roundtrip_fields(self):
        envelope = TaskEnvelope(index=4, status=STATUS_ERROR, error_type="X")
        out = envelope.as_dict()
        assert out["index"] == 4
        assert out["status"] == STATUS_ERROR
        assert out["error_type"] == "X"

    def test_report_results_alignment(self):
        report = SweepRunReport(
            envelopes=[
                TaskEnvelope(index=0, result=10),
                TaskEnvelope(index=1, status=STATUS_ERROR),
            ]
        )
        assert report.results() == [10, None]
        assert report.ok_results() == [10]
