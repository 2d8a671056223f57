"""End-to-end fault smoke test (the ``make fault-smoke`` CI gate).

One scenario, asserted tightly: a small fault-injected workload sweep in
which one task kills its worker process outright.  The sweep must still
complete, return every healthy point (with fault summaries), and emit a
failure manifest that names the crashed task.
"""

import json
import os

from repro.faults import FaultConfig
from repro.simulation.resilience import MANIFEST_SCHEMA, run_kind
from repro.simulation.sweep import _run_workload_task, build_workload_tasks
from repro.telemetry import Telemetry
from tests.sweep_kinds import plain_kind

#: Which task (by position) kills its worker process.
VICTIM_INDEX = 1


def _run_or_die(arg):
    """Sweep worker that crashes hard on the designated task."""
    index, task = arg
    if index == VICTIM_INDEX:
        os._exit(21)  # simulate a worker crash (OOM-kill, segfault, ...)
    return _run_workload_task(task)


def test_injected_sweep_survives_worker_crash():
    tasks = build_workload_tasks(
        names=["tpcc", "oltp"],
        rpm_steps=2,
        requests=200,
        seed=6,
        fault_config=FaultConfig(seed=6, media_rate=0.05, servo_rate=0.01),
    )
    assert len(tasks) == 4
    telemetry = Telemetry()
    report = run_kind(
        plain_kind(_run_or_die),
        list(enumerate(tasks)),
        workers=2,
        retries=0,
        telemetry=telemetry,
    )

    # Every healthy point completed, with its fault summary attached.
    assert report.pool_breaks >= 1
    assert report.ok_count == len(tasks) - 1
    for envelope in report.envelopes:
        if envelope.index == VICTIM_INDEX:
            continue
        result = envelope.result
        assert envelope.ok
        assert result.fault_summary is not None
        assert result.fault_summary["total_injected"] >= 0

    # The manifest names the crashed task.
    manifest = report.manifest(task_labels=[t.label() for t in tasks])
    assert manifest["schema"] == MANIFEST_SCHEMA
    assert manifest["tasks_ok"] == len(tasks) - 1
    (failure,) = manifest["failures"]
    assert failure["index"] == VICTIM_INDEX
    assert failure["error_type"] == "BrokenProcessPool"
    assert failure["task"] == tasks[VICTIM_INDEX].label()
    # Manifest is strict-JSON clean.
    assert json.loads(json.dumps(manifest, allow_nan=False))

    # Recovery counters are mirrored into telemetry.
    def value(name):
        metric = telemetry.registry.get(name)
        return metric.value if metric is not None else 0.0

    assert value("sweep.pool_breaks_total") >= 1.0
    assert value("sweep.tasks_ok") == float(len(tasks) - 1)
    assert value("sweep.tasks_failed_total") == 1.0


def test_injected_sweep_results_match_crash_free_run():
    """The surviving points are bit-identical to a crash-free serial run —
    a pool break must not perturb any healthy result."""
    tasks = build_workload_tasks(
        names=["tpcc"],
        rpm_steps=2,
        requests=200,
        seed=6,
        fault_config=FaultConfig(seed=6, media_rate=0.05),
    )
    clean = [_run_workload_task(task) for task in tasks]
    report = run_kind(
        plain_kind(_run_or_die), list(enumerate(tasks)), workers=2, retries=0
    )
    for envelope in report.envelopes:
        if envelope.ok:
            assert envelope.result == clean[envelope.index]
