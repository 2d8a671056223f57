"""The per-trace pre-plan shared by every engine (``repro.simulation.preplan``).

A replay that reuses a held pre-plan must be indistinguishable from one
that builds it from scratch, on every catalog workload (RAID-0 and
RAID-5), with fault injection and with telemetry; the memo keys on
values (never on a workload's name) and holds at most one entry.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.faults import FaultConfig
from repro.simulation import preplan as preplan_module
from repro.simulation.preplan import preplan, spec_geometry
from repro.simulation.raid import Raid0Geometry
from repro.simulation.sweep import (
    WorkloadTask,
    _run_workload_task,
    sweep_workloads,
    workload_result_to_payload,
)
from repro.store import stable_json
from repro.workloads import catalog, workload

NAMES = sorted(catalog())
REQUESTS = 300


def _cold():
    """Forget every held pre-plan and geometry."""
    preplan_module._PREPLAN.clear()
    preplan_module._GEOMETRY.clear()


def _bytes(result) -> str:
    return stable_json(workload_result_to_payload(result))


def _rungs(name):
    return workload(name).rpm_sweep(steps=3)


def _task(name, rpm, seed, **knobs):
    return WorkloadTask(
        workload=name, rpm=rpm, requests=REQUESTS, seed=seed, keep_samples=True, **knobs
    )


def _cold_and_warm(name, **knobs):
    """One ladder computed cold at every rung, then warm: the memo first
    holds another seed's plan of the same workload, then each rung's own."""
    cold = []
    for rpm in _rungs(name):
        _cold()
        cold.append(_run_workload_task(_task(name, rpm, seed=2, **knobs)))
    _cold()
    _run_workload_task(_task(name, _rungs(name)[0], seed=1, **knobs))
    warm = [_run_workload_task(_task(name, rpm, seed=2, **knobs)) for rpm in _rungs(name)]
    return cold, warm


@pytest.mark.parametrize("name", NAMES)
def test_warm_memo_replays_byte_identical_to_cold(name):
    cold, warm = _cold_and_warm(name)
    assert [_bytes(r) for r in warm] == [_bytes(r) for r in cold]


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("knobs", ["faults", "telemetry"])
def test_warm_memo_with_faults_or_telemetry(name, knobs):
    if knobs == "faults":
        config = {"fault_config": FaultConfig(seed=3, media_rate=0.05, servo_rate=0.01)}
    else:
        config = {"telemetry": True}
    cold, warm = _cold_and_warm(name, **config)
    for c, w in zip(cold, warm):
        assert (c.fault_summary is not None) == (knobs == "faults")
        assert (c.telemetry is not None) == (knobs == "telemetry")
        assert w.fault_summary == c.fault_summary
        assert w.telemetry == c.telemetry
        assert _bytes(w) == _bytes(c)


@pytest.mark.parametrize("name", NAMES)
def test_preplanned_replay_matches_planning_on_arrival(name):
    """The tuples walked by the exact engine are the plans the array
    would make itself as each request arrives."""
    spec = workload(name)
    plan = preplan(spec, REQUESTS, 5)
    for rpm in _rungs(name)[:2]:
        system = spec.build_system(rpm)
        ahead = system.run_trace(plan.trace, phases=plan.phases_for(system.array.geometry))
        on_arrival = spec.build_system(rpm).run_trace(spec.generate(REQUESTS, seed=5))
        assert ahead.stats.samples_ms == on_arrival.stats.samples_ms
        assert ahead.simulated_ms == on_arrival.simulated_ms


def test_memo_holds_at_most_one_entry_after_a_ladder():
    sweep_workloads(NAMES, rpm_steps=2, requests=100, seed=4, workers=0)
    assert len(preplan_module._PREPLAN) <= 1
    assert len(preplan_module._GEOMETRY) <= 1


def test_memo_keys_on_the_spec_value_and_seed():
    spec = workload("oltp")
    variant = spec.with_shape(read_fraction=0.2)
    assert variant.name == spec.name
    base = preplan(spec, REQUESTS, 1).trace.records
    assert preplan(spec, REQUESTS, 2).trace.records != base
    assert preplan(spec, REQUESTS, 1).trace.records == base
    assert preplan(variant, REQUESTS, 1).trace.records != base
    assert preplan(spec, REQUESTS, 1).trace.records == base
    assert preplan(spec, REQUESTS + 1, 1).trace.records[:REQUESTS] == base


def test_plans_refuse_a_different_array():
    spec = workload("oltp")
    plan = preplan(spec, REQUESTS, 1)
    other = Raid0Geometry(spec.disk_count, 16, spec_geometry(spec).array.disk_sectors)
    with pytest.raises(SimulationError, match="pre-plan"):
        plan.phases_for(other)


def test_run_trace_rejects_misaligned_phases():
    spec = workload("tpch")
    plan = preplan(spec, REQUESTS, 1)
    system = spec.build_system()
    phases = plan.phases_for(system.array.geometry)[:-1]
    with pytest.raises(SimulationError, match="plan"):
        system.run_trace(plan.trace, phases=phases)
