"""The dispatch rule: a ``process`` request forks a pool only when the
store misses cost more than one (:func:`repro.simulation.resilience.plan_dispatch`).

Most tests price synthetic tasks whose value *is* their estimated serial
seconds, so the crossover is exact arithmetic on the module constants;
the last ones price real workload and fleet sweeps without running them.
"""

from __future__ import annotations

import pytest

from repro.job_config import FleetJobConfig
from repro.simulation.backends import SerialBackend
from repro.simulation.resilience import (
    DISPATCH_ABOVE_POOL_COST,
    DISPATCH_ALL_HITS,
    DISPATCH_BELOW_POOL_COST,
    DISPATCH_EXPLICIT,
    DISPATCH_NO_ESTIMATE,
    DISPATCH_ONE_WORKER,
    DISPATCH_TIMEOUT,
    POOL_START_S,
    POOL_TICKET_S,
    SweepKind,
    plan_dispatch,
    pool_pays,
    run_kind,
)
from repro.simulation.sweep import (
    WORKLOAD_SECONDS_PER_REQUEST,
    build_workload_tasks,
    workload_sweep_kind,
)
from repro.store import ResultStore, config_key
from tests.sweep_kinds import plain_kind


def _halve(seconds: float) -> float:
    return seconds / 2


def _costed_kind() -> SweepKind:
    """A family whose task is its own estimated serial seconds."""
    return SweepKind(
        name="test_costed",
        worker=_halve,
        key=lambda task: config_key("test_costed", {"task": task}),
        encode=float,
        decode=float,
        cost=float,
    )


def _crossover_s(tickets: int, workers: int) -> float:
    """Total serial seconds at which the pool and serial predict a tie."""
    return (POOL_START_S + tickets * POOL_TICKET_S) / (1.0 - 1.0 / workers)


@pytest.mark.parametrize("tickets, workers", [(1, 2), (3, 2), (14, 2), (20, 4)])
def test_serial_below_the_crossover_pool_above(tickets, workers):
    kind = _costed_kind()
    edge = _crossover_s(tickets, workers)
    below = [0.9 * edge / tickets] * tickets
    above = [1.1 * edge / tickets] * tickets
    assert plan_dispatch(kind, below, "process", workers, None) == (
        "serial", DISPATCH_BELOW_POOL_COST, pytest.approx(0.9 * edge),
    )
    assert plan_dispatch(kind, above, "process", workers, None) == (
        "process", DISPATCH_ABOVE_POOL_COST, pytest.approx(1.1 * edge),
    )
    assert not pool_pays(0.9 * edge, tickets, workers)
    assert pool_pays(1.1 * edge, tickets, workers)


def test_unnamed_backend_is_the_process_default(monkeypatch):
    kind = _costed_kind()
    monkeypatch.delenv("REPRO_SWEEP_BACKEND", raising=False)
    assert plan_dispatch(kind, [1e-4], None, 2, None)[:2] == (
        "serial", DISPATCH_BELOW_POOL_COST,
    )
    monkeypatch.setenv("REPRO_SWEEP_BACKEND", "serial")
    assert plan_dispatch(kind, [1e-4], None, 2, None)[:2] == (None, DISPATCH_EXPLICIT)


def test_only_misses_are_priced(tmp_path):
    """Hits never reach a backend, so their cost must not buy a pool:
    100 s of cached tasks plus 3 ms of misses still run serial."""
    kind = _costed_kind()
    store = ResultStore(root=tmp_path)
    hits = [50.0, 50.0]
    misses = [0.001, 0.002]
    for task in hits:
        store.save(kind.key(task), task / 2, kind.encode, kind=kind.name)
    report = run_kind(kind, hits + misses, store=store, workers=2, backend="process")
    assert report.store_hits == 2 and report.store_misses == 2
    assert report.backend == "serial"
    assert report.dispatch == DISPATCH_BELOW_POOL_COST
    assert report.estimated_serial_s == pytest.approx(sum(misses))
    assert report.results() == [25.0, 25.0, 0.0005, 0.001]
    manifest = report.manifest()
    assert manifest["backend"] == "serial"
    assert manifest["dispatch"] == {
        "reason": DISPATCH_BELOW_POOL_COST,
        "estimated_serial_s": pytest.approx(sum(misses)),
    }
    # The dispatch record stays out of the keys: a warm rerun is all hits.
    warm = run_kind(kind, hits + misses, store=store, workers=2, backend="process")
    assert warm.store_hits == 4
    assert warm.task_keys == report.task_keys
    assert (warm.dispatch, warm.estimated_serial_s) == (DISPATCH_ALL_HITS, 0.0)


def test_timeout_keeps_the_pool():
    """The serial path cannot enforce deadlines, so choosing it would
    silently drop the caller's timeout."""
    assert plan_dispatch(_costed_kind(), [1e-4], "process", 2, 5.0) == (
        "process", DISPATCH_TIMEOUT, pytest.approx(1e-4),
    )


@pytest.mark.parametrize("name", ["serial", "shared-store"])
def test_other_named_backends_pass_through(name):
    for cost in (1e-4, 1e4):
        assert plan_dispatch(_costed_kind(), [cost], name, 2, None) == (
            name, DISPATCH_EXPLICIT, pytest.approx(cost),
        )


def test_a_ready_backend_passes_through():
    kind = _costed_kind()
    ready = SerialBackend([1e4], kind.worker)
    chosen, reason, _ = plan_dispatch(kind, [1e4], ready, 2, None)
    assert chosen is ready and reason == DISPATCH_EXPLICIT


def test_one_worker_and_no_estimate():
    assert plan_dispatch(_costed_kind(), [1e4], "process", 1, None)[1] == DISPATCH_ONE_WORKER
    # A family without a cost keeps the pool it asked for.
    assert plan_dispatch(plain_kind(abs), [1], "process", 2, None) == (
        "process", DISPATCH_NO_ESTIMATE, None,
    )


def test_replay_ladder_keeps_its_pool():
    """perfbench's replay-ladder sweep: 5 workloads x 4 rungs x 4000
    exact requests (~1.8 s serial past the pre-plans) on two workers."""
    tasks = build_workload_tasks(
        ["tpcc", "openmail", "oltp", "tpch", "search_engine"],
        rpm_steps=4, requests=4000, engine="exact",
    )
    chosen, reason, estimate = plan_dispatch(
        workload_sweep_kind(), tasks, "process", 2, None
    )
    assert (chosen, reason) == ("process", DISPATCH_ABOVE_POOL_COST)
    assert estimate == pytest.approx(20 * 4000 * WORKLOAD_SECONDS_PER_REQUEST["exact"])


def test_fleet_pays_for_the_pool_only_with_many_racks():
    """Rack tasks cost ~18 us a drive and a ticket ~0.52 ms, so on two
    workers a rack of 72 drives saves 0.13 ms and 149 racks repay the
    start-up: perfbench's 14 racks of 72 drives run serial.  Racks of
    240 drives (10 enclosures x 24) pay from 12 racks on."""
    def plan(racks, enclosures, drives):
        config = FleetJobConfig(
            racks=racks, enclosures_per_rack=enclosures, drives_per_enclosure=drives
        )
        tasks = config.build_tasks()
        return plan_dispatch(config.sweep_kind(), tasks, "process", 2, None)[1]

    assert plan(14, 6, 12) == DISPATCH_BELOW_POOL_COST
    assert plan(148, 6, 12) == DISPATCH_BELOW_POOL_COST
    assert plan(149, 6, 12) == DISPATCH_ABOVE_POOL_COST
    assert plan(11, 10, 24) == DISPATCH_BELOW_POOL_COST
    assert plan(12, 10, 24) == DISPATCH_ABOVE_POOL_COST


def test_all_analytic_ladders_run_serial():
    """Past its pre-plan, which every worker would build again, the
    analytic engine answers a request in ~0.6 us: a 2-workload x
    8-rung x 4000-request all-analytic ladder runs in-process."""
    tasks = build_workload_tasks(
        ["oltp", "search_engine"], rpm_steps=8, requests=4000, engine="analytic"
    )
    assert plan_dispatch(workload_sweep_kind(), tasks, "process", 2, None)[:2] == (
        "serial", DISPATCH_BELOW_POOL_COST,
    )
