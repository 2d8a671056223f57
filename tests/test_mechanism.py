"""One drive mechanism per distinct value per process
(``repro.simulation.disk.standard_mechanism``).

Every disk built from the same drive-model parameters maps through one
``DiskLayout`` and one ``SeekModel``: the members of an array, the
systems of successive rungs and jobs, and the pre-plan's geometry.  Each
disk keeps its own mechanics, so a speed change stays local; replays
through a warm memo are byte-identical to cold ones; and the memo never
grows past its fixed bound.
"""

from __future__ import annotations

import pytest

from repro.drives import TABLE1_DRIVES
from repro.dtm.cache_disk import CacheDiskPair
from repro.faults import FaultConfig
from repro.simulation import preplan as preplan_module
from repro.simulation.disk import (
    MECHANISM_MEMO_SIZE,
    _mechanism,
    standard_disk,
    standard_mechanism,
)
from repro.simulation.events import EventQueue
from repro.simulation.preplan import spec_geometry
from repro.simulation.sweep import (
    WorkloadTask,
    _run_workload_task,
    workload_result_to_payload,
)
from repro.store import stable_json
from repro.workloads import catalog, workload

NAMES = sorted(catalog())
REQUESTS = 300

#: the default drive's parameters, one field at a time changed below.
BASE = dict(diameter_in=3.3, platters=2, kbpi=480.0, ktpi=30.0, zone_count=30)
VARIANTS = [
    ("diameter_in", 2.6),
    ("platters", 1),
    ("kbpi", 520.0),
    ("ktpi", 34.0),
    ("zone_count", 20),
]


def _cold():
    """Forget every built mechanism and every held pre-plan."""
    _mechanism.cache_clear()
    preplan_module._PREPLAN.clear()
    preplan_module._GEOMETRY.clear()


def _mechanisms(system):
    return {(id(d.layout), id(d.seek_model)) for d in system.disks}


def test_member_disks_share_one_layout_and_seek_curve():
    for name in NAMES:
        spec = workload(name)
        system = spec.build_system()
        assert len(system.disks) == spec.disk_count
        assert len(_mechanisms(system)) == 1
        # ... while each keeps its own mechanics, cache and scheduler.
        for attr in ("mechanics", "cache", "scheduler", "stats"):
            assert len({id(getattr(d, attr)) for d in system.disks}) == spec.disk_count


def test_systems_and_the_preplan_share_the_mechanism():
    spec = workload("tpcc")
    first = spec.build_system(spec.base_rpm)
    second = spec.build_system(spec.base_rpm + 5000.0)
    geometry = spec_geometry(spec)
    assert _mechanisms(first) == _mechanisms(second) == {
        (id(geometry.layout), id(geometry.seek_model))
    }


def test_equal_values_share_however_they_are_passed():
    layout, seek_model = standard_mechanism(**BASE)
    assert standard_mechanism() == (layout, seek_model)
    assert standard_mechanism(*BASE.values()) == (layout, seek_model)
    assert standard_mechanism(**dict(reversed(list(BASE.items())))) == (layout, seek_model)
    disk = standard_disk("d", EventQueue(), **BASE)
    assert disk.layout is layout and disk.seek_model is seek_model


@pytest.mark.parametrize("field, value", VARIANTS)
def test_different_parameters_give_different_mechanisms(field, value):
    layout, seek_model = standard_mechanism(**BASE)
    other_layout, other_seek = standard_mechanism(**{**BASE, field: value})
    assert other_layout is not layout
    assert other_seek is not seek_model
    _mechanism.cache_clear()
    fresh_layout, fresh_seek = standard_mechanism(**{**BASE, field: value})
    # the held mechanism is the one a fresh build of its own key gives
    assert other_layout.total_sectors == fresh_layout.total_sectors
    assert other_layout.cylinders == fresh_layout.cylinders
    assert other_seek.parameters == fresh_seek.parameters


def test_set_rpm_stays_local_to_one_disk():
    spec = workload("oltp")
    system = spec.build_system(spec.base_rpm)
    changed, *siblings = system.disks
    lbas = range(0, changed.total_sectors - 64, changed.total_sectors // 17)

    def timings(disk):
        return [disk.mechanics.timing(3.7, 100, lba, 64) for lba in lbas]

    before = [timings(d) for d in siblings]
    changed_before = timings(changed)
    changed.set_rpm(spec.base_rpm + 10000.0)
    assert changed.rpm == spec.base_rpm + 10000.0
    assert timings(changed) != changed_before
    assert [d.rpm for d in siblings] == [spec.base_rpm] * len(siblings)
    assert [timings(d) for d in siblings] == before
    assert len(_mechanisms(system)) == 1


def _bytes(result) -> str:
    return stable_json(workload_result_to_payload(result))


def _task(name, rpm, seed, **knobs):
    return WorkloadTask(
        workload=name, rpm=rpm, requests=REQUESTS, seed=seed, keep_samples=True, **knobs
    )


def _cold_and_warm(name, **knobs):
    """One ladder at three rungs computed with nothing built, then again
    after every catalog workload has filled the memo."""
    rungs = workload(name).rpm_sweep(steps=3)
    cold = []
    for rpm in rungs:
        _cold()
        cold.append(_run_workload_task(_task(name, rpm, seed=2, **knobs)))
    _cold()
    for other in NAMES:
        _run_workload_task(_task(other, workload(other).base_rpm, seed=1, **knobs))
    warm = [_run_workload_task(_task(name, rpm, seed=2, **knobs)) for rpm in rungs]
    return cold, warm


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("knobs", ["plain", "faults", "telemetry"])
def test_warm_mechanism_replays_byte_identical_to_cold(name, knobs):
    config = {
        "plain": {},
        "faults": {"fault_config": FaultConfig(seed=3, media_rate=0.05, servo_rate=0.01)},
        "telemetry": {"telemetry": True},
    }[knobs]
    cold, warm = _cold_and_warm(name, **config)
    for c, w in zip(cold, warm):
        assert (c.fault_summary is not None) == (knobs == "faults")
        assert (c.telemetry is not None) == (knobs == "telemetry")
        assert w.fault_summary == c.fault_summary
        assert w.telemetry == c.telemetry
        assert _bytes(w) == _bytes(c)


def test_memo_stays_within_its_bound():
    _cold()
    for name in NAMES:
        workload(name).build_system()
    # the catalog's arrays are built from three distinct drives
    assert _mechanism.cache_info().currsize == 3
    for drive in TABLE1_DRIVES:
        drive.simulated_disk(EventQueue())
    pair = CacheDiskPair()
    assert pair.big.layout is not pair.small.layout
    assert _mechanism.cache_info().currsize <= MECHANISM_MEMO_SIZE
