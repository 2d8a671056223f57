"""Equivalence tests for the exact engine's fast paths.

Each fast path is checked against an oracle written here from the
slow, obviously-correct building blocks, with exact (``==``) comparison:

* :meth:`DiskMechanics.service` / :meth:`DiskMechanics.timing` against a
  chunk walk over :meth:`DiskLayout.locate` and
  :func:`repro.performance.rotation.wait_for_angle_ms`;
* :meth:`DiskLayout.address` against its inverse :meth:`DiskLayout.lba_of`;
* :meth:`EventQueue.run`'s loop (unbounded, with a horizon, with a
  budget) against stepping with :meth:`EventQueue.step`;
* :class:`Raid0Geometry` and :class:`Raid5Geometry` (reads) plans, whose
  coalescing returns a single child as is, against the unit walk plus
  the full sort-and-merge.
"""

from __future__ import annotations

import random
from typing import List

import pytest

from repro.performance.rotation import wait_for_angle_ms
from repro.simulation.disk import standard_disk
from repro.simulation.events import EventQueue
from repro.simulation.mechanics import DiskMechanics, ServiceBreakdown
from repro.simulation.raid import (
    ArrayGeometry,
    Child,
    Phases,
    Raid0Geometry,
    Raid5Geometry,
)

# ---------------------------------------------------------------------------
# Mechanics
# ---------------------------------------------------------------------------


def oracle_service(mech: DiskMechanics, start_ms: float, head: int, lba: int, sectors: int):
    """The media access timed chunk by chunk from ``locate`` and
    ``wait_for_angle_ms``."""
    layout = mech.layout
    breakdown = ServiceBreakdown(overhead_ms=mech.controller_overhead_ms)
    t = start_ms + mech.controller_overhead_ms
    cylinder, surface = head, None
    remaining, position = sectors, lba
    while remaining > 0:
        addr = layout.locate(position)
        if addr.cylinder != cylinder:
            seek = mech.seek_model.seek_time_ms(abs(addr.cylinder - cylinder)) + mech.settle_ms
            breakdown.seek_ms += seek
            t += seek
            cylinder = addr.cylinder
        elif surface is not None and addr.surface != surface:
            breakdown.head_switch_ms += mech.head_switch_ms
            t += mech.head_switch_ms
        surface = addr.surface
        skew = (addr.cylinder * mech.cylinder_skew_rev + addr.surface * mech.track_skew_rev) % 1.0
        target = (addr.sector / addr.sectors_per_track + skew) % 1.0
        wait = wait_for_angle_ms(t, target, mech.rpm)
        breakdown.rotational_ms += wait
        t += wait
        chunk = min(remaining, addr.sectors_per_track - addr.sector)
        transfer = chunk * mech.period_ms / addr.sectors_per_track
        breakdown.transfer_ms += transfer
        t += transfer
        remaining -= chunk
        position += chunk
    return breakdown, cylinder


@pytest.fixture(scope="module")
def disk():
    return standard_disk("d", EventQueue(), rpm=10000.0, zone_count=12)


def _check(mech: DiskMechanics, start_ms: float, head: int, lba: int, sectors: int) -> None:
    expected = oracle_service(mech, start_ms, head, lba, sectors)
    assert mech.service(start_ms, head, lba, sectors) == expected
    seek, rotation, switch, transfer, end, first = mech.timing(start_ms, head, lba, sectors)
    assert (seek, rotation, switch, transfer, end) == (
        expected[0].seek_ms,
        expected[0].rotational_ms,
        expected[0].head_switch_ms,
        expected[0].transfer_ms,
        expected[1],
    )
    assert first == mech.layout.locate(lba).cylinder == mech.layout.cylinder_of(lba)


def _edge_accesses(layout) -> List[tuple]:
    """(lba, sectors) accesses at the layout's structural edges."""
    spt0 = layout.sectors_per_track_at(0)
    per_cylinder0 = spt0 * layout.surfaces
    total = layout.total_sectors
    cases = [
        (0, 1),
        (spt0 - 3, 7),  # crosses a track: head switch
        (0, 2 * spt0 + 5),  # several tracks
        (per_cylinder0 - 4, 9),  # crosses a cylinder: one-track seek
        (per_cylinder0 - spt0 - 2, 3 * per_cylinder0),  # several cylinders
        (total - 1, 1),  # last sector of the disk
        (total - 300, 300),  # ends on the last sector
    ]
    for zone in layout.surface.zones[1:]:
        boundary = layout.lba_of(zone.first_track, 0, 0)
        cases.append((boundary - 5, 11))  # crosses a zone boundary
        cases.append((boundary - 1, 1))  # last sector of a zone
    return cases


class TestMechanicsTimingOracle:
    def test_seeded_random_accesses(self, disk):
        rng = random.Random(20050601)
        mech = disk.mechanics
        total = disk.layout.total_sectors
        for _ in range(600):
            sectors = rng.choice([1, 4, 8, 16, 64, 256, 1024, 4096])
            lba = rng.randrange(0, total - sectors + 1)
            head = rng.randrange(0, disk.layout.cylinders)
            start = rng.uniform(0.0, 5.0e5)
            _check(mech, start, head, lba, sectors)

    def test_structural_edges(self, disk):
        mech = disk.mechanics
        rng = random.Random(7)
        for lba, sectors in _edge_accesses(disk.layout):
            for head in (0, mech.layout.locate(lba).cylinder, disk.layout.cylinders - 1):
                _check(mech, rng.uniform(0.0, 1.0e4), head, lba, sectors)

    def test_start_times_on_revolution_boundaries(self, disk):
        mech = disk.mechanics
        for k in range(50):
            start = k * mech.period_ms - mech.controller_overhead_ms
            _check(mech, max(start, 0.0), 0, 0, 1)

    def test_after_set_rpm(self):
        disk = standard_disk("d", EventQueue(), rpm=10000.0, zone_count=12)
        rng = random.Random(15000)
        for rpm in (15000.0, 7200.0, 25000.0):
            disk.set_rpm(rpm)
            assert disk.mechanics.rpm == rpm
            for lba, sectors in _edge_accesses(disk.layout):
                _check(disk.mechanics, rng.uniform(0.0, 1.0e4), 3, lba, sectors)

    def test_address_inverts_lba_of(self, disk):
        layout = disk.layout
        rng = random.Random(11)
        lbas = [lba for lba, _ in _edge_accesses(layout)]
        lbas += [rng.randrange(0, layout.total_sectors) for _ in range(2000)]
        for lba in lbas:
            cylinder, surface, sector, zone, spt = layout.address(lba)
            assert layout.lba_of(cylinder, surface, sector) == lba
            assert layout.surface.zone_of_track(cylinder).index == zone
            assert spt == layout.sectors_per_track_at(cylinder)
            assert layout.cylinder_of(lba) == cylinder

    def test_bounds_still_enforced(self, disk):
        from repro.errors import SimulationError

        mech = disk.mechanics
        for lba, sectors in ((-1, 1), (0, 0), (disk.layout.total_sectors, 1)):
            with pytest.raises(SimulationError):
                mech.timing(0.0, 0, lba, sectors)


# ---------------------------------------------------------------------------
# Event loop
# ---------------------------------------------------------------------------


def _scripted_queue(log: list) -> EventQueue:
    """A queue whose callbacks log what they observe and schedule more
    work: equal-time ties, events at ``now``, and a batch scheduled into
    an empty queue from the last pending callback."""
    q = EventQueue()

    def observe(label: str, now: float) -> None:
        log.append((label, now, q.now_ms, q.events_fired, len(q)))

    def leaf(label: str):
        return lambda now: observe(label, now)

    def spawner(label: str, depth: int):
        def fire(now: float) -> None:
            observe(label, now)
            if depth > 0:
                q.schedule(now, spawner(f"{label}.now", depth - 1))
                q.schedule(now + 1.0, leaf(f"{label}.tie-a"))
                q.schedule(now + 1.0, leaf(f"{label}.tie-b"))
                q.schedule_after(0.25, spawner(f"{label}.later", depth - 1))

        return fire

    def refill(now: float) -> None:
        observe("refill", now)
        if len(q) == 0:
            q.schedule_batch([(now + 2.0, leaf("batch-a")), (now + 2.0, leaf("batch-b"))])

    q.schedule_batch(
        [(0.0, spawner("a", 3)), (0.0, spawner("b", 2)), (5.0, leaf("c")), (5.0, leaf("d"))]
    )
    q.schedule(50.0, refill)
    return q


class TestEventDrain:
    def test_run_matches_stepping(self):
        stepped: list = []
        q_step = _scripted_queue(stepped)
        while q_step.step():
            pass
        drained: list = []
        q_run = _scripted_queue(drained)
        q_run.run()
        assert drained == stepped
        assert any(entry[0] == "batch-b" for entry in drained)
        assert (q_run.now_ms, q_run.events_fired, len(q_run)) == (
            q_step.now_ms,
            q_step.events_fired,
            0,
        )

    def test_run_with_budget_matches_stepping_prefix(self):
        from repro.errors import SimulationError

        stepped: list = []
        q_step = _scripted_queue(stepped)
        while q_step.step():
            pass
        budgeted: list = []
        q_run = _scripted_queue(budgeted)
        with pytest.raises(SimulationError, match="event budget of 7"):
            q_run.run(max_events=7)
        assert budgeted == stepped[:7]
        assert q_run.events_fired == 7
        q_run.run(max_events=len(stepped))
        assert budgeted == stepped

    def test_run_resumes_after_horizon(self):
        stepped: list = []
        q_step = _scripted_queue(stepped)
        while q_step.step():
            pass
        drained: list = []
        q_run = _scripted_queue(drained)
        q_run.run(until_ms=3.0)
        q_run.run()
        assert drained == stepped
        assert q_run.events_fired == q_step.events_fired


# ---------------------------------------------------------------------------
# RAID plans
# ---------------------------------------------------------------------------


def generic_plan(geometry: ArrayGeometry, lba: int, sectors: int, is_write: bool) -> Phases:
    """The unit walk plus the full sort-and-merge, with no single-child
    short-circuit."""
    children: List[Child] = []
    for unit, offset, length in geometry._units(lba, sectors):
        disk, start = geometry.locate_unit(unit)
        children.append((disk, start + offset, length, is_write))
    merged: List[Child] = []
    for child in sorted(children, key=lambda c: (c[0], c[3], c[1])):
        disk, start, length, write = child
        if merged:
            last_disk, last_start, last_length, last_write = merged[-1]
            if (last_disk, last_write) == (disk, write) and last_start + last_length == start:
                merged[-1] = (last_disk, last_start, last_length + length, last_write)
                continue
        merged.append(child)
    return (tuple(merged),)


class TestRaidPlans:
    @pytest.mark.parametrize("unit", [1, 16, 2048])
    def test_raid0_matches_generic(self, unit):
        geometry = Raid0Geometry(disk_count=5, stripe_unit_sectors=unit, disk_sectors=1 << 20)
        rng = random.Random(unit)
        single = spanning = 0
        for _ in range(800):
            sectors = rng.choice([1, 4, 8, 16, 17, 64, 2048, 5000])
            lba = rng.randrange(0, geometry.logical_sectors - sectors)
            is_write = rng.random() < 0.3
            if lba % unit + sectors <= unit:
                single += 1
            else:
                spanning += 1
            expected = generic_plan(geometry, lba, sectors, is_write)
            assert geometry.plan(lba, sectors, is_write) == expected
        assert spanning > 0 and (single > 0 or unit == 1)

    def test_raid0_unit_edges(self):
        geometry = Raid0Geometry(disk_count=3, stripe_unit_sectors=16, disk_sectors=4096)
        for lba, sectors in ((0, 16), (15, 1), (15, 2), (16, 16), (31, 33), (0, 48)):
            assert geometry.plan(lba, sectors, False) == generic_plan(geometry, lba, sectors, False)

    def test_raid5_reads_match_generic(self):
        geometry = Raid5Geometry(disk_count=5, stripe_unit_sectors=16, disk_sectors=1 << 18)
        rng = random.Random(5)
        for _ in range(800):
            sectors = rng.choice([1, 4, 8, 16, 32, 64])
            lba = rng.randrange(0, geometry.logical_sectors - sectors)
            assert geometry.plan(lba, sectors, False) == generic_plan(geometry, lba, sectors, False)
