"""RAID geometry and storage-array tests."""

import pytest

from repro.errors import SimulationError
from repro.simulation import (
    EventQueue,
    Raid0Geometry,
    Raid1Geometry,
    Raid5Geometry,
    Request,
    StorageArray,
    standard_disk,
)


def read(lba, sectors, arrival=0.0):
    return Request(arrival_ms=arrival, lba=lba, sectors=sectors)


def write(lba, sectors, arrival=0.0):
    return Request(arrival_ms=arrival, lba=lba, sectors=sectors, is_write=True)


def all_children(phases):
    """Every ``(disk, lba, sectors, is_write)`` child of a plan."""
    return [child for phase in phases for child in phase]


class TestRaid0Geometry:
    @pytest.fixture
    def geometry(self):
        return Raid0Geometry(disk_count=4, stripe_unit_sectors=16, disk_sectors=1600)

    def test_logical_capacity(self, geometry):
        assert geometry.logical_sectors == 4 * 1600

    def test_small_request_single_disk(self, geometry):
        phases = geometry.plan(0, 8, False)
        assert len(phases) == 1
        assert len(phases[0]) == 1
        disk, lba, sectors, _ = phases[0][0]
        assert disk == 0 and lba == 0 and sectors == 8

    def test_units_rotate_over_disks(self, geometry):
        # The disk of each one-sector read's only child.
        disks = [geometry.plan(unit * 16, 1, False)[0][0][0] for unit in range(8)]
        assert disks == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_large_request_spans_disks(self, geometry):
        children = geometry.plan(0, 64, False)[0]
        assert {disk for disk, _, _, _ in children} == {0, 1, 2, 3}
        assert sum(sectors for _, _, sectors, _ in children) == 64

    def test_total_child_sectors_preserved(self, geometry):
        for lba, sectors in ((5, 3), (10, 40), (100, 77)):
            phases = geometry.plan(lba, sectors, False)
            assert sum(n for _, _, n, _ in all_children(phases)) == sectors

    def test_write_children_are_writes(self, geometry):
        phases = geometry.plan(0, 32, True)
        assert all(is_write for _, _, _, is_write in all_children(phases))

    def test_rejects_overflow(self, geometry):
        with pytest.raises(SimulationError):
            geometry.plan(geometry.logical_sectors - 4, 8, False)

    def test_coalesces_contiguous_same_disk_runs(self):
        # With 1 disk every unit is contiguous on that disk.
        geometry = Raid0Geometry(disk_count=1, stripe_unit_sectors=16, disk_sectors=1600)
        phases = geometry.plan(0, 64, False)
        assert len(phases[0]) == 1
        assert phases[0][0][2] == 64  # sectors


class TestRaid5Geometry:
    @pytest.fixture
    def geometry(self):
        return Raid5Geometry(disk_count=4, stripe_unit_sectors=16, disk_sectors=1600)

    def test_capacity_excludes_parity(self, geometry):
        raid0 = Raid0Geometry(disk_count=4, stripe_unit_sectors=16, disk_sectors=1600)
        assert geometry.logical_sectors == raid0.logical_sectors * 3 // 4

    def test_needs_three_disks(self):
        with pytest.raises(SimulationError):
            Raid5Geometry(disk_count=2, stripe_unit_sectors=16, disk_sectors=1600)

    def test_parity_rotates(self, geometry):
        paritys = [geometry.parity_disk(row) for row in range(4)]
        assert sorted(paritys) == [0, 1, 2, 3]

    def test_data_never_on_parity_disk(self, geometry):
        for unit in range(32):
            row = unit // geometry.data_disks
            disk, _ = geometry.locate_unit(unit)
            assert disk != geometry.parity_disk(row)

    def test_read_has_single_phase_no_parity(self, geometry):
        phases = geometry.plan(0, 32, False)
        assert len(phases) == 1
        assert all(not is_write for _, _, _, is_write in phases[0])
        assert sum(sectors for _, _, sectors, _ in phases[0]) == 32

    def test_small_write_is_read_modify_write(self, geometry):
        phases = geometry.plan(0, 8, True)
        assert len(phases) == 2
        reads, writes = phases
        assert all(not is_write for _, _, _, is_write in reads)
        assert all(is_write for _, _, _, is_write in writes)
        # Old data + old parity read; new data + new parity written.
        assert len(reads) == 2
        assert len(writes) == 2

    def test_full_stripe_write_skips_preread(self, geometry):
        full_stripe_sectors = geometry.data_disks * geometry.stripe_unit
        phases = geometry.plan(0, full_stripe_sectors, True)
        assert len(phases) == 1
        writes = phases[0]
        assert all(is_write for _, _, _, is_write in writes)
        # Data on 3 disks plus parity on 1: all four spindles engaged.
        assert {disk for disk, _, _, _ in writes} == {0, 1, 2, 3}
        written = sum(sectors for _, _, sectors, _ in writes)
        assert written == full_stripe_sectors + geometry.stripe_unit

    def test_write_includes_parity_per_row(self, geometry):
        writes = geometry.plan(0, 8, True)[-1]
        parity_sectors = [
            sectors for disk, _, sectors, _ in writes if disk == geometry.parity_disk(0)
        ]
        assert parity_sectors and parity_sectors[0] == 16


@pytest.mark.parametrize(
    "geometry",
    [
        Raid0Geometry(disk_count=4, stripe_unit_sectors=16, disk_sectors=1600),
        Raid5Geometry(disk_count=4, stripe_unit_sectors=16, disk_sectors=1600),
        Raid1Geometry(disk_sectors=1600),
    ],
    ids=["raid0", "raid5", "raid1"],
)
@pytest.mark.parametrize("lba, sectors", [(-1, 8), (0, 0), (0, -1)])
@pytest.mark.parametrize("is_write", [False, True])
def test_plan_refuses_negative_lba_and_empty_access(geometry, lba, sectors, is_write):
    with pytest.raises(SimulationError):
        geometry.plan(lba, sectors, is_write)


class TestStorageArray:
    def build(self, geometry_cls, disks=4):
        events = EventQueue()
        members = [
            standard_disk(
                name=f"d{i}",
                events=events,
                diameter_in=2.6,
                platters=1,
                kbpi=300,
                ktpi=10,
                rpm=10000,
                zone_count=10,
            )
            for i in range(disks)
        ]
        per_disk = min(d.total_sectors for d in members)
        geometry = geometry_cls(disks, 16, per_disk)
        done = []
        array = StorageArray(
            members, geometry, events, on_complete=lambda r, t: done.append(r)
        )
        return events, array, done

    def test_raid0_logical_completion(self):
        events, array, done = self.build(Raid0Geometry)
        array.submit(read(0, 64))
        events.run()
        assert len(done) == 1
        assert done[0].completion_ms is not None
        assert array.in_flight() == 0

    def test_raid5_write_two_phase_ordering(self):
        events, array, done = self.build(Raid5Geometry)
        array.submit(write(0, 8))
        events.run()
        assert len(done) == 1
        # RMW: response must cover two serial disk accesses.
        assert done[0].response_time_ms > 2.0

    def test_parallelism_speeds_up_wide_reads(self):
        events, array, done = self.build(Raid0Geometry)
        array.submit(read(0, 256))
        events.run()
        wide = done[0].response_time_ms
        # The same bytes on a single disk take longer.
        events2, array2, done2 = self.build(Raid0Geometry, disks=1)
        array2.submit(read(0, 256))
        events2.run()
        assert done2[0].response_time_ms > wide

    def test_many_requests_all_complete(self):
        events, array, done = self.build(Raid5Geometry)
        import random

        rng = random.Random(11)
        for i in range(200):
            lba = rng.randrange(array.logical_sectors - 64)
            if rng.random() < 0.3:
                array.submit(write(lba, 8, arrival=float(i)))
            else:
                array.submit(read(lba, 8, arrival=float(i)))
        events.run()
        assert len(done) == 200
        assert array.in_flight() == 0

    def test_geometry_disk_count_must_match(self):
        events = EventQueue()
        disks = [
            standard_disk(
                name="d0", events=events, diameter_in=2.6, platters=1,
                kbpi=300, ktpi=10, rpm=10000, zone_count=10,
            )
        ]
        geometry = Raid0Geometry(2, 16, 1000)
        with pytest.raises(SimulationError):
            StorageArray(disks, geometry, events)
