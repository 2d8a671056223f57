"""Property-based tests (hypothesis) for core invariants."""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.capacity import RecordingTechnology, ZonedSurface, gray_code, gray_decode
from repro.capacity.ecc import smooth_ecc_bits_per_sector
from repro.geometry.platter import Platter
from repro.performance.idr import idr_mb_per_s, required_rpm_for_idr
from repro.performance.rotation import angle_at, wait_for_angle_ms
from repro.performance.seek import SeekModel, seek_parameters_for_platter
from repro.simulation.layout import DiskLayout
from repro.simulation.raid import Raid0Geometry, Raid5Geometry
from repro.simulation.statistics import ResponseTimeStats
from repro.thermal.network import ThermalNetwork, ThermalNode
from repro.thermal.viscous import rpm_for_viscous_power, viscous_power_w

# Shared strategies -----------------------------------------------------------

diameters = st.floats(min_value=1.0, max_value=4.0)
rpms = st.floats(min_value=3600.0, max_value=200000.0)


class TestCapacityProperties:
    @given(track=st.integers(min_value=0, max_value=1 << 20))
    def test_gray_roundtrip(self, track):
        assert gray_decode(gray_code(track)) == track

    @given(track=st.integers(min_value=0, max_value=1 << 20))
    def test_gray_adjacent_single_bit(self, track):
        assert bin(gray_code(track) ^ gray_code(track + 1)).count("1") == 1

    @given(
        kbpi=st.floats(min_value=100, max_value=2000),
        ktpi=st.floats(min_value=5, max_value=600),
        diameter=diameters,
        zones=st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=40, deadline=None)
    def test_zone_partition_invariants(self, kbpi, ktpi, diameter, zones):
        tech = RecordingTechnology.from_kilo_units(kbpi, ktpi)
        platter = Platter(diameter_in=diameter)
        try:
            surface = ZonedSurface(platter, tech, zone_count=zones)
        except Exception:
            return  # infeasible combination (too few tracks) is allowed to raise
        assert sum(z.track_count for z in surface.zones) == surface.cylinders
        sectors = [z.sectors_per_track for z in surface.zones]
        assert sectors == sorted(sectors, reverse=True)
        assert surface.sectors_per_surface == sum(z.sectors for z in surface.zones)

    @given(density=st.floats(min_value=1e9, max_value=1e15))
    def test_smooth_ecc_bounded(self, density):
        value = smooth_ecc_bits_per_sector(density)
        assert 416 <= value <= 1440


class TestPerformanceProperties:
    @given(rpm=rpms, ntz0=st.integers(min_value=1, max_value=5000))
    def test_idr_inverse(self, rpm, ntz0):
        assert required_rpm_for_idr(idr_mb_per_s(rpm, ntz0), ntz0) == math.isclose(
            rpm, required_rpm_for_idr(idr_mb_per_s(rpm, ntz0), ntz0), rel_tol=1e-9
        ) or True
        # (explicit check)
        assert math.isclose(
            required_rpm_for_idr(idr_mb_per_s(rpm, ntz0), ntz0), rpm, rel_tol=1e-9
        )

    @given(
        diameter=diameters,
        cylinders=st.integers(min_value=100, max_value=100_000),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_seek_monotone(self, diameter, cylinders, data):
        model = SeekModel(seek_parameters_for_platter(diameter), cylinders)
        d1 = data.draw(st.integers(min_value=0, max_value=cylinders - 1))
        d2 = data.draw(st.integers(min_value=0, max_value=cylinders - 1))
        lo, hi = sorted((d1, d2))
        assert model.seek_time_ms(lo) <= model.seek_time_ms(hi) + 1e-12

    @given(
        now=st.floats(min_value=0, max_value=1e6),
        target=st.floats(min_value=0, max_value=0.999),
        rpm=rpms,
    )
    def test_rotational_wait_in_one_revolution(self, now, target, rpm):
        wait = wait_for_angle_ms(now, target, rpm)
        period = 60000.0 / rpm
        assert 0 <= wait < period
        assert math.isclose(
            angle_at(now + wait, rpm) % 1.0, target, abs_tol=1e-6
        ) or math.isclose(abs(angle_at(now + wait, rpm) - target), 1.0, abs_tol=1e-6)


class TestThermalProperties:
    @given(rpm=rpms, diameter=diameters, platters=st.integers(min_value=1, max_value=8))
    def test_viscous_inverse(self, rpm, diameter, platters):
        power = viscous_power_w(rpm, diameter, platters)
        assert math.isclose(
            rpm_for_viscous_power(power, diameter, platters), rpm, rel_tol=1e-9
        )

    @given(
        rpm1=rpms,
        rpm2=rpms,
        diameter=diameters,
    )
    def test_viscous_monotone_in_rpm(self, rpm1, rpm2, diameter):
        lo, hi = sorted((rpm1, rpm2))
        assert viscous_power_w(lo, diameter) <= viscous_power_w(hi, diameter)

    @given(
        heat=st.floats(min_value=0.1, max_value=100.0),
        g_link=st.floats(min_value=0.1, max_value=10.0),
        g_amb=st.floats(min_value=0.1, max_value=10.0),
        ambient=st.floats(min_value=-20, max_value=60),
    )
    @settings(max_examples=40, deadline=None)
    def test_two_node_steady_energy_balance(self, heat, g_link, g_amb, ambient):
        net = ThermalNetwork(
            [ThermalNode("a", 1.0), ThermalNode("b", 10.0)], ambient_c=ambient
        )
        net.connect("a", "b", g_link)
        net.connect_ambient("b", g_amb)
        net.set_heat("a", heat)
        steady = net.steady_state()
        outflow = g_amb * (steady["b"] - ambient)
        assert math.isclose(outflow, heat, rel_tol=1e-6)
        assert steady["a"] >= steady["b"] >= ambient

    @given(
        heat=st.floats(min_value=0.1, max_value=50.0),
        dt=st.floats(min_value=0.01, max_value=10.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_implicit_euler_bounded_by_steady_state(self, heat, dt):
        net = ThermalNetwork(
            [ThermalNode("a", 0.01), ThermalNode("b", 100.0)], ambient_c=20.0
        )
        net.connect("a", "b", 1.0)
        net.connect_ambient("b", 0.5)
        net.set_heat("a", heat)
        steady = net.steady_state()
        for _ in range(50):
            net.step(dt)
            assert net.temperature("a") <= steady["a"] + 1e-6
            assert net.temperature("b") <= steady["b"] + 1e-6
            assert net.temperature("a") >= 20.0 - 1e-6


class TestLayoutProperties:
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        surfaces=st.integers(min_value=1, max_value=8),
        zones=st.integers(min_value=1, max_value=20),
        data=st.data(),
    )
    def test_lba_roundtrip(self, surfaces, zones, data):
        tech = RecordingTechnology.from_kilo_units(300, 5)
        surface = ZonedSurface(Platter(diameter_in=2.6), tech, zone_count=zones)
        layout = DiskLayout(surface, surfaces=surfaces)
        lba = data.draw(st.integers(min_value=0, max_value=layout.total_sectors - 1))
        addr = layout.locate(lba)
        assert layout.lba_of(addr.cylinder, addr.surface, addr.sector) == lba

    @settings(max_examples=25, deadline=None)
    @given(
        disks=st.integers(min_value=3, max_value=12),
        stripe=st.integers(min_value=1, max_value=64),
        lba=st.integers(min_value=0, max_value=10_000),
        sectors=st.integers(min_value=1, max_value=512),
        is_write=st.booleans(),
    )
    def test_raid5_plan_conservation(self, disks, stripe, lba, sectors, is_write):
        geometry = Raid5Geometry(disks, stripe, disk_sectors=100_000)
        if lba + sectors > geometry.logical_sectors:
            return
        children = [c for phase in geometry.plan(lba, sectors, is_write) for c in phase]
        writes = [c for c in children if c[3]]
        reads = [c for c in children if not c[3]]
        if is_write:
            data_written = sum(n for _, _, n, _ in writes)
            # Data plus one parity unit per touched stripe row.
            rows = set(
                u // geometry.data_disks
                for u in range(lba // stripe, (lba + sectors - 1) // stripe + 1)
            )
            assert data_written == sectors + len(rows) * stripe
            for disk, _, _, _ in children:
                assert 0 <= disk < disks
        else:
            assert not writes
            assert sum(n for _, _, n, _ in reads) == sectors

    @settings(max_examples=25, deadline=None)
    @given(
        disks=st.integers(min_value=1, max_value=12),
        stripe=st.integers(min_value=1, max_value=64),
        lba=st.integers(min_value=0, max_value=10_000),
        sectors=st.integers(min_value=1, max_value=512),
    )
    def test_raid0_plan_conservation(self, disks, stripe, lba, sectors):
        geometry = Raid0Geometry(disks, stripe, disk_sectors=100_000)
        if lba + sectors > geometry.logical_sectors:
            return
        children = [c for phase in geometry.plan(lba, sectors, False) for c in phase]
        assert sum(n for _, _, n, _ in children) == sectors
        for _, child_lba, child_sectors, _ in children:
            assert child_lba + child_sectors <= 100_000


class TestStatisticsProperties:
    @given(samples=st.lists(st.floats(min_value=0, max_value=1e4), min_size=1, max_size=200))
    def test_cdf_monotone_and_bounded(self, samples):
        stats = ResponseTimeStats()
        for sample in samples:
            stats.add(sample)
        cdf = stats.cdf()
        fractions = [f for _, f in cdf]
        assert fractions == sorted(fractions)
        assert all(0.0 <= f <= 1.0 for f in fractions)

    @given(samples=st.lists(st.floats(min_value=0, max_value=1e4), min_size=1, max_size=200))
    def test_percentile_bounds(self, samples):
        stats = ResponseTimeStats()
        for sample in samples:
            stats.add(sample)
        assert stats.percentile_ms(0) == min(samples)
        assert stats.percentile_ms(100) == max(samples)
        assert min(samples) <= stats.median_ms() <= max(samples)
        # Mean may differ from the extremes by floating rounding.
        tolerance = 1e-9 * (abs(max(samples)) + 1.0)
        assert min(samples) - tolerance <= stats.mean_ms() <= max(samples) + tolerance
