"""Second round of property-based tests: cache semantics, mirroring,
trace round-trips, the reliability model, and the array airflow model."""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.simulation.cache import DiskCache
from repro.simulation.raid import Raid1Geometry
from repro.thermal.array import airflow_temperature_rise_c, drive_heat_w
from repro.thermal.reliability import failure_acceleration, relative_mtbf
from repro.workloads.disksim_format import read_disksim, write_disksim
from repro.workloads.trace import Trace, TraceRecord

records_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=1e6),
        st.integers(min_value=0, max_value=10**9),
        st.integers(min_value=1, max_value=1024),
        st.booleans(),
    ),
    min_size=1,
    max_size=60,
)


def _make_trace(raw) -> Trace:
    return Trace.from_records(
        "prop",
        [
            TraceRecord(time_ms=t, lba=lba, sectors=n, is_write=w)
            for t, lba, n, w in raw
        ],
    )


class TestTraceRoundtrips:
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(raw=records_strategy)
    def test_native_format_roundtrip(self, raw, tmp_path_factory):
        trace = _make_trace(raw)
        path = tmp_path_factory.mktemp("traces") / "t.trace"
        trace.save(path)
        loaded = Trace.load(path)
        assert len(loaded) == len(trace)
        for a, b in zip(trace, loaded):
            assert (a.lba, a.sectors, a.is_write) == (b.lba, b.sectors, b.is_write)
            assert math.isclose(a.time_ms, b.time_ms, abs_tol=1e-3)

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(raw=records_strategy)
    def test_disksim_format_roundtrip(self, raw, tmp_path_factory):
        trace = _make_trace(raw)
        path = tmp_path_factory.mktemp("traces") / "t.dsim"
        write_disksim(trace, path)
        loaded = read_disksim(path)
        assert len(loaded) == len(trace)
        for a, b in zip(trace, loaded):
            assert (a.lba, a.sectors, a.is_write) == (b.lba, b.sectors, b.is_write)
            assert math.isclose(a.time_ms, b.time_ms, abs_tol=1e-2)


class TestCacheProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        operations=st.lists(
            st.tuples(
                st.sampled_from(["read", "fill", "write"]),
                st.integers(min_value=0, max_value=5000),
                st.integers(min_value=1, max_value=64),
            ),
            min_size=1,
            max_size=80,
        )
    )
    def test_cache_never_overflows_and_stays_consistent(self, operations):
        cache = DiskCache(size_bytes=32 * 1024, segments=4, read_ahead_sectors=8)
        for op, lba, sectors in operations:
            if op == "read":
                cache.lookup_read(lba, sectors)
            elif op == "fill":
                start, length = cache.fill_after_read(lba, sectors, disk_sectors=10_000_000)
                assert start == lba
                assert length >= 1
                assert cache.contains(lba, min(sectors, length))
            else:
                cache.note_write(lba, sectors)
                # A straddling write never leaves a stale covering segment
                # unless the write was interior (which keeps it valid).
            assert len(cache) <= 4

    @settings(max_examples=40, deadline=None)
    @given(
        lba=st.integers(min_value=0, max_value=100_000),
        sectors=st.integers(min_value=1, max_value=64),
    )
    def test_fill_then_read_hits(self, lba, sectors):
        cache = DiskCache(size_bytes=1024 * 1024, segments=8)
        cache.fill_after_read(lba, sectors, disk_sectors=10_000_000)
        assert cache.lookup_read(lba, sectors)

    @settings(max_examples=40, deadline=None)
    @given(
        lba=st.integers(min_value=16, max_value=100_000),
        sectors=st.integers(min_value=1, max_value=64),
    )
    def test_overlapping_write_invalidates_edges(self, lba, sectors):
        cache = DiskCache(size_bytes=1024 * 1024, segments=8, read_ahead_sectors=0)
        cache.fill_after_read(lba, sectors, disk_sectors=10_000_000)
        # A write straddling the front edge must invalidate the segment.
        cache.note_write(lba - 8, 9)
        assert not cache.contains(lba, sectors)


class TestMirrorProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        lba=st.integers(min_value=0, max_value=9_000),
        sectors=st.integers(min_value=1, max_value=512),
        target=st.integers(min_value=0, max_value=1),
        is_write=st.booleans(),
    )
    def test_plan_shape(self, lba, sectors, target, is_write):
        geometry = Raid1Geometry(disk_sectors=10_000)
        if lba + sectors > geometry.logical_sectors:
            return
        geometry.set_read_target(target)
        children = [c for phase in geometry.plan(lba, sectors, is_write) for c in phase]
        if is_write:
            assert {disk for disk, _, _, _ in children} == {0, 1}
            assert all(c_lba == lba and n == sectors for _, c_lba, n, _ in children)
        else:
            assert len(children) == 1
            assert children[0][0] == target  # the read's disk


class TestThermalScalarProperties:
    @settings(max_examples=50, deadline=None)
    @given(temp=st.floats(min_value=-20, max_value=120))
    def test_failure_times_mtbf_is_one(self, temp):
        assert failure_acceleration(temp) * relative_mtbf(temp) == 1.0 or math.isclose(
            failure_acceleration(temp) * relative_mtbf(temp), 1.0, rel_tol=1e-12
        )

    @settings(max_examples=50, deadline=None)
    @given(
        t1=st.floats(min_value=0, max_value=100),
        t2=st.floats(min_value=0, max_value=100),
    )
    def test_failure_monotone(self, t1, t2):
        lo, hi = sorted((t1, t2))
        assert failure_acceleration(lo) <= failure_acceleration(hi)

    @settings(max_examples=50, deadline=None)
    @given(
        heat=st.floats(min_value=0.1, max_value=500),
        airflow=st.floats(min_value=1e-3, max_value=1.0),
    )
    def test_airflow_rise_linear(self, heat, airflow):
        rise = airflow_temperature_rise_c(heat, airflow)
        assert rise > 0
        assert math.isclose(
            airflow_temperature_rise_c(2 * heat, airflow), 2 * rise, rel_tol=1e-9
        )
        assert math.isclose(
            airflow_temperature_rise_c(heat, 2 * airflow), rise / 2, rel_tol=1e-9
        )

    @settings(max_examples=30, deadline=None)
    @given(
        rpm=st.floats(min_value=5000, max_value=60000),
        duty=st.floats(min_value=0, max_value=1),
    )
    def test_drive_heat_monotone_in_duty(self, rpm, duty):
        base = drive_heat_w(rpm, 2.6, vcm_duty=0.0)
        at_duty = drive_heat_w(rpm, 2.6, vcm_duty=duty)
        full = drive_heat_w(rpm, 2.6, vcm_duty=1.0)
        assert base <= at_duty <= full
