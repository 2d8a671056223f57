"""Workload tests: trace format, synthetic generator, catalog."""

import hashlib

import pytest

from repro.errors import TraceError
from repro.simulation.preplan import spec_geometry
from repro.workloads import (
    Trace,
    TraceRecord,
    WorkloadShape,
    catalog,
    generate_trace,
    workload,
)


class TestTraceRecord:
    def test_valid(self):
        record = TraceRecord(time_ms=1.0, lba=100, sectors=8, is_write=True)
        assert record.is_write

    def test_rejects_bad_fields(self):
        with pytest.raises(TraceError):
            TraceRecord(time_ms=-1, lba=0, sectors=1, is_write=False)
        with pytest.raises(TraceError):
            TraceRecord(time_ms=0, lba=-1, sectors=1, is_write=False)
        with pytest.raises(TraceError):
            TraceRecord(time_ms=0, lba=0, sectors=0, is_write=False)


class TestTrace:
    def make(self):
        return Trace(
            name="t",
            records=[
                TraceRecord(0.0, 0, 8, False),
                TraceRecord(1.0, 100, 4, True),
                TraceRecord(2.0, 50, 16, False),
            ],
        )

    def test_enforces_time_order(self):
        with pytest.raises(TraceError):
            Trace(
                name="bad",
                records=[TraceRecord(5.0, 0, 1, False), TraceRecord(1.0, 0, 1, False)],
            )

    def test_summary_statistics(self):
        trace = self.make()
        assert len(trace) == 3
        assert trace.duration_ms == pytest.approx(2.0)
        assert trace.max_lba() == 104
        assert trace.write_fraction() == pytest.approx(1 / 3)
        assert trace.mean_request_sectors() == pytest.approx(28 / 3)
        assert trace.arrival_rate_per_s() == pytest.approx(1000.0)

    def test_save_load_roundtrip(self, tmp_path):
        trace = self.make()
        path = tmp_path / "t.trace"
        trace.save(path)
        loaded = Trace.load(path)
        assert len(loaded) == len(trace)
        for a, b in zip(trace, loaded):
            assert (a.time_ms, a.lba, a.sectors, a.is_write) == (
                b.time_ms,
                b.lba,
                b.sectors,
                b.is_write,
            )

    def test_load_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("1.0 2 3\n")
        with pytest.raises(TraceError):
            Trace.load(path)

    def test_load_skips_comments(self, tmp_path):
        path = tmp_path / "c.trace"
        path.write_text("# header\n1.0 0 8 R\n\n2.0 8 8 W\n")
        loaded = Trace.load(path)
        assert len(loaded) == 2

    def test_from_records_sorts(self):
        trace = Trace.from_records(
            "s", [TraceRecord(5.0, 0, 1, False), TraceRecord(1.0, 0, 1, False)]
        )
        assert trace.records[0].time_ms == 1.0

    def test_scaled_rate(self):
        trace = self.make().scaled_rate(2.0)
        assert trace.duration_ms == pytest.approx(1.0)
        with pytest.raises(TraceError):
            self.make().scaled_rate(0)


class TestWorkloadShape:
    def test_validation(self):
        with pytest.raises(TraceError):
            WorkloadShape(name="x", mean_interarrival_ms=0)
        with pytest.raises(TraceError):
            WorkloadShape(name="x", mean_interarrival_ms=1, burstiness=0.5)
        with pytest.raises(TraceError):
            WorkloadShape(name="x", mean_interarrival_ms=1, read_fraction=1.5)
        with pytest.raises(TraceError):
            WorkloadShape(name="x", mean_interarrival_ms=1, size_mix=())
        with pytest.raises(TraceError):
            WorkloadShape(name="x", mean_interarrival_ms=1, sequential_fraction=1.0)

    def test_scaled_rate(self):
        shape = WorkloadShape(name="x", mean_interarrival_ms=4.0)
        assert shape.scaled_rate(2.0).mean_interarrival_ms == pytest.approx(2.0)


class TestGenerateTrace:
    @pytest.fixture
    def shape(self):
        return WorkloadShape(
            name="test",
            mean_interarrival_ms=2.0,
            burstiness=2.0,
            read_fraction=0.7,
            size_mix=((8, 0.5), (16, 0.5)),
            sequential_fraction=0.3,
            hot_fraction=0.5,
            hot_region_fraction=0.1,
        )

    def test_deterministic_given_seed(self, shape):
        a = generate_trace(shape, 500, 100_000, seed=7)
        b = generate_trace(shape, 500, 100_000, seed=7)
        assert [(r.time_ms, r.lba) for r in a] == [(r.time_ms, r.lba) for r in b]

    def test_different_seeds_differ(self, shape):
        a = generate_trace(shape, 500, 100_000, seed=7)
        b = generate_trace(shape, 500, 100_000, seed=8)
        assert [(r.time_ms, r.lba) for r in a] != [(r.time_ms, r.lba) for r in b]

    def test_request_count(self, shape):
        assert len(generate_trace(shape, 321, 100_000, seed=1)) == 321

    def test_addresses_in_range(self, shape):
        trace = generate_trace(shape, 2000, 50_000, seed=2)
        assert trace.max_lba() <= 50_000

    def test_mean_interarrival_near_target(self, shape):
        trace = generate_trace(shape, 5000, 100_000, seed=3)
        mean = trace.duration_ms / (len(trace) - 1)
        assert mean == pytest.approx(2.0, rel=0.15)

    def test_write_fraction_near_target(self, shape):
        trace = generate_trace(shape, 5000, 100_000, seed=4)
        assert trace.write_fraction() == pytest.approx(0.3, abs=0.03)

    def test_sizes_from_mix(self, shape):
        trace = generate_trace(shape, 1000, 100_000, seed=5)
        assert {r.sectors for r in trace} == {8, 16}

    def test_burstiness_raises_variance(self):
        base = WorkloadShape(name="p", mean_interarrival_ms=2.0, burstiness=1.0)
        bursty = WorkloadShape(name="b", mean_interarrival_ms=2.0, burstiness=8.0)

        def cv2(trace):
            gaps = [
                b.time_ms - a.time_ms for a, b in zip(trace.records, trace.records[1:])
            ]
            mean = sum(gaps) / len(gaps)
            var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
            return var / mean**2

        assert cv2(generate_trace(bursty, 4000, 100_000, seed=6)) > 1.5 * cv2(
            generate_trace(base, 4000, 100_000, seed=6)
        )

    def test_sequentiality_produces_adjacent_requests(self):
        seq = WorkloadShape(
            name="s", mean_interarrival_ms=1.0, sequential_fraction=0.9, stream_count=1
        )
        trace = generate_trace(seq, 2000, 1_000_000, seed=7)
        adjacent = sum(
            1
            for a, b in zip(trace.records, trace.records[1:])
            if b.lba == a.lba + a.sectors
        )
        assert adjacent / len(trace) > 0.5

    def test_hot_region_concentrates_accesses(self):
        hot = WorkloadShape(
            name="h",
            mean_interarrival_ms=1.0,
            hot_fraction=0.9,
            hot_region_fraction=0.05,
        )
        trace = generate_trace(hot, 3000, 1_000_000, seed=8)
        in_hot = sum(1 for r in trace if r.lba < 50_000)
        assert in_hot / len(trace) > 0.75

    def test_rejects_tiny_capacity(self, shape):
        with pytest.raises(TraceError):
            generate_trace(shape, 10, 8, seed=0)

    def test_rejects_zero_requests(self, shape):
        with pytest.raises(TraceError):
            generate_trace(shape, 0, 100_000, seed=0)


class TestCatalog:
    def test_five_workloads(self):
        assert set(catalog()) == {"openmail", "oltp", "search_engine", "tpcc", "tpch"}

    def test_unknown_raises(self):
        with pytest.raises(TraceError):
            workload("exchange")

    def test_figure4a_configurations(self):
        # The workload table of Figure 4(a).
        om = workload("openmail")
        assert (om.disk_count, om.base_rpm, om.raid5) == (8, 10000.0, True)
        assert om.disk_capacity_gb == pytest.approx(9.29)
        oltp = workload("oltp")
        assert (oltp.disk_count, oltp.base_rpm, oltp.raid5) == (24, 10000.0, False)
        se = workload("search_engine")
        assert (se.disk_count, se.base_rpm) == (6, 10000.0)
        tpcc = workload("tpcc")
        assert (tpcc.disk_count, tpcc.raid5) == (4, True)
        tpch = workload("tpch")
        assert (tpch.disk_count, tpch.base_rpm) == (15, 7200.0)

    def test_rpm_sweep_steps_of_5000(self):
        sweep = workload("tpch").rpm_sweep()
        assert sweep == (7200.0, 12200.0, 17200.0, 22200.0)

    def test_build_system_capacity_clipped(self):
        spec = workload("openmail")
        system = spec.build_system()
        per_disk = system.array.geometry.disk_sectors
        assert per_disk * 512 <= spec.disk_capacity_gb * 1e9 + 512

    def test_generate_fits_system(self):
        spec = workload("tpcc")
        trace = spec.generate(num_requests=200, seed=0)
        assert trace.max_lba() <= spec.build_system().array.logical_sectors

    def test_generate_refuses_zero_requests(self):
        with pytest.raises(TraceError):
            workload("tpcc").generate(num_requests=0)

    def test_generate_defaults_to_the_spec_request_count(self):
        assert len(workload("tpcc").generate()) == 20000

    def test_raid5_uses_16_sector_stripes(self):
        assert workload("tpcc").stripe_unit_sectors == 16
        assert workload("oltp").stripe_unit_sectors == 2048

    def test_with_shape_override(self):
        spec = workload("oltp").with_shape(mean_interarrival_ms=9.9)
        assert spec.shape.mean_interarrival_ms == 9.9
        # original untouched
        assert workload("oltp").shape.mean_interarrival_ms != 9.9


#: sha256 of each catalog workload's 2000-request, seed-7 trace (one
#: ``<time.hex()> <lba> <sectors> <write>`` line per record), generated
#: when ``WorkloadSpec.generate`` still sized traces from a whole built
#: system: sizing them from the array geometry alone changes no record.
TRACE_SHA256 = {
    "oltp": "0f385d5b6e9cb650597472f3f1939f76940c51c7ad01647bd82e0315472690c5",
    "openmail": "bc19455c29ab2cd908a8aebd21d1a4deca47f6e6e494282e0cfb23089dce4aa1",
    "search_engine": "d9e531d7f97f53520a414822cedaa97c23a693cf9a2c04694012e58551fd0823",
    "tpcc": "d961b55bce3590fde5b6d841ffbad3b95a202071496b3389ffd829925ac701a3",
    "tpch": "6090f145f1a746ec6b2db1a748113e6dffe54c479f45058fd10b77b00bd02baa",
}


@pytest.mark.parametrize("name", sorted(TRACE_SHA256))
def test_generated_trace_is_pinned(name):
    trace = workload(name).generate(num_requests=2000, seed=7)
    text = "".join(
        f"{r.time_ms.hex()} {r.lba} {r.sectors} {int(r.is_write)}\n" for r in trace
    )
    assert hashlib.sha256(text.encode()).hexdigest() == TRACE_SHA256[name]


def test_generate_capacity_is_the_built_arrays():
    for spec in catalog().values():
        geometry = spec.build_system().array.geometry
        assert spec_geometry(spec).array.mapping == geometry.mapping
