"""Tests for the deterministic fault-injection subsystem (repro.faults).

The load-bearing property is determinism: every fault decision is a pure
function of ``(seed, subject, ordinal, salt)``, so a fault-injected run
is bit-identical between repeat runs and between the serial and parallel
sweep paths.  Latency penalties must derive from the disk's mechanics,
and the emergency-throttle path must degrade RPM instead of erroring.
"""

import pytest

from repro.errors import FaultError
from repro.faults import (
    FAULT_KINDS,
    DiskFaultInjector,
    FaultConfig,
    FaultStats,
    ThermalEmergencyModel,
    unit_draw,
)


def _mechanics():
    """A real DiskMechanics instance via the standard-disk factory."""
    from repro.simulation.events import EventQueue
    from repro.simulation.disk import standard_disk

    return standard_disk("d", EventQueue(), rpm=15000.0).mechanics


class TestFaultConfig:
    def test_defaults_inject_nothing(self):
        config = FaultConfig()
        assert not config.injects_disk_faults
        assert not config.injects_any

    def test_rate_bounds_enforced(self):
        with pytest.raises(FaultError):
            FaultConfig(media_rate=1.5)
        with pytest.raises(FaultError):
            FaultConfig(servo_rate=-0.1)
        with pytest.raises(FaultError):
            FaultConfig(remap_fraction=2.0)
        with pytest.raises(FaultError):
            FaultConfig(thermal_emergency_rate=-1.0)

    def test_max_ecc_retries_must_be_positive(self):
        with pytest.raises(FaultError):
            FaultConfig(max_ecc_retries=0)

    def test_injects_flags(self):
        assert FaultConfig(media_rate=0.1).injects_disk_faults
        assert FaultConfig(servo_rate=0.1).injects_disk_faults
        thermal_only = FaultConfig(thermal_emergency_rate=0.1)
        assert not thermal_only.injects_disk_faults
        assert thermal_only.injects_any

    def test_picklable_and_hashable(self):
        import pickle

        config = FaultConfig(seed=3, media_rate=0.2)
        assert pickle.loads(pickle.dumps(config)) == config
        assert hash(config) == hash(FaultConfig(seed=3, media_rate=0.2))


class TestUnitDraw:
    def test_in_unit_interval(self):
        for ordinal in range(100):
            value = unit_draw(1, "disk0", ordinal, "media")
            assert 0.0 <= value < 1.0

    def test_deterministic(self):
        assert unit_draw(7, "disk0", 42, "media") == unit_draw(
            7, "disk0", 42, "media"
        )

    def test_coordinates_are_independent(self):
        base = unit_draw(7, "disk0", 42, "media")
        assert unit_draw(8, "disk0", 42, "media") != base
        assert unit_draw(7, "disk1", 42, "media") != base
        assert unit_draw(7, "disk0", 43, "media") != base
        assert unit_draw(7, "disk0", 42, "servo") != base


class TestDiskFaultInjector:
    def test_sequence_is_replayable(self):
        mechanics = _mechanics()
        config = FaultConfig(seed=11, media_rate=0.1, servo_rate=0.05)
        first = [
            config.injector_for("disk0").media_access_fault(mechanics)
            for _ in range(1)
        ]
        # Re-run the same ordinal sequence on a fresh injector.
        a, b = config.injector_for("disk0"), config.injector_for("disk0")
        seq_a = [a.media_access_fault(mechanics) for _ in range(500)]
        seq_b = [b.media_access_fault(mechanics) for _ in range(500)]
        assert [(f.kind, f.extra_ms) if f else None for f in seq_a] == [
            (f.kind, f.extra_ms) if f else None for f in seq_b
        ]
        assert a.stats == b.stats
        assert first[0] == seq_a[0]

    def test_stats_match_faults(self):
        mechanics = _mechanics()
        injector = FaultConfig(seed=2, media_rate=0.2, servo_rate=0.1).injector_for(
            "disk0"
        )
        faults = [
            f
            for f in (injector.media_access_fault(mechanics) for _ in range(400))
            if f is not None
        ]
        assert faults, "rates this high must inject something in 400 draws"
        assert injector.stats.total_injected == len(faults)
        assert injector.stats.extra_ms == pytest.approx(
            sum(f.extra_ms for f in faults)
        )
        assert all(f.kind in FAULT_KINDS for f in faults)

    def test_zero_rates_never_fault(self):
        mechanics = _mechanics()
        injector = FaultConfig(seed=5).injector_for("disk0")
        assert all(
            injector.media_access_fault(mechanics) is None for _ in range(200)
        )
        assert injector.stats.total_injected == 0

    def test_media_penalty_derives_from_rotation(self):
        mechanics = _mechanics()
        config = FaultConfig(seed=1, media_rate=1.0, remap_fraction=0.0)
        injector = config.injector_for("disk0")
        fault = injector.media_access_fault(mechanics)
        assert fault is not None and fault.kind == "media_retry"
        assert 1 <= fault.ecc_retries <= config.max_ecc_retries
        assert fault.extra_ms == pytest.approx(
            fault.ecc_retries * mechanics.period_ms
        )

    def test_remap_costs_more_than_retry(self):
        mechanics = _mechanics()
        remap = FaultConfig(seed=1, media_rate=1.0, remap_fraction=1.0)
        retry = FaultConfig(seed=1, media_rate=1.0, remap_fraction=0.0)
        f_remap = remap.injector_for("disk0").media_access_fault(mechanics)
        f_retry = retry.injector_for("disk0").media_access_fault(mechanics)
        assert f_remap.kind == "media_remap"
        assert f_remap.extra_ms > f_retry.extra_ms

    def test_servo_penalty_derives_from_settle_and_rotation(self):
        mechanics = _mechanics()
        injector = FaultConfig(seed=1, servo_rate=1.0).injector_for("disk0")
        fault = injector.media_access_fault(mechanics)
        assert fault is not None and fault.kind == "servo"
        assert fault.extra_ms == pytest.approx(
            mechanics.settle_ms + mechanics.period_ms / 2.0
        )


class TestFaultStats:
    def test_merge_accumulates(self):
        a = FaultStats(media_retries=1, extra_ms=2.0, ecc_retries=3)
        b = FaultStats(media_retries=2, servo_faults=1, extra_ms=0.5)
        a.merge(b)
        assert a.media_retries == 3
        assert a.servo_faults == 1
        assert a.extra_ms == pytest.approx(2.5)

    def test_as_dict_round_trips_json(self):
        import json

        stats = FaultStats(media_remaps=2, thermal_emergencies=1, extra_ms=4.2)
        out = json.loads(json.dumps(stats.as_dict(), allow_nan=False))
        assert out["media_remaps"] == 2
        assert out["total_injected"] == 3


class TestSystemIntegration:
    def _run(self, fault_config=None, telemetry=None):
        from repro.workloads import workload

        spec = workload("tpcc")
        trace = spec.generate(num_requests=500, seed=9)
        system = spec.build_system(
            spec.base_rpm, telemetry=telemetry, fault_config=fault_config
        )
        return system.run_trace(trace)

    def test_faults_slow_the_run_and_summarize(self):
        baseline = self._run()
        injected = self._run(FaultConfig(seed=7, media_rate=0.05, servo_rate=0.02))
        assert baseline.fault_summary is None
        summary = injected.fault_summary
        assert summary is not None and summary["total_injected"] > 0
        assert injected.stats.mean_ms() > baseline.stats.mean_ms()

    def test_zero_rate_config_is_a_noop(self):
        baseline = self._run()
        nulled = self._run(FaultConfig(seed=7))
        assert nulled.fault_summary is None
        assert nulled.stats.mean_ms() == baseline.stats.mean_ms()

    def test_injected_run_is_deterministic(self):
        config = FaultConfig(seed=7, media_rate=0.05, servo_rate=0.02)
        first = self._run(config)
        second = self._run(config)
        assert first.stats.mean_ms() == second.stats.mean_ms()
        assert first.fault_summary == second.fault_summary

    def test_telemetry_counts_and_trace_events(self):
        from repro.telemetry import Telemetry
        from repro.telemetry.trace import KNOWN_KINDS

        tel = Telemetry()
        report = self._run(
            FaultConfig(seed=7, media_rate=0.05, servo_rate=0.02), telemetry=tel
        )
        total = report.fault_summary["total_injected"]
        counter = tel.registry.get("faults.injected")
        assert counter is not None and counter.value == float(total)
        events = [e for e in tel.trace.events() if e.kind == "fault_injected"]
        assert events, "every injected fault must leave a trace event"
        assert all(e.kind in KNOWN_KINDS for e in events)


class TestSweepDeterminism:
    def test_fault_injected_sweep_serial_matches_parallel(self):
        from repro.simulation.sweep import (
            build_workload_tasks,
            sweep_workloads,
            workload_sweep_kind,
        )
        from tests.sweep_kinds import process_pool

        kwargs = dict(
            names=["tpcc"],
            requests=300,
            rpm_steps=2,
            seed=4,
            fault_config=FaultConfig(seed=4, media_rate=0.05, servo_rate=0.01),
        )
        serial = sweep_workloads(workers=1, **kwargs)
        pool = process_pool(workload_sweep_kind(), build_workload_tasks(**kwargs))
        parallel = sweep_workloads(backend=pool, **kwargs)
        assert serial == parallel
        assert all(r.fault_summary is not None for r in serial)

    def test_resilient_front_end_carries_fault_summaries(self):
        from repro.simulation.sweep import sweep_workloads_resilient

        results, report = sweep_workloads_resilient(
            names=["tpcc"],
            requests=200,
            rpm_steps=2,
            seed=4,
            workers=1,
            fault_config=FaultConfig(seed=4, media_rate=0.05),
        )
        assert not report.failed
        assert all(r is not None and r.fault_summary is not None for r in results)


class TestThermalEmergencyModel:
    def test_probability_at_envelope_is_base_rate(self):
        model = FaultConfig(thermal_emergency_rate=0.01).emergency_model()
        assert model.trigger_probability(45.0, 45.0) == pytest.approx(0.01)

    def test_probability_halves_15c_below_envelope(self):
        model = FaultConfig(thermal_emergency_rate=0.01).emergency_model()
        assert model.trigger_probability(30.0, 45.0) == pytest.approx(0.005)

    def test_probability_caps_at_one(self):
        model = FaultConfig(thermal_emergency_rate=0.5).emergency_model()
        assert model.trigger_probability(45.0 + 150.0, 45.0) == 1.0

    def test_zero_rate_never_triggers(self):
        model = FaultConfig().emergency_model()
        assert model.trigger_probability(60.0, 45.0) == 0.0
        assert not any(model.should_trigger(60.0, 45.0) for _ in range(50))

    def test_certain_rate_always_triggers_and_counts(self):
        model = FaultConfig(thermal_emergency_rate=1.0).emergency_model()
        assert all(model.should_trigger(45.0, 45.0) for _ in range(10))
        assert model.stats.thermal_emergencies == 10

    def test_decisions_are_replayable(self):
        config = FaultConfig(seed=3, thermal_emergency_rate=0.3)
        a, b = config.emergency_model(), config.emergency_model()
        seq_a = [a.should_trigger(40.0, 45.0) for _ in range(200)]
        seq_b = [b.should_trigger(40.0, 45.0) for _ in range(200)]
        assert seq_a == seq_b
        assert any(seq_a) and not all(seq_a)


class TestEmergencyThrottle:
    def _managed(
        self,
        envelope_offset_c,
        emergency_model=None,
        trigger_margin_c=0.001,
        resume_margin_c=0.01,
    ):
        from repro.dtm import DTMPolicy, ThermallyManagedSystem
        from repro.thermal import DriveThermalModel
        from repro.workloads import workload

        spec = workload("search_engine")
        system = spec.build_system(rpm=24500)
        thermal = DriveThermalModel(
            platter_diameter_in=2.6, rpm=24500, vcm_active=False
        )
        thermal.settle()
        thermal.set_operating_state(vcm_active=True)
        # A hair-thin trigger band: under load the air temperature crosses
        # trigger and envelope inside one check interval, so the genuine
        # breach (emergency) path engages rather than the ordinary
        # throttle; the resume threshold stays above the cooling-mode
        # steady temperature so the controller can recover.
        policy = DTMPolicy(
            envelope_c=thermal.air_c() + envelope_offset_c,
            trigger_margin_c=trigger_margin_c,
            resume_margin_c=resume_margin_c,
            check_interval_ms=20.0,
        )
        managed = ThermallyManagedSystem(
            system, thermal, policy, emergency_model=emergency_model
        )
        return managed, spec.generate(num_requests=600, seed=5)

    def test_envelope_breach_degrades_instead_of_erroring(self):
        """A design that genuinely breaches the envelope completes the
        trace via the emergency RPM drop instead of raising."""
        managed, trace = self._managed(envelope_offset_c=0.02)
        report = managed.run_trace(trace)
        assert report.emergency_events > 0
        assert report.stats.count == len(trace)

    def test_emergency_drops_rpm(self):
        managed, trace = self._managed(envelope_offset_c=0.02)
        full_rpm = managed.thermal.rpm
        managed.run_trace(trace)
        assert managed.in_emergency or managed.thermal.rpm < full_rpm

    def test_injected_emergency_fires_with_cool_envelope(self):
        model = FaultConfig(thermal_emergency_rate=1.0).emergency_model()
        managed, trace = self._managed(envelope_offset_c=30.0, emergency_model=model)
        report = managed.run_trace(trace)
        assert report.emergency_events > 0
        assert model.stats.thermal_emergencies > 0
        assert report.stats.count == len(trace)

    def test_no_emergency_without_breach_or_injection(self):
        managed, trace = self._managed(envelope_offset_c=30.0)
        report = managed.run_trace(trace)
        assert report.emergency_events == 0
