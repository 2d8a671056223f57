"""Property-based fleet tests over randomized rack topologies.

No Hypothesis here on purpose: the generators are hand-written over a
seeded ``random.Random`` so the 200 generated topologies are the *same*
200 on every host and every run — a failing case number is directly
re-runnable, and the byte-determinism property below would be
meaningless under a shrinking/replay framework that varies inputs.

Invariants checked on every generated topology:

* **Inlet monotonicity** — recirculation only ever *pre-heats*:
  enclosure inlets are non-decreasing along the stack and never below
  the cold-aisle supply; within an enclosure, downstream drives see
  hotter air than upstream ones.
* **Non-negativity** — heats, exhaust rises and cooling budgets are
  never negative anywhere in a profile.
* **Throttle-order invariance** — coordinating with the breach set
  enumerated forward or backward yields the *same* coordination.
* **Tiering conservation** — every extent lands on exactly one drive,
  total demand is conserved, and the planned power never exceeds the
  all-top-rung baseline.
* **Byte-determinism** — simulating the same rack task twice produces
  byte-identical canonical results JSON.
* **Rise linearity** — the memoized per-drive rise, solved once at a
  pinned reference ambient, plus the real inlet equals a steady solve
  at that inlet (the thermal network is linear in ambient).
"""

from __future__ import annotations

import random

import pytest

from repro.constants import AMBIENT_TEMPERATURE_C, THERMAL_ENVELOPE_C
from repro.fleet import (
    EnclosureSpec,
    FleetDTMPolicy,
    RackSpec,
    TieringPolicy,
    coordinate_rack,
    fleet_results_json_bytes,
    rack_profile,
)
from repro.fleet.sweep import RackTask, _run_rack_task
from repro.fleet.tiering import extent_heats, plan_rack_tiering

#: One fixed seed; 200 cases derived from it.  Do not change casually —
#: the suite's value is that case N is the same topology forever.
SEED = 20260809
CASES = 200

RPM_LEVELS = (9600.0, 12000.0, 15000.0)


def generate_rack(rng: random.Random, index: int) -> RackSpec:
    """One random-but-reproducible rack topology.

    Ranges are chosen to straddle the interesting regimes: airflows from
    starved (never converges) through generous (never throttles),
    budgets from tight to irrelevant, stacks from flat to tall.
    """
    enclosures = []
    for _ in range(rng.randint(1, 4)):
        enclosures.append(
            EnclosureSpec(
                drives=rng.randint(1, 4),
                airflow_m3_per_s=rng.uniform(0.004, 0.05),
                cooling_budget_w=rng.uniform(20.0, 400.0),
                diameter_in=rng.choice((1.6, 2.1, 2.6)),
                platter_count=rng.randint(1, 2),
                vcm_duty=rng.uniform(0.0, 1.0),
            )
        )
    return RackSpec(
        name=f"gen{index:03d}",
        enclosures=tuple(enclosures),
        inlet_c=rng.uniform(18.0, 35.0),
        recirculation=rng.uniform(0.0, 1.0),
    )


def generated_racks():
    rng = random.Random(SEED)
    return [generate_rack(rng, index) for index in range(CASES)]


RACKS = generated_racks()


def test_generator_is_seed_deterministic():
    """The 200 topologies are a pure function of the fixed seed."""
    assert generated_racks() == RACKS


def test_inlet_monotonicity_everywhere():
    for rack in RACKS:
        profile = rack_profile(rack)
        inlets = [e.inlet_c for e in profile.enclosures]
        assert inlets == sorted(inlets), rack.name
        assert inlets[0] == rack.inlet_c, rack.name
        for enclosure in profile.enclosures:
            locals_ = [d.local_inlet_c for d in enclosure.drives]
            assert locals_ == sorted(locals_), rack.name
            assert locals_[0] == enclosure.inlet_c, rack.name
            # The exhaust leaves hotter than (or equal to) the last
            # drive's local inlet — air only gains heat along the path.
            assert enclosure.exhaust_c >= locals_[-1], rack.name


def test_everything_is_non_negative():
    for rack in RACKS:
        profile = rack_profile(rack)
        assert profile.total_heat_w >= 0.0
        for enclosure in profile.enclosures:
            assert enclosure.cooling_budget_w >= 0.0, rack.name
            assert enclosure.heat_w >= 0.0, rack.name
            assert enclosure.exhaust_c >= enclosure.inlet_c, rack.name
            for drive in enclosure.drives:
                assert drive.heat_w > 0.0, rack.name
                assert drive.internal_air_c > drive.local_inlet_c, rack.name


def test_throttling_never_heats_and_respects_envelope_on_convergence():
    policy = FleetDTMPolicy(rpm_levels=RPM_LEVELS)
    for rack in RACKS:
        before = rack_profile(rack)
        coord = coordinate_rack(rack, policy)
        assert coord.profile.max_internal_c <= before.max_internal_c + 1e-9
        assert 0.0 < coord.capacity_fraction <= 1.0, rack.name
        if coord.converged:
            assert coord.residual_breaches == 0
            assert (
                coord.profile.max_internal_c
                <= THERMAL_ENVELOPE_C + 1e-9
            ), rack.name
        else:
            assert coord.residual_breaches > 0, rack.name


def test_throttle_order_invariance():
    policy = FleetDTMPolicy(rpm_levels=RPM_LEVELS)
    for rack in RACKS:
        fwd = coordinate_rack(rack, policy, order="sorted")
        rev = coordinate_rack(rack, policy, order="reversed")
        assert fwd == rev, rack.name


def test_tiering_energy_and_demand_conservation():
    profile = FleetDTMPolicy(rpm_levels=RPM_LEVELS).profile()
    rng = random.Random(SEED + 1)
    for case in range(CASES):
        drives = rng.randint(1, 12)
        policy = TieringPolicy(
            extents=rng.randint(1, 128),
            seed=rng.randint(0, 2**31),
            target_utilization=rng.uniform(0.3, 1.0),
        )
        plan = plan_rack_tiering(drives, profile, policy)
        heats = extent_heats(policy.extents, policy.seed)
        assert plan.total_demand == pytest.approx(sum(heats), rel=1e-9), case
        assert len(plan.drive_levels) == drives
        assert all(level in RPM_LEVELS for level in plan.drive_levels), case
        assert 0 <= plan.migrated_extents <= plan.extents, case
        # Energy conservation: demoting drives can only shed heat.
        assert plan.planned_power_w <= plan.baseline_power_w + 1e-9, case
        assert plan.saved_power_w >= -1e-9, case


def test_fixed_seed_byte_determinism():
    """Simulating the same generated rack twice yields identical bytes —
    across the whole 200-case corpus, including fault-injected ones."""
    from repro.faults import FaultConfig

    policy = FleetDTMPolicy(rpm_levels=RPM_LEVELS)
    rng = random.Random(SEED + 2)
    for case, rack in enumerate(RACKS):
        fault = (
            FaultConfig(
                seed=rng.randint(0, 2**31),
                media_rate=rng.uniform(0.0, 0.2),
                servo_rate=rng.uniform(0.0, 0.1),
            )
            if case % 4 == 0
            else None
        )
        task = RackTask(
            rack=rack,
            envelope_c=policy.envelope_c,
            rpm_levels=policy.rpm_levels,
            tiering_extents=16 if case % 3 == 0 else 0,
            accesses_per_drive=32,
            fault_config=fault,
        )
        first = fleet_results_json_bytes([_run_rack_task(task)])
        second = fleet_results_json_bytes([_run_rack_task(task)])
        assert first == second, f"case {case} ({rack.name}) is not deterministic"


def test_memoized_rise_matches_a_solve_at_the_real_inlet():
    """``drive_air_rise_c`` memoizes each drive's rise at a pinned
    reference ambient; adding the real inlet back must reproduce a solve
    at that inlet, for the VCM-off (duty 0) and VCM-on (duty 1) states."""
    from repro.fleet.coupling import drive_air_rise_c
    from repro.thermal.envelope import steady_air_temperature_c

    rng = random.Random(SEED + 3)
    for case in range(CASES):
        diameter = rng.choice((1.6, 2.1, 2.6, 3.3))
        platters = rng.randint(1, 4)
        rpm = rng.uniform(5000.0, 30000.0)
        inlet = rng.uniform(5.0, 50.0)
        for duty, vcm_active in ((0.0, False), (1.0, True)):
            memoized = inlet + drive_air_rise_c(diameter, platters, rpm, duty)
            solved = steady_air_temperature_c(
                diameter, rpm, platter_count=platters, ambient_c=inlet,
                vcm_active=vcm_active,
            )
            assert memoized == pytest.approx(solved, rel=0.0, abs=1e-9), case
