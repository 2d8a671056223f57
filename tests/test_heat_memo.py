"""One heat per drive value per process, and one per drive per rack solve.

``repro.thermal.array.drive_heat_w`` memoizes its pure sum behind its
duty check, and ``repro.fleet.coupling`` keeps each drive type's air
rises in a bounded memo.  Both must return exactly what an unmemoized
computation of the caller's own arguments gives, never grow past their
fixed bounds, and keep refusing invalid input on every call.
``rack_profile`` computes each drive's heat once per profile.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import FleetError, ThermalError
from repro.fleet import coupling
from repro.fleet.coupling import RISE_MEMO_SIZE, drive_air_rise_c, rack_profile
from repro.fleet.topology import EnclosureSpec, RackSpec
from repro.thermal.array import HEAT_MEMO_SIZE, _drive_heat_w, drive_heat_w
from repro.thermal.model import DEFAULT_CALIBRATION
from repro.thermal.vcm import vcm_power_w
from repro.thermal.viscous import viscous_power_w

SEED = 0x4EA7


def _unmemoized(rpm, diameter_in, platter_count, vcm_duty, spm_power_w):
    return (
        viscous_power_w(rpm, diameter_in, platter_count)
        + spm_power_w
        + vcm_duty * vcm_power_w(diameter_in)
    )


def test_memoized_heat_is_bit_equal_to_the_unmemoized_sum():
    _drive_heat_w.cache_clear()
    rng = random.Random(SEED)
    spm = DEFAULT_CALIBRATION.spm_power_w
    for case in range(60):
        rpm = rng.choice((rng.randrange(5000, 30000), rng.uniform(5000.0, 30000.0)))
        diameter = rng.choice((1.6, 2.1, 2.6, 3.3, rng.uniform(1.0, 4.0)))
        duty = rng.choice((0.0, 1.0, rng.random()))
        # Same speed and diameter across platter counts, through a warm
        # memo: a memo that forgot any argument would serve a wrong sum.
        for platters in (1, 2, 3, 4, 2, 1):
            expected = _unmemoized(rpm, diameter, platters, duty, spm)
            assert drive_heat_w(rpm, diameter, platters, vcm_duty=duty) == expected, case
            assert drive_heat_w(
                rpm, diameter, platters, vcm_duty=duty, spm_power_w=spm + 0.5
            ) == _unmemoized(rpm, diameter, platters, duty, spm + 0.5), case


def test_int_and_float_speeds_keep_their_own_entries():
    _drive_heat_w.cache_clear()
    spm = DEFAULT_CALIBRATION.spm_power_w
    as_int = drive_heat_w(15000, 2.6, 1, vcm_duty=0.5)
    as_float = drive_heat_w(15000.0, 2.6, 1, vcm_duty=0.5)
    assert as_int == _unmemoized(15000, 2.6, 1, 0.5, spm)
    assert as_float == _unmemoized(15000.0, 2.6, 1, 0.5, spm)
    assert _drive_heat_w.cache_info().currsize == 2


def test_default_spm_power_shares_the_resolved_entry():
    _drive_heat_w.cache_clear()
    spm = DEFAULT_CALIBRATION.spm_power_w
    assert drive_heat_w(12000.0, 2.6) == drive_heat_w(12000.0, 2.6, spm_power_w=spm)
    assert _drive_heat_w.cache_info().currsize == 1


def test_heat_memo_stays_within_its_bound():
    _drive_heat_w.cache_clear()
    for step in range(HEAT_MEMO_SIZE + 40):
        drive_heat_w(5000.0 + step, 2.6)
    info = _drive_heat_w.cache_info()
    assert info.maxsize == HEAT_MEMO_SIZE
    assert info.currsize <= HEAT_MEMO_SIZE


def test_invalid_heat_arguments_raise_on_every_call():
    drive_heat_w(15000.0, 2.6, vcm_duty=1.0)  # the valid neighbour is cached
    for _ in range(3):
        for duty in (-0.1, 1.5):
            with pytest.raises(ThermalError):
                drive_heat_w(15000.0, 2.6, vcm_duty=duty)
        with pytest.raises(ThermalError):
            drive_heat_w(-1.0, 2.6)
        with pytest.raises(ThermalError):
            drive_heat_w(15000.0, 2.6, platter_count=0)


def test_rise_memo_stays_within_its_bound_and_is_exact():
    coupling._drive_rises_c.cache_clear()
    cold = [drive_air_rise_c(2.6, p, 15000.0, 0.5) for p in (1, 2, 3)]
    for step in range(RISE_MEMO_SIZE + 10):
        drive_air_rise_c(2.6, 1, 5000.0 + step, 1.0)
    info = coupling._drive_rises_c.cache_info()
    assert info.maxsize == RISE_MEMO_SIZE
    assert info.currsize <= RISE_MEMO_SIZE
    # Evicted entries come back bit-identical, one per platter count.
    assert [drive_air_rise_c(2.6, p, 15000.0, 0.5) for p in (1, 2, 3)] == cold
    assert len(set(cold)) == 3
    for duty in (-0.1, 1.5):
        with pytest.raises(FleetError):
            drive_air_rise_c(2.6, 1, 15000.0, duty)


def _mixed_rack():
    return RackSpec(
        name="mixed",
        enclosures=(
            EnclosureSpec(drives=3, platter_count=1, vcm_duty=0.4),
            EnclosureSpec(drives=2, platter_count=4, diameter_in=3.3),
            EnclosureSpec(drives=4, platter_count=2, vcm_duty=0.0),
        ),
        recirculation=0.2,
    )


def test_rack_profile_computes_each_drive_heat_once(monkeypatch):
    rack = _mixed_rack()
    rpms = [[15000.0, 12000.0, 9600.0], [15000.0, 15000.0], [9600.0] * 4]
    reference = rack_profile(rack, rpms=rpms)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return drive_heat_w(*args, **kwargs)

    monkeypatch.setattr(coupling, "drive_heat_w", counting)
    profile = rack_profile(rack, rpms=rpms)
    assert len(calls) == rack.drive_count
    assert profile == reference
    # The enclosure totals are the sums of the per-slot heats.
    for enclosure in profile.enclosures:
        assert enclosure.heat_w == sum(d.heat_w for d in enclosure.drives)


def test_rack_profile_is_the_same_cold_and_warm():
    rack = _mixed_rack()
    _drive_heat_w.cache_clear()
    coupling._drive_rises_c.cache_clear()
    cold = rack_profile(rack, default_rpm=12000.0)
    warm = rack_profile(rack, default_rpm=12000.0)
    assert cold == warm
    spm = DEFAULT_CALIBRATION.spm_power_w
    for spec, enclosure in zip(rack.enclosures, cold.enclosures):
        for drive in enclosure.drives:
            assert drive.heat_w == _unmemoized(
                12000.0, spec.diameter_in, spec.platter_count, spec.vcm_duty, spm
            )
