"""One thermal network per envelope search.

``max_rpm_within_envelope`` builds one ``DriveThermalModel`` and probes
it through ``set_operating_state``; every probe must equal a fresh
``steady_air_temperature_c`` at the same RPM bit for bit, so the search
visits the same RPMs and returns the same float as a bisection that
builds a model per probe.  The same errors are raised for the same
inputs.  ``ThermalNetwork.steady_temperature`` is one entry of
``steady_state()``, and ``ZonedSurface.sectors_per_surface`` reads a
bounded memo equal to an unmemoized sum over the partition.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.capacity.recording import RecordingTechnology
from repro.capacity.zones import ZONE_MEMO_SIZE, ZonedSurface, _surface_sectors
from repro.constants import THERMAL_ENVELOPE_C
from repro.errors import EnvelopeError, ThermalError
from repro.geometry.enclosure import FORM_FACTOR_25, FORM_FACTOR_35
from repro.geometry.platter import Platter
from repro.thermal import envelope
from repro.thermal.correlations import enclosed_air_internal_h, rotating_disk_h
from repro.thermal.envelope import max_rpm_within_envelope, steady_air_temperature_c
from repro.thermal.model import (
    DEFAULT_CALIBRATION,
    NODE_AIR,
    NODE_BASE,
    NODE_STACK,
    NODE_VCM,
    DriveThermalModel,
)
from repro.thermal.network import ThermalNetwork, ThermalNode

SEED = 0x27E5


class _Recording(DriveThermalModel):
    """A model that counts its constructions and records every probe."""

    built = 0
    probes: list = []

    def __init__(self, *args, **kwargs):
        type(self).built += 1
        super().__init__(*args, **kwargs)

    def steady_air_c(self) -> float:
        value = super().steady_air_c()
        type(self).probes.append((self.rpm, value))
        return value


@pytest.fixture
def recording(monkeypatch):
    _Recording.built = 0
    _Recording.probes = []
    monkeypatch.setattr(envelope, "DriveThermalModel", _Recording)
    return _Recording


def _design(rng: random.Random) -> dict:
    enclosure = rng.choice((FORM_FACTOR_35, FORM_FACTOR_35, FORM_FACTOR_25))
    largest = 3.7 if enclosure is FORM_FACTOR_35 else 2.6
    calibration = rng.choice(
        (
            None,
            DEFAULT_CALIBRATION.with_airflow_quality(rng.uniform(0.9, 1.6)),
            replace(
                DEFAULT_CALIBRATION,
                stack_convection_scale=rng.uniform(1.8, 2.8),
                spm_power_w=rng.uniform(6.0, 10.0),
            ),
        )
    )
    return dict(
        platter_diameter_in=rng.choice((1.6, 2.1, 2.6, rng.uniform(1.0, largest))),
        platter_count=rng.randint(1, 4),
        ambient_c=rng.uniform(15.0, 32.0),
        vcm_active=rng.random() < 0.5,
        enclosure=enclosure,
        calibration=calibration,
    )


def _designs(count: int, seed: int = SEED) -> list:
    rng = random.Random(seed)
    return [_design(rng) for _ in range(count)]


def _reference_search(design: dict, envelope_c: float = THERMAL_ENVELOPE_C):
    """The bisection with a freshly built model per probe; returns the
    result and the probed RPMs."""
    probed = []

    def air_at(rpm: float) -> float:
        probed.append(rpm)
        return steady_air_temperature_c(rpm=rpm, **design)

    low, high = 5000.0, 500000.0
    if air_at(low) > envelope_c:
        return EnvelopeError, probed
    if air_at(high) <= envelope_c:
        return high, probed
    while high - low > 1.0:
        mid = 0.5 * (low + high)
        if air_at(mid) <= envelope_c:
            low = mid
        else:
            high = mid
    return low, probed


def _search(design: dict):
    try:
        return max_rpm_within_envelope(**design)
    except EnvelopeError:
        return EnvelopeError


def test_a_search_builds_one_model(recording):
    rpm = max_rpm_within_envelope(2.6)
    assert recording.built == 1
    assert len(recording.probes) > 15
    assert rpm in {probed for probed, _ in recording.probes}


def test_every_probe_is_bit_equal_to_a_fresh_model(recording):
    feasible = 0
    for design in _designs(24):
        recording.built = 0
        recording.probes = []
        result = _search(design)
        probes = list(recording.probes)
        assert recording.built == 1
        expected, probed = _reference_search(design)
        assert result == expected
        assert [rpm for rpm, _ in probes] == probed
        for rpm, value in probes:
            assert value == steady_air_temperature_c(rpm=rpm, **design)
        feasible += result is not EnvelopeError
    # The grid exercises both outcomes of the search.
    assert 0 < feasible < 24


def test_too_hot_at_the_bracket_floor_still_raises():
    with pytest.raises(EnvelopeError):
        max_rpm_within_envelope(2.6, platter_count=4, envelope_c=30.0)
    with pytest.raises(EnvelopeError):
        max_rpm_within_envelope(2.6, ambient_c=60.0)


def test_platter_too_large_for_its_enclosure_still_raises():
    with pytest.raises(ThermalError, match="cannot house"):
        max_rpm_within_envelope(3.7, enclosure=FORM_FACTOR_25)
    with pytest.raises(ThermalError, match="cannot house"):
        steady_air_temperature_c(3.7, 10000.0, enclosure=FORM_FACTOR_25)


def test_air_conductances_follow_the_geometry_at_every_speed():
    for design in _designs(8, seed=SEED + 1):
        design = dict(design)
        ambient = design.pop("ambient_c")
        model = DriveThermalModel(rpm=5000.0, ambient_c=ambient, **design)
        cal = model.calibration
        for rpm in (5000.0, 17250.5, 61000.0, 250000.0):
            model.set_operating_state(rpm=rpm)
            g = {(a, b): value for a, b, value in model.network.conductances()}
            stack = cal.stack_convection_scale * rotating_disk_h(
                rpm, model.platter.outer_radius_m
            ) * model.stack.convective_area_m2()
            wall = cal.internal_wall_scale * enclosed_air_internal_h(
                rpm
            ) * model.enclosure.external_area_m2()
            arm = cal.stack_convection_scale * rotating_disk_h(
                rpm, max(model.actuator.arm_length_m, 1e-3)
            ) * model.actuator.convective_area_m2()
            assert g[(NODE_AIR, NODE_STACK)] == max(stack, 1e-3)
            assert g[(NODE_AIR, NODE_BASE)] == max(wall, 1e-3)
            assert g[(NODE_AIR, NODE_VCM)] == max(arm, 1e-3)


def test_envelope_rpm_does_not_rise_with_the_ambient():
    rng = random.Random(SEED + 2)
    for design in _designs(10, seed=SEED + 3):
        ambients = sorted(rng.uniform(10.0, 40.0) for _ in range(5))
        limits = []
        for ambient in ambients:
            result = _search(dict(design, ambient_c=ambient))
            limits.append(0.0 if result is EnvelopeError else result)
        assert limits == sorted(limits, reverse=True), (design, ambients, limits)


def test_steady_temperature_is_one_entry_of_steady_state():
    for design in _designs(6, seed=SEED + 4):
        design = dict(design)
        ambient = design.pop("ambient_c")
        model = DriveThermalModel(rpm=12000.0, ambient_c=ambient, **design)
        state = model.network.steady_state()
        for node in (NODE_AIR, NODE_STACK, NODE_BASE, NODE_VCM):
            assert model.network.steady_temperature(node) == state[node]
        assert model.steady_air_c() == state[NODE_AIR]


def test_steady_temperature_refuses_a_network_without_ambient():
    network = ThermalNetwork([ThermalNode("a", 1.0), ThermalNode("b", 2.0)], 25.0)
    network.connect("a", "b", 0.5)
    network.set_heat("a", 1.0)
    with pytest.raises(ThermalError, match="no path to ambient"):
        network.steady_temperature("a")
    with pytest.raises(ThermalError, match="no path to ambient"):
        network.steady_state()
    with pytest.raises(ThermalError, match="unknown node"):
        network.steady_temperature("c")


def _surface(diameter, kbpi, ktpi, zone_count, stroke=2.0 / 3.0):
    return ZonedSurface(
        platter=Platter(diameter_in=diameter),
        technology=RecordingTechnology.from_kilo_units(kbpi, ktpi),
        zone_count=zone_count,
        stroke_efficiency=stroke,
    )


def test_sector_memo_equals_an_unmemoized_sum():
    _surface_sectors.cache_clear()
    rng = random.Random(SEED + 5)
    for _ in range(30):
        diameter = rng.choice((1.6, 2.6, rng.uniform(1.0, 4.0)))
        kbpi = rng.choice((593.19, rng.uniform(300.0, 3000.0)))
        zone_count = rng.choice((1, 30, 50))
        stroke = rng.choice((2.0 / 3.0, rng.uniform(0.3, 1.0)))
        # Surfaces that differ in one value only must not share a sum.
        for ktpi in (67.5, 67.5 * 1.5, rng.uniform(40.0, 400.0)):
            surface = _surface(diameter, kbpi, ktpi, zone_count, stroke)
            unmemoized = sum(zone.sectors for zone in surface._partition())
            assert surface.sectors_per_surface == unmemoized
        for other in (kbpi * 1.25, kbpi * 0.8):
            surface = _surface(diameter, other, 67.5, zone_count, stroke)
            unmemoized = sum(zone.sectors for zone in surface._partition())
            assert surface.sectors_per_surface == unmemoized


def test_sector_memo_stays_within_its_bound():
    _surface_sectors.cache_clear()
    for step in range(ZONE_MEMO_SIZE + 20):
        _surface(2.6, 500.0 + step, 60.0, 10).sectors_per_surface
    info = _surface_sectors.cache_info()
    assert info.maxsize == ZONE_MEMO_SIZE
    assert info.currsize <= ZONE_MEMO_SIZE
