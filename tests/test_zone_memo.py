"""One ZBR zone table per distinct surface value per process.

``ZonedSurface.zones`` reads a bounded memo keyed on exactly the values
the partition is computed from: diameter, BPI, TPI, zone count and
stroke efficiency.  Surfaces with equal values share one immutable
table, which must be exactly what an unmemoized partition of the
surface's own values gives; the memo never grows past its bound, and an
invalid configuration keeps raising.  The Figure 2 roadmap builds one
surface per point and one table per distinct surface.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.capacity.recording import RecordingTechnology
from repro.capacity.zones import ZONE_MEMO_SIZE, ZonedSurface, _zone_table
from repro.errors import RecordingError
from repro.geometry.platter import Platter
from repro.materials import STEEL
from repro.scaling.roadmap import cooling_budget_ambient_c, thermal_roadmap

SEED = 0x2B5A


def _surface(diameter, kbpi, ktpi, zone_count, stroke=2.0 / 3.0, **platter):
    return ZonedSurface(
        platter=Platter(diameter_in=diameter, **platter),
        technology=RecordingTechnology.from_kilo_units(kbpi, ktpi),
        zone_count=zone_count,
        stroke_efficiency=stroke,
    )


def _exact(table):
    """A table as text that tells every float bit apart."""
    return [repr(dataclasses.astuple(zone)) for zone in table]


def test_equal_values_share_one_table():
    _zone_table.cache_clear()
    first = _surface(2.6, 593.19, 67.5, 50)
    # Thickness and material are not inputs of the partition.
    second = _surface(2.6, 593.19, 67.5, 50, thickness_m=1.27e-3, material=STEEL)
    assert first.zones is second.zones
    assert isinstance(first.zones, tuple)
    info = _zone_table.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def test_int_and_float_diameters_keep_their_own_entries():
    _zone_table.cache_clear()
    as_int = _surface(2, 600.0, 70.0, 30)
    as_float = _surface(2.0, 600.0, 70.0, 30)
    assert as_int.zones is not as_float.zones
    assert _zone_table.cache_info().currsize == 2
    assert _exact(as_int.zones) == _exact(as_int._partition())
    assert _exact(as_float.zones) == _exact(as_float._partition())


def test_zone_memo_stays_within_its_bound():
    _zone_table.cache_clear()
    for step in range(ZONE_MEMO_SIZE + 20):
        _surface(2.6, 500.0 + step, 60.0, 10).zones
    info = _zone_table.cache_info()
    assert info.maxsize == ZONE_MEMO_SIZE
    assert info.currsize <= ZONE_MEMO_SIZE


def test_memoized_partition_is_bit_equal_to_the_unmemoized_one():
    _zone_table.cache_clear()
    rng = random.Random(SEED)
    for case in range(40):
        diameter = rng.choice((1.6, 2.1, 2.6, 3.3, 3.7, rng.uniform(1.0, 4.0)))
        kbpi = rng.choice((593.19, rng.uniform(300.0, 3000.0)))
        zone_count = rng.choice((1, 7, 30, 50, rng.randint(2, 80)))
        stroke = rng.choice((2.0 / 3.0, rng.uniform(0.3, 1.0)))
        # Vary each input alone through a warm memo: a memo that forgot
        # any of them would serve another surface's table.
        ktpi = rng.uniform(40.0, 400.0)
        variants = [
            (diameter, kbpi, ktpi, zone_count, stroke),
            (diameter, kbpi, ktpi * 1.25, zone_count, stroke),
            (diameter, kbpi * 1.25, ktpi, zone_count, stroke),
            (diameter * 1.1, kbpi, ktpi, zone_count, stroke),
            (diameter, kbpi, ktpi, zone_count + 1, stroke),
            (diameter, kbpi, ktpi, zone_count, stroke * 0.9),
        ]
        for args in variants + variants:
            surface = _surface(*args)
            assert _exact(surface.zones) == _exact(surface._partition()), (case, args)


def test_no_surface_can_change_another_surfaces_table():
    _zone_table.cache_clear()
    first = _surface(2.6, 593.19, 67.5, 50)
    second = _surface(2.6, 593.19, 67.5, 50)
    expected = _exact(second.zones)
    with pytest.raises(TypeError):
        first.zones[0] = first.zones[1]  # type: ignore[index]
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.zones[0].sectors_per_track = 1  # type: ignore[misc]
    first.zones = ()  # type: ignore[misc]  # rebinds first's own view only
    assert _exact(second.zones) == expected
    assert _exact(_surface(2.6, 593.19, 67.5, 50).zones) == expected


def test_invalid_configurations_raise_on_every_call_and_are_never_cached():
    _zone_table.cache_clear()
    for _ in range(3):
        with pytest.raises(RecordingError):
            _surface(2.6, 593.19, 67.5, 0)
        with pytest.raises(RecordingError):
            _surface(0.01, 593.19, 0.001, 1)  # no tracks at all
        with pytest.raises(RecordingError):
            _surface(2.6, 593.19, 0.1, 500)  # more zones than tracks
        with pytest.raises(RecordingError):
            _zone_table(2.6, 593190.0, 67500.0, 50, 1.5)
    assert _zone_table.cache_info().currsize == 0


@pytest.fixture
def partitions(monkeypatch):
    """Count the zone partitions computed (memo misses build one each)."""
    calls = []
    original = ZonedSurface._partition

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(ZonedSurface, "_partition", counting)
    return calls


def test_roadmap_computes_each_distinct_partition_once(partitions):
    _zone_table.cache_clear()
    cold = thermal_roadmap(platter_count=2)
    # 11 years x 3 sizes; the cooling budget's anchor is one of them.
    assert len(partitions) == 33
    del partitions[:]
    assert thermal_roadmap(platter_count=2) == cold
    assert partitions == []


def test_roadmap_builds_one_surface_per_point(monkeypatch):
    ambient = cooling_budget_ambient_c(1)
    thermal_roadmap(platter_count=1, ambient_c=ambient)  # warm the memo
    built = []
    original = ZonedSurface.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(ZonedSurface, "__init__", counting)
    points = thermal_roadmap(platter_count=1, ambient_c=ambient)
    assert len(built) == len(points) == 33
