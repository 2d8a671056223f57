"""Byte pins of the Figure 2 roadmap, Table 3 and the cooling budgets.

The goldens hold Figure 2 to 1e-9 relative; these pin the exact bytes.
Each digest is the SHA-256 of ``stable_json`` over the dataclass dicts
(or the floats), so a change that moves any result by one ulp, or
reorders a point, fails here even when the goldens still pass.  A
deliberate model change regenerates them alongside the goldens.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.scaling.roadmap import (
    cooling_budget_ambient_c,
    required_rpm_table,
    thermal_roadmap,
)
from repro.store import stable_json


def _digest(value) -> str:
    return hashlib.sha256(stable_json(value).encode("utf-8")).hexdigest()


def _rows(records) -> list:
    return [dataclasses.asdict(record) for record in records]


ROADMAP_PINS = {
    1: "7c129c764523179970494695176da6b87efde15c64c88367be56ed1b907ed3ff",
    2: "57302e0e685481adee63e2c97f291bc02d1228a31bd096245ac0374ae5df754e",
    4: "a6b7ccc6b724f3794b0ea77f52dcfccdac704b4714e21bf48df80f1e0a2069ea",
}

#: (platter count, shift of the ambient from its cooling budget, digest)
SHIFTED_PINS = (
    (1, 1.75, "4d971b87fab0794d41633777370e3b07754b95864773ab7c6674ffd2d0252cc2"),
    (4, -2.5, "82d8138781e2049f228a793a5aba06c3235d433d4a7e710a8945cec3c937a441"),
)

REQUIRED_RPM_PIN = "3afcdfd88b89bf259b4e7870b5f772e91bb92e0a33be19647f59ccde114be7d1"

#: ``[cooling_budget_ambient_c(1), (2), (4)]``
BUDGET_PIN = "c146b2a9bb1b4cf93e4bf8cde499c49867174ed96dbd5fb6b076cb3cf1a4f158"


@pytest.mark.parametrize("platter_count", sorted(ROADMAP_PINS))
def test_roadmap_bytes_at_default_budgets(platter_count):
    points = thermal_roadmap(platter_count=platter_count)
    assert len(points) == 33
    assert _digest(_rows(points)) == ROADMAP_PINS[platter_count]


@pytest.mark.parametrize("platter_count,shift,pin", SHIFTED_PINS)
def test_roadmap_bytes_at_shifted_ambients(platter_count, shift, pin):
    ambient = cooling_budget_ambient_c(platter_count) + shift
    points = thermal_roadmap(platter_count=platter_count, ambient_c=ambient)
    assert _digest(_rows(points)) == pin


def test_required_rpm_table_bytes():
    assert _digest(_rows(required_rpm_table())) == REQUIRED_RPM_PIN


def test_cooling_budget_bytes():
    budgets = [cooling_budget_ambient_c(count) for count in (1, 2, 4)]
    assert _digest(budgets) == BUDGET_PIN
