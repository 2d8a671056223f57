"""Byte pins of one output from each envelope-search caller.

``tests/test_roadmap_pins.py`` pins Figure 2, Table 3 and the cooling
budgets; this file pins the other callers of the RPM search the same
way: the SHA-256 of ``stable_json`` over the result's dataclass dicts
(or its floats).  A change to the search or the thermal network that
moves any probe by one ulp moves a bisection step, and fails here.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random

from repro.dtm.slack import slack_by_platter_size
from repro.scaling.formfactor import extra_cooling_needed_c, formfactor_study
from repro.store import stable_json
from repro.thermal.array import array_envelope_rpm, serial_array_profile
from repro.thermal.sensitivity import calibration_sensitivity, exponent_sensitivity


def _digest(value) -> str:
    return hashlib.sha256(stable_json(value).encode("utf-8")).hexdigest()


def _rows(records) -> list:
    return [dataclasses.asdict(record) for record in records]


def _seeded_array() -> dict:
    rng = random.Random(0x5EED27)
    return dict(
        disk_count=rng.randint(3, 5),
        airflow_m3_per_s=round(rng.uniform(0.05, 0.2), 3),
        inlet_c=round(rng.uniform(26.0, 28.0), 2),
        vcm_duty=round(rng.uniform(0.2, 0.8), 2),
    )


ARRAY = _seeded_array()

ARRAY_ENVELOPE_PIN = "f8ebe37c4ce09394d9e2e6ea0ebce2d0c76b1a2886aa89d572601c40ad7d28ed"
ARRAY_PROFILE_PIN = "b40bbdb08cca53b1c5e7a204e9a8bf3113417be36a9f744de593dca7ec147348"
FORMFACTOR_PIN = "cb3b51585313ce6f6b2ad931349a0de3f75fdddc6a151c7b891c0943ad7de5b6"
EXTRA_COOLING_PIN = "62acbf34dac197ff63fc595f2a7ae99f054ab1c5b4ed9d1ab6b290332006a311"
CALIBRATION_SENSITIVITY_PIN = (
    "d9128e6e29891db86821d3224d4d35aaa5ca05994ec8a0696e834750c49b8d28"
)
EXPONENT_SENSITIVITY_PIN = (
    "8977d331e8a77a581cd91087408b9b42707f72360023fb56348ea315f0726fd1"
)
SLACK_PIN = "7c7c189259dd02dc7922dc0fb3cc7d4bd17a87e1b402129b28d769b7d72966b1"


def test_seeded_array_is_the_pinned_one():
    assert ARRAY == {
        "disk_count": 4,
        "airflow_m3_per_s": 0.116,
        "inlet_c": 27.78,
        "vcm_duty": 0.4,
    }


def test_array_envelope_bytes():
    assert _digest(array_envelope_rpm(**ARRAY)) == ARRAY_ENVELOPE_PIN


def test_serial_array_profile_bytes():
    rpm = array_envelope_rpm(**ARRAY)
    assert _digest(_rows(serial_array_profile(rpm=rpm, **ARRAY))) == ARRAY_PROFILE_PIN


def test_formfactor_study_bytes():
    study = formfactor_study()
    table = [study.diameter_in, _rows(study.large), _rows(study.small)]
    assert _digest(table) == FORMFACTOR_PIN


def test_extra_cooling_bytes():
    assert _digest(extra_cooling_needed_c()) == EXTRA_COOLING_PIN


def test_calibration_sensitivity_bytes():
    assert _digest(_rows(calibration_sensitivity())) == CALIBRATION_SENSITIVITY_PIN


def test_exponent_sensitivity_bytes():
    assert _digest(exponent_sensitivity()) == EXPONENT_SENSITIVITY_PIN


def test_slack_by_platter_size_bytes():
    assert _digest(_rows(slack_by_platter_size())) == SLACK_PIN
