"""Property tests for the canonical key discipline (repro.store.canonical).

The store is only safe if its keys obey two laws over *arbitrary*
configurations, not just the ones we thought of:

* **Invariance** — spelling that doesn't change meaning doesn't change
  the key: dict insertion order, ``-0.0`` vs ``0.0``, ``15000`` vs
  ``15000.0``, tuple vs list, a JSON round trip.
* **Sensitivity** — any material change (one leaf edited, one field
  added or removed, the code-schema version bumped, the task kind
  changed) changes the key.

These are fuzzed with the stdlib ``random`` module under a fixed seed —
deterministic across hosts and runs, no extra dependency — over at least
500 generated configurations.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.errors import StoreError
from repro.store import (
    CODE_SCHEMA_VERSION,
    canonical_json,
    canonicalize,
    config_key,
    decode_payload,
    encode_payload,
)

FUZZ_CONFIGS = 500
KIND = "workload_sweep/1"


# ---------------------------------------------------------------------------
# Generators (pure stdlib, seeded)
# ---------------------------------------------------------------------------


def _leaf(rng: random.Random):
    choice = rng.randrange(7)
    if choice == 0:
        return None
    if choice == 1:
        return rng.random() < 0.5
    if choice == 2:
        return rng.randrange(-10_000, 10_000)
    if choice == 3:
        return rng.uniform(-1e6, 1e6)
    if choice == 4:
        # Integral floats and signed zeros: the folding cases.
        return rng.choice([0.0, -0.0, 1.0, -1.0, 15000.0, 42.0, -7.0])
    if choice == 5:
        return "".join(
            rng.choice("abcdefghij_µé") for _ in range(rng.randrange(0, 12))
        )
    return rng.choice(["tpcc", "oltp", "openmail", "search_engine", "tpch"])


def _value(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.6:
        return _leaf(rng)
    if rng.random() < 0.5:
        return [_value(rng, depth - 1) for _ in range(rng.randrange(0, 4))]
    return {
        f"k{rng.randrange(20)}": _value(rng, depth - 1)
        for _ in range(rng.randrange(0, 5))
    }


def _config(rng: random.Random) -> dict:
    return {
        f"field{index}": _value(rng, depth=3)
        for index in range(rng.randrange(1, 8))
    }


def _shuffled(rng: random.Random, value):
    """Same meaning, different spelling: reorder dicts, list->tuple."""
    if isinstance(value, dict):
        items = list(value.items())
        rng.shuffle(items)
        return {key: _shuffled(rng, item) for key, item in items}
    if isinstance(value, list):
        return tuple(_shuffled(rng, item) for item in value)
    if isinstance(value, float) and value == 0.0:
        return -value  # flip the zero's sign
    if isinstance(value, float) and value.is_integer() and abs(value) < 2**53:
        return int(value)  # int-vs-float equivalent
    return value


def _mutate(rng: random.Random, config: dict) -> dict:
    """One *material* change somewhere in the config."""
    mutated = json.loads(json.dumps(config))  # deep copy

    def paths(value, prefix):
        if isinstance(value, dict):
            for key, item in value.items():
                yield from paths(item, prefix + [key])
        elif isinstance(value, list):
            for index, item in enumerate(value):
                yield from paths(item, prefix + [index])
        else:
            yield prefix, value

    leaves = list(paths(mutated, []))
    if not leaves:
        mutated["extra_field"] = 1
        return mutated
    path, value = leaves[rng.randrange(len(leaves))]
    if not path:
        mutated["extra_field"] = 1
        return mutated
    target = mutated
    for step in path[:-1]:
        target = target[step]
    if isinstance(value, bool):
        target[path[-1]] = not value
    elif isinstance(value, (int, float)):
        target[path[-1]] = value + 1
    elif isinstance(value, str):
        target[path[-1]] = value + "x"
    else:  # None
        target[path[-1]] = 0
    return mutated


# ---------------------------------------------------------------------------
# The fuzzed laws
# ---------------------------------------------------------------------------


def test_key_invariant_under_equivalent_spellings():
    rng = random.Random(0xD15C)
    for _ in range(FUZZ_CONFIGS):
        config = _config(rng)
        respelled = _shuffled(rng, config)
        assert config_key(KIND, config) == config_key(KIND, respelled), (
            f"equivalent spellings hashed differently:\n{config!r}\n"
            f"{respelled!r}"
        )


def test_key_differs_on_any_material_change():
    rng = random.Random(0xBEEF)
    for _ in range(FUZZ_CONFIGS):
        config = _config(rng)
        mutated = _mutate(rng, config)
        if canonicalize(mutated) == canonicalize(config):
            # A mutation can collide with folding (e.g. -0.0 + 1 == 1.0
            # while original leaf was 1): only materially different
            # canonical forms are required to differ.
            continue
        assert config_key(KIND, config) != config_key(KIND, mutated), (
            f"material change kept the key:\n{config!r}\n{mutated!r}"
        )


def test_key_differs_on_schema_bump_and_kind():
    rng = random.Random(0xCAFE)
    for _ in range(FUZZ_CONFIGS):
        config = _config(rng)
        base = config_key(KIND, config)
        assert base != config_key(
            KIND, config, schema_version=CODE_SCHEMA_VERSION + 1
        )
        assert base != config_key("roadmap_sweep/1", config)


def test_canonical_form_round_trips_through_json():
    rng = random.Random(0xF00D)
    for _ in range(FUZZ_CONFIGS):
        config = _config(rng)
        serialized = canonical_json(config)
        recovered = json.loads(serialized)
        assert canonicalize(recovered) == canonicalize(config)
        assert config_key(KIND, recovered) == config_key(KIND, config)
        # And the canonical serialization is a fixed point.
        assert canonical_json(recovered) == serialized


# ---------------------------------------------------------------------------
# Directed edge cases the fuzz might visit only by luck
# ---------------------------------------------------------------------------


class TestNumberFolding:
    def test_negative_zero_folds_to_int_zero(self):
        assert canonicalize(-0.0) == 0
        assert canonical_json({"x": -0.0}) == canonical_json({"x": 0})

    def test_int_float_equivalents_fold(self):
        assert config_key(KIND, {"rpm": 15000}) == config_key(
            KIND, {"rpm": 15000.0}
        )

    def test_non_integral_floats_stay_distinct(self):
        assert config_key(KIND, {"x": 1.5}) != config_key(KIND, {"x": 1})
        assert canonicalize(1.5) == 1.5

    def test_giant_integral_floats_do_not_fold(self):
        # Beyond 2**53 a float cannot represent every int; folding would
        # conflate genuinely different configs.
        big = float(2**60)
        assert canonicalize(big) == big

    def test_bools_are_not_numbers(self):
        assert canonicalize(True) is True
        assert config_key(KIND, {"x": True}) != config_key(KIND, {"x": 1})

    def test_nonfinite_floats_get_sentinels(self):
        assert canonicalize(float("inf")) == "__inf__"
        assert canonicalize(float("-inf")) == "__-inf__"
        assert canonicalize(float("nan")) == "__nan__"


class TestCanonicalizeErrors:
    def test_non_string_mapping_keys_rejected(self):
        with pytest.raises(StoreError):
            canonicalize({1: "x"})

    def test_unserializable_types_rejected(self):
        with pytest.raises(StoreError):
            canonicalize({"x": object()})


class TestPayloadCodec:
    def test_nonfinite_floats_round_trip_exactly(self):
        import math

        payload = encode_payload(
            {"min": math.inf, "max": -math.inf, "samples": [1.0, math.nan]}
        )
        json.dumps(payload, allow_nan=False)  # strict-JSON safe
        decoded = decode_payload(payload)
        assert decoded["min"] == math.inf
        assert decoded["max"] == -math.inf
        assert math.isnan(decoded["samples"][1])

    def test_tuples_become_lists(self):
        assert encode_payload((1, 2)) == [1, 2]

    def test_unknown_float_tag_rejected(self):
        with pytest.raises(StoreError):
            decode_payload({"$repro.float": "huge"})

    def test_non_string_keys_rejected(self):
        with pytest.raises(StoreError):
            encode_payload({1: 2})

    def test_unencodable_type_rejected(self):
        with pytest.raises(StoreError):
            encode_payload({"x": set()})


# ---------------------------------------------------------------------------
# Literal pins: the keys real stores and job ledgers already hold
#
# The laws above say keys behave; these say keys *stay put*.  A refactor of
# the sweep plumbing must leave every value below unchanged — a moved key
# turns every warm store cold and splits job dedup across versions.  Fleet
# task keys are pinned in tests/golden/fleet_2rack.json.
# ---------------------------------------------------------------------------


class TestLiteralKeyPins:
    def test_plain_workload_task_key(self):
        from repro.simulation.sweep import WorkloadTask, workload_task_key

        task = WorkloadTask(workload="tpcc", rpm=10000.0, requests=400, seed=3)
        assert workload_task_key(task) == "77a4b8a67b8b233c45fb25dc2d00b57b"

    def test_faulted_telemetry_workload_task_key(self):
        from repro.faults import FaultConfig
        from repro.simulation.sweep import WorkloadTask, workload_task_key

        task = WorkloadTask(
            workload="oltp",
            rpm=15000.0,
            requests=300,
            seed=7,
            telemetry=True,
            probe_interval_ms=50.0,
            trace_capacity=512,
            fault_config=FaultConfig(seed=5, media_rate=0.02, servo_rate=0.001),
            engine="vectorized",
        )
        assert workload_task_key(task) == "1d8efa9635761309e8b4b119268a10fa"

    def test_roadmap_task_key(self):
        from repro.simulation.sweep import RoadmapTask, roadmap_task_key

        task = RoadmapTask(platter_count=2)
        assert roadmap_task_key(task) == "1292522696dafd24bb02fdb725e0d675"

    def test_sweep_job_config_key(self):
        from repro.service.schemas import (
            SweepJobConfig,
            job_config_key,
            parse_job_request,
        )

        pinned = "e5a3984cdca657df1b5a8113fe78c0fd"
        config = SweepJobConfig(
            workloads=("tpcc", "oltp"),
            rpm_steps=2,
            requests=200,
            seed=11,
            inject_faults=True,
            fault_seed=4,
            media_rate=0.02,
        )
        assert job_config_key(config) == pinned
        # The wire form of the same sweep; execution knobs stay out.
        parsed = parse_job_request(
            {
                "workloads": ["tpcc", "oltp"],
                "rpm_steps": 2,
                "requests": 200,
                "seed": 11,
                "inject_faults": True,
                "fault_seed": 4,
                "media_rate": 0.02,
                "backend": "serial",
                "retries": 0,
            }
        )
        assert job_config_key(parsed) == pinned

    def test_fleet_job_config_key(self):
        from repro.service.schemas import (
            FleetJobConfig,
            job_config_key,
            parse_job_request,
        )

        pinned = "3052d31e0b820d436139272ea389ee81"
        config = FleetJobConfig(
            racks=2,
            enclosures_per_rack=3,
            drives_per_enclosure=2,
            recirculation=0.3,
            tiering_extents=24,
            inject_faults=True,
            accesses_per_drive=64,
        )
        assert job_config_key(config) == pinned
        parsed = parse_job_request(
            {
                "kind": "fleet_sweep",
                "racks": 2,
                "enclosures_per_rack": 3,
                "drives_per_enclosure": 2,
                "recirculation": 0.3,
                "tiering_extents": 24,
                "inject_faults": True,
                "accesses_per_drive": 64,
                "workers": 2,
            }
        )
        assert job_config_key(parsed) == pinned


class TestLiteralPayloadPins:
    """The payload bytes stores already hold, pinned by digest.

    A codec refactor must reproduce every stored result byte for byte: a
    moved payload digest means cached results no longer serialize like
    computed ones.
    """

    def test_faulted_telemetry_workload_payload(self):
        from repro.faults import FaultConfig
        from repro.simulation.sweep import (
            WorkloadTask,
            _run_workload_task,
            workload_result_to_payload,
        )
        from repro.store import payload_digest

        task = WorkloadTask(
            workload="tpcc",
            rpm=10000.0,
            requests=200,
            seed=3,
            telemetry=True,
            probe_interval_ms=50.0,
            trace_capacity=64,
            fault_config=FaultConfig(seed=5, media_rate=0.05, servo_rate=0.01),
        )
        payload = workload_result_to_payload(_run_workload_task(task))
        assert payload["telemetry"] is not None
        assert payload["fault_summary"] is not None
        assert payload_digest(payload) == "a88efc80616dc56c42d58a8f25d4a1c4"

    def test_exact_samples_workload_payload(self):
        from repro.simulation.sweep import (
            WorkloadTask,
            _run_workload_task,
            workload_result_to_payload,
        )
        from repro.store import payload_digest

        task = WorkloadTask(
            workload="oltp",
            rpm=15000.0,
            requests=200,
            seed=2,
            keep_samples=True,
        )
        payload = workload_result_to_payload(_run_workload_task(task))
        assert payload["engine"] == "exact"
        assert len(payload["samples_ms"]) == 200
        assert payload_digest(payload) == "013b528719fc9c65d487d00244b1b577"

    def test_tiered_faulted_rack_payload(self):
        from repro.faults import FaultConfig
        from repro.fleet import TieringPolicy, build_rack_tasks, uniform_fleet
        from repro.fleet.sweep import _run_rack_task, rack_result_to_payload
        from repro.store import payload_digest

        (task,) = build_rack_tasks(
            uniform_fleet(1, 3, 2, recirculation=0.3, inlet_c=40.0),
            tiering=TieringPolicy(extents=24, seed=9),
            fault_config=FaultConfig(seed=4, media_rate=0.05),
            accesses_per_drive=32,
        )
        payload = rack_result_to_payload(_run_rack_task(task))
        assert payload["tiering"] is not None
        assert payload["throttle_events"]
        assert payload["drives"][0]["faults"] is not None
        assert payload_digest(payload) == "318238aa1cfd0efee29e96c96b2bde05"
