"""Tests for the content-addressed result store (repro.store.store).

The correctness contract under test: a store can *only* ever cost
recomputation — a corrupt, truncated, evicted or otherwise damaged entry
must surface as a miss (and be quarantined), never as a wrong result or
a crashed sweep.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Optional, Tuple

import pytest

from repro.errors import StoreError
from repro.simulation.resilience import run_kind
from repro.simulation.sweep import (
    WORKLOAD_TASK_KIND,
    build_workload_tasks,
    results_json_bytes,
    workload_result_to_payload,
    workload_sweep_kind,
    workload_task_key,
)
from repro.store import (
    STORE_SCHEMA,
    ResultStore,
    config_key,
    default_store_root,
    encode_payload,
    material,
    payload_digest,
    record_from_payload,
    record_payload,
    stable_json,
)
from repro.store.canonical import text_digest
from repro.telemetry import Telemetry


@pytest.fixture
def store(tmp_path):
    return ResultStore(root=tmp_path / "store", max_bytes=10_000_000)


def _key(i: int = 0) -> str:
    return config_key("test/1", {"i": i})


class TestBasicOperations:
    def test_miss_then_hit(self, store):
        key = _key()
        assert store.get(key) is None
        store.put(key, {"value": 1.5})
        assert store.get(key) == {"value": 1.5}
        assert (store.hits, store.misses, store.puts) == (1, 1, 1)

    def test_put_is_idempotent(self, store):
        key = _key()
        store.put(key, {"value": 1.5})
        store.put(key, {"value": 1.5})
        assert store.get(key) == {"value": 1.5}
        assert store.stats().entries == 1

    def test_entries_shard_by_key_prefix(self, store):
        key = _key()
        path = store.put(key, {"value": 1})
        assert path.parent.name == key[:2]
        assert path.name == f"{key}.json"

    def test_malformed_key_rejected(self, store):
        with pytest.raises(StoreError):
            store.get("not-a-key")
        with pytest.raises(StoreError):
            store.put("abc", {})

    def test_envelope_carries_schema_and_digest(self, store):
        key = _key()
        path = store.put(key, {"value": 2}, kind="test/1")
        envelope = json.loads(path.read_text())
        assert envelope["schema"] == "repro.store/1"
        assert envelope["key"] == key
        assert envelope["kind"] == "test/1"
        assert envelope["payload_digest"] == payload_digest({"value": 2})

    def test_default_root_honours_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "elsewhere"))
        assert default_store_root() == tmp_path / "elsewhere"

    def test_default_root_falls_back_to_home_cache(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        assert str(default_store_root()).endswith(".cache/repro")

    def test_max_bytes_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE_MAX_BYTES", "12345")
        assert ResultStore(root=tmp_path).max_bytes == 12345
        monkeypatch.setenv("REPRO_STORE_MAX_BYTES", "bogus")
        with pytest.raises(StoreError):
            ResultStore(root=tmp_path)
        monkeypatch.setenv("REPRO_STORE_MAX_BYTES", "-5")
        with pytest.raises(StoreError):
            ResultStore(root=tmp_path)


def _seeded_payload(rng, depth=0):
    """A JSON-shaped payload with non-ASCII strings, nested lists,
    ``$repro.float`` tags, ints, floats and nulls."""
    leaves = [
        lambda: rng.randint(-(10**12), 10**12),
        lambda: rng.uniform(-1e6, 1e6),
        lambda: rng.choice(["", "plain", "\u00e9t\u00e9", "\u6e29\u5ea6", "\U0001f321", 'q"\\\n']),
        lambda: rng.choice([None, True, False]),
        lambda: encode_payload(rng.choice([math.inf, -math.inf, math.nan])),
    ]
    if depth >= 3 or rng.random() < 0.3:
        return rng.choice(leaves)()
    if rng.random() < 0.5:
        return [_seeded_payload(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    return {
        rng.choice(["a", "b", "\u00fc", "payload", "z9"]) + str(i): _seeded_payload(rng, depth + 1)
        for i in range(rng.randint(0, 4))
    }


class TestSingleSerialization:
    """``put`` serializes a payload once; ``get_text`` hands back the text
    the integrity check verified.  Neither may move a byte."""

    def test_put_bytes_equal_the_serialized_envelope(self, store):
        rng = random.Random(0x57AB1E)
        for case in range(40):
            key = _key(case)
            payload = {"body": _seeded_payload(rng), "n": case}
            kind = rng.choice(["", "fleet_rack/1", "k\u00efnd"])
            path = store.put(key, payload, kind=kind)
            envelope = {
                "schema": STORE_SCHEMA,
                "key": key,
                "kind": kind,
                "payload": payload,
                "payload_digest": payload_digest(payload),
            }
            expected = stable_json(envelope) + "\n"
            assert path.read_text(encoding="utf-8") == expected, case
            assert path.read_bytes() == expected.encode("utf-8"), case
            assert store.get_text(key) == stable_json(payload), case
            assert store.get(key) == json.loads(stable_json(payload)), case

    def test_get_text_counts_like_get(self, store):
        key = _key()
        assert store.get_text(key) is None
        store.put(key, {"value": [1, 2.5, "\u00e9"]})
        assert store.get_text(key) == stable_json({"value": [1, 2.5, "\u00e9"]})
        assert (store.hits, store.misses) == (1, 1)

    def _rewrite(self, store, key, envelope_text):
        store.path_for(key).write_text(envelope_text, encoding="utf-8")

    @pytest.mark.parametrize("read", ["get", "get_text"])
    def test_flipped_digest_is_quarantined(self, store, read):
        key = _key()
        path = store.put(key, {"value": 1.5})
        envelope = json.loads(path.read_text())
        digest = envelope["payload_digest"]
        envelope["payload_digest"] = ("0" if digest[0] != "0" else "1") + digest[1:]
        self._rewrite(store, key, stable_json(envelope) + "\n")
        assert getattr(store, read)(key) is None
        assert store.corrupt == 1
        assert (store.quarantine_dir / path.name).exists()

    @pytest.mark.parametrize("read", ["get", "get_text"])
    def test_reformatted_payload_matching_its_own_digest_is_quarantined(
        self, store, read
    ):
        """The digest covers the stable serialization of the payload, not
        whatever text sits on disk: a payload re-spaced and re-digested
        over its own raw text still fails."""
        key = _key()
        path = store.put(key, {"value": [1, 2.5], "name": "x"})
        raw = json.dumps({"value": [1, 2.5], "name": "x"}, sort_keys=True, indent=1)
        self._rewrite(
            store,
            key,
            f'{{"key": "{key}", "kind": "", "payload": {raw}, '
            f'"payload_digest": "{text_digest(raw)}", "schema": "{STORE_SCHEMA}"}}\n',
        )
        assert getattr(store, read)(key) is None
        assert store.corrupt == 1
        assert (store.quarantine_dir / path.name).exists()

    def test_null_payload_is_quarantined(self, store):
        key = _key()
        path = store.put(key, None)
        assert store.get_text(key) is None
        assert store.corrupt == 1
        assert not path.exists()


class TestCorruptionRecovery:
    """Damaged entries quarantine and recompute — never crash, never lie."""

    def _flip_bit(self, path) -> None:
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))

    def test_bit_flip_is_a_counted_miss(self, store):
        key = _key()
        path = store.put(key, {"value": 1.5})
        self._flip_bit(path)
        assert store.get(key) is None
        assert store.corrupt == 1
        assert not path.exists()
        assert (store.quarantine_dir / path.name).exists()

    def test_truncated_entry_is_a_counted_miss(self, store):
        key = _key()
        path = store.put(key, {"value": 1.5})
        path.write_bytes(path.read_bytes()[:30])
        assert store.get(key) is None
        assert store.corrupt == 1

    def test_invalid_utf8_is_a_counted_miss(self, store):
        key = _key()
        path = store.put(key, {"value": 1.5})
        path.write_bytes(b"\xff\xfe garbage")
        assert store.get(key) is None
        assert store.corrupt == 1

    def test_wrong_key_in_envelope_is_corrupt(self, store):
        key, other = _key(0), _key(1)
        path = store.put(key, {"value": 1})
        os.makedirs(store.objects_dir / other[:2], exist_ok=True)
        os.replace(path, store.path_for(other))
        assert store.get(other) is None
        assert store.corrupt == 1

    def test_put_heals_a_quarantined_key(self, store):
        key = _key()
        path = store.put(key, {"value": 1.5})
        self._flip_bit(path)
        assert store.get(key) is None
        store.put(key, {"value": 1.5})
        assert store.get(key) == {"value": 1.5}

    def test_sweep_recovers_from_bit_flipped_entry(self, store):
        """The satellite contract: flip a stored bit, the sweep recomputes.

        The recomputed result must be identical to the undamaged run and
        the corruption must be visible in the ``store.corrupt`` counter.
        """
        tasks = build_workload_tasks(["tpcc"], rpms=[10000.0], requests=120)
        tel = Telemetry()
        store.bind_telemetry(tel)
        report = run_kind(workload_sweep_kind(), tasks, store=store, workers=0)
        (clean,) = report.ok_results()
        self._flip_bit(store.path_for(workload_task_key(tasks[0])))
        report = run_kind(workload_sweep_kind(), tasks, store=store, workers=0)
        (recomputed,) = report.ok_results()
        assert recomputed == clean
        assert report.store_hits == 0 and report.store_misses == 1
        assert store.corrupt == 1
        assert tel.registry.counter("store.corrupt").value == 1
        # ...and the recomputation re-persisted the entry: third run hits.
        report = run_kind(workload_sweep_kind(), tasks, store=store, workers=0)
        assert report.store_hits == 1

    def test_verify_quarantines_and_reports(self, store):
        keys = [_key(i) for i in range(4)]
        for i, key in enumerate(keys):
            store.put(key, {"i": i})
        self._flip_bit(store.path_for(keys[1]))
        report = store.verify()
        assert report.checked == 4
        assert report.ok == 3
        assert report.corrupt == 1
        assert report.quarantined_keys == [keys[1]]
        assert store.stats().quarantined == 1

    def test_reject_retires_an_intact_entry(self, store):
        key = _key()
        store.put(key, {"value": 1})
        store.reject(key)
        assert store.get(key) is None
        assert store.stats().quarantined == 1

    def test_load_rejects_an_entry_the_codec_refuses(self, store):
        key = _key()
        store.put(key, {"value": 1})
        assert store.load(key, lambda payload: payload["value"]) == 1

        def refuse(payload):
            raise KeyError("field missing")

        assert store.load(key, refuse) is None
        assert store.stats().quarantined == 1
        assert store.load(key, lambda payload: payload) is None

    def test_save_counts_a_failed_put_instead_of_raising(self, store):
        tel = Telemetry()
        store.bind_telemetry(tel)

        def broken(value):
            raise OSError("disk full")

        store.save(_key(0), {"value": 1}, broken)
        store.save(_key(1), {"value": 2})
        assert tel.registry.counter("store.put_failed").value == 1
        assert store.get(_key(0)) is None
        assert store.get(_key(1)) == {"value": 2}


class TestGC:
    def test_gc_is_lru_and_respects_cap(self, tmp_path):
        store = ResultStore(root=tmp_path, max_bytes=10_000_000)
        keys = [_key(i) for i in range(6)]
        for i, key in enumerate(keys):
            path = store.put(key, {"i": i, "pad": "x" * 64})
            os.utime(path, (1_000_000 + i, 1_000_000 + i))
        # Touch the oldest entry: a hit refreshes its LRU position.
        assert store.get(keys[0]) is not None
        entry_bytes = store.stats().total_bytes // 6
        evicted = store.gc(max_bytes=3 * entry_bytes)
        assert evicted == 3
        # keys[1..3] were the least recently used; keys[0] survived its touch.
        assert store.get(keys[0]) is not None
        assert store.get(keys[5]) is not None
        assert store.get(keys[1]) is None

    def test_put_triggers_gc_over_cap(self, tmp_path):
        store = ResultStore(root=tmp_path, max_bytes=600)
        for i in range(10):
            store.put(_key(i), {"i": i, "pad": "x" * 40})
        assert store.stats().total_bytes <= 600
        assert store.evictions > 0

    def test_gc_counts_into_telemetry(self, tmp_path):
        tel = Telemetry()
        store = ResultStore(root=tmp_path, max_bytes=10_000_000, telemetry=tel)
        for i in range(4):
            store.put(_key(i), {"i": i})
        store.gc(max_bytes=1)
        assert tel.registry.counter("store.evict").value == 4.0

    def test_gc_rejects_nonpositive_cap(self, store):
        with pytest.raises(StoreError):
            store.gc(max_bytes=0)

    def test_constructor_rejects_nonpositive_cap(self, tmp_path):
        with pytest.raises(StoreError):
            ResultStore(root=tmp_path, max_bytes=0)


class TestTelemetryCounters:
    def test_hit_miss_put_counters(self, tmp_path):
        tel = Telemetry()
        store = ResultStore(root=tmp_path, telemetry=tel)
        key = _key()
        store.get(key)
        store.put(key, {"v": 1})
        store.get(key)
        counters = tel.registry
        assert counters.counter("store.miss").value == 1.0
        assert counters.counter("store.put").value == 1.0
        assert counters.counter("store.hit").value == 1.0

    def test_bind_telemetry_does_not_clobber(self, tmp_path):
        tel_a, tel_b = Telemetry(), Telemetry()
        store = ResultStore(root=tmp_path, telemetry=tel_a)
        store.bind_telemetry(tel_b)
        store.get(_key())
        assert tel_a.registry.counter("store.miss").value == 1.0
        assert tel_b.registry.counter("store.miss").value == 0.0


class TestClaimRelease:
    """Satellite fix: release failures must be loud, not swallowed."""

    def test_release_claim_tolerates_only_absence(self, tmp_path):
        tel = Telemetry()
        store = ResultStore(root=tmp_path, telemetry=tel)
        key = _key()
        # Missing claim: fine, silent, uncounted.
        store.release_claim(key)
        assert tel.registry.counter("store.claim_release_failed").value == 0.0
        # A claim that exists but cannot be unlinked (here: a directory
        # squatting on the claim path, which fails even for root) must
        # raise and count — the pre-fix blanket ``except OSError`` hid
        # this and silently stalled peers for the whole stale window.
        store.claims_dir.mkdir(parents=True, exist_ok=True)
        store.claim_path(key).mkdir()
        with pytest.raises(OSError):
            store.release_claim(key)
        assert tel.registry.counter("store.claim_release_failed").value == 1.0

    def test_release_claim_drops_real_claims(self, tmp_path):
        store = ResultStore(root=tmp_path)
        key = _key()
        assert store.try_claim(key)
        assert store.claim_mtime(key) is not None
        store.release_claim(key)
        assert store.claim_mtime(key) is None

    def test_claim_mtime_none_when_unclaimed(self, tmp_path):
        store = ResultStore(root=tmp_path)
        assert store.claim_mtime(_key()) is None


# ---------------------------------------------------------------------------
# The record codec: payloads and keys derived from dataclass fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Leaf:
    name: str
    weight: float


@dataclass(frozen=True)
class _Record:
    count: int
    ratio: float
    flag: bool = False
    edges: Tuple[Tuple[float, int], ...] = ()
    samples: Tuple[float, ...] = ()
    leaf: Optional[_Leaf] = None
    leaves: Tuple[_Leaf, ...] = ()
    extras: Optional[dict] = None


@dataclass(frozen=True)
class _RecordV2(_Record):
    added: str = "new"


def _json_round_trip(record):
    """Encode, serialize strictly, parse and decode — what a store does."""
    text = stable_json(record_payload(record))
    return record_from_payload(type(record), json.loads(text))


class TestRecordCodec:
    @pytest.mark.parametrize(
        "record",
        [
            _Record(count=3, ratio=2),  # an int in a float field stays int
            _Record(count=3, ratio=2.0, flag=True),
            _Record(
                count=0,
                ratio=0.5,
                edges=((5, 1), (7.5, 2)),
                samples=(1.0, 2, 3.25),
            ),
            _Record(
                count=1,
                ratio=1.5,
                leaf=_Leaf("a", 1),
                leaves=(_Leaf("b", 2.0), _Leaf("c", 3.5)),
            ),
            _Record(
                count=2,
                ratio=-1.0,
                extras={"min": math.inf, "max": -math.inf, "runs": [1, 2.0]},
            ),
            _RecordV2(count=4, ratio=4.5, leaf=_Leaf("d", 0.0), added="x"),
        ],
    )
    def test_round_trip_is_exact(self, record):
        decoded = _json_round_trip(record)
        assert decoded == record
        assert type(decoded) is type(record)
        for f in dataclasses.fields(record):
            assert type(getattr(decoded, f.name)) is type(getattr(record, f.name))
        assert isinstance(decoded.edges, tuple)
        assert all(type(edge) is tuple for edge in decoded.edges)
        assert all(type(leaf) is _Leaf for leaf in decoded.leaves)
        assert stable_json(record_payload(decoded)) == stable_json(
            record_payload(record)
        )

    def test_ints_and_floats_stay_distinct(self):
        assert type(_json_round_trip(_Record(count=1, ratio=2)).ratio) is int
        assert type(_json_round_trip(_Record(count=1, ratio=2.0)).ratio) is float

    def test_nonfinite_floats_ride_inside_dict_fields(self):
        record = _Record(count=1, ratio=1.0, extras={"x": [math.nan, math.inf]})
        json.dumps(record_payload(record), allow_nan=False)  # strict-JSON safe
        nan, inf = _json_round_trip(record).extras["x"]
        assert math.isnan(nan) and inf == math.inf

    def test_added_field_round_trips_without_codec_edits(self):
        payload = record_payload(_RecordV2(count=1, ratio=1.0))
        assert set(payload) == {f.name for f in dataclasses.fields(_RecordV2)}
        assert payload["added"] == "new"
        assert _json_round_trip(_RecordV2(count=1, ratio=1.0, added="y")).added == "y"

    def test_payload_missing_a_field_fails_to_decode(self):
        payload = record_payload(_Record(count=1, ratio=1.0))
        del payload["ratio"]
        with pytest.raises(KeyError):
            record_from_payload(_Record, payload)

    def test_material_folds_immaterial_fields(self):
        record = _Record(count=1, ratio=1.0, leaf=_Leaf("a", 1.0))
        config = material(record, ("ratio",))
        assert config["ratio"] is None
        assert config["leaf"] == {"name": "a", "weight": 1.0}
        assert config_key("test/1", config) == config_key(
            "test/1", material(_Record(count=1, ratio=9.0, leaf=_Leaf("a", 1)), ("ratio",))
        )

    def test_unsupported_field_type_is_refused(self):
        @dataclass(frozen=True)
        class Bad:
            items: list

        with pytest.raises(StoreError):
            record_payload(Bad(items=[]))

    def test_stale_entry_is_rejected_and_recomputed(self, store):
        tasks = build_workload_tasks(["tpcc"], rpms=[10000.0], requests=120)
        cold = run_kind(workload_sweep_kind(), tasks, store=store, workers=0)
        key = workload_task_key(tasks[0])
        stale = workload_result_to_payload(cold.ok_results()[0])
        del stale["engine"]  # an entry written before a field existed
        store.put(key, stale, kind=WORKLOAD_TASK_KIND)

        report = run_kind(workload_sweep_kind(), tasks, store=store, workers=0)
        assert (report.store_hits, report.store_misses) == (0, 1)
        assert store.stats().quarantined == 1  # retired via reject()
        assert results_json_bytes(report.ok_results()) == results_json_bytes(
            cold.ok_results()
        )
        assert store.get(key) == workload_result_to_payload(cold.ok_results()[0])
