"""Content-addressed result store for sweep memoization.

PR 4 made every sweep task a pure, deterministic function of its frozen
task dataclass — bit-identical serial vs parallel, across hosts.  That
purity is a cache license: this package keys each task by a canonical
BLAKE2b hash of its fully-normalized configuration
(:mod:`repro.store.canonical`) and persists result envelopes as verified
JSON under ``~/.cache/repro`` (:mod:`repro.store.store`), so repeated and
overlapping sweeps — and sweeps resumed after a crash — become cache hits
instead of recomputation.

The two halves are deliberately separate: canonicalization is pure and
property-tested (key discipline), storage is all mechanics (atomic
writes, integrity verification, quarantine, LRU GC).  Wiring into the
sweep executor lives in :mod:`repro.simulation.resilience`
(``run_kind``); every sweep family's task key and result codec derive
from its dataclasses through the record codec in
:mod:`repro.store.canonical`.

See ``docs/result_store.md`` for the key schema, invalidation rules, GC
policy and resume semantics.
"""

from __future__ import annotations

from repro.store.canonical import (
    CODE_SCHEMA_VERSION,
    STORE_SCHEMA,
    canonical_json,
    canonicalize,
    config_key,
    decode_payload,
    encode_payload,
    material,
    payload_digest,
    record_from_payload,
    record_payload,
    stable_json,
)
from repro.store.store import (
    DEFAULT_MAX_BYTES,
    ResultStore,
    StoreStats,
    VerifyReport,
    default_store_root,
)

__all__ = [
    "STORE_SCHEMA",
    "CODE_SCHEMA_VERSION",
    "canonicalize",
    "canonical_json",
    "stable_json",
    "config_key",
    "payload_digest",
    "encode_payload",
    "decode_payload",
    "record_payload",
    "record_from_payload",
    "material",
    "ResultStore",
    "StoreStats",
    "VerifyReport",
    "DEFAULT_MAX_BYTES",
    "default_store_root",
]
