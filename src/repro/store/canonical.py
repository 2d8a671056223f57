"""Canonical configuration hashing for the result store.

A cache is only as safe as its keys.  Two sweep configurations that mean
the same thing must hash identically no matter how they were spelled —
dict insertion order, ``15000`` vs ``15000.0``, ``-0.0`` vs ``0.0`` —
and two configurations that differ in *any* material field must never
collide.  This module is that discipline, isolated from storage
mechanics so it can be property-tested exhaustively:

* :func:`canonicalize` — normalize an arbitrary JSON-shaped value into a
  canonical form (sorted mapping keys, tuples folded to lists, integral
  floats folded to ints, ``-0.0`` folded to ``0.0``, non-finite floats
  folded to string sentinels);
* :func:`canonical_json` — the one true serialization of that form
  (sorted keys, no whitespace, ASCII);
* :func:`config_key` — the BLAKE2b content address of a
  ``(kind, config)`` pair, salted with the store format version and a
  code-schema version so refactors that change result *meaning* can
  invalidate every stale entry with a one-line bump;
* :func:`record_payload` / :func:`record_from_payload` — the one codec
  between frozen task/result dataclasses and exact JSON-safe payloads,
  driven by the dataclass fields, and :func:`material`, the key config
  of a task record.

Everything here is pure and stdlib-only; no filesystem, no clock.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import typing
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Type,
    TypeVar,
    Union,
)

from repro.errors import StoreError

__all__ = [
    "STORE_SCHEMA",
    "CODE_SCHEMA_VERSION",
    "canonicalize",
    "canonical_json",
    "stable_json",
    "config_key",
    "payload_digest",
    "text_digest",
    "encode_payload",
    "decode_payload",
    "record_payload",
    "record_from_payload",
    "material",
]

#: Version of the on-disk store format itself (envelope layout, digest
#: algorithm, key derivation).  Bumping it orphans every existing entry.
STORE_SCHEMA = "repro.store/1"

#: Version of the *simulation output semantics*.  Bump this whenever a
#: model change makes previously cached results wrong (new physics, a
#: bugfix that changes numbers, a field added to a result).  It is salted
#: into every key, so stale entries simply stop matching — no migration.
CODE_SCHEMA_VERSION = 1

#: Integral floats up to this magnitude are folded into ints (beyond
#: 2**53 a float no longer represents every integer exactly, so folding
#: would conflate genuinely different configs).
_EXACT_INT_BOUND = 2**53

#: Hex digest length of a content key (BLAKE2b-128).
KEY_HEX_LENGTH = 32

Primitive = Union[None, bool, int, float, str]


def _canonical_number(value: Union[int, float]) -> Union[int, float, str]:
    """Fold numeric spellings that compare equal into one representation.

    ``15000`` and ``15000.0`` configure the same sweep point; ``-0.0``
    and ``0.0`` are indistinguishable to every model in this package.
    Non-finite floats have no strict-JSON form, so they become string
    sentinels (a config should never contain them, but a key function
    that crashes on weird input is worse than one with a defined answer).
    """
    if isinstance(value, float):
        if math.isnan(value):
            return "__nan__"
        if math.isinf(value):
            return "__inf__" if value > 0 else "__-inf__"
        # Exact on purpose: only true zero (either sign) folds to the
        # int; a tolerance would conflate distinct small configs.
        if value == 0.0:  # thermolint: disable=TL002
            return 0
        if value.is_integer() and abs(value) < _EXACT_INT_BOUND:
            return int(value)
        return value
    return value


def canonicalize(value: Any) -> Any:
    """Normalize a JSON-shaped value into its canonical form.

    The canonical form is what gets hashed, so *equal meaning implies
    equal canonical form*: mapping keys are sorted, sequences become
    lists, and numbers are folded by :func:`_canonical_number`.  Mapping
    keys must be strings (JSON's own restriction); any other type is a
    :class:`~repro.errors.StoreError` rather than a silent collision.
    """
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, float)):
        return _canonical_number(value)
    if isinstance(value, Mapping):
        out = {}
        for key in sorted(value.keys()):
            if not isinstance(key, str):
                raise StoreError(
                    f"config mapping keys must be strings, got {type(key).__name__}"
                )
            out[key] = canonicalize(value[key])
        return out
    if isinstance(value, (list, tuple)):
        return [canonicalize(item) for item in value]
    raise StoreError(
        f"cannot canonicalize a {type(value).__name__} (JSON-shaped values only)"
    )


def canonical_json(value: Any) -> str:
    """Serialize ``value``'s canonical form with zero degrees of freedom."""
    return stable_json(canonicalize(value))


def stable_json(value: Any) -> str:
    """Deterministic JSON of an *already concrete* value (no number folding).

    Used for payload digests, where the bytes on disk — not the meaning —
    are what integrity verification must cover.
    """
    return json.dumps(
        value,
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
        allow_nan=False,
    )


def config_key(
    kind: str,
    config: Mapping[str, Any],
    schema_version: int = CODE_SCHEMA_VERSION,
) -> str:
    """The content address of one task configuration.

    Args:
        kind: task family tag (e.g. ``"workload_sweep/1"``); two families
            with coincidentally identical configs must not collide.
        config: the fully-normalized task configuration mapping.
        schema_version: code-schema salt, see :data:`CODE_SCHEMA_VERSION`.

    Returns:
        A 32-hex-character BLAKE2b-128 digest, stable across processes,
        hosts and Python versions.
    """
    document = canonical_json(
        {
            "store_schema": STORE_SCHEMA,
            "code_schema": schema_version,
            "kind": kind,
            "config": config,
        }
    )
    return hashlib.blake2b(
        document.encode("utf-8"), digest_size=KEY_HEX_LENGTH // 2
    ).hexdigest()


def payload_digest(payload: Any) -> str:
    """Integrity digest of a stored payload (over its stable serialization)."""
    return text_digest(stable_json(payload))


def text_digest(text: str) -> str:
    """:func:`payload_digest` of a payload already serialized by
    :func:`stable_json`, without serializing it again."""
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


# ---------------------------------------------------------------------------
# Exact JSON-safe payload encoding
# ---------------------------------------------------------------------------

#: Sentinel key marking an encoded non-finite float.  Strict JSON
#: (``allow_nan=False``) rejects ``inf``/``nan``, but telemetry
#: snapshots legitimately contain them (an empty histogram's min is
#: ``+inf``); encoding them as tagged objects keeps the round trip exact
#: instead of lossy.
_FLOAT_TAG = "$repro.float"

_NONFINITE_ENCODE = {"inf": math.inf, "-inf": -math.inf}


def encode_payload(value: Any) -> Any:
    """Make ``value`` strict-JSON serializable without losing information.

    Tuples become lists (callers that care reconstruct them in their
    codec); non-finite floats become ``{"$repro.float": "inf"}``-style
    tagged objects.  Everything else passes through unchanged.
    """
    if isinstance(value, float):
        if math.isnan(value):
            return {_FLOAT_TAG: "nan"}
        if math.isinf(value):
            return {_FLOAT_TAG: "inf" if value > 0 else "-inf"}
        return value
    if isinstance(value, Mapping):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise StoreError(
                    f"payload mapping keys must be strings, got {type(key).__name__}"
                )
            out[key] = encode_payload(item)
        return out
    if isinstance(value, (list, tuple)):
        return [encode_payload(item) for item in value]
    if value is None or isinstance(value, (bool, int, str)):
        return value
    raise StoreError(
        f"cannot encode a {type(value).__name__} into a store payload"
    )


def decode_payload(value: Any) -> Any:
    """Invert :func:`encode_payload` (tagged floats back to floats)."""
    if isinstance(value, dict):
        if len(value) == 1 and _FLOAT_TAG in value:
            tag = value[_FLOAT_TAG]
            if tag == "nan":
                return math.nan
            if tag in _NONFINITE_ENCODE:
                return _NONFINITE_ENCODE[tag]
            raise StoreError(f"unknown float tag {tag!r} in store payload")
        return {key: decode_payload(item) for key, item in value.items()}
    if isinstance(value, list):
        return [decode_payload(item) for item in value]
    return value


# ---------------------------------------------------------------------------
# Record codec: dataclasses <-> payloads, derived from their fields
# ---------------------------------------------------------------------------

RecordT = TypeVar("RecordT")

#: One direction of a field codec; None passes the value through.
_Convert = Optional[Callable[[Any], Any]]


def _each(convert: Callable[[Any], Any], build: Callable[[Any], Any]) -> Callable[[Any], Any]:
    return lambda value: build([convert(item) for item in value])


def _none_safe(convert: _Convert) -> _Convert:
    if convert is None:
        return None
    return lambda value: None if value is None else convert(value)


def _field_codec(hint: Any) -> Tuple[_Convert, _Convert]:
    """(encode, decode) for one field type.

    Scalars pass through *uncoerced*: JSON keeps int vs float, and
    folding a CDF edge of ``5`` into ``5.0`` would break byte-identity
    between cached and computed results.  ``Tuple[...]`` travels as a
    list, nested dataclasses recurse, and ``dict`` fields take the
    tagged-float payload codec.
    """
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint in (bool, int, float, str):
        return None, None
    if hint is dict or origin is dict:
        return encode_payload, decode_payload
    if dataclasses.is_dataclass(hint) and isinstance(hint, type):
        plan = _plan(hint)
        return plan.encode, plan.decode
    if origin is Union and len(args) == 2 and args[1] is type(None):
        encode, decode = _field_codec(args[0])
        return _none_safe(encode), _none_safe(decode)
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        encode, decode = _field_codec(args[0])
        return (
            list if encode is None else _each(encode, list),
            tuple if decode is None else _each(decode, tuple),
        )
    if origin is tuple and all(_field_codec(arg) == (None, None) for arg in args):
        return list, tuple
    raise StoreError(f"no record codec for the field type {hint!r}")


class _Plan:
    """One dataclass's encoder and decoder, generated from its fields.

    Like :mod:`dataclasses` does for ``__init__``, the two functions are
    written out as source once per class — a dict display and a keyword
    call, with a converter only on the fields that need one — because a
    generic per-field loop runs several times slower, and a fleet sweep
    encodes one record per drive.  Field names are identifiers, so the
    generated source cannot be anything but attribute and key access.
    """

    def __init__(self, cls: type) -> None:
        hints = typing.get_type_hints(cls)
        scope: Dict[str, Any] = {"cls": cls}
        encoded: List[str] = []
        decoded: List[str] = []
        for index, f in enumerate(dataclasses.fields(cls)):
            encode, decode = _field_codec(hints[f.name])
            scope[f"e{index}"], scope[f"d{index}"] = encode, decode
            value = f"r.{f.name}" if encode is None else f"e{index}(r.{f.name})"
            item = f"p[{f.name!r}]" if decode is None else f"d{index}(p[{f.name!r}])"
            encoded.append(f"{f.name!r}: {value}")
            decoded.append(f"{f.name}={item}")
        exec(
            f"def encode(r): return {{{', '.join(encoded)}}}\n"
            f"def decode(p): return cls({', '.join(decoded)})\n",
            scope,
        )
        self.encode: Callable[[Any], Dict[str, Any]] = scope["encode"]
        self.decode: Callable[[Mapping[str, Any]], Any] = scope["decode"]


#: Per-class plans: walking the type hints costs far more than encoding
#: a record, so each class is planned once per process.
_PLANS: Dict[type, _Plan] = {}


def _plan(cls: type) -> _Plan:
    # A pure function of the class: every process builds the identical
    # plan, so copies cannot diverge observably.
    # thermolint: disable=TL012
    plan = _PLANS.get(cls)
    if plan is None:
        plan = _Plan(cls)
        # thermolint: disable=TL012
        _PLANS[cls] = plan
    return plan


def record_payload(record: Any) -> Dict[str, Any]:
    """Encode a dataclass as an exact strict-JSON payload: every field,
    by name, in field order (a new field needs no codec edit)."""
    return _plan(type(record)).encode(record)


def record_from_payload(cls: Type[RecordT], payload: Mapping[str, Any]) -> RecordT:
    """Rebuild a ``cls`` record equal to the encoded one; a payload
    missing a field raises ``KeyError`` (a stale entry is rejected)."""
    return _plan(cls).decode(payload)


def material(record: Any, immaterial: Iterable[str] = ()) -> Dict[str, Any]:
    """A task record's key config: its payload with every ``immaterial``
    field (its feature is off, it shapes nothing) folded to None."""
    config = record_payload(record)
    for name in immaterial:
        config[name] = None
    return config
