"""Wire-protocol schemas for the sweep job service.

A job submission is a JSON object describing one sweep.  The optional
``kind`` field selects the job family: ``workload_sweep`` (the default —
the same knobs ``repro sweep workload`` takes) or ``fleet_sweep`` (the
knobs ``repro fleet`` takes).  Parsing is *strict*: unknown fields are
rejected with a 400 instead of ignored, because every accepted field
either enters the job's canonical config key or is an explicitly-listed
execution knob.  Silently dropping a typo'd field ("rqeuests") would
hand the tenant a dedup hit for a sweep they did not ask for.

Two layers of keys:

* **Job config key** (:func:`job_config_key`) — BLAKE2b over the
  *material* sweep fields only, kind :data:`SERVICE_JOB_KIND`.  This is
  the dedup identity: two tenants posting the same sweep share one job.
  Execution knobs (``backend``, ``retries``, ``workers``) never enter
  it, the same contract the store layer keeps for task keys.
* **Task keys** — the per-(workload, RPM) content keys from
  :func:`repro.simulation.sweep.workload_task_key`, identical to what
  the CLI computes; results land in the shared store under them, which
  is what makes a service result byte-identical to a CLI run.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Mapping, Tuple

from repro.errors import ReproError, ServiceError
from repro.job_config import (
    SERVICE_FLEET_JOB_KIND,
    SERVICE_JOB_KIND,
    ConfigField,
    FleetJobConfig,
    SweepJobConfig,
    config_fields,
)

__all__ = [
    "SERVICE_JOB_KIND",
    "SERVICE_FLEET_JOB_KIND",
    "JOB_SCHEMA",
    "EVENT_SCHEMA",
    "SweepJobConfig",
    "FleetJobConfig",
    "parse_job_request",
    "job_config_key",
]

#: Schema tag on every job document the service returns.
JOB_SCHEMA = "repro.service.job/1"

#: Schema tag on every progress event in the ``/events`` stream.
EVENT_SCHEMA = "repro.service.event/1"


def job_config_key(config: Any) -> str:
    """The job's canonical dedup key (material fields only).

    The config class's ``job_kind`` tag namespaces the key, so the two
    job families can never collide even on coincidentally-equal
    material dictionaries.
    """
    from repro.store import config_key

    return config_key(config.job_kind, config.material_config())


#: JSON value types accepted for each scalar field annotation.  A float
#: field takes JSON integers too (coerced); bool never passes for a
#: number (bool is an int subclass).
_SCALAR_TYPES: Dict[Any, Tuple[type, ...]] = {
    bool: (bool,),
    int: (int,),
    float: (int, float),
    str: (str,),
}


def _json_types(field: ConfigField) -> Tuple[type, ...]:
    """JSON value types one field accepts: a list for a tuple field,
    else the scalar's types; null too when the field is ``Optional``, or
    is a tuple field with a default (null asks for the default)."""
    if field.is_tuple:
        accepted: Tuple[type, ...] = (list,)
        nullable = field.optional or field.default is not dataclasses.MISSING
    else:
        accepted = _SCALAR_TYPES[field.scalar]
        nullable = field.optional
    return accepted + (type(None),) if nullable else accepted


def _parse_config(cls: type, payload: Mapping[str, Any]) -> Any:
    """Strict validation of one job body against ``cls``'s fields.

    The fields, their JSON types and defaults come from
    :func:`repro.job_config.config_fields`, the walk the CLI derives its
    flags from.  Checks run in a fixed order — unknown fields, required
    fields, value types, list contents, then value ranges — and each
    failure raises the first :class:`ServiceError` it meets.
    """
    fields = config_fields(cls)
    accepted = sorted({f.name for f in fields} | {"kind"})
    unknown = sorted(set(payload) - set(accepted))
    if unknown:
        raise ServiceError(
            f"unknown job field(s): {', '.join(unknown)} "
            f"(accepted: {', '.join(accepted)})"
        )
    for f in fields:
        # The only required fields are lists (``workloads``).
        if f.default is dataclasses.MISSING and f.name not in payload:
            raise ServiceError(f"job request needs a {f.name!r} list")
    for f in fields:
        if f.name not in payload:
            continue
        value = payload[f.name]
        types = _json_types(f)
        # bool is an int subclass; don't let true/false sneak into counts.
        if isinstance(value, bool) and bool not in types:
            raise ServiceError(f"field {f.name!r} has the wrong type")
        if not isinstance(value, types):
            raise ServiceError(f"field {f.name!r} has the wrong type")
    values: Dict[str, Any] = {}
    for f in fields:
        value = payload.get(f.name)
        if value is None:
            continue  # absent, or null for a nullable field: the default
        if f.is_tuple and f.scalar is str:
            if not value or not all(isinstance(v, str) and v for v in value):
                raise ServiceError(f"{f.name!r} must be a non-empty list of names")
            value = tuple(value)
        elif f.is_tuple:
            if not value or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in value
            ):
                raise ServiceError(f"{f.name!r} must be a non-empty list of numbers")
            value = tuple(_as_float(f.name, v) for v in value)
        elif f.scalar is float:
            value = _as_float(f.name, value)
        values[f.name] = value
    try:
        config = cls(**values)
    except ReproError as exc:  # a non-finite number or a count below one
        raise ServiceError(str(exc)) from None
    if config.retries < 0:
        raise ServiceError("'retries' must be >= 0")
    if config.workers is not None and config.workers < 0:
        raise ServiceError("'workers' must be >= 0")
    return config


def _as_float(name: str, value: Any) -> float:
    """A JSON number as a float field's value; an integer too large for a
    float is refused like the non-finite literals the body parser refuses."""
    try:
        return float(value)
    except OverflowError:
        raise ServiceError(f"field {name!r} does not fit a float") from None


#: Job config class per wire-protocol ``kind``.
_JOB_CONFIGS = {cls.request_kind: cls for cls in (SweepJobConfig, FleetJobConfig)}


def parse_job_request(payload: Any) -> Any:
    """Validate one ``POST /v1/jobs`` body into a job config.

    The ``kind`` field selects the family: ``workload_sweep`` (default,
    → :class:`SweepJobConfig`) or ``fleet_sweep`` (→
    :class:`FleetJobConfig`).  The accepted fields, their JSON types and
    their defaults are the config dataclass's own.  Raises
    :class:`ServiceError` (status 400) on anything malformed: wrong
    top-level type, unknown kinds or fields, wrong field types, empty or
    non-string workload lists, non-positive counts.  Workload/engine/
    topology *semantics* are validated later by ``build_tasks`` (the
    owning layer), still before the job is queued.
    """
    if not isinstance(payload, Mapping):
        raise ServiceError("job request must be a JSON object")
    kind = payload.get("kind", "workload_sweep")
    if not isinstance(kind, str):
        raise ServiceError("field 'kind' has the wrong type")
    cls = _JOB_CONFIGS.get(kind)
    if cls is None:
        raise ServiceError(
            f"unknown job kind {kind!r} (accepted: {', '.join(_JOB_CONFIGS)})"
        )
    return _parse_config(cls, payload)
