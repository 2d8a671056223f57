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
import functools
import typing
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.constants import AMBIENT_TEMPERATURE_C, THERMAL_ENVELOPE_C
from repro.errors import ServiceError

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

#: Kind tag salted into every job config key.  Bump the suffix when the
#: material field set changes meaning.
SERVICE_JOB_KIND = "service.sweep_job/1"

#: Kind tag salted into fleet job config keys — a separate namespace, so
#: a fleet job can never collide with a workload job.
SERVICE_FLEET_JOB_KIND = "service.fleet_job/1"

#: Schema tag on every job document the service returns.
JOB_SCHEMA = "repro.service.job/1"

#: Schema tag on every progress event in the ``/events`` stream.
EVENT_SCHEMA = "repro.service.event/1"


#: Execution knobs: accepted on the wire, never part of a config key.
_EXECUTION_FIELDS = ("backend", "retries", "workers")

#: Knobs that shape nothing unless ``inject_faults`` is set.
_FAULT_KNOBS = ("fault_seed", "media_rate", "servo_rate")


class _JobConfig:
    """What both job families share.  Each declares its own dataclass
    fields, these four fault knobs among them (annotations on a plain
    base class never become fields)."""

    inject_faults: bool
    fault_seed: int
    media_rate: float
    servo_rate: float

    def immaterial_fields(self) -> Tuple[str, ...]:
        """Fields whose feature is off in this config: they shape nothing."""
        return () if self.inject_faults else _FAULT_KNOBS

    def material_config(self) -> Dict[str, Any]:
        """The key-entering field subset, in canonical form: every
        non-execution field in field order, tuples as lists, immaterial
        ones folded to None so they cannot split the dedup key."""
        from repro.store import material

        config = material(self, self.immaterial_fields())
        for name in _EXECUTION_FIELDS:
            del config[name]
        return config

    def fault_config(self) -> Optional[Any]:
        """The FaultConfig this job injects (None when injection is off)."""
        if not self.inject_faults:
            return None
        from repro.faults import FaultConfig

        return FaultConfig(
            seed=self.fault_seed,
            media_rate=self.media_rate,
            servo_rate=self.servo_rate,
        )


@dataclass(frozen=True)
class SweepJobConfig(_JobConfig):
    """One validated sweep submission.

    Material fields (everything except ``backend``/``retries``/
    ``workers``) define the job's dedup identity and must mirror
    :func:`repro.simulation.sweep.build_workload_tasks` exactly — a
    field accepted here but not forwarded there would produce
    same-key-different-results, the one unforgivable store bug.
    """

    #: Wire-protocol job family this config parses from.
    request_kind = "workload_sweep"
    #: Config-key kind tag (the dedup namespace).
    job_kind = SERVICE_JOB_KIND
    #: Count fields a submission must set to a positive value.
    positive_fields = ("rpm_steps", "requests")

    workloads: Tuple[str, ...]
    rpms: Optional[Tuple[float, ...]] = None
    rpm_steps: int = 4
    requests: int = 6000
    seed: int = 1
    keep_samples: bool = False
    engine: str = "exact"
    inject_faults: bool = False
    fault_seed: int = 0
    media_rate: float = 0.01
    servo_rate: float = 0.0
    # Execution knobs (_EXECUTION_FIELDS) — never part of the config key.
    backend: Optional[str] = None
    retries: int = 1
    workers: Optional[int] = None

    def build_tasks(self) -> List[Any]:
        """The task grid, validated exactly like the CLI builds it."""
        from repro.simulation.sweep import build_workload_tasks

        return build_workload_tasks(
            self.workloads,
            rpms=self.rpms,
            rpm_steps=self.rpm_steps,
            requests=self.requests,
            seed=self.seed,
            keep_samples=self.keep_samples,
            fault_config=self.fault_config(),
            engine=self.engine,
        )

    def sweep_kind(self) -> Any:
        """The :class:`repro.simulation.resilience.SweepKind` jobs run on.

        Same worker/key/codec the CLI uses — which is the whole
        byte-identity story: a service result under a task key is
        indistinguishable from a CLI-computed one.
        """
        from repro.simulation.sweep import workload_sweep_kind

        return workload_sweep_kind()


@dataclass(frozen=True)
class FleetJobConfig(_JobConfig):
    """One validated fleet-sweep submission (``kind: fleet_sweep``).

    The material fields mirror ``repro fleet``'s topology/policy flags
    and :func:`repro.fleet.uniform_fleet` exactly; fault and tiering
    knobs fold to None in :meth:`material_config` when their feature is
    off, matching :func:`repro.fleet.fleet_task_key`'s normalization so
    the job-level and task-level dedup agree about what is material.
    """

    request_kind = "fleet_sweep"
    job_kind = SERVICE_FLEET_JOB_KIND
    positive_fields = ("racks",)

    racks: int = 2
    enclosures_per_rack: int = 4
    drives_per_enclosure: int = 3
    airflow_m3_per_s: float = 0.018
    cooling_budget_w: float = 300.0
    diameter_in: float = 2.6
    platter_count: int = 1
    vcm_duty: float = 0.5
    inlet_c: float = AMBIENT_TEMPERATURE_C
    recirculation: float = 0.2
    envelope_c: float = THERMAL_ENVELOPE_C
    rpm_levels: Tuple[float, ...] = (9600.0, 12000.0, 15000.0)
    max_rounds: int = 64
    base_afr: float = 0.02
    reference_c: float = 40.0
    mttr_hours: float = 12.0
    tiering_extents: int = 0
    tiering_seed: int = 0
    tiering_target_utilization: float = 0.7
    inject_faults: bool = False
    fault_seed: int = 0
    media_rate: float = 0.01
    servo_rate: float = 0.0
    accesses_per_drive: int = 256
    # Execution knobs (_EXECUTION_FIELDS) — never part of the config key.
    backend: Optional[str] = None
    retries: int = 1
    workers: Optional[int] = None

    @property
    def workloads(self) -> Tuple[str, ...]:
        """Fleet jobs replay no named workloads (metrics plumbing)."""
        return ()

    def immaterial_fields(self) -> Tuple[str, ...]:
        off = super().immaterial_fields()
        if not self.inject_faults:
            off += ("accesses_per_drive",)
        if self.tiering_extents <= 0:
            off += ("tiering_seed", "tiering_target_utilization")
        return off

    def build_tasks(self) -> List[Any]:
        """One rack task per rack, validated exactly like the CLI."""
        from repro.fleet import (
            FleetDTMPolicy,
            ReliabilityParams,
            TieringPolicy,
            build_rack_tasks,
            uniform_fleet,
        )

        fleet = uniform_fleet(
            racks=self.racks,
            enclosures_per_rack=self.enclosures_per_rack,
            drives_per_enclosure=self.drives_per_enclosure,
            airflow_m3_per_s=self.airflow_m3_per_s,
            cooling_budget_w=self.cooling_budget_w,
            diameter_in=self.diameter_in,
            platter_count=self.platter_count,
            vcm_duty=self.vcm_duty,
            inlet_c=self.inlet_c,
            recirculation=self.recirculation,
            envelope_c=self.envelope_c,
        )
        return build_rack_tasks(
            fleet,
            policy=FleetDTMPolicy(
                rpm_levels=self.rpm_levels,
                envelope_c=self.envelope_c,
                max_rounds=self.max_rounds,
            ),
            reliability=ReliabilityParams(
                base_afr=self.base_afr,
                reference_c=self.reference_c,
                mttr_hours=self.mttr_hours,
            ),
            tiering=TieringPolicy(
                extents=self.tiering_extents,
                seed=self.tiering_seed,
                target_utilization=self.tiering_target_utilization,
            ),
            fault_config=self.fault_config(),
            accesses_per_drive=self.accesses_per_drive,
        )

    def sweep_kind(self) -> Any:
        """The fleet family's :class:`repro.simulation.resilience.SweepKind`."""
        from repro.fleet.sweep import fleet_sweep_kind

        return fleet_sweep_kind()


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


@functools.lru_cache(maxsize=None)
def _wire_fields(cls: type) -> Dict[str, Tuple[Tuple[type, ...], Any, Any]]:
    """``{field: (accepted JSON types, element type, default)}`` for a job
    config class, derived from its dataclass fields.

    ``element type`` is None for scalars and the item annotation for
    tuple fields (sent as JSON lists); ``default`` is
    :data:`dataclasses.MISSING` for required fields.  ``Optional`` fields
    accept null, and so do tuple fields with a default (null asks for
    the default).
    """
    hints = typing.get_type_hints(cls)
    spec: Dict[str, Tuple[Tuple[type, ...], Any, Any]] = {}
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        args = typing.get_args(hint)
        nullable = type(None) in args
        if nullable:
            hint = next(a for a in args if a is not type(None))
        element = None
        if typing.get_origin(hint) is tuple:
            element = typing.get_args(hint)[0]
            accepted: Tuple[type, ...] = (list,)
            nullable = nullable or f.default is not dataclasses.MISSING
        else:
            accepted = _SCALAR_TYPES[hint]
        if nullable:
            accepted += (type(None),)
        spec[f.name] = (accepted, element, f.default)
    return spec


def _parse_config(cls: type, payload: Mapping[str, Any]) -> Any:
    """Strict validation of one job body against ``cls``'s fields.

    Checks run in a fixed order — unknown fields, required fields, value
    types, list contents, then value ranges — and each failure raises
    the first :class:`ServiceError` it meets.
    """
    fields = _wire_fields(cls)
    accepted = sorted(set(fields) | {"kind"})
    unknown = sorted(set(payload) - set(accepted))
    if unknown:
        raise ServiceError(
            f"unknown job field(s): {', '.join(unknown)} "
            f"(accepted: {', '.join(accepted)})"
        )
    for name, (_, _, default) in fields.items():
        # The only required fields are lists (``workloads``).
        if default is dataclasses.MISSING and name not in payload:
            raise ServiceError(f"job request needs a {name!r} list")
    for name, (types, _, _) in fields.items():
        if name not in payload:
            continue
        value = payload[name]
        # bool is an int subclass; don't let true/false sneak into counts.
        if isinstance(value, bool) and bool not in types:
            raise ServiceError(f"field {name!r} has the wrong type")
        if not isinstance(value, types):
            raise ServiceError(f"field {name!r} has the wrong type")
    values: Dict[str, Any] = {}
    for name, (types, element, _) in fields.items():
        value = payload.get(name)
        if value is None:
            continue  # absent, or null for a nullable field: the default
        if element is str:
            if not value or not all(isinstance(v, str) and v for v in value):
                raise ServiceError(f"{name!r} must be a non-empty list of names")
            value = tuple(value)
        elif element is not None:
            if not value or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in value
            ):
                raise ServiceError(f"{name!r} must be a non-empty list of numbers")
            value = tuple(float(v) for v in value)
        elif float in types:
            value = float(value)
        values[name] = value
    config = cls(**values)
    for name in cls.positive_fields:  # type: ignore[attr-defined]
        if getattr(config, name) <= 0:
            raise ServiceError(f"{name!r} must be positive")
    if config.retries < 0:
        raise ServiceError("'retries' must be >= 0")
    if config.workers is not None and config.workers < 0:
        raise ServiceError("'workers' must be >= 0")
    return config


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
