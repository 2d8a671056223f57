"""One config record per sweep family, shared by the CLI and the service.

:class:`SweepJobConfig` (``repro sweep workload``, the Figure 4 RPM
sweeps) and :class:`FleetJobConfig` (``repro fleet``, the fleet DTM
case) declare each field of a family once: name, type and default.  The
job service parses request bodies against :func:`config_fields` and the
CLI derives its flags from the same walk; both then run
``config.build_tasks()`` on ``config.sweep_kind()``, so a CLI run and a
service job of one config compute the same task keys and result bytes.

This module loads only :mod:`repro.constants` and :mod:`repro.errors`:
the sweep layers are imported when tasks are built, so building the CLI
parser or starting ``repro serve`` loads neither the simulator nor the
thermal model.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import typing
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.constants import AMBIENT_TEMPERATURE_C, THERMAL_ENVELOPE_C
from repro.errors import ReproError

__all__ = [
    "SERVICE_JOB_KIND", "SERVICE_FLEET_JOB_KIND", "ConfigField", "config_fields",
    "SweepJobConfig", "FleetJobConfig",
]

#: Kind tag salted into every workload-sweep job config key.  Bump the
#: suffix when the material field set changes meaning.
SERVICE_JOB_KIND = "service.sweep_job/1"

#: Kind tag salted into fleet job config keys — a separate namespace, so
#: a fleet job can never collide with a workload job.
SERVICE_FLEET_JOB_KIND = "service.fleet_job/1"

#: Execution knobs: how a job runs, never what it computes, so they
#: never enter a config key.
_EXECUTION_FIELDS = ("backend", "retries", "workers")

#: Knobs that shape nothing unless ``inject_faults`` is set.
_FAULT_KNOBS = ("fault_seed", "media_rate", "servo_rate")


@dataclass(frozen=True)
class ConfigField:
    """One job-config field, as the wire parser and the CLI read it."""

    name: str
    #: ``bool``, ``int``, ``float`` or ``str``; a tuple field's item type
    scalar: type
    #: a ``Tuple[X, ...]`` field: a JSON list, a comma-separated flag
    is_tuple: bool
    #: annotated ``Optional``: null on the wire, an unset flag
    optional: bool
    #: the field default, :data:`dataclasses.MISSING` when required
    default: Any


@functools.lru_cache(maxsize=None)
def config_fields(cls: type) -> Tuple[ConfigField, ...]:
    """The fields of job config class ``cls`` in declaration order,
    read once from its dataclass fields and annotations."""
    hints = typing.get_type_hints(cls)
    fields = []
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        args = typing.get_args(hint)
        optional = type(None) in args
        if optional:
            hint = next(a for a in args if a is not type(None))
        is_tuple = typing.get_origin(hint) is tuple
        scalar = typing.get_args(hint)[0] if is_tuple else hint
        fields.append(ConfigField(f.name, scalar, is_tuple, optional, f.default))
    return tuple(fields)


class _JobConfig:
    """What both families share.  Each declares its own dataclass fields,
    these four fault knobs among them (annotations on a plain base class
    never become fields), and the count fields that must be positive."""

    positive_fields: Tuple[str, ...] = ()
    inject_faults: bool
    fault_seed: int
    media_rate: float
    servo_rate: float

    def __post_init__(self) -> None:
        # NaN slips past every range check (each comparison is false) and
        # an infinity past most, so every float is refused here once, for
        # the CLI, the service and in-process callers alike; so is every
        # count that must be positive, unless this config ignores it.
        for f in config_fields(type(self)):
            if f.scalar is not float:
                continue
            value = getattr(self, f.name)
            if value is not None and not all(
                map(math.isfinite, value if f.is_tuple else (value,))
            ):
                raise ReproError(f"{f.name!r} must be finite, got {value!r}")
        ignored = self.immaterial_fields()
        for name in self.positive_fields:
            if name in ignored:
                continue
            value = getattr(self, name)
            if value <= 0:
                raise ReproError(f"{name!r} must be positive, got {value!r}")

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
            seed=self.fault_seed, media_rate=self.media_rate, servo_rate=self.servo_rate
        )


@dataclass(frozen=True)
class SweepJobConfig(_JobConfig):
    """One Figure 4 workload sweep: workloads x RPM ladder.

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
    #: Count fields that must be positive (checked in ``__post_init__``;
    #: ``rpm_steps`` only when no ``rpms`` replace it).
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

    def immaterial_fields(self) -> Tuple[str, ...]:
        steps = ("rpm_steps",) if self.rpms is not None else ()  # rpms replace them
        return super().immaterial_fields() + steps

    def build_tasks(
        self, telemetry: bool = False, probe_interval_ms: float = 100.0
    ) -> List[Any]:
        """The (workload, RPM) task grid.  ``telemetry`` instruments each
        replay, sampling every ``probe_interval_ms`` simulated ms (a CLI
        output option, not a field of the sweep)."""
        from repro.simulation.sweep import build_workload_tasks

        return build_workload_tasks(
            self.workloads,
            rpms=self.rpms,
            rpm_steps=self.rpm_steps,
            requests=self.requests,
            seed=self.seed,
            keep_samples=self.keep_samples,
            telemetry=telemetry,
            probe_interval_ms=probe_interval_ms,
            fault_config=self.fault_config(),
            engine=self.engine,
        )

    def sweep_kind(self) -> Any:
        """The :class:`repro.simulation.resilience.SweepKind` jobs run on."""
        from repro.simulation.sweep import workload_sweep_kind

        return workload_sweep_kind()


@dataclass(frozen=True)
class FleetJobConfig(_JobConfig):
    """One fleet sweep: uniform racks under fleet DTM.

    The material fields mirror :func:`repro.fleet.uniform_fleet` and
    :func:`repro.fleet.build_rack_tasks` exactly; fault and tiering
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
        """One rack task per rack."""
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
