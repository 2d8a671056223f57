"""Fleet topology: racks of enclosures of drive slots.

A fleet is described bottom-up: an :class:`EnclosureSpec` is a box of
identical drives cooled by one serial airflow path with a finite cooling
budget; a :class:`RackSpec` stacks enclosures that share a cold-aisle
supply and partially recirculate each other's exhaust; a
:class:`FleetSpec` is a set of named racks under one thermal envelope.

Everything is a frozen dataclass — hashable, picklable, usable as a
sweep-task field — and round-trips through a canonical JSON config form
(:func:`fleet_config` / :func:`fleet_from_config`) so topologies can be
content-keyed, stored in golden fixtures and posted to the job service.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, Mapping, Tuple

from repro.constants import AMBIENT_TEMPERATURE_C, THERMAL_ENVELOPE_C
from repro.errors import FleetError
from repro.store.canonical import record_payload
from repro.units import KELVIN_OFFSET

__all__ = [
    "EnclosureSpec",
    "RackSpec",
    "FleetSpec",
    "fleet_config",
    "enclosure_from_config",
    "rack_from_config",
    "fleet_from_config",
    "uniform_fleet",
]


@dataclass(frozen=True)
class EnclosureSpec:
    """One enclosure: identical drives along a serial airflow path.

    Attributes:
        drives: drive slots in airflow order (slot 0 sits at the inlet).
        airflow_m3_per_s: volumetric cooling airflow through the box.
        cooling_budget_w: heat the enclosure's cooling can remove; the
            fleet DTM coordinator throttles the whole enclosure when its
            drives dump more than this.
        diameter_in: platter diameter of every drive in the box.
        platter_count: platters per drive.
        vcm_duty: assumed seek activity (0 = idle, 1 = saturated VCM),
            entering both the dumped heat and each drive's internal
            temperature.
    """

    drives: int
    airflow_m3_per_s: float = 0.018
    cooling_budget_w: float = 300.0
    diameter_in: float = 2.6
    platter_count: int = 1
    vcm_duty: float = 0.5

    def __post_init__(self) -> None:
        if self.drives < 1:
            raise FleetError(f"enclosure needs at least one drive, got {self.drives}")
        if self.airflow_m3_per_s <= 0.0:
            raise FleetError(
                f"enclosure airflow must be positive, got {self.airflow_m3_per_s}"
            )
        if self.cooling_budget_w < 0.0:
            raise FleetError(
                f"cooling budget cannot be negative, got {self.cooling_budget_w}"
            )
        if self.diameter_in <= 0.0:
            raise FleetError(f"diameter must be positive, got {self.diameter_in}")
        if self.platter_count < 1:
            raise FleetError(
                f"platter count must be >= 1, got {self.platter_count}"
            )
        if not 0.0 <= self.vcm_duty <= 1.0:
            raise FleetError(f"vcm duty must be in [0, 1], got {self.vcm_duty}")


@dataclass(frozen=True)
class RackSpec:
    """One rack: a stack of enclosures sharing a cold-aisle supply.

    Air enters every enclosure from the cold aisle at ``inlet_c``, but a
    fraction ``recirculation`` of the exhaust heat of the enclosures
    below preheats the supply of the ones above — the classic
    top-of-rack hot spot.  ``recirculation=0`` models perfect aisle
    containment; ``1`` models a fully serial stack.

    Attributes:
        name: unique rack identity; enters fault-injection subjects, so
            it must not contain ``/`` (the scope separator).
        enclosures: the stack, index 0 closest to the supply.
        inlet_c: cold-aisle supply temperature.
        recirculation: fraction of upstream exhaust temperature rise
            carried into downstream enclosure inlets, in [0, 1].
    """

    name: str
    enclosures: Tuple[EnclosureSpec, ...]
    inlet_c: float = AMBIENT_TEMPERATURE_C
    recirculation: float = 0.2

    def __post_init__(self) -> None:
        if not self.name:
            raise FleetError("rack name cannot be empty")
        if "/" in self.name:
            raise FleetError(
                f"rack name cannot contain '/' (fault-scope separator): "
                f"{self.name!r}"
            )
        if not self.enclosures:
            raise FleetError(f"rack {self.name!r} needs at least one enclosure")
        if not 0.0 <= self.recirculation <= 1.0:
            raise FleetError(
                f"recirculation must be in [0, 1], got {self.recirculation}"
            )

    @property
    def drive_count(self) -> int:
        return sum(enclosure.drives for enclosure in self.enclosures)

    def slots(self) -> Iterator[Tuple[int, int]]:
        """Every (enclosure index, slot index) pair in airflow order."""
        for index, enclosure in enumerate(self.enclosures):
            for slot in range(enclosure.drives):
                yield index, slot


@dataclass(frozen=True)
class FleetSpec:
    """A whole fleet: uniquely named racks under one thermal envelope."""

    racks: Tuple[RackSpec, ...]
    envelope_c: float = THERMAL_ENVELOPE_C

    def __post_init__(self) -> None:
        if not self.racks:
            raise FleetError("fleet needs at least one rack")
        names = [rack.name for rack in self.racks]
        if len(set(names)) != len(names):
            raise FleetError(f"rack names must be unique, got {names}")
        if self.envelope_c <= -KELVIN_OFFSET:
            raise FleetError(f"envelope below absolute zero: {self.envelope_c}")

    @property
    def drive_count(self) -> int:
        return sum(rack.drive_count for rack in self.racks)


# ---------------------------------------------------------------------------
# Canonical config form — the shape that enters content keys and fixtures.
# ---------------------------------------------------------------------------


def fleet_config(fleet: FleetSpec) -> Dict[str, Any]:
    """Canonical JSON form of a whole fleet (every field, nested)."""
    return record_payload(fleet)


def _take(mapping: Mapping[str, Any], what: str, allowed: Tuple[str, ...]) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise FleetError(
            f"unknown {what} field(s): {', '.join(unknown)} "
            f"(accepted: {', '.join(allowed)})"
        )


def enclosure_from_config(config: Mapping[str, Any]) -> EnclosureSpec:
    """Parse one enclosure config (strict: unknown fields are errors)."""
    if not isinstance(config, Mapping):
        raise FleetError("enclosure config must be a mapping")
    _take(
        config,
        "enclosure",
        (
            "drives",
            "airflow_m3_per_s",
            "cooling_budget_w",
            "diameter_in",
            "platter_count",
            "vcm_duty",
        ),
    )
    if "drives" not in config:
        raise FleetError("enclosure config needs a 'drives' count")
    return EnclosureSpec(
        drives=int(config["drives"]),
        airflow_m3_per_s=float(config.get("airflow_m3_per_s", 0.018)),
        cooling_budget_w=float(config.get("cooling_budget_w", 300.0)),
        diameter_in=float(config.get("diameter_in", 2.6)),
        platter_count=int(config.get("platter_count", 1)),
        vcm_duty=float(config.get("vcm_duty", 0.5)),
    )


def rack_from_config(config: Mapping[str, Any]) -> RackSpec:
    """Parse one rack config (strict: unknown fields are errors)."""
    if not isinstance(config, Mapping):
        raise FleetError("rack config must be a mapping")
    _take(config, "rack", ("name", "enclosures", "inlet_c", "recirculation"))
    if "name" not in config or "enclosures" not in config:
        raise FleetError("rack config needs 'name' and 'enclosures'")
    return RackSpec(
        name=str(config["name"]),
        enclosures=tuple(
            enclosure_from_config(e) for e in config["enclosures"]
        ),
        inlet_c=float(config.get("inlet_c", AMBIENT_TEMPERATURE_C)),
        recirculation=float(config.get("recirculation", 0.2)),
    )


def fleet_from_config(config: Mapping[str, Any]) -> FleetSpec:
    """Parse a fleet config (strict: unknown fields are errors)."""
    if not isinstance(config, Mapping):
        raise FleetError("fleet config must be a mapping")
    _take(config, "fleet", ("racks", "envelope_c"))
    if "racks" not in config:
        raise FleetError("fleet config needs a 'racks' list")
    return FleetSpec(
        racks=tuple(rack_from_config(r) for r in config["racks"]),
        envelope_c=float(config.get("envelope_c", THERMAL_ENVELOPE_C)),
    )


def uniform_fleet(
    racks: int = 2,
    enclosures_per_rack: int = 4,
    drives_per_enclosure: int = 3,
    airflow_m3_per_s: float = 0.018,
    cooling_budget_w: float = 300.0,
    diameter_in: float = 2.6,
    platter_count: int = 1,
    vcm_duty: float = 0.5,
    inlet_c: float = AMBIENT_TEMPERATURE_C,
    recirculation: float = 0.2,
    envelope_c: float = THERMAL_ENVELOPE_C,
) -> FleetSpec:
    """A homogeneous fleet — the CLI's and the job service's topology.

    Racks are named ``rack00``, ``rack01``, ... so two fleets of the
    same shape are the same fleet (and deduplicate in the store).
    """
    if racks < 1:
        raise FleetError(f"need at least one rack, got {racks}")
    enclosure = EnclosureSpec(
        drives=drives_per_enclosure,
        airflow_m3_per_s=airflow_m3_per_s,
        cooling_budget_w=cooling_budget_w,
        diameter_in=diameter_in,
        platter_count=platter_count,
        vcm_duty=vcm_duty,
    )
    return FleetSpec(
        racks=tuple(
            RackSpec(
                name=f"rack{index:02d}",
                enclosures=(enclosure,) * enclosures_per_rack,
                inlet_c=inlet_c,
                recirculation=recirculation,
            )
            for index in range(racks)
        ),
        envelope_c=envelope_c,
    )
