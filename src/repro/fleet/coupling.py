"""Shared thermal environments: rack inlet coupling and cooling budgets.

Two coupling mechanisms, both energy balances over the cooling stream
(the same physics as :mod:`repro.thermal.array`):

* **Inside an enclosure** air flows over the drives in series; each
  drive raises the stream by ``Q / (rho * c_p * V)``, so downstream
  slots see a hotter local inlet.
* **Between enclosures in a rack** every enclosure draws from the cold
  aisle, but a fraction of the exhaust heat of the enclosures below
  recirculates into the supply of the ones above: enclosure ``k``'s
  inlet is the rack supply plus ``recirculation`` times the summed
  exhaust rises of enclosures ``0..k-1``.  Inlets are therefore
  non-decreasing along the stack — the monotonicity property the fleet
  property suite pins down.

Each drive's internal air temperature is its local inlet plus a
geometry/RPM/duty-dependent rise.  The drive thermal network is linear
in its boundary temperature, so the rise is ambient-independent; it is
computed once per distinct ``(diameter, platters, rpm)`` via the full
:class:`repro.thermal.model.DriveThermalModel` steady state and memoized
— what makes 1000-drive fleets (and the DTM coordinator's iterations)
cheap without leaving the calibrated model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.constants import AMBIENT_TEMPERATURE_C
from repro.errors import FleetError
from repro.fleet.topology import EnclosureSpec, RackSpec
from repro.thermal.array import airflow_temperature_rise_c, drive_heat_w
from repro.thermal.envelope import steady_air_temperature_c

__all__ = [
    "DriveThermal",
    "EnclosureProfile",
    "RackProfile",
    "drive_air_rise_c",
    "enclosure_inlets_c",
    "rack_profile",
]

#: Reference ambient the memoized rises are computed at.  Any value
#: works (the network is linear in ambient); pinning one keeps every
#: process's memo entries bit-identical.
_RISE_REFERENCE_C = AMBIENT_TEMPERATURE_C

#: Distinct drive geometries and speeds one process keeps the rises of.
#: A client of ``repro serve`` picks all three, so the memo is bounded.
RISE_MEMO_SIZE = 256


def drive_air_rise_c(
    diameter_in: float,
    platter_count: int,
    rpm: float,
    vcm_duty: float,
) -> float:
    """Internal-air rise of one drive above its local inlet, Celsius.

    Fractional VCM duty interpolates between the off/on steady states —
    exact, because the thermal network is linear in the VCM heat (the
    same interpolation :func:`repro.thermal.array.serial_array_profile`
    uses).
    """
    if not 0.0 <= vcm_duty <= 1.0:
        raise FleetError(f"vcm duty must be in [0, 1], got {vcm_duty}")
    rise_off, rise_on = _drive_rises_c(diameter_in, platter_count, rpm)
    return rise_off + vcm_duty * (rise_on - rise_off)


# Pure memo of a deterministic model solve at a pinned reference
# ambient: every process computes bit-identical values for a key, so
# copies cannot diverge observably.
@lru_cache(maxsize=RISE_MEMO_SIZE, typed=True)
def _drive_rises_c(
    diameter_in: float, platter_count: int, rpm: float
) -> Tuple[float, float]:
    """(VCM-off rise, VCM-on rise) of one drive geometry and speed."""
    off = steady_air_temperature_c(
        diameter_in,
        rpm,
        platter_count=platter_count,
        ambient_c=_RISE_REFERENCE_C,
        vcm_active=False,
    )
    on = steady_air_temperature_c(
        diameter_in,
        rpm,
        platter_count=platter_count,
        ambient_c=_RISE_REFERENCE_C,
        vcm_active=True,
    )
    return (off - _RISE_REFERENCE_C, on - _RISE_REFERENCE_C)


@dataclass(frozen=True)
class DriveThermal:
    """Thermal state of one drive slot in a coupled rack.

    Attributes:
        enclosure: index of the enclosure in the rack stack.
        slot: position along the enclosure's airflow (0 = inlet).
        rpm: spindle speed this state was computed at.
        heat_w: heat the drive dumps into the stream.
        local_inlet_c: air temperature entering this slot.
        internal_air_c: drive's steady internal air temperature.
    """

    enclosure: int
    slot: int
    rpm: float
    heat_w: float
    local_inlet_c: float
    internal_air_c: float


@dataclass(frozen=True)
class EnclosureProfile:
    """Coupled thermal state of one enclosure."""

    index: int
    inlet_c: float
    exhaust_c: float
    heat_w: float
    cooling_budget_w: float
    drives: Tuple[DriveThermal, ...]

    @property
    def over_budget(self) -> bool:
        return self.heat_w > self.cooling_budget_w + 1e-9


@dataclass(frozen=True)
class RackProfile:
    """Coupled thermal state of a whole rack."""

    rack: str
    inlet_c: float
    enclosures: Tuple[EnclosureProfile, ...]

    def iter_drives(self) -> Iterator[DriveThermal]:
        for enclosure in self.enclosures:
            for drive in enclosure.drives:
                yield drive

    @property
    def total_heat_w(self) -> float:
        return sum(e.heat_w for e in self.enclosures)

    @property
    def max_internal_c(self) -> float:
        return max(d.internal_air_c for d in self.iter_drives())


def _check_rpms(rack: RackSpec, rpms: Sequence[Sequence[float]]) -> None:
    if len(rpms) != len(rack.enclosures):
        raise FleetError(
            f"rack {rack.name!r} has {len(rack.enclosures)} enclosure(s), "
            f"got rpm rows for {len(rpms)}"
        )
    for index, enclosure in enumerate(rack.enclosures):
        if len(rpms[index]) != enclosure.drives:
            raise FleetError(
                f"enclosure {index} of rack {rack.name!r} has "
                f"{enclosure.drives} drive(s), got {len(rpms[index])} rpm(s)"
            )
        for rpm in rpms[index]:
            if rpm <= 0:
                raise FleetError(f"rpm must be positive, got {rpm}")


def _drive_heats_w(spec: EnclosureSpec, rpms: Sequence[float]) -> List[float]:
    """The heat each drive of one enclosure dumps, in slot order."""
    return [
        drive_heat_w(
            rpm, spec.diameter_in, spec.platter_count, vcm_duty=spec.vcm_duty
        )
        for rpm in rpms
    ]


def _enclosure_profile(
    spec: EnclosureSpec,
    index: int,
    inlet_c: float,
    rpms: Sequence[float],
    heats: Sequence[float],
) -> EnclosureProfile:
    drives = []
    local = inlet_c
    total_heat = 0.0
    for slot, (rpm, heat) in enumerate(zip(rpms, heats)):
        internal = local + drive_air_rise_c(
            spec.diameter_in, spec.platter_count, rpm, spec.vcm_duty
        )
        drives.append(
            DriveThermal(
                enclosure=index,
                slot=slot,
                rpm=rpm,
                heat_w=heat,
                local_inlet_c=local,
                internal_air_c=internal,
            )
        )
        total_heat += heat
        local += airflow_temperature_rise_c(heat, spec.airflow_m3_per_s)
    return EnclosureProfile(
        index=index,
        inlet_c=inlet_c,
        exhaust_c=local,
        heat_w=total_heat,
        cooling_budget_w=spec.cooling_budget_w,
        drives=tuple(drives),
    )


def enclosure_inlets_c(
    rack: RackSpec, exhaust_rises_c: Sequence[float]
) -> Tuple[float, ...]:
    """Inlet temperature of each enclosure given upstream exhaust rises.

    ``inlet[k] = supply + recirculation * sum(rise[0..k-1])`` — with a
    non-negative recirculation fraction and non-negative rises, inlets
    are non-decreasing along the stack.
    """
    inlets = []
    carried = 0.0
    for rise in exhaust_rises_c:
        inlets.append(rack.inlet_c + rack.recirculation * carried)
        carried += rise
    return tuple(inlets)


def rack_profile(
    rack: RackSpec,
    rpms: Optional[Sequence[Sequence[float]]] = None,
    default_rpm: float = 15000.0,
) -> RackProfile:
    """The coupled thermal profile of one rack at a speed assignment.

    Args:
        rack: the rack topology.
        rpms: per-enclosure, per-slot spindle speeds; None runs every
            drive at ``default_rpm``.
        default_rpm: uniform speed when ``rpms`` is None.
    """
    if rpms is None:
        rpms = [
            [default_rpm] * enclosure.drives for enclosure in rack.enclosures
        ]
    _check_rpms(rack, rpms)
    # First pass: each enclosure's exhaust rise depends only on its own
    # heat and airflow, not on its inlet (linearity again), so the
    # between-enclosure coupling resolves in one sweep.  Each drive's
    # heat is computed here once and reused by the per-slot pass.
    heats = [
        _drive_heats_w(enclosure, rpms[index])
        for index, enclosure in enumerate(rack.enclosures)
    ]
    rises = [
        airflow_temperature_rise_c(sum(heats[index]), enclosure.airflow_m3_per_s)
        for index, enclosure in enumerate(rack.enclosures)
    ]
    inlets = enclosure_inlets_c(rack, rises)
    profiles = tuple(
        _enclosure_profile(
            enclosure, index, inlets[index], rpms[index], heats[index]
        )
        for index, enclosure in enumerate(rack.enclosures)
    )
    return RackProfile(rack=rack.name, inlet_c=rack.inlet_c, enclosures=profiles)
