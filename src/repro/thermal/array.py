"""Array-level thermal coupling (after Huang & Chung [28]).

The paper's workloads run on 4-24 disk arrays, and it cites work on
temperature-aware disk-array design.  In a typical array chassis, cooling
air flows over the drives in series: each drive dumps its heat into the
stream, so downstream drives see a hotter effective ambient and must obey
a tighter internal budget.

We model the stream with an energy balance: air heated by drive ``i``
rises by ``Q_i / (rho * c_p * V)`` where ``V`` is the volumetric airflow.
Each drive then runs the standard single-drive model at its local ambient.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional

from repro.constants import AMBIENT_TEMPERATURE_C, THERMAL_ENVELOPE_C
from repro.errors import EnvelopeError, ThermalError
from repro.materials import AIR
from repro.thermal.envelope import max_rpm_within_envelope, steady_air_temperature_c
from repro.thermal.model import ThermalCalibration
from repro.thermal.vcm import vcm_power_w
from repro.thermal.viscous import viscous_power_w


@dataclass(frozen=True)
class ArrayPosition:
    """Thermal state of one slot in the airflow path.

    Attributes:
        index: position along the airflow (0 = coolest, at the inlet).
        local_ambient_c: air temperature entering this slot.
        internal_air_c: drive's steady internal air temperature.
        max_rpm: highest RPM this slot supports inside the envelope.
    """

    index: int
    local_ambient_c: float
    internal_air_c: float
    max_rpm: float

    @property
    def within_envelope(self) -> bool:
        return self.internal_air_c <= THERMAL_ENVELOPE_C + 1e-9


def drive_heat_w(
    rpm: float,
    diameter_in: float,
    platter_count: int = 1,
    vcm_duty: float = 1.0,
    spm_power_w: Optional[float] = None,
) -> float:
    """Total heat one drive dumps into the cooling stream, watts.

    Computed once per distinct value per process: a rack solve asks for
    the same few drive types at the same few speeds thousands of times.
    The duty is checked on every call, before the memo.
    """
    if not 0.0 <= vcm_duty <= 1.0:
        raise ThermalError("vcm duty must be in [0, 1]")
    if spm_power_w is None:
        from repro.thermal.model import DEFAULT_CALIBRATION

        spm_power_w = DEFAULT_CALIBRATION.spm_power_w
    return _drive_heat_w(rpm, diameter_in, platter_count, vcm_duty, spm_power_w)


#: Distinct drive heats one process keeps.  A fleet job needs one per
#: enclosure type and ladder level; a service serves many such jobs.
HEAT_MEMO_SIZE = 256


# Per-process memo of a pure sum: every process computes bit-identical
# heats for a key, so copies cannot diverge observably.  ``typed`` keeps
# ``15000`` and ``15000.0`` apart, so each caller gets exactly what an
# unmemoized sum of its own arguments would give.  Invalid geometry
# raises and is never cached, so it raises on every call.
@lru_cache(maxsize=HEAT_MEMO_SIZE, typed=True)
def _drive_heat_w(
    rpm: float,
    diameter_in: float,
    platter_count: int,
    vcm_duty: float,
    spm_power_w: float,
) -> float:
    return (
        viscous_power_w(rpm, diameter_in, platter_count)
        + spm_power_w
        + vcm_duty * vcm_power_w(diameter_in)
    )


def airflow_temperature_rise_c(heat_w: float, airflow_m3_per_s: float) -> float:
    """Temperature rise of the cooling stream after absorbing ``heat_w``."""
    if airflow_m3_per_s <= 0:
        raise ThermalError("airflow must be positive")
    return heat_w / (AIR.density * AIR.specific_heat * airflow_m3_per_s)


def serial_array_profile(
    disk_count: int,
    rpm: float,
    diameter_in: float = 2.6,
    platter_count: int = 1,
    inlet_c: float = AMBIENT_TEMPERATURE_C,
    airflow_m3_per_s: float = 0.01,
    vcm_duty: float = 1.0,
    calibration: Optional[ThermalCalibration] = None,
) -> List[ArrayPosition]:
    """Per-slot thermal profile of a serially cooled array.

    Args:
        disk_count: drives along the airflow path.
        rpm: common spindle speed.
        diameter_in / platter_count: drive geometry.
        inlet_c: air temperature entering the chassis.
        airflow_m3_per_s: cooling airflow (0.01 m^3/s ~ a strong 1U fan).
        vcm_duty: seek activity assumed when computing the dumped heat and
            the drive's internal temperature.
        calibration: thermal calibration.
    """
    if disk_count < 1:
        raise ThermalError("need at least one disk")
    positions: List[ArrayPosition] = []
    local_ambient = inlet_c
    heat = drive_heat_w(rpm, diameter_in, platter_count, vcm_duty)
    for index in range(disk_count):
        internal = steady_air_temperature_c(
            diameter_in,
            rpm,
            platter_count=platter_count,
            ambient_c=local_ambient,
            vcm_active=vcm_duty > 0,
            calibration=calibration,
        )
        if vcm_duty not in (0.0, 1.0):
            # Fractional duty: interpolate between the VCM-on/off extremes
            # (the network is linear in the VCM heat).
            off = steady_air_temperature_c(
                diameter_in,
                rpm,
                platter_count=platter_count,
                ambient_c=local_ambient,
                vcm_active=False,
                calibration=calibration,
            )
            internal = off + vcm_duty * (internal - off)
        try:
            limit = max_rpm_within_envelope(
                diameter_in,
                platter_count=platter_count,
                ambient_c=local_ambient,
                vcm_active=vcm_duty > 0,
                calibration=calibration,
            )
        except EnvelopeError:
            limit = 0.0
        positions.append(
            ArrayPosition(
                index=index,
                local_ambient_c=local_ambient,
                internal_air_c=internal,
                max_rpm=limit,
            )
        )
        local_ambient += airflow_temperature_rise_c(heat, airflow_m3_per_s)
    return positions


def array_envelope_rpm(
    disk_count: int,
    diameter_in: float = 2.6,
    platter_count: int = 1,
    inlet_c: float = AMBIENT_TEMPERATURE_C,
    airflow_m3_per_s: float = 0.01,
    vcm_duty: float = 1.0,
    calibration: Optional[ThermalCalibration] = None,
    tolerance_rpm: float = 25.0,
) -> float:
    """Highest common RPM keeping *every* slot inside the envelope.

    The last (hottest) slot binds; because its local ambient itself rises
    with RPM (more windage upstream), this is solved by bisection over the
    whole-array profile rather than a single-drive query.

    Raises:
        EnvelopeError: if even a minimal spindle speed overheats the
            downstream slots.
    """

    def worst_internal(rpm: float) -> float:
        profile = serial_array_profile(
            disk_count,
            rpm,
            diameter_in=diameter_in,
            platter_count=platter_count,
            inlet_c=inlet_c,
            airflow_m3_per_s=airflow_m3_per_s,
            vcm_duty=vcm_duty,
            calibration=calibration,
        )
        return max(p.internal_air_c for p in profile)

    low, high = 5000.0, 500000.0
    if worst_internal(low) > THERMAL_ENVELOPE_C:
        raise EnvelopeError(
            f"a {disk_count}-disk serial array overheats its downstream "
            f"slots even at {low:.0f} RPM with this airflow"
        )
    if worst_internal(high) <= THERMAL_ENVELOPE_C:
        return high
    while high - low > tolerance_rpm:
        mid = 0.5 * (low + high)
        if worst_internal(mid) <= THERMAL_ENVELOPE_C:
            low = mid
        else:
            high = mid
    return low
