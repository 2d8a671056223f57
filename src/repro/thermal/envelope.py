"""Thermal envelope queries: maximum RPM and thermal slack.

The roadmap's central question — how fast may this design spin without its
steady internal-air temperature exceeding the envelope? — is a 1-D root
find over a monotonically increasing function of RPM, solved by bisection.
"""

from __future__ import annotations

from typing import Optional

from repro.constants import AMBIENT_TEMPERATURE_C, THERMAL_ENVELOPE_C
from repro.errors import EnvelopeError
from repro.geometry.enclosure import FORM_FACTOR_35, Enclosure
from repro.thermal.model import DriveThermalModel, ThermalCalibration


def steady_air_temperature_c(
    platter_diameter_in: float,
    rpm: float,
    platter_count: int = 1,
    ambient_c: float = AMBIENT_TEMPERATURE_C,
    vcm_active: bool = True,
    enclosure: Enclosure = FORM_FACTOR_35,
    calibration: Optional[ThermalCalibration] = None,
) -> float:
    """Steady-state internal-air temperature of a design, Celsius."""
    model = DriveThermalModel(
        platter_diameter_in=platter_diameter_in,
        platter_count=platter_count,
        rpm=rpm,
        ambient_c=ambient_c,
        vcm_active=vcm_active,
        enclosure=enclosure,
        calibration=calibration,
    )
    return model.steady_air_c()


def max_rpm_within_envelope(
    platter_diameter_in: float,
    platter_count: int = 1,
    envelope_c: float = THERMAL_ENVELOPE_C,
    ambient_c: float = AMBIENT_TEMPERATURE_C,
    vcm_active: bool = True,
    enclosure: Enclosure = FORM_FACTOR_35,
    calibration: Optional[ThermalCalibration] = None,
    rpm_low: float = 5000.0,
    rpm_high: float = 500000.0,
    tolerance_rpm: float = 1.0,
) -> float:
    """Highest RPM whose steady air temperature stays within the envelope.

    Args:
        platter_diameter_in: media diameter, inches.
        platter_count: platters in the stack.
        envelope_c: thermal envelope (max internal-air temperature).
        ambient_c: cooled external ambient temperature.
        vcm_active: whether the VCM is assumed always on (worst case) —
            setting False exposes the thermal slack of §5.2.
        enclosure: drive enclosure.
        calibration: thermal calibration (default: fitted).
        rpm_low, rpm_high: bisection bracket.
        tolerance_rpm: bracket width at which bisection stops.

    Raises:
        EnvelopeError: if even ``rpm_low`` exceeds the envelope (the design
            cannot be built for this envelope at all).

    One model serves the whole search: each probe rewrites only its
    speed-dependent state, so it equals ``steady_air_temperature_c`` at
    the probed RPM bit for bit.
    """
    model = DriveThermalModel(
        platter_diameter_in=platter_diameter_in,
        platter_count=platter_count,
        rpm=rpm_low,
        ambient_c=ambient_c,
        vcm_active=vcm_active,
        enclosure=enclosure,
        calibration=calibration,
    )

    def air_at(rpm: float) -> float:
        model.set_operating_state(rpm=rpm)
        return model.steady_air_c()

    if air_at(rpm_low) > envelope_c:
        raise EnvelopeError(
            f"{platter_diameter_in}-inch x{platter_count} design exceeds the "
            f"{envelope_c:.2f} C envelope even at {rpm_low:.0f} RPM "
            f"(ambient {ambient_c:.1f} C)"
        )
    if air_at(rpm_high) <= envelope_c:
        return rpm_high
    low, high = rpm_low, rpm_high
    while high - low > tolerance_rpm:
        mid = 0.5 * (low + high)
        if air_at(mid) <= envelope_c:
            low = mid
        else:
            high = mid
    return low


def thermal_slack_c(
    platter_diameter_in: float,
    rpm: float,
    platter_count: int = 1,
    envelope_c: float = THERMAL_ENVELOPE_C,
    ambient_c: float = AMBIENT_TEMPERATURE_C,
    vcm_active: bool = False,
    enclosure: Enclosure = FORM_FACTOR_35,
    calibration: Optional[ThermalCalibration] = None,
) -> float:
    """Thermal slack: envelope minus the steady temperature at an operating
    point (paper §5.2; by default with the VCM off, i.e. an idle or fully
    sequential workload).  Positive slack means headroom to ramp the RPM.
    """
    steady = steady_air_temperature_c(
        platter_diameter_in,
        rpm,
        platter_count=platter_count,
        ambient_c=ambient_c,
        vcm_active=vcm_active,
        enclosure=enclosure,
        calibration=calibration,
    )
    return envelope_c - steady
