"""Sensitivity of the roadmap's headline results to modeling choices.

The paper's conclusions rest on a handful of empirical constants: the
windage exponents (RPM^2.8, D^4.8), the convection coefficients, and the
calibrated spindle loss.  The calibration anchor (the dissected Cheetah
15K.3 at 45.22 C) is a *measurement*, so a fair perturbation study varies
the uncertain constants and re-fits the spindle loss to the anchor each
time, then asks how far the *extrapolations* move: the maximum in-envelope
RPM of the small (1.6-inch) future design and the roadmap's shortfall
year.  This is the robustness argument behind "one cannot deny the sharp
drop off ... because of the thermal envelope" (paper §6).

A note on margins: the envelope design is tight by construction — the
fixed (non-windage) losses sit ~1 W below the envelope heat budget, so
*unfit* perturbations of cooling or motor loss by ±10% make the anchored
design infeasible outright.  That tightness is itself a finding the bench
reports.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.constants import THERMAL_ENVELOPE_C
from repro.errors import ThermalError
from repro.scaling.roadmap import first_shortfall_year, thermal_roadmap
from repro.thermal.calibration import fit_spm_power
from repro.thermal.envelope import max_rpm_within_envelope
from repro.thermal.model import DEFAULT_CALIBRATION, ThermalCalibration


@dataclass(frozen=True)
class SensitivityPoint:
    """One perturbation of the model (re-fit to the anchor).

    Attributes:
        parameter: which constant was perturbed.
        scale: multiplicative perturbation applied.
        fitted_spm_w: spindle loss re-fit to the Cheetah anchor.
        envelope_rpm_16: max in-envelope RPM for the 1.6-inch single-platter
            design (the roadmap's extrapolated workhorse).
        shortfall_year: first roadmap year no studied size meets the 40%
            target (None if never).
    """

    parameter: str
    scale: float
    fitted_spm_w: float
    envelope_rpm_16: float
    shortfall_year: Optional[int]


def _evaluate(parameter: str, scale: float, calibration: ThermalCalibration) -> SensitivityPoint:
    refit = fit_spm_power(calibration)
    rpm16 = max_rpm_within_envelope(1.6, calibration=refit)
    points = thermal_roadmap(platter_count=1, calibration=refit)
    return SensitivityPoint(
        parameter=parameter,
        scale=scale,
        fitted_spm_w=refit.spm_power_w,
        envelope_rpm_16=rpm16,
        shortfall_year=first_shortfall_year(points),
    )


def calibration_sensitivity(
    scales: Sequence[float] = (0.8, 0.9, 1.0, 1.1, 1.2),
    base: ThermalCalibration = DEFAULT_CALIBRATION,
) -> List[SensitivityPoint]:
    """Perturb each uncertain constant, re-fit to the anchor, re-run the
    headline queries.  Returns one point per (parameter, scale)."""
    perturbations: Dict[str, Callable[[float], ThermalCalibration]] = {
        "airflow_quality": lambda s: replace(
            base, airflow_quality=base.airflow_quality * s
        ),
        "stack_convection_scale": lambda s: replace(
            base, stack_convection_scale=base.stack_convection_scale * s
        ),
        "internal_wall_scale": lambda s: replace(
            base, internal_wall_scale=base.internal_wall_scale * s
        ),
        "vcm_pivot_g_w_per_k": lambda s: replace(
            base, vcm_pivot_g_w_per_k=base.vcm_pivot_g_w_per_k * s
        ),
        "spindle_bearing_g_w_per_k": lambda s: replace(
            base, spindle_bearing_g_w_per_k=base.spindle_bearing_g_w_per_k * s
        ),
    }
    points: List[SensitivityPoint] = []
    for name, perturb in perturbations.items():
        for scale in scales:
            points.append(_evaluate(name, scale, perturb(scale)))
    return points


def fixed_loss_margin_w(base: ThermalCalibration = DEFAULT_CALIBRATION) -> float:
    """Extra fixed (non-windage) heat the design could absorb at minimum
    windage before hitting the envelope.

    Evaluated at 5,000 RPM (windage nearly gone): the gap between the
    envelope and the steady air temperature, divided by the air's
    sensitivity to stack heat.  A small value (~1 W) quantifies how tight
    the envelope design is — and why unfit ±10% perturbations of cooling
    or motor loss are infeasible outright.
    """
    from repro.thermal.envelope import steady_air_temperature_c
    from repro.thermal.calibration import (
        REFERENCE_DIAMETER_IN,
        REFERENCE_PLATTERS,
    )
    from repro.thermal.model import DriveThermalModel

    low_rpm = 5000.0
    air = steady_air_temperature_c(
        REFERENCE_DIAMETER_IN, low_rpm, platter_count=REFERENCE_PLATTERS,
        calibration=base,
    )
    model = DriveThermalModel(
        platter_diameter_in=REFERENCE_DIAMETER_IN,
        platter_count=REFERENCE_PLATTERS,
        rpm=low_rpm,
        calibration=base,
    )
    model.network.set_heat("stack", base.spm_power_w + 1.0)
    slope = model.steady_air_c() - air
    if slope <= 0:
        raise ThermalError("steady temperature did not respond to stack heat")
    return (THERMAL_ENVELOPE_C - air) / slope


def exponent_sensitivity(
    rpm_exponents: Sequence[float] = (2.6, 2.8, 3.0),
    diameter_exponents: Sequence[float] = (4.6, 4.8, 5.0),
    envelope_c: float = THERMAL_ENVELOPE_C,
) -> List[dict]:
    """Vary the windage exponents (the paper quotes 2.8/4.8, with 2.8/4.6
    mentioned in its introduction) and report the envelope RPM shift.

    Because :func:`repro.thermal.viscous.viscous_power_w` pins the anchor
    point (0.91 W at 15,098 RPM, 2.6 in), changing the exponent rotates the
    power curve about that anchor: the 2.6-inch limit barely moves, while
    designs farther from the anchor shift more.
    """
    from repro.geometry.enclosure import FORM_FACTOR_35
    from repro.thermal.model import DriveThermalModel
    from repro.thermal.viscous import viscous_power_w

    diameter = 2.6
    results = []
    for rpm_exp in rpm_exponents:
        for dia_exp in diameter_exponents:
            # One model per search: each probe rewrites the speed-dependent
            # state, then the perturbed windage heat.
            model = DriveThermalModel(
                platter_diameter_in=diameter, rpm=5000.0, enclosure=FORM_FACTOR_35
            )

            def air_at(rpm: float) -> float:
                model.set_operating_state(rpm=rpm)
                model.network.set_heat(
                    "air",
                    viscous_power_w(
                        rpm,
                        diameter,
                        1,
                        rpm_exponent=rpm_exp,
                        diameter_exponent=dia_exp,
                    ),
                )
                return model.steady_air_c()

            low, high = 5000.0, 500000.0
            if air_at(low) > envelope_c:
                raise ThermalError("perturbed model infeasible at bracket floor")
            while high - low > 5.0:
                mid = 0.5 * (low + high)
                if air_at(mid) <= envelope_c:
                    low = mid
                else:
                    high = mid
            results.append(
                {
                    "rpm_exponent": rpm_exp,
                    "diameter_exponent": dia_exp,
                    "envelope_rpm_26": low,
                }
            )
    return results


def headline_robust(points: Sequence[SensitivityPoint]) -> bool:
    """Whether the paper's headline survives every perturbation: the
    roadmap still falls off the 40% curve before its end."""
    return all(
        p.shortfall_year is not None and p.shortfall_year <= 2012 for p in points
    )
