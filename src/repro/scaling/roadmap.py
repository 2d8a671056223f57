"""Thermally constrained disk-drive roadmap (paper §4).

Two complementary views:

* :func:`required_rpm_table` — Table 3: for each year and platter size, the
  RPM needed to stay on the 40% IDR growth curve, and the steady internal
  temperature that RPM would produce (ignoring the envelope).
* :func:`thermal_roadmap` — Figure 2: for each year, size and platter
  count, the *maximum* IDR attainable while remaining inside the thermal
  envelope, and the capacity of that design.

Multi-platter configurations receive a cooling budget (a lower effective
ambient) chosen so they, too, start the roadmap exactly at the envelope —
mirroring the paper's "different external cooling budgets for each of the
three platter counts".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from repro.capacity.model import CapacityModel
from repro.capacity.zones import ZonedSurface
from repro.constants import (
    AMBIENT_TEMPERATURE_C,
    ROADMAP_FIRST_YEAR,
    ROADMAP_LAST_YEAR,
    ROADMAP_PLATTER_COUNTS,
    ROADMAP_PLATTER_SIZES_IN,
    ROADMAP_ZONES,
    THERMAL_ENVELOPE_C,
)
from repro.errors import RoadmapError
from repro.geometry.enclosure import FORM_FACTOR_35, Enclosure
from repro.geometry.platter import Platter
from repro.performance.idr import idr_mb_per_s, required_rpm_for_idr
from repro.scaling.trends import PAPER_TRENDS, TechnologyTrends
from repro.thermal.envelope import max_rpm_within_envelope, steady_air_temperature_c
from repro.thermal.model import ThermalCalibration

#: Reference spindle speed for the "IDR from density growth alone" column
#: of Table 3 (the state-of-the-art server RPM at the roadmap's start).
REFERENCE_RPM = 15000.0


def _surface(
    diameter_in: float, trends: TechnologyTrends, year: int, zone_count: int
) -> ZonedSurface:
    return ZonedSurface(
        platter=Platter(diameter_in=diameter_in),
        technology=trends.technology(year),
        zone_count=zone_count,
    )


# ---------------------------------------------------------------------------
# Table 3: required RPM and its thermal consequence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RequiredRpmCell:
    """One cell of Table 3.

    Attributes:
        year: roadmap year.
        diameter_in: platter size.
        target_idr_mb_s: the 40%-CGR IDR requirement for the year.
        idr_density_mb_s: IDR from density growth alone at the reference RPM.
        required_rpm: RPM needed to reach the target.
        steady_temp_c: steady internal-air temperature at that RPM
            (VCM on), ignoring the envelope.
        within_envelope: whether that temperature respects the envelope.
    """

    year: int
    diameter_in: float
    target_idr_mb_s: float
    idr_density_mb_s: float
    required_rpm: float
    steady_temp_c: float
    within_envelope: bool


def required_rpm_table(
    trends: TechnologyTrends = PAPER_TRENDS,
    years: Sequence[int] = tuple(range(ROADMAP_FIRST_YEAR, ROADMAP_LAST_YEAR + 1)),
    sizes: Sequence[float] = ROADMAP_PLATTER_SIZES_IN,
    platter_count: int = 1,
    zone_count: int = ROADMAP_ZONES,
    envelope_c: float = THERMAL_ENVELOPE_C,
    ambient_c: float = AMBIENT_TEMPERATURE_C,
    enclosure: Enclosure = FORM_FACTOR_35,
    calibration: Optional[ThermalCalibration] = None,
) -> List[RequiredRpmCell]:
    """Reproduce Table 3: the thermal profile of meeting the 40% IDR CGR.

    Returns one cell per (year, size), ordered by year then by the order of
    ``sizes``.
    """
    cells: List[RequiredRpmCell] = []
    for year in years:
        target = trends.target_idr_mb_s(year)
        for diameter in sizes:
            surface = _surface(diameter, trends, year, zone_count)
            ntz0 = surface.sectors_per_track_zone0
            idr_density = idr_mb_per_s(REFERENCE_RPM, ntz0)
            rpm = required_rpm_for_idr(target, ntz0)
            temp = steady_air_temperature_c(
                diameter,
                rpm,
                platter_count=platter_count,
                ambient_c=ambient_c,
                vcm_active=True,
                enclosure=enclosure,
                calibration=calibration,
            )
            cells.append(
                RequiredRpmCell(
                    year=year,
                    diameter_in=diameter,
                    target_idr_mb_s=target,
                    idr_density_mb_s=idr_density,
                    required_rpm=rpm,
                    steady_temp_c=temp,
                    within_envelope=temp <= envelope_c,
                )
            )
    return cells


# ---------------------------------------------------------------------------
# Cooling budgets for multi-platter configurations
# ---------------------------------------------------------------------------


def cooling_budget_ambient_c(
    platter_count: int,
    trends: TechnologyTrends = PAPER_TRENDS,
    anchor_year: int = ROADMAP_FIRST_YEAR,
    anchor_diameter_in: float = 2.6,
    zone_count: int = ROADMAP_ZONES,
    envelope_c: float = THERMAL_ENVELOPE_C,
    enclosure: Enclosure = FORM_FACTOR_35,
    calibration: Optional[ThermalCalibration] = None,
) -> float:
    """Effective ambient for a platter count so the roadmap starts on the
    envelope.

    The paper gives 2- and 4-platter designs extra external cooling so the
    anchor configuration (2.6-inch at its 2002 required RPM) sits exactly at
    the envelope despite the extra windage.  The network is linear in the
    ambient with unit gain, so the budget is a single subtraction.
    """
    if platter_count < 1:
        raise RoadmapError(f"platter count must be >= 1, got {platter_count}")
    surface = _surface(anchor_diameter_in, trends, anchor_year, zone_count)
    anchor_rpm = required_rpm_for_idr(
        trends.target_idr_mb_s(anchor_year), surface.sectors_per_track_zone0
    )
    at_paper_ambient = steady_air_temperature_c(
        anchor_diameter_in,
        anchor_rpm,
        platter_count=platter_count,
        ambient_c=AMBIENT_TEMPERATURE_C,
        vcm_active=True,
        enclosure=enclosure,
        calibration=calibration,
    )
    return AMBIENT_TEMPERATURE_C - (at_paper_ambient - envelope_c)


# ---------------------------------------------------------------------------
# Figure 2: attainable IDR / capacity inside the envelope
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoadmapPoint:
    """One point of the Figure 2 roadmap.

    Attributes:
        year: roadmap year.
        diameter_in: platter size.
        platter_count: platters in the stack.
        max_rpm: highest RPM inside the thermal envelope.
        max_idr_mb_s: IDR at that RPM with the year's densities.
        capacity_gb: usable capacity of the design, in the paper's (binary)
            GB convention.
        target_idr_mb_s: the 40%-CGR requirement for the year.
        meets_target: whether the attainable IDR reaches the target.
    """

    year: int
    diameter_in: float
    platter_count: int
    max_rpm: float
    max_idr_mb_s: float
    capacity_gb: float
    target_idr_mb_s: float

    @property
    def meets_target(self) -> bool:
        return self.max_idr_mb_s >= self.target_idr_mb_s


def thermal_roadmap(
    trends: TechnologyTrends = PAPER_TRENDS,
    years: Sequence[int] = tuple(range(ROADMAP_FIRST_YEAR, ROADMAP_LAST_YEAR + 1)),
    sizes: Sequence[float] = ROADMAP_PLATTER_SIZES_IN,
    platter_count: int = 1,
    zone_count: int = ROADMAP_ZONES,
    envelope_c: float = THERMAL_ENVELOPE_C,
    ambient_c: Optional[float] = None,
    vcm_active: bool = True,
    enclosure: Enclosure = FORM_FACTOR_35,
    calibration: Optional[ThermalCalibration] = None,
) -> List[RoadmapPoint]:
    """Reproduce one panel of Figure 2 (IDR and capacity roadmaps).

    Args:
        ambient_c: effective ambient; by default the per-platter-count
            cooling budget from :func:`cooling_budget_ambient_c`.
        vcm_active: True for envelope-design (worst case, VCM always on);
            False exposes the §5.2 thermal-slack variant of the roadmap.

    Returns one point per (year, size).
    """
    if ambient_c is None:
        ambient_c = cooling_budget_ambient_c(
            platter_count,
            trends=trends,
            zone_count=zone_count,
            envelope_c=envelope_c,
            enclosure=enclosure,
            calibration=calibration,
        )

    @lru_cache(maxsize=None)
    def max_rpm(diameter: float) -> float:
        from repro.errors import EnvelopeError

        try:
            return max_rpm_within_envelope(
                diameter,
                platter_count=platter_count,
                envelope_c=envelope_c,
                ambient_c=ambient_c,
                vcm_active=vcm_active,
                enclosure=enclosure,
                calibration=calibration,
            )
        except EnvelopeError:
            # The design exceeds the envelope at any server-class RPM (e.g.
            # a 2.6-inch platter in the 2.5-inch enclosure at baseline
            # cooling, §4.2.2): report an infeasible point rather than
            # aborting the whole roadmap.
            return 0.0

    points: List[RoadmapPoint] = []
    for year in years:
        target = trends.target_idr_mb_s(year)
        for diameter in sizes:
            rpm = max_rpm(diameter)
            # One surface per point: the IDR reads n_tz0 off the capacity
            # model's own surface.
            model = CapacityModel(
                platter=Platter(diameter_in=diameter),
                technology=trends.technology(year),
                platter_count=platter_count,
                zone_count=zone_count,
            )
            idr = (
                idr_mb_per_s(rpm, model.surface.sectors_per_track_zone0)
                if rpm > 0
                else 0.0
            )
            capacity = model.usable_capacity_gib()
            points.append(
                RoadmapPoint(
                    year=year,
                    diameter_in=diameter,
                    platter_count=platter_count,
                    max_rpm=rpm,
                    max_idr_mb_s=idr,
                    capacity_gb=capacity,
                    target_idr_mb_s=target,
                )
            )
    return points


# ---------------------------------------------------------------------------
# The 4-step design-selection algorithm of §4
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class YearDesign:
    """The design chosen for one roadmap year.

    Attributes:
        year: roadmap year.
        point: the chosen (size, count) roadmap point.
        achieved_idr_mb_s: IDR the chosen design delivers (capped at the
            target when the design exceeds it, as manufacturers would run a
            lower RPM rather than exceed the roadmap).
        met_target: whether the target IDR was attainable at all.
    """

    year: int
    point: RoadmapPoint
    achieved_idr_mb_s: float
    met_target: bool


def plan_roadmap(
    trends: TechnologyTrends = PAPER_TRENDS,
    years: Sequence[int] = tuple(range(ROADMAP_FIRST_YEAR, ROADMAP_LAST_YEAR + 1)),
    sizes: Sequence[float] = ROADMAP_PLATTER_SIZES_IN,
    platter_counts: Sequence[int] = ROADMAP_PLATTER_COUNTS,
    zone_count: int = ROADMAP_ZONES,
    envelope_c: float = THERMAL_ENVELOPE_C,
    calibration: Optional[ThermalCalibration] = None,
) -> List[YearDesign]:
    """Run the paper's year-by-year design algorithm.

    For each year: prefer designs that meet the target IDR, and among them
    the one with the highest capacity (steps 1-2: raise RPM; step 3: shrink
    platters sacrifices capacity only when needed; step 4: adding platters
    buys capacity back).  When no design meets the target, fall back to the
    highest-IDR design (the roadmap has been fallen off).
    """
    by_count: dict = {}
    for count in platter_counts:
        by_count[count] = thermal_roadmap(
            trends=trends,
            years=years,
            sizes=sizes,
            platter_count=count,
            zone_count=zone_count,
            envelope_c=envelope_c,
            calibration=calibration,
        )
    designs: List[YearDesign] = []
    for year in years:
        candidates: List[RoadmapPoint] = [
            point
            for count in platter_counts
            for point in by_count[count]
            if point.year == year
        ]
        meeting = [point for point in candidates if point.meets_target]
        if meeting:
            chosen = max(meeting, key=lambda p: (p.capacity_gb, p.max_idr_mb_s))
            achieved = chosen.target_idr_mb_s
            met = True
        else:
            chosen = max(candidates, key=lambda p: (p.max_idr_mb_s, p.capacity_gb))
            achieved = chosen.max_idr_mb_s
            met = False
        designs.append(
            YearDesign(year=year, point=chosen, achieved_idr_mb_s=achieved, met_target=met)
        )
    return designs


def first_shortfall_year(points: Sequence[RoadmapPoint]) -> Optional[int]:
    """First year in which no provided point meets the target, or None."""
    years = sorted({point.year for point in points})
    for year in years:
        if not any(p.meets_target for p in points if p.year == year):
            return year
    return None


def idr_series(
    points: Sequence[RoadmapPoint], diameter_in: float
) -> List[Tuple[int, float]]:
    """(year, max IDR) series for one platter size, for plotting Figure 2."""
    return [
        (p.year, p.max_idr_mb_s)
        for p in sorted(points, key=lambda p: p.year)
        if p.diameter_in == diameter_in
    ]


def capacity_series(
    points: Sequence[RoadmapPoint], diameter_in: float
) -> List[Tuple[int, float]]:
    """(year, capacity) series for one platter size (Figure 2 d-f)."""
    return [
        (p.year, p.capacity_gb)
        for p in sorted(points, key=lambda p: p.year)
        if p.diameter_in == diameter_in
    ]
