"""Drive thermal model (paper §3.3).

Following Clauss & Eibeck, the drive is divided into four components — the
internal air, the spindle-motor assembly (hub + platters), the base and
cover, and the VCM with the disk arms — exchanging heat by convection with
the air and conduction through mounting points, with the only escape path
being the base/cover's convection to the externally cooled ambient air.

Heat sources:

* windage (viscous dissipation) into the internal air — ``N * RPM^2.8 *
  D^4.8`` scaling anchored at the paper's 0.91 W point;
* spindle-motor electrical/bearing losses into the stack node;
* VCM power into the actuator node while seeking (``vcm_active``).

Conductances come from geometry and standard correlations with calibration
factors fit once against the dissected Cheetah 15K.3 (see
:mod:`repro.thermal.calibration`); the same calibrated model is used for
every configuration in the roadmap.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - cycle broken at runtime
    from repro.telemetry.probes import ProbeSet

from repro.constants import AMBIENT_TEMPERATURE_C, FD_TIME_STEP_S
from repro.errors import ThermalError
from repro.geometry.actuator import Actuator, actuator_for_platter
from repro.geometry.enclosure import FORM_FACTOR_35, Enclosure
from repro.geometry.platter import Platter
from repro.geometry.stack import DiskStack
from repro.materials import AIR
from repro.thermal.correlations import (
    enclosed_air_internal_h,
    external_forced_h,
    rotating_disk_h,
)
from repro.thermal.network import ThermalNetwork, ThermalNode, TransientResult
from repro.thermal.vcm import vcm_power_w
from repro.thermal.viscous import viscous_power_w

#: Node names of the four-component model.
NODE_AIR = "air"
NODE_STACK = "stack"
NODE_BASE = "base"
NODE_VCM = "vcm"


@dataclass(frozen=True)
class ThermalCalibration:
    """Calibration constants of the thermal model.

    Fit once against the Cheetah 15K.3 anchor (45.22 C steady internal air
    at 15K RPM, 2.6-inch platter, 3.5-inch enclosure, 28 C ambient, VCM on);
    see :mod:`repro.thermal.calibration` for the fitting procedure.

    Attributes:
        stack_convection_scale: multiplier on the free-rotating-disk
            correlation to account for the enclosed, co-rotating stack.
        internal_wall_scale: multiplier on the air/casting interior
            coefficient.
        airflow_quality: multiplier on the external forced-convection
            coefficient (1.0 = the paper's baseline cooling system).
        spindle_bearing_g_w_per_k: conduction from stack to base through the
            spindle bearing.
        vcm_pivot_g_w_per_k: conduction from the actuator to the base
            through the pivot and magnet mounts.
        spm_power_w: spindle-motor electrical + bearing loss injected into
            the stack while spinning (fit parameter).
        chassis_extra_mass_kg: non-casting structural mass (motor stator,
            electronics, connectors) lumped into the base node.
    """

    stack_convection_scale: float = 2.3
    internal_wall_scale: float = 1.3
    airflow_quality: float = 1.0
    spindle_bearing_g_w_per_k: float = 0.5
    vcm_pivot_g_w_per_k: float = 0.6
    spm_power_w: float = 10.453827990672547
    chassis_extra_mass_kg: float = 0.35

    def with_spm_power(self, watts: float) -> "ThermalCalibration":
        """Copy with a different spindle-motor loss."""
        return replace(self, spm_power_w=watts)

    def with_airflow_quality(self, quality: float) -> "ThermalCalibration":
        """Copy with a different external-cooling effectiveness."""
        return replace(self, airflow_quality=quality)


class DriveThermalModel:
    """Four-node thermal model of one disk drive.

    Args:
        platter_diameter_in: media diameter in inches.
        platter_count: platters in the stack.
        rpm: initial spindle speed.
        enclosure: drive enclosure (default 3.5-inch form factor).
        ambient_c: cooled external air temperature.
        vcm_active: whether the actuator is seeking (VCM dissipating).
        calibration: calibration constants (default: fitted values).
        spinning: whether the spindle motor is on (False = spun down).
    """

    def __init__(
        self,
        platter_diameter_in: float,
        platter_count: int = 1,
        rpm: float = 15000.0,
        enclosure: Enclosure = FORM_FACTOR_35,
        ambient_c: float = AMBIENT_TEMPERATURE_C,
        vcm_active: bool = True,
        calibration: Optional[ThermalCalibration] = None,
        spinning: bool = True,
    ) -> None:
        if rpm < 0:
            raise ThermalError(f"rpm cannot be negative, got {rpm}")
        self.calibration = calibration or DEFAULT_CALIBRATION
        self.platter = Platter(diameter_in=platter_diameter_in)
        if not enclosure.can_house_platter(platter_diameter_in):
            raise ThermalError(
                f"{enclosure.name} enclosure cannot house a "
                f"{platter_diameter_in}-inch platter"
            )
        self.stack = DiskStack(platter=self.platter, count=platter_count)
        self.actuator: Actuator = actuator_for_platter(self.platter, self.stack.surfaces)
        self.enclosure = enclosure
        self.rpm = float(rpm)
        self.vcm_active = bool(vcm_active)
        self.spinning = bool(spinning)
        # Speed-independent factors of the three air conductances, so a
        # speed change (an envelope-search probe) recomputes only the
        # speed-dependent coefficients.
        self._stack_area_m2 = self.stack.convective_area_m2()
        self._enclosure_area_m2 = self.enclosure.external_area_m2()
        self._platter_radius_m = self.platter.outer_radius_m
        self._arm_radius_m = max(self.actuator.arm_length_m, 1e-3)
        self._actuator_area_m2 = self.actuator.convective_area_m2()

        self.network = self._build_network(ambient_c)
        self._apply_operating_state()

    # -- construction -------------------------------------------------------------

    def _build_network(self, ambient_c: float) -> ThermalNetwork:
        cal = self.calibration
        displaced = (
            self.stack.count * self.platter.volume_m3()
            + 3.14159 * self.stack.hub_radius_m**2 * self.stack.hub_height_m
        )
        air_volume = self.enclosure.internal_air_volume_m3(displaced)
        air_capacitance = max(air_volume * AIR.volumetric_heat_capacity(), 0.05)
        base_capacitance = (
            self.enclosure.heat_capacity_j_per_k()
            + cal.chassis_extra_mass_kg * 896.0
        )
        nodes = [
            ThermalNode(NODE_AIR, air_capacitance),
            ThermalNode(NODE_STACK, self.stack.heat_capacity_j_per_k()),
            ThermalNode(NODE_BASE, base_capacitance),
            ThermalNode(NODE_VCM, self.actuator.heat_capacity_j_per_k()),
        ]
        network = ThermalNetwork(nodes, ambient_c=ambient_c)
        # Placeholder conductances; _apply_operating_state overwrites the
        # speed-dependent ones and these constants stay as set here.
        network.connect(NODE_AIR, NODE_STACK, 1.0)
        network.connect(NODE_AIR, NODE_BASE, 1.0)
        network.connect(NODE_AIR, NODE_VCM, 1.0)
        network.connect(NODE_STACK, NODE_BASE, cal.spindle_bearing_g_w_per_k)
        network.connect(NODE_VCM, NODE_BASE, cal.vcm_pivot_g_w_per_k)
        external_g = (
            external_forced_h(cal.airflow_quality) * self.enclosure.external_area_m2()
        )
        network.connect_ambient(NODE_BASE, external_g)
        return network

    def _apply_operating_state(self) -> None:
        cal = self.calibration
        rpm = self.rpm if self.spinning else 0.0

        stack_h = cal.stack_convection_scale * rotating_disk_h(
            rpm, self._platter_radius_m
        )
        g_stack_air = stack_h * self._stack_area_m2
        wall_h = cal.internal_wall_scale * enclosed_air_internal_h(rpm)
        g_air_base = wall_h * self._enclosure_area_m2
        arm_h = cal.stack_convection_scale * rotating_disk_h(rpm, self._arm_radius_m)
        g_vcm_air = arm_h * self._actuator_area_m2

        self.network.set_conductance(NODE_AIR, NODE_STACK, max(g_stack_air, 1e-3))
        self.network.set_conductance(NODE_AIR, NODE_BASE, max(g_air_base, 1e-3))
        self.network.set_conductance(NODE_AIR, NODE_VCM, max(g_vcm_air, 1e-3))

        self.network.set_heat(
            NODE_AIR,
            viscous_power_w(rpm, self.platter.diameter_in, self.stack.count)
            if rpm > 0
            else 0.0,
        )
        self.network.set_heat(NODE_STACK, cal.spm_power_w if self.spinning else 0.0)
        self.network.set_heat(
            NODE_VCM, self.vcm_power_w() if self.vcm_active else 0.0
        )

    # -- operating state ------------------------------------------------------------

    def vcm_power_w(self) -> float:
        """Seek-mode VCM power for this platter size, watts."""
        return vcm_power_w(self.platter.diameter_in)

    def set_operating_state(
        self,
        rpm: Optional[float] = None,
        vcm_active: Optional[bool] = None,
        spinning: Optional[bool] = None,
    ) -> None:
        """Change spindle speed / VCM / spin state; temperatures persist."""
        if rpm is not None:
            if rpm < 0:
                raise ThermalError(f"rpm cannot be negative, got {rpm}")
            self.rpm = float(rpm)
        if vcm_active is not None:
            self.vcm_active = bool(vcm_active)
        if spinning is not None:
            self.spinning = bool(spinning)
        self._apply_operating_state()

    def set_vcm_duty(self, duty: float) -> None:
        """Set a fractional VCM activity level.

        DTM controllers observe how busy the actuator actually is (the
        fraction of time spent seeking) and scale the VCM heat accordingly,
        instead of the binary worst-case on/off of ``vcm_active``.

        Args:
            duty: fraction of time the VCM is energized, in [0, 1].
        """
        if not 0.0 <= duty <= 1.0:
            raise ThermalError(f"duty must be in [0, 1], got {duty}")
        self.network.set_heat(NODE_VCM, self.vcm_power_w() * duty)

    def set_ambient(self, ambient_c: float) -> None:
        """Change the cooled external air temperature."""
        self.network.ambient_c = float(ambient_c)

    @property
    def ambient_c(self) -> float:
        """Current external ambient temperature."""
        return self.network.ambient_c

    # -- queries -------------------------------------------------------------------

    def steady_state(self) -> Dict[str, float]:
        """Steady-state temperatures of all four nodes, Celsius."""
        return self.network.steady_state()

    def steady_air_c(self) -> float:
        """Steady-state internal-air temperature, Celsius."""
        return self.network.steady_temperature(NODE_AIR)

    def settle(self) -> None:
        """Jump the transient state to steady state."""
        self.network.set_temperatures(self.steady_state())

    def air_c(self) -> float:
        """Current (transient) internal-air temperature."""
        return self.network.temperature(NODE_AIR)

    def transient(
        self,
        duration_s: float,
        dt_s: float = FD_TIME_STEP_S,
        record_every: int = 1,
        from_ambient: bool = False,
    ) -> TransientResult:
        """Integrate the transient response.

        Args:
            duration_s: simulated duration in seconds.
            dt_s: time step (default the paper's 600 steps/min).
            record_every: sample decimation for the returned series.
            from_ambient: if True, reset all nodes to ambient first (the
                paper's Figure 1 warm-up experiment).
        """
        if from_ambient:
            self.network.reset()
        return self.network.simulate(duration_s, dt_s, record_every=record_every)

    def total_power_w(self) -> float:
        """Total heat currently dissipated inside the drive, watts."""
        return self.network.total_heat_w()

    # -- telemetry ------------------------------------------------------------------

    def attach_probes(self, probes: "ProbeSet", prefix: str = "thermal") -> None:
        """Register this model's observables on a telemetry probe set.

        Adds one time-series probe per thermal node (transient
        temperature), plus spindle speed and total dissipated power —
        the quantities the paper's transient figures (1, 6) plot.  The
        probe set's owner decides the sampling cadence; the model itself
        never schedules anything.

        Args:
            probes: the probe set to register on.
            prefix: name prefix (``<prefix>.air_c`` etc.).
        """
        for node in (NODE_AIR, NODE_STACK, NODE_BASE, NODE_VCM):
            probes.add(
                f"{prefix}.{node}_c",
                (lambda n=node: self.network.temperature(n)),
                unit="C",
            )
        probes.add(f"{prefix}.rpm", lambda: self.rpm, unit="rpm")
        probes.add(f"{prefix}.power_w", self.total_power_w, unit="W")


#: Calibration fitted so the reference Cheetah 15K.3 model (2.6-inch single
#: platter, 15K RPM, 3.5-inch enclosure, 28 C ambient, VCM+SPM always on)
#: settles at the paper's 45.22 C internal-air steady state.  Derived by
#: :func:`repro.thermal.calibration.fit_spm_power`; the value is pinned here
#: so every experiment shares one calibration.
DEFAULT_CALIBRATION = ThermalCalibration()
