"""Workload catalog: the five Figure-4 systems and their synthetic traces.

Each entry mirrors a row of the paper's workload table (Figure 4a): the
array configuration (disk count, RPM, per-disk capacity, RAID) and a
synthetic shape standing in for the non-redistributable commercial trace.
Request counts default to a scaled-down population (the paper replays
3-6 million requests; we default to tens of thousands so a pure-Python
sweep finishes in seconds) — statistics are stable well before that.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, Optional

from repro.errors import TraceError
from repro.workloads.synthetic import WorkloadShape, generate_trace
from repro.workloads.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.faults import FaultConfig
    from repro.simulation.system import StorageSystem
    from repro.telemetry import Telemetry


@dataclass(frozen=True)
class WorkloadSpec:
    """One Figure-4 workload: system configuration plus trace shape.

    Attributes:
        name: catalog key.
        display_name: label used in the paper.
        year: approximate trace collection year.
        disk_count: member disks in the array.
        base_rpm: spindle speed of the original system.
        disk_capacity_gb: usable capacity per disk (decimal GB).
        raid5: whether the paper's system used RAID (RAID-5, 16-block
            stripes) — otherwise plain striping across spindles.
        shape: synthetic trace shape calibrated to the trace's published
            summary characteristics.
        kbpi / ktpi / platters / diameter_in: drive-model parameters for
            the "appropriate year" the paper synthesizes disks for.
        default_requests: default trace length.
    """

    name: str
    display_name: str
    year: int
    disk_count: int
    base_rpm: float
    disk_capacity_gb: float
    raid5: bool
    shape: WorkloadShape
    kbpi: float
    ktpi: float
    platters: int
    diameter_in: float = 3.3
    default_requests: int = 20000

    @property
    def stripe_unit_sectors(self) -> int:
        """RAID-5 systems use the paper's 16-block stripes; non-RAID
        systems spread data across independent spindles, modeled as coarse
        (1 MB) striping so a request engages a single disk."""
        return 16 if self.raid5 else 2048

    def build_system(
        self,
        rpm: Optional[float] = None,
        telemetry: Optional["Telemetry"] = None,
        fault_config: Optional["FaultConfig"] = None,
    ) -> "StorageSystem":
        """Instantiate the simulated storage system, optionally at a
        different spindle speed (the Figure 4 RPM sweep), optionally
        instrumented with a telemetry subsystem, and optionally with
        deterministic fault injection on every member disk."""
        from repro.simulation.system import build_system

        return build_system(
            disk_count=self.disk_count,
            rpm=rpm if rpm is not None else self.base_rpm,
            disk_capacity_gb=self.disk_capacity_gb,
            raid5=self.raid5,
            stripe_unit_sectors=self.stripe_unit_sectors,
            diameter_in=self.diameter_in,
            platters=self.platters,
            kbpi=self.kbpi,
            ktpi=self.ktpi,
            telemetry=telemetry,
            fault_config=fault_config,
        )

    def generate(
        self,
        num_requests: Optional[int] = None,
        seed: int = 0,
        rate_scale: float = 1.0,
    ) -> Trace:
        """Generate the synthetic trace, sized to the array's capacity."""
        from repro.simulation.preplan import spec_geometry

        capacity = spec_geometry(self).logical_sectors
        # Exact sentinel check: 1.0 means "caller passed the default", not a
        # computed rate.  # thermolint: disable=TL002
        shape = self.shape if rate_scale == 1.0 else self.shape.scaled_rate(rate_scale)
        return generate_trace(
            shape=shape,
            num_requests=self.default_requests if num_requests is None else num_requests,
            capacity_sectors=capacity,
            seed=seed,
        )

    def rpm_sweep(self, steps: int = 4, step_rpm: float = 5000.0) -> tuple:
        """The paper's RPM ladder: base, +5K, +10K, +15K."""
        return tuple(self.base_rpm + i * step_rpm for i in range(steps))

    def with_shape(self, **changes) -> "WorkloadSpec":
        """Copy with shape fields replaced (for sensitivity studies)."""
        return replace(self, shape=replace(self.shape, **changes))


def _specs() -> Dict[str, WorkloadSpec]:
    from repro.workloads import openmail, oltp, search_engine, tpcc, tpch

    entries = [
        openmail.SPEC,
        oltp.SPEC,
        search_engine.SPEC,
        tpcc.SPEC,
        tpch.SPEC,
    ]
    return {spec.name: spec for spec in entries}


_CATALOG: Optional[Dict[str, WorkloadSpec]] = None


def catalog() -> Dict[str, WorkloadSpec]:
    """All five paper workloads, keyed by name."""
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = _specs()
    return _CATALOG


def workload(name: str) -> WorkloadSpec:
    """Look up one workload.

    Raises:
        TraceError: for unknown names.
    """
    specs = catalog()
    try:
        return specs[name]
    except KeyError:
        raise TraceError(
            f"unknown workload {name!r}; known: {sorted(specs)}"
        ) from None
