"""Per-trace pre-plan: what every rung of an RPM ladder shares.

The Figure 4 ladder replays one trace at several spindle speeds.  Only
rotational timing, the queues and the caches depend on RPM; the trace,
the array's capacity and each request's striping across the member
disks do not.  This module computes those once per process and hands
them to both engines (exact and analytic):

* :func:`spec_geometry` — the RPM-independent geometry of a workload's
  array: the layout and seek curve every member disk maps through (the
  very objects :func:`~repro.simulation.disk.standard_mechanism` hands
  ``build_system``, built once per distinct drive per process) and the
  array's striping, built without disks, caches or schedulers.
  ``WorkloadSpec.generate`` sizes traces from it.
* :func:`preplan` — the trace of ``(spec, requests, seed)`` and, for
  each request, its phased child accesses as plain
  ``(disk, lba, sectors, is_write)`` tuples
  (:data:`repro.simulation.raid.Phases`), planned on first use.

Both memos are keyed on values — the spec's geometry fields, and the
whole :class:`~repro.workloads.catalog.WorkloadSpec` plus ``requests``
and ``seed`` (never the name: ``with_shape`` copies share one) — and
hold **one entry**.  Sweep tasks are workload-major, so consecutive
tasks on a worker share a workload and a worker never returns to an
earlier one.  A miss drops the held entry before building the next, so
a process holds at most one trace and its plans at a time.

Each memo is a pure function of its key: every process computes
identical values, so per-process copies cannot diverge observably.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.performance.seek import SeekModel
    from repro.simulation.layout import DiskLayout
    from repro.simulation.raid import ArrayGeometry, Phases
    from repro.workloads.catalog import WorkloadSpec
    from repro.workloads.trace import Trace


class SpecGeometry:
    """RPM-independent geometry of one workload's array.

    Attributes:
        layout: the LBA mapping every member disk shares.
        seek_model: the seek curve every member disk shares.
        array: the striping geometry (RAID-0 or RAID-5).
        seek_table: the analytic engine's seek time per cylinder distance,
            filled on first use (it needs numpy).
    """

    __slots__ = ("layout", "seek_model", "array", "seek_table")

    def __init__(
        self, layout: "DiskLayout", seek_model: "SeekModel", array: "ArrayGeometry"
    ) -> None:
        self.layout = layout
        self.seek_model = seek_model
        self.array = array
        self.seek_table: Any = None

    @property
    def disk_count(self) -> int:
        return self.array.disk_count

    @property
    def logical_sectors(self) -> int:
        return self.array.logical_sectors


class PrePlan:
    """One trace and its per-request phased plans.

    Attributes:
        trace: the generated trace.
        geometry: the striping geometry the plans are for.
    """

    __slots__ = ("trace", "geometry", "_phases")

    def __init__(self, trace: "Trace", geometry: "ArrayGeometry") -> None:
        self.trace = trace
        self.geometry = geometry
        self._phases: Optional[Tuple["Phases", ...]] = None

    def phases_for(self, geometry: "ArrayGeometry") -> Tuple["Phases", ...]:
        """Each request's phases, aligned with :attr:`trace`.

        Raises:
            SimulationError: when ``geometry`` maps addresses differently
                from the one the plans are for.
        """
        if geometry.mapping != self.geometry.mapping:
            raise SimulationError(
                f"pre-plan is for {self.geometry.mapping}, not {geometry.mapping}"
            )
        phases = self._phases
        if phases is None:
            plan = self.geometry.plan
            phases = self._phases = tuple(
                plan(r.lba, r.sectors, r.is_write) for r in self.trace
            )
        return phases


_GEOMETRY: Dict[Tuple[Any, ...], SpecGeometry] = {}
_PREPLAN: Dict[Tuple[Any, ...], PrePlan] = {}


def spec_geometry(spec: "WorkloadSpec") -> SpecGeometry:
    """The memoized RPM-independent geometry of ``spec``'s array —
    the same striping ``spec.build_system`` builds, and the very layout
    and seek curve objects its member disks map through."""
    key = (
        spec.disk_count,
        spec.disk_capacity_gb,
        spec.raid5,
        spec.stripe_unit_sectors,
        spec.diameter_in,
        spec.platters,
        spec.kbpi,
        spec.ktpi,
    )
    # Per-process memo of a pure builder: every process builds identical
    # geometry for a key, so copies cannot diverge observably.
    # thermolint: disable=TL012
    cached = _GEOMETRY.get(key)
    if cached is None:
        from repro.simulation.disk import standard_mechanism
        from repro.simulation.system import array_geometry

        layout, seek_model = standard_mechanism(
            diameter_in=spec.diameter_in,
            platters=spec.platters,
            kbpi=spec.kbpi,
            ktpi=spec.ktpi,
        )
        array = array_geometry(
            spec.disk_count,
            spec.disk_capacity_gb,
            layout.total_sectors,
            raid5=spec.raid5,
            stripe_unit_sectors=spec.stripe_unit_sectors,
        )
        cached = SpecGeometry(layout, seek_model, array)
        _GEOMETRY.clear()
        _GEOMETRY[key] = cached
    return cached


def preplan(spec: "WorkloadSpec", requests: int, seed: int) -> PrePlan:
    """The memoized trace of ``spec`` (``requests`` long, ``seed``) with
    its plans on the spec's array (:meth:`PrePlan.phases_for`)."""
    key = (spec, requests, seed)
    # Pure memo keyed on the trace's whole identity: regenerating it in
    # any process yields bit-identical records and plans.
    # thermolint: disable=TL012
    cached = _PREPLAN.get(key)
    if cached is None:
        _PREPLAN.clear()
        trace = spec.generate(num_requests=requests, seed=seed)
        cached = PrePlan(trace, spec_geometry(spec).array)
        _PREPLAN[key] = cached
    return cached

