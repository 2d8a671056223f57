"""Event-driven storage simulator (the DiskSim substitute)."""

from repro.simulation.array import StorageArray
from repro.simulation.cache import CacheStats, DiskCache
from repro.simulation.disk import CACHE_HIT_MS, DiskStats, SimulatedDisk, standard_disk
from repro.simulation.events import EventQueue
from repro.simulation.layout import DiskLayout, SectorAddress
from repro.simulation.mechanics import DiskMechanics, ServiceBreakdown
from repro.simulation.power import PowerReport, energy_per_request_j, power_report
from repro.simulation.raid import (
    ArrayGeometry,
    Raid0Geometry,
    Raid1Geometry,
    Raid5Geometry,
)
from repro.simulation.request import Request
from repro.simulation.scheduler import (
    FCFSScheduler,
    LookScheduler,
    Scheduler,
    SSTFScheduler,
    make_scheduler,
)
from repro.simulation.backends import (
    BACKEND_ENV_VAR,
    BACKEND_NAMES,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    SharedStoreBackend,
    resolve_backend,
    resolve_backend_name,
)
from repro.simulation.resilience import (
    MANIFEST_SCHEMA,
    SweepKind,
    SweepRunReport,
    TaskEnvelope,
    run_kind,
)
from repro.simulation.statistics import PAPER_CDF_BINS_MS, ResponseTimeStats
from repro.simulation.sweep import (
    RoadmapTask,
    WorkloadSweepResult,
    WorkloadTask,
    build_workload_tasks,
    resolve_workers,
    sweep_roadmap,
    sweep_workloads,
    sweep_workloads_resilient,
)
from repro.simulation.system import SimulationReport, StorageSystem, build_system

__all__ = [
    "EventQueue",
    "Request",
    "DiskLayout",
    "SectorAddress",
    "DiskMechanics",
    "ServiceBreakdown",
    "DiskCache",
    "CacheStats",
    "SimulatedDisk",
    "DiskStats",
    "standard_disk",
    "CACHE_HIT_MS",
    "Scheduler",
    "FCFSScheduler",
    "SSTFScheduler",
    "LookScheduler",
    "make_scheduler",
    "ArrayGeometry",
    "Raid0Geometry",
    "Raid1Geometry",
    "PowerReport",
    "power_report",
    "energy_per_request_j",
    "Raid5Geometry",
    "StorageArray",
    "ResponseTimeStats",
    "PAPER_CDF_BINS_MS",
    "StorageSystem",
    "SimulationReport",
    "build_system",
    "RoadmapTask",
    "WorkloadTask",
    "WorkloadSweepResult",
    "build_workload_tasks",
    "resolve_workers",
    "sweep_roadmap",
    "sweep_workloads",
    "sweep_workloads_resilient",
    "MANIFEST_SCHEMA",
    "SweepKind",
    "SweepRunReport",
    "TaskEnvelope",
    "run_kind",
    "BACKEND_ENV_VAR",
    "BACKEND_NAMES",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "SharedStoreBackend",
    "resolve_backend",
    "resolve_backend_name",
]
