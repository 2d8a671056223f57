"""Exception hierarchy for the repro library.

Every error raised deliberately by this package derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GeometryError(ReproError):
    """A drive geometry parameter is physically impossible or inconsistent."""


class RecordingError(ReproError):
    """A recording-technology parameter (BPI/TPI/zones/ECC) is invalid."""


class ThermalError(ReproError):
    """The thermal model was given invalid inputs or failed to converge."""


class EnvelopeError(ThermalError):
    """No operating point satisfies the requested thermal envelope."""


class RoadmapError(ReproError):
    """The roadmap engine was asked for an infeasible configuration."""


class SimulationError(ReproError):
    """The storage simulator detected an inconsistent event or request."""


class EngineRefused(SimulationError):
    """An explicitly requested fast engine cannot honor this task."""


class TraceError(ReproError):
    """A workload trace is malformed or violates ordering invariants."""


class DTMError(ReproError):
    """A dynamic-thermal-management policy received invalid parameters."""


class FaultError(ReproError):
    """A fault-injection plan is invalid (rates, retries, taxonomy)."""


class StoreError(ReproError):
    """The result store was given an invalid key, config or directory."""


class FleetError(ReproError):
    """A fleet topology or fleet-simulation parameter is invalid."""


class ServiceError(ReproError):
    """The sweep job service rejected a request or configuration.

    Carries an HTTP status so the wire layer can map validation problems
    (400), unknown resources (404) and drain-time refusals (503) without
    string-matching messages.
    """

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


class SweepExecutionError(SimulationError):
    """A sweep task failed and the caller asked for strict (fail-fast)
    semantics; carries the worker-side traceback text."""

    def __init__(self, message: str, traceback_text: str = "") -> None:
        super().__init__(message)
        self.traceback_text = traceback_text
