"""I/O request representation shared by the simulator layers."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import SimulationError

_request_ids = itertools.count()


@dataclass
class Request:
    """One block-level I/O request.

    Attributes:
        arrival_ms: simulated arrival time.
        lba: starting logical block address (512-byte sectors).
        sectors: request length in sectors; must be positive.
        is_write: write (True) or read (False).
        request_id: unique id assigned at construction.
        parent: logical request this one was split from (RAID fan-out).
        start_service_ms: when the disk began servicing it.
        completion_ms: when it completed.
    """

    arrival_ms: float
    lba: int
    sectors: int
    is_write: bool = False
    request_id: int = field(default_factory=_request_ids.__next__)
    parent: Optional["Request"] = None
    start_service_ms: Optional[float] = None
    completion_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.sectors <= 0:
            raise SimulationError(f"request length must be positive, got {self.sectors}")
        if self.lba < 0:
            raise SimulationError(f"LBA cannot be negative, got {self.lba}")
        if self.arrival_ms < 0:
            raise SimulationError(f"arrival time cannot be negative, got {self.arrival_ms}")

    @property
    def end_lba(self) -> int:
        """One past the last sector addressed."""
        return self.lba + self.sectors

    @property
    def response_time_ms(self) -> float:
        """Completion minus arrival.

        Raises:
            SimulationError: if the request has not completed.
        """
        if self.completion_ms is None:
            raise SimulationError(f"request {self.request_id} has not completed")
        return self.completion_ms - self.arrival_ms

    def overlaps(self, lba: int, sectors: int) -> bool:
        """Whether this request's range intersects [lba, lba+sectors)."""
        return self.lba < lba + sectors and lba < self.end_lba
