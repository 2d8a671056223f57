"""Deterministic, seed-driven fault models for the storage simulator.

The paper's core argument is about surviving adverse events: thermal
emergencies force throttling, and every 15 °C of overheating doubles the
failure rate (:mod:`repro.thermal.reliability`).  This module supplies the
*fault inputs* of that story as first-class simulation objects:

* **Media errors** — an ECC read/write retry costs extra platter
  revolutions; a hard error escalates to a sector remap (a seek out to the
  spare pool and back plus a revolution).
* **Servo faults** — the head fails to settle on track and must re-settle
  after (on average) half a revolution of re-acquisition.
* **Thermal emergencies** — spurious over-temperature events whose
  probability scales with the reliability model's failure-acceleration
  curve, so a drive running hot near the envelope faults more often.

**Determinism is the load-bearing property.**  Every fault decision is a
pure function of ``(seed, subject, ordinal, salt)`` hashed through
BLAKE2b — never of process-global RNG state or wall-clock time — so a
fault-injected run is bit-identical between the serial and parallel sweep
paths, across hosts, and across Python's per-process string-hash salts.
All latency penalties are *derived from the disk's own mechanics* (its
rotation period, settle time and seek curve) rather than spelled as bare
millisecond constants.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

from repro.errors import FaultError
from repro.thermal.reliability import failure_acceleration

if TYPE_CHECKING:  # pragma: no cover - cycle broken at runtime
    from repro.simulation.mechanics import DiskMechanics

#: Fault kinds emitted by the injectors (the taxonomy; see
#: ``docs/resilience.md``).
FAULT_KINDS = ("media_retry", "media_remap", "servo", "thermal_emergency")

#: 2**64 as a float divisor — maps a 64-bit digest to [0, 1).
_DIGEST_SPAN = float(2**64)


def unit_draw(seed: int, subject: str, ordinal: int, salt: str) -> float:
    """A deterministic draw in ``[0, 1)`` from a stable content hash.

    Python's builtin ``hash`` of strings is salted per process, and a
    shared ``random.Random`` would make outcomes depend on *call order
    across components*; hashing the full decision coordinates keeps every
    draw independent of both.
    """
    digest = hashlib.blake2b(
        f"{seed}:{subject}:{ordinal}:{salt}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / _DIGEST_SPAN


@dataclass(frozen=True)
class FaultConfig:
    """Fault-injection plan shared by every disk in a system.

    Frozen (and therefore hashable/picklable) so it can ride inside the
    sweep task dataclasses across process boundaries.

    Attributes:
        seed: root of every deterministic draw; combined with the disk
            name and per-disk request ordinal.
        media_rate: probability that one media access suffers a
            recoverable media error (ECC retry path).
        servo_rate: probability that one media access suffers a servo
            settle fault.
        remap_fraction: fraction of media errors that escalate to a
            sector remap.
        max_ecc_retries: worst-case ECC re-read attempts; the actual
            retry count of an error is drawn uniformly in
            ``[1, max_ecc_retries]``.
        thermal_emergency_rate: per-controller-check probability of a
            spurious thermal emergency *at the reference temperature*;
            scaled by the reliability failure-acceleration curve as the
            drive runs hotter (see :class:`ThermalEmergencyModel`).
    """

    seed: int = 0
    media_rate: float = 0.0
    servo_rate: float = 0.0
    remap_fraction: float = 0.25
    max_ecc_retries: int = 3
    thermal_emergency_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("media_rate", "servo_rate", "remap_fraction",
                     "thermal_emergency_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise FaultError(f"{name} must be in [0, 1], got {value}")
        if self.max_ecc_retries < 1:
            raise FaultError(
                f"max_ecc_retries must be >= 1, got {self.max_ecc_retries}"
            )

    @property
    def injects_disk_faults(self) -> bool:
        """Whether any per-access (media/servo) fault can fire."""
        return self.media_rate > 0.0 or self.servo_rate > 0.0

    @property
    def injects_any(self) -> bool:
        return self.injects_disk_faults or self.thermal_emergency_rate > 0.0

    def injector_for(
        self, disk_name: str, scope: Optional[str] = None
    ) -> "DiskFaultInjector":
        """A per-disk injector keyed by the disk's name.

        Args:
            disk_name: the disk's name within its system.
            scope: optional fleet-level identity prefix (e.g.
                ``rack00/e1/s3``).  Disk names are only unique within
                one simulated system; at fleet scale two drives with
                identical configs in different slots would otherwise
                share a draw subject — and therefore an identical fault
                stream.  The scope folds the rack/enclosure/slot
                coordinates into the subject so every physical drive
                draws independently.  ``None`` keeps the bare name
                (single-system behaviour, and its keys, unchanged).
        """
        subject = disk_name if scope is None else f"{scope}/{disk_name}"
        return DiskFaultInjector(config=self, subject=subject)

    def emergency_model(self, subject: str = "dtm") -> "ThermalEmergencyModel":
        """A thermal-emergency injector for a DTM controller."""
        return ThermalEmergencyModel(config=self, subject=subject)


@dataclass
class FaultStats:
    """Counters for faults injected into one component (or a whole run)."""

    media_retries: int = 0
    media_remaps: int = 0
    servo_faults: int = 0
    thermal_emergencies: int = 0
    ecc_retries: int = 0
    extra_ms: float = 0.0

    @property
    def total_injected(self) -> int:
        return (
            self.media_retries
            + self.media_remaps
            + self.servo_faults
            + self.thermal_emergencies
        )

    def as_dict(self) -> Dict[str, float]:
        """Plain-data snapshot (JSON-serializable, sweep-picklable)."""
        from repro.store import record_payload

        return {**record_payload(self), "total_injected": self.total_injected}

    def merge(self, other: "FaultStats") -> None:
        """Accumulate another component's counters into this one."""
        self.media_retries += other.media_retries
        self.media_remaps += other.media_remaps
        self.servo_faults += other.servo_faults
        self.thermal_emergencies += other.thermal_emergencies
        self.ecc_retries += other.ecc_retries
        self.extra_ms += other.extra_ms


@dataclass
class InjectedFault:
    """One fault decision: its kind and the latency it costs."""

    kind: str
    extra_ms: float
    ecc_retries: int = 0


@dataclass
class DiskFaultInjector:
    """Per-disk media/servo fault source.

    One injector is bound to one disk; it keeps a per-disk media-access
    ordinal so each access's fault decision is the pure function
    ``draw(seed, disk, ordinal)``.  Because the event-driven simulation
    itself is deterministic, the ordinal sequence — and therefore the
    injected fault sequence — is identical in serial and parallel sweeps.
    """

    config: FaultConfig
    subject: str
    stats: FaultStats = field(default_factory=FaultStats)
    _ordinal: int = field(default=0, repr=False)

    def media_access_fault(
        self, mechanics: "DiskMechanics"
    ) -> Optional[InjectedFault]:
        """Fault decision for one media access (not for cache hits).

        Args:
            mechanics: the disk's timing engine; penalties derive from its
                rotation period, settle time and seek curve.

        Returns:
            The injected fault, or None when this access is healthy.
        """
        ordinal = self._ordinal
        self._ordinal = ordinal + 1
        fault = self._decide(mechanics, ordinal)
        if fault is not None:
            self.stats.extra_ms += fault.extra_ms
            self.stats.ecc_retries += fault.ecc_retries
            if fault.kind == "media_remap":
                self.stats.media_remaps += 1
            elif fault.kind == "media_retry":
                self.stats.media_retries += 1
            else:
                self.stats.servo_faults += 1
        return fault

    def _decide(
        self, mechanics: "DiskMechanics", ordinal: int
    ) -> Optional[InjectedFault]:
        cfg = self.config
        period_ms = mechanics.period_ms
        if cfg.media_rate > 0.0 and (
            unit_draw(cfg.seed, self.subject, ordinal, "media") < cfg.media_rate
        ):
            # Each ECC retry costs one full revolution (re-read the sector).
            span = unit_draw(cfg.seed, self.subject, ordinal, "retries")
            retries = 1 + int(span * cfg.max_ecc_retries)
            retries = min(retries, cfg.max_ecc_retries)
            extra = retries * period_ms
            if unit_draw(cfg.seed, self.subject, ordinal, "remap") < cfg.remap_fraction:
                # Remap: seek out to the spare pool and back, plus the
                # revolution spent rewriting the relocated sector.
                remap_travel = 2.0 * mechanics.seek_model.average_seek_ms()
                extra += remap_travel + period_ms
                return InjectedFault("media_remap", extra, ecc_retries=retries)
            return InjectedFault("media_retry", extra, ecc_retries=retries)
        if cfg.servo_rate > 0.0 and (
            unit_draw(cfg.seed, self.subject, ordinal, "servo") < cfg.servo_rate
        ):
            # Failed settle: re-settle plus on average half a revolution to
            # re-acquire the target sector.
            extra = mechanics.settle_ms + period_ms / 2.0
            return InjectedFault("servo", extra)
        return None


@dataclass
class ThermalEmergencyModel:
    """Spurious thermal-emergency source for a DTM controller.

    The per-check trigger probability is the configured base rate scaled
    by the reliability model's failure-acceleration factor at the current
    air temperature (referenced to the envelope): a drive sitting at the
    envelope faults at the base rate, one 15 °C cooler at half of it —
    the same ``2^(dT/15)`` law the paper uses for failure rates.
    """

    config: FaultConfig
    subject: str = "dtm"
    stats: FaultStats = field(default_factory=FaultStats)
    _ordinal: int = field(default=0, repr=False)

    def trigger_probability(self, air_c: float, envelope_c: float) -> float:
        """The scaled per-check probability at an air temperature."""
        rate = self.config.thermal_emergency_rate
        if rate <= 0.0:
            return 0.0
        scaled = rate * failure_acceleration(air_c, reference_c=envelope_c)
        return min(scaled, 1.0)

    def should_trigger(self, air_c: float, envelope_c: float) -> bool:
        """Deterministic per-check emergency decision."""
        ordinal = self._ordinal
        self._ordinal = ordinal + 1
        probability = self.trigger_probability(air_c, envelope_c)
        if probability <= 0.0:
            return False
        fired = (
            unit_draw(self.config.seed, self.subject, ordinal, "thermal")
            < probability
        )
        if fired:
            self.stats.thermal_emergencies += 1
        return fired
