"""The content-addressed result store.

Entries live as small JSON envelopes under a cache root (by default
``~/.cache/repro``, overridable with ``REPRO_STORE_DIR`` or the
constructor), fanned out over 256 two-hex-character shard directories so
no single directory grows unbounded::

    <root>/objects/3f/3fa49c...e1.json     # one result envelope
    <root>/quarantine/3fa49c...e1.json     # entries that failed integrity

Every envelope carries its own payload digest; :meth:`ResultStore.get`
re-verifies it on load, so a bit-flipped, truncated or hand-edited entry
is *quarantined* (moved aside for forensics, counted as ``store.corrupt``)
and reported as a miss — a corrupt cache can cost recomputation, never
correctness.  Writes are atomic (temp file + ``os.replace``) so a killed
sweep can't leave a torn entry behind, which is what makes
``--resume``-after-crash safe.

Size is LRU-capped: each hit refreshes the entry's mtime, and
:meth:`ResultStore.gc` evicts oldest-touched entries until the store fits
``max_bytes`` (``REPRO_STORE_MAX_BYTES`` overrides the default cap).
``put`` triggers the same GC opportunistically, so a long sweep keeps the
store bounded without an external cron.

Hit/miss/put/evict/corrupt counts are mirrored both onto plain instance
counters (for CLI output) and — when a telemetry handle is supplied — as
``store.*`` counters in the standard metrics registry, so the JSON/CSV/
Prometheus exporters report cache behaviour alongside everything else.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import StoreError
from repro.store.canonical import (
    KEY_HEX_LENGTH,
    STORE_SCHEMA,
    record_payload,
    stable_json,
    text_digest,
)
from repro.units import MIB

__all__ = [
    "DEFAULT_MAX_BYTES",
    "ResultStore",
    "StoreStats",
    "VerifyReport",
    "default_store_root",
]

#: Default size cap for the store (the envelope JSONs are small; paper-
#: scale sweeps with telemetry snapshots are the case that needs a cap).
DEFAULT_MAX_BYTES = 256 * MIB

_ENV_ROOT = "REPRO_STORE_DIR"
_ENV_MAX_BYTES = "REPRO_STORE_MAX_BYTES"


def default_store_root() -> Path:
    """The store root honouring ``REPRO_STORE_DIR`` (else ``~/.cache/repro``)."""
    override = os.environ.get(_ENV_ROOT)
    if override:
        return Path(override).expanduser()
    return Path.home() / ".cache" / "repro"


def _default_max_bytes() -> int:
    override = os.environ.get(_ENV_MAX_BYTES)
    if override:
        try:
            value = int(override)
        except ValueError as exc:
            raise StoreError(
                f"{_ENV_MAX_BYTES} must be an integer, got {override!r}"
            ) from exc
        if value <= 0:
            raise StoreError(f"{_ENV_MAX_BYTES} must be positive, got {value}")
        return value
    return DEFAULT_MAX_BYTES


@dataclass(frozen=True)
class StoreStats:
    """A point-in-time inventory of the store directory."""

    root: str
    entries: int
    total_bytes: int
    max_bytes: int
    quarantined: int

    def as_dict(self) -> Dict[str, Any]:
        return record_payload(self)


@dataclass
class VerifyReport:
    """Outcome of a full-store integrity pass."""

    checked: int = 0
    ok: int = 0
    corrupt: int = 0
    quarantined_keys: List[str] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "checked": self.checked,
            "ok": self.ok,
            "corrupt": self.corrupt,
            "quarantined_keys": list(self.quarantined_keys),
        }


class ResultStore:
    """Content-addressed persistence for sweep task results.

    Args:
        root: store directory; defaults to ``REPRO_STORE_DIR`` or
            ``~/.cache/repro``.  Created lazily on first write.
        max_bytes: LRU size cap enforced by :meth:`gc` (and
            opportunistically after :meth:`put`).
        telemetry: optional :class:`repro.telemetry.Telemetry`; mirrors
            ``store.hit`` / ``store.miss`` / ``store.put`` /
            ``store.evict`` / ``store.corrupt`` counters.
    """

    def __init__(
        self,
        root: Optional[os.PathLike] = None,
        max_bytes: Optional[int] = None,
        telemetry: Optional[Any] = None,
    ) -> None:
        from repro.telemetry import maybe

        self.root = Path(root).expanduser() if root is not None else default_store_root()
        self.max_bytes = max_bytes if max_bytes is not None else _default_max_bytes()
        if self.max_bytes <= 0:
            raise StoreError(f"max_bytes must be positive, got {self.max_bytes}")
        self._tel = maybe(telemetry)
        # Session counters (cumulative over this ResultStore's lifetime).
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0
        self.corrupt = 0
        # Lazily-initialized running size estimate; exact scans happen in
        # gc()/stats(), puts keep it incrementally fresh in between so a
        # long sweep isn't O(entries) per task.
        self._approx_bytes: Optional[int] = None

    # -- paths ---------------------------------------------------------------

    @property
    def objects_dir(self) -> Path:
        return self.root / "objects"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def path_for(self, key: str) -> Path:
        """Shard path of one entry (``objects/<key[:2]>/<key>.json``)."""
        self._check_key(key)
        return self.objects_dir / key[:2] / f"{key}.json"

    @staticmethod
    def _check_key(key: str) -> None:
        if (
            len(key) != KEY_HEX_LENGTH
            or not all(c in "0123456789abcdef" for c in key)
        ):
            raise StoreError(f"malformed store key {key!r}")

    # -- claims --------------------------------------------------------------
    #
    # Claim files are the coordination medium of the shared-store execution
    # backend: a worker that wants to compute a task first creates
    # ``claims/<key>.claim`` with O_EXCL — exactly one process can win.
    # Losers wait for either the winner's result (a normal ``get`` hit once
    # the winner has ``put`` and released) or a stale claim (winner died;
    # age-based takeover).  Claims are advisory and crash-safe by *absence
    # of meaning*: a leftover claim only ever delays recomputation, never
    # changes a result, because results remain content-addressed.

    @property
    def claims_dir(self) -> Path:
        return self.root / "claims"

    def claim_path(self, key: str) -> Path:
        self._check_key(key)
        return self.claims_dir / f"{key}.claim"

    def try_claim(self, key: str) -> bool:
        """Atomically claim a key for computation; True when won.

        O_EXCL makes the race loser-visible: at most one process holds a
        live claim on a key at any instant.
        """
        path = self.claim_path(key)
        self.claims_dir.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL)
        except FileExistsError:
            return False
        try:
            os.write(fd, f'{{"pid": {os.getpid()}}}\n'.encode("utf-8"))
        finally:
            os.close(fd)
        return True

    def release_claim(self, key: str) -> None:
        """Drop a claim (ours or a stale one); missing claims are fine.

        Only *absence* is tolerated: a claim that exists but cannot be
        unlinked (permissions, read-only mount, a directory squatting on
        the path) would silently stall every peer for the full stale
        window if swallowed, so it is counted as
        ``store.claim_release_failed`` and re-raised for the caller to
        surface.
        """
        try:
            self.claim_path(key).unlink()
        except FileNotFoundError:
            pass
        except OSError:
            self._count("store.claim_release_failed")
            raise

    def claim_mtime(self, key: str) -> Optional[float]:
        """The claim file's current mtime; None if unclaimed.

        This is an opaque observation token for
        :meth:`break_claim_if_stale`, not a timestamp to compare against
        the local clock: on a shared (e.g. NFS) store the mtime is
        stamped by the *peer's* clock, so wall-clock arithmetic on it is
        exactly the skew bug the token protocol exists to avoid.
        """
        try:
            return self.claim_path(key).stat().st_mtime
        except OSError:
            return None

    def break_claim_if_stale(self, key: str, observed_mtime: float) -> bool:
        """Break a claim only if it is provably the one we watched go stale.

        Re-stats immediately before unlinking and only proceeds when the
        mtime still equals ``observed_mtime`` (the value the caller first
        recorded via :meth:`claim_mtime`).  A claim whose mtime moved was
        refreshed or re-won by a live peer in the meantime — breaking it
        would kill a healthy computation — so the call returns False and
        the caller should restart its staleness observation.
        """
        current = self.claim_mtime(key)
        if current is None:
            return False
        # Identity check on the stat token, not numeric tolerance: any
        # change at all means a different claim generation.
        if current != observed_mtime:  # thermolint: disable=TL002
            return False
        self.release_claim(key)
        return True

    def claim_age_s(self, key: str) -> Optional[float]:
        """Seconds since the claim on ``key`` was created; None if unclaimed.

        Wall-clock arithmetic against the claim's mtime is only
        meaningful when claimer and observer share a clock (same host).
        Cross-host staleness decisions must use the
        :meth:`claim_mtime` / :meth:`break_claim_if_stale` observation
        protocol instead.
        """
        try:
            mtime = self.claim_path(key).stat().st_mtime
        except OSError:
            return None
        return max(0.0, time.time() - mtime)

    # -- counters ------------------------------------------------------------

    def _count(self, name: str, amount: float = 1.0) -> None:
        if self._tel is not None:
            self._tel.count(name, amount)

    def bind_telemetry(self, telemetry: Optional[Any]) -> None:
        """Attach a telemetry handle if the store doesn't have one yet.

        The sweep runner (``run_kind``) calls this so a store constructed
        without instrumentation still mirrors its ``store.*`` counters
        into the run's registry.
        """
        from repro.telemetry import maybe

        if self._tel is None:
            self._tel = maybe(telemetry)

    # -- core operations -----------------------------------------------------

    def get(self, key: str) -> Optional[Any]:
        """Fetch one payload; ``None`` on miss *or* on a corrupt entry.

        A hit refreshes the entry's mtime (the LRU clock).  Integrity is
        re-verified on every load: a mismatching digest, a malformed
        envelope or unreadable JSON quarantines the entry and reports a
        miss — the caller recomputes, the bad bytes are preserved for
        inspection, and the sweep never crashes on cache state.
        """
        entry = self._fetch(key)
        return entry[0] if entry is not None else None

    def get_text(self, key: str) -> Optional[str]:
        """:meth:`get` one payload as its verified :func:`stable_json` text.

        The integrity check serializes the parsed payload to match it to
        its digest; this returns that very text, so a caller serving the
        bytes does not serialize the payload a second time.
        """
        entry = self._fetch(key)
        return entry[1] if entry is not None else None

    def _fetch(self, key: str) -> Optional[Tuple[Any, str]]:
        """(payload, verified text) of one entry, counted as a hit or miss."""
        path = self.path_for(key)
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError:
            self.misses += 1
            self._count("store.miss")
            return None
        except UnicodeDecodeError:
            # A bit-flip can make the bytes invalid UTF-8 before they are
            # invalid JSON; that is corruption, not a miss-by-absence.
            raw = None
        entry = self._validate(key, raw) if raw is not None else None
        if entry is None:
            self._quarantine(path, key)
            self.misses += 1
            self._count("store.miss")
            return None
        try:
            os.utime(path)  # LRU recency
        except OSError:  # pragma: no cover - entry raced away
            pass
        self.hits += 1
        self._count("store.hit")
        return entry

    def _validate(self, key: str, raw: str) -> Optional[Tuple[Any, str]]:
        """Parse + integrity-check one envelope: the payload and its
        :func:`stable_json` text, or None when corrupt.

        The digest is checked against the payload as parsed and serialized
        again, never against the raw bytes on disk, and that serialization
        is the text returned.
        """
        try:
            envelope = json.loads(raw)
        except ValueError:
            return None
        if not isinstance(envelope, dict):
            return None
        if envelope.get("schema") != STORE_SCHEMA:
            return None
        if envelope.get("key") != key:
            return None
        if "payload" not in envelope or "payload_digest" not in envelope:
            return None
        payload = envelope["payload"]
        if payload is None:  # get's None means a miss: null is not servable
            return None
        text = stable_json(payload)
        if text_digest(text) != envelope["payload_digest"]:
            return None
        return payload, text

    def _quarantine(self, path: Path, key: str) -> None:
        """Move a failed entry aside and count it."""
        self.corrupt += 1
        self._count("store.corrupt")
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, self.quarantine_dir / path.name)
        except OSError:
            # Last resort: a corrupt entry we cannot move must not be
            # served again, so drop it.
            try:
                path.unlink()
            except OSError:  # pragma: no cover - nothing left to do
                pass

    def load(self, key: str, decode: Callable[[Any], Any]) -> Optional[Any]:
        """:meth:`get` one payload and ``decode`` it; None on a miss.

        An intact entry the codec refuses is :meth:`reject`-ed, so the
        caller recomputes instead of being served it again.
        """
        payload = self.get(key)
        if payload is None:
            return None
        try:
            return decode(payload)
        except Exception:
            self.reject(key)
            return None

    def save(
        self,
        key: str,
        value: Any,
        encode: Optional[Callable[[Any], Any]] = None,
        kind: str = "",
    ) -> None:
        """:meth:`put` ``encode(value)`` (or ``value``), never raising.

        Persisting is an optimization: a failing encode or write (disk
        full, permission lost mid-run) is counted as ``store.put_failed``
        instead of raised, so cache trouble costs recomputation later,
        never the caller's run.
        """
        try:
            self.put(key, value if encode is None else encode(value), kind=kind)
        except Exception:
            self._count("store.put_failed")

    def reject(self, key: str) -> None:
        """Quarantine an entry whose decoded *meaning* a caller refused.

        The integrity digest only proves the bytes are what was written;
        if a codec still cannot reconstruct a result from them (a schema
        drift that escaped the version salt), the entry is as useless as
        a corrupt one and is retired the same way.
        """
        path = self.path_for(key)
        if path.exists():
            self._quarantine(path, key)

    def put(self, key: str, payload: Any, kind: str = "") -> Path:
        """Persist one payload under its content key, atomically.

        Re-putting an existing key overwrites it (the content address
        guarantees the payload is equivalent, and overwriting self-heals
        any quarantined or evicted entry).

        The payload is serialized once: its text is both digested and
        spliced into the envelope, which makes the document
        byte-identical to ``stable_json(envelope) + "\n"`` (the envelope
        keys sort as key < kind < payload < payload_digest < schema).
        """
        path = self.path_for(key)
        text = stable_json(payload)
        document = (
            f'{{"key":{stable_json(key)},"kind":{stable_json(kind)},'
            f'"payload":{text},"payload_digest":{stable_json(text_digest(text))},'
            f'"schema":{stable_json(STORE_SCHEMA)}}}\n'
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            mode="w",
            encoding="utf-8",
            dir=path.parent,
            prefix=f".{key[:8]}.",
            suffix=".tmp",
            delete=False,
        )
        try:
            with handle:
                handle.write(document)
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:  # pragma: no cover - already renamed/removed
                pass
            raise
        self.puts += 1
        self._count("store.put")
        if self._approx_bytes is not None:
            self._approx_bytes += len(document.encode("utf-8"))
        else:
            self._approx_bytes = self._scan_bytes()
        if self._approx_bytes > self.max_bytes:
            self.gc()
        return path

    # -- maintenance ---------------------------------------------------------

    def _iter_entries(self) -> List[Path]:
        if not self.objects_dir.is_dir():
            return []
        return sorted(self.objects_dir.glob("*/*.json"))

    def _scan_bytes(self) -> int:
        total = 0
        for path in self._iter_entries():
            try:
                total += path.stat().st_size
            except OSError:  # pragma: no cover - entry raced away
                pass
        return total

    def gc(self, max_bytes: Optional[int] = None) -> int:
        """Evict least-recently-used entries until the store fits the cap.

        Returns the number of entries evicted.
        """
        cap = max_bytes if max_bytes is not None else self.max_bytes
        if cap <= 0:
            raise StoreError(f"gc cap must be positive, got {cap}")
        entries = []
        total = 0
        for path in self._iter_entries():
            try:
                stat = path.stat()
            except OSError:  # pragma: no cover - entry raced away
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        evicted = 0
        entries.sort()  # oldest mtime (least recently used) first
        for _mtime, size, path in entries:
            if total <= cap:
                break
            try:
                path.unlink()
            except OSError:  # pragma: no cover - entry raced away
                continue
            total -= size
            evicted += 1
            self.evictions += 1
            self._count("store.evict")
        self._approx_bytes = total
        return evicted

    def verify(self, quarantine: bool = True) -> VerifyReport:
        """Integrity-check every entry; optionally quarantine failures."""
        report = VerifyReport()
        for path in self._iter_entries():
            key = path.stem
            report.checked += 1
            try:
                self._check_key(key)
                raw = path.read_text(encoding="utf-8")
            except (StoreError, OSError, UnicodeDecodeError):
                entry = None
            else:
                entry = self._validate(key, raw)
            if entry is None:
                report.corrupt += 1
                report.quarantined_keys.append(key)
                if quarantine:
                    self._quarantine(path, key)
            else:
                report.ok += 1
        return report

    def stats(self) -> StoreStats:
        """Exact inventory (scans the directory)."""
        entries = self._iter_entries()
        total = 0
        for path in entries:
            try:
                total += path.stat().st_size
            except OSError:  # pragma: no cover - entry raced away
                pass
        self._approx_bytes = total
        quarantined = (
            len(list(self.quarantine_dir.glob("*.json")))
            if self.quarantine_dir.is_dir()
            else 0
        )
        return StoreStats(
            root=str(self.root),
            entries=len(entries),
            total_bytes=total,
            max_bytes=self.max_bytes,
            quarantined=quarantined,
        )
