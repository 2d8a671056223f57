"""Shared-store execution backend: coordination through a ResultStore.

The seed of remote execution.  Several processes pointed at the same
store directory can run the same sweep concurrently; they partition the
work dynamically through per-key *claim files* (see
``ResultStore.try_claim``) instead of a message bus:

1. For each ticket the backend first tries to **claim** the task's
   content key.  Winning the claim means *we* compute: run the worker,
   ``put`` the encoded result into the store, release the claim.
2. Losing the claim means a peer is computing.  The ticket parks in the
   waiting set; each ``progress`` call re-checks it — when the peer's
   claim disappears and the result is readable, the ticket completes
   with a ``cached`` envelope (the decoded peer result, zero attempts
   of our own).
3. A claim we have *locally observed unchanged* for ``stale_claim_s``
   (monotonic clock, anchored at our own first observation of that
   claim's mtime) with no result behind it is treated as a tombstone of
   a dead peer: the claim is broken and the ticket goes back to the
   pending queue for a fresh claim attempt.  Staleness is never derived
   from ``time.time() - mtime`` — on a shared (e.g. NFS) store the
   mtime comes from the peer's clock, and clock skew would make a live
   claim look ancient and get broken mid-compute.  The break itself
   goes through ``ResultStore.break_claim_if_stale``, which re-stats
   and refuses when the mtime moved since our observation began.

Correctness never depends on the claims: results stay content-addressed
and digest-verified, so the worst a racing or crashed peer can cause is
a duplicate computation of the same pure function — byte-identical by
the determinism contract the differential suite enforces.

Waiting tickets are reported as in-flight with the instant the wait
began, so the resilience layer's per-task deadline bounds how long a
ticket can wait on a silent peer before timing out like any other task.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from .base import (
    POLL_INTERVAL_S,
    BackendProgress,
    Completion,
    CounterHook,
    ExecutionBackend,
    InFlight,
    TaskEnvelope,
    guarded_call,
)

__all__ = ["SharedStoreBackend", "DEFAULT_STALE_CLAIM_S"]

TaskT = TypeVar("TaskT")
ResultT = TypeVar("ResultT")

#: After this many seconds an unreleased claim with no result behind it is
#: presumed orphaned by a dead peer and may be broken.  Long enough that a
#: healthy peer mid-simulation keeps its claim; short enough that a crashed
#: one delays the sweep by about a minute, not forever.  The clock is our
#: own monotonic one, started when *we* first observed the claim's current
#: mtime — never the difference between our wall clock and the peer's.
DEFAULT_STALE_CLAIM_S = 60.0


@dataclass
class _PeerWait:
    """One ticket parked behind a peer's claim.

    ``observed_mtime`` is the claim-generation token from
    ``ResultStore.claim_mtime`` and ``observed_since`` the local
    monotonic instant we first saw that token; staleness is the span the
    token has stayed unchanged under our own observation, which is
    immune to peer clock skew.
    """

    attempt: int
    wait_started: float
    observed_mtime: Optional[float]
    observed_since: float


class SharedStoreBackend(ExecutionBackend):
    """Execute attempts locally, coordinating with peers via claim files."""

    name = "shared-store"
    #: The backend itself publishes each computed result (step 1 above);
    #: the sweep runner must not persist again on top.
    persists_results = True

    def __init__(
        self,
        tasks: Sequence[TaskT],
        worker: Callable[[TaskT], ResultT],
        keys: Sequence[str],
        store: Any,
        encode: Callable[[ResultT], Any],
        decode: Callable[[Any], ResultT],
        kind: str = "",
        stale_claim_s: float = DEFAULT_STALE_CLAIM_S,
        counters: Optional[CounterHook] = None,
    ) -> None:
        super().__init__(counters)
        if len(keys) != len(tasks):
            from repro.errors import SimulationError

            raise SimulationError(
                f"shared-store backend needs one key per task, got "
                f"{len(keys)} key(s) for {len(tasks)} task(s)"
            )
        self._tasks = tasks
        self._worker = worker
        self._keys = list(keys)
        self._store = store
        self._encode = encode
        self._decode = decode
        self._kind = kind
        self._stale_claim_s = stale_claim_s
        # Every ticket can be queued at once; local compute still happens
        # one per progress() call, but peers drain the rest meanwhile.
        self.capacity = max(1, len(tasks))
        self._pending: Deque[Tuple[int, int]] = deque()
        # index -> _PeerWait for claim-lost tickets.
        self._waiting: Dict[int, _PeerWait] = {}
        # Claims this process currently holds (released on cancel).
        self._held_claims: Dict[int, str] = {}

    @property
    def store(self) -> Any:
        """The result store this backend claims and publishes in."""
        return self._store

    def submit(self, index: int, attempt: int) -> None:
        self._pending.append((index, attempt))
        self._count("sweep.backend.submits_total")

    def progress(self, timeout_s: float = POLL_INTERVAL_S) -> BackendProgress:
        progress = BackendProgress()
        self._poll_waiting(progress)
        computed = self._compute_one(progress)
        if not computed and not progress.completions and self._waiting:
            # Nothing local to do: we are purely waiting on peers.  Yield
            # briefly so the poll loop doesn't spin on claim stat calls.
            time.sleep(min(timeout_s, POLL_INTERVAL_S))
        progress.in_flight = [
            InFlight(index=index, attempt=wait.attempt, since_monotonic=wait.wait_started)
            for index, wait in self._waiting.items()
        ]
        return progress

    def _poll_waiting(self, progress: BackendProgress) -> None:
        """Re-check every peer-owned ticket for a result or a stale claim."""
        for index in list(self._waiting):
            wait = self._waiting[index]
            attempt = wait.attempt
            key = self._keys[index]
            mtime = self._store.claim_mtime(key)
            if mtime is None:
                # Peer released its claim: the result should be readable.
                result = self._store.load(key, self._decode)
                del self._waiting[index]
                if result is not None:
                    self._count("sweep.backend.peer_results_total")
                    self._count("sweep.backend.completions_total")
                    progress.completions.append(
                        Completion(
                            index=index,
                            attempt=attempt,
                            envelope=TaskEnvelope(
                                index=index, result=result, cached=True
                            ),
                        )
                    )
                else:
                    # Claim gone but no (valid) result — the peer crashed
                    # between release and put, or the entry was corrupt.
                    # Recompute ourselves.
                    self._pending.appendleft((index, attempt))
                continue
            # Claim-generation identity, not numeric closeness: any mtime
            # change means a refreshed or re-won claim.
            if (
                wait.observed_mtime is None
                or mtime != wait.observed_mtime  # thermolint: disable=TL002
            ):
                # New claim generation (or our first sighting of this
                # one): restart the staleness clock from now, on *our*
                # monotonic clock.
                wait.observed_mtime = mtime
                wait.observed_since = time.monotonic()
            elif time.monotonic() - wait.observed_since > self._stale_claim_s:
                # We watched this exact claim sit unchanged, resultless,
                # for the whole stale window: presumed dead peer.  The
                # store re-stats under us and refuses if the claim moved
                # between our stat and the unlink.
                self._count("sweep.backend.stale_claims_total")
                if self._store.break_claim_if_stale(key, wait.observed_mtime):
                    del self._waiting[index]
                    self._pending.appendleft((index, attempt))
                else:
                    # Lost the break race to a live peer; observe the new
                    # claim generation on the next poll.
                    wait.observed_mtime = None

    def _compute_one(self, progress: BackendProgress) -> bool:
        """Claim-and-compute at most one pending ticket; True if one ran."""
        while self._pending:
            index, attempt = self._pending.popleft()
            key = self._keys[index]
            if not self._store.try_claim(key):
                # A peer owns it; park the ticket and try the next one.
                now = time.monotonic()
                self._waiting[index] = _PeerWait(
                    attempt=attempt,
                    wait_started=now,
                    observed_mtime=self._store.claim_mtime(key),
                    observed_since=now,
                )
                continue
            self._held_claims[index] = key
            try:
                envelope = guarded_call(
                    self._worker, self._tasks[index], index, attempt
                )
                if envelope.ok:
                    # Publishing is an optimization for peers; losing it
                    # must not lose our own computed result.
                    self._store.save(
                        key, envelope.result, self._encode, kind=self._kind
                    )
            finally:
                del self._held_claims[index]
                try:
                    self._store.release_claim(key)
                except OSError:
                    # Counted by the store.  The result is already
                    # computed (and usually published); peers will break
                    # the leaked claim after the stale window, so don't
                    # let the release failure eat the envelope.
                    pass
            self._count("sweep.backend.completions_total")
            progress.completions.append(
                Completion(index=index, attempt=attempt, envelope=envelope)
            )
            return True
        return False

    def cancel(self) -> List[Tuple[int, int]]:
        for key in self._held_claims.values():
            try:
                self._store.release_claim(key)
            except OSError:
                # Already counted by the store; one stuck claim must not
                # leak the remaining held claims or abort the cancel.
                pass
        self._held_claims.clear()
        unfinished = list(self._pending)
        unfinished.extend(
            (index, wait.attempt) for index, wait in self._waiting.items()
        )
        self._pending.clear()
        self._waiting.clear()
        if unfinished:
            self._count("sweep.backend.cancelled_total", float(len(unfinished)))
        return unfinished

    def shutdown(self) -> None:
        self.cancel()
