"""Protocol conformance for the pluggable execution backends.

Every backend (serial, process, shared-store) is driven two ways:

* **through the sweep runner** (``run_kind(..., backend=...)``),
  proving retries, deadlines, blame attribution and manifests really are
  backend-agnostic — the same knobs produce the same outcomes on every
  fabric; and
* **directly against the protocol** (manual ``submit`` / ``progress`` /
  ``cancel`` calls), pinning the ordering and buffering contracts a new
  backend must honor.

The shared-store backend additionally gets claim-semantics coverage:
peer-result adoption, stale-claim takeover, and no-leaked-claims after
worker failures — all single-threaded and deterministic, because the
"peer" is the test itself manipulating the claim files.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.errors import SimulationError
from repro.simulation.backends import (
    BACKEND_NAMES,
    ProcessPoolBackend,
    SerialBackend,
    SharedStoreBackend,
    reap_executor,
    resolve_backend,
    resolve_backend_name,
)
from repro.simulation.resilience import MANIFEST_SCHEMA, run_kind
from repro.store import ResultStore, config_key
from tests.sweep_kinds import plain_kind

# ---------------------------------------------------------------------------
# Module-level workers (must pickle under any start method)
# ---------------------------------------------------------------------------


def _square(x: int) -> int:
    return x * x


def _raise_if_negative(x: int) -> int:
    if x < 0:
        raise ValueError(f"task rejects negative input {x}")
    return x


def _exit_if_negative(x: int) -> int:
    if x < 0:
        os._exit(23)  # simulates a worker crash (no exception, no cleanup)
    return x


def _hang_if_negative(x: int) -> int:
    if x < 0:
        time.sleep(300.0)
    return x


def _slow_square(x: int) -> int:
    time.sleep(0.2)
    return x * x


def _identity(payload: object) -> object:
    return payload


def _task_key(task: int) -> str:
    return config_key("backend_conformance", {"task": task})


def _conformance_store(tmp_path) -> ResultStore:
    return ResultStore(root=tmp_path / "conformance-store")


def _make_backend(name, tasks, worker, tmp_path, **shared_kwargs):
    """One backend of each flavor over the same task list."""
    if name == "serial":
        return SerialBackend(tasks, worker)
    if name == "process":
        return ProcessPoolBackend(tasks, worker, workers=2)
    return SharedStoreBackend(
        tasks,
        worker,
        keys=[_task_key(task) for task in tasks],
        store=_conformance_store(tmp_path),
        encode=_identity,
        decode=_identity,
        kind="backend_conformance",
        **shared_kwargs,
    )


def _run(backend, tasks, worker, tmp_path, **knobs):
    """Drive a ready backend through ``run_kind`` (a shared-store backend
    brings its conformance store, keyed the same way)."""
    return run_kind(
        plain_kind(worker, key=_task_key), tasks, backend=backend, **knobs
    )


# ---------------------------------------------------------------------------
# Conformance through the sweep runner
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", BACKEND_NAMES)
def test_backend_runs_a_healthy_sweep(name, tmp_path):
    tasks = [0, 1, 2, 3, 4, 5]
    backend = _make_backend(name, tasks, _square, tmp_path)
    report = _run(backend, tasks, _square, tmp_path)
    assert report.backend == name
    assert report.results() == [x * x for x in tasks]
    assert [e.index for e in report.envelopes] == list(range(len(tasks)))
    assert report.manifest()["schema"] == MANIFEST_SCHEMA
    assert report.manifest()["backend"] == name


@pytest.mark.parametrize("name", BACKEND_NAMES)
def test_retry_budget_is_isolated_per_task(name, tmp_path):
    """One task exhausting its budget must not steal attempts from others."""
    tasks = [-1, 3, -2, 4]
    backend = _make_backend(name, tasks, _raise_if_negative, tmp_path)
    report = _run(backend, tasks, _raise_if_negative, tmp_path, retries=2)
    failed = {e.index: e for e in report.failed}
    assert set(failed) == {0, 2}
    for envelope in failed.values():
        assert envelope.attempts == 3  # 1 try + 2 retries, its own budget
        assert envelope.error_type == "ValueError"
        assert envelope.traceback_text  # worker-side traceback captured
    ok = {e.index: e for e in report.envelopes if e.ok}
    assert {i: e.result for i, e in ok.items()} == {1: 3, 3: 4}
    assert all(e.attempts == 1 for e in ok.values())
    assert report.retries == 4  # 2 retries for each of the 2 failing tasks


@pytest.mark.parametrize("name", BACKEND_NAMES)
def test_worker_failure_mid_sweep_per_backend(name, tmp_path):
    """The unified reclaim path (satellite: one ``reap_executor`` helper)
    survives a dying worker on every backend.

    The process backend gets a real worker-process kill (``os._exit``);
    the in-process backends get the strongest equivalent that doesn't
    take the test runner down with it — a raising worker — plus, for
    shared-store, the claim-hygiene assertion that a failed attempt
    never leaks its claim file.
    """
    tasks = [1, -1, 2]
    if name == "process":
        backend = _make_backend(name, tasks, _exit_if_negative, tmp_path)
        report = _run(backend, tasks, _exit_if_negative, tmp_path, retries=0)
        assert report.pool_breaks >= 1
        blamed = {e.index: e for e in report.failed}
        assert set(blamed) == {1}
        assert blamed[1].error_type == "BrokenProcessPool"
    else:
        backend = _make_backend(name, tasks, _raise_if_negative, tmp_path)
        report = _run(backend, tasks, _raise_if_negative, tmp_path, retries=0)
        assert {e.index for e in report.failed} == {1}
    ok = {e.index: e.result for e in report.envelopes if e.ok}
    assert ok == {0: 1, 2: 2}
    if name == "shared-store":
        claims = _conformance_store(tmp_path).claims_dir
        leaked = list(claims.glob("*.claim")) if claims.is_dir() else []
        assert leaked == [], "failed attempts must release their claims"


def test_deadline_expires_hung_process_worker(tmp_path):
    tasks = [-1, 5]
    backend = _make_backend("process", tasks, _hang_if_negative, tmp_path)
    report = _run(
        backend, tasks, _hang_if_negative, tmp_path, retries=0, timeout_s=0.5
    )
    assert report.timeouts == 1
    timed_out = {e.index: e for e in report.failed}
    assert set(timed_out) == {0}
    assert timed_out[0].status == "timeout"
    assert report.results()[1] == 5


def test_deadline_expires_silent_shared_store_peer(tmp_path):
    """A ticket waiting on a peer that never delivers times out like any
    other task — the deadline applies to peer-waits too."""
    store = _conformance_store(tmp_path)
    key = _task_key(9)
    backend = SharedStoreBackend(
        [9], _square, keys=[key], store=store,
        encode=_identity, decode=_identity,
        stale_claim_s=3600.0,  # the claim must stay "fresh" forever
    )
    assert store.try_claim(key)  # the silent peer
    report = _run(backend, [9], _square, tmp_path, retries=0, timeout_s=0.4)
    assert report.timeouts == 1
    assert report.failed[0].status == "timeout"


def test_serial_backend_does_not_enforce_deadlines(tmp_path):
    """The serial path computes synchronously and reports nothing in
    flight, preserving the long-standing no-deadline contract there."""
    tasks = [3]
    backend = _make_backend("serial", tasks, _slow_square, tmp_path)
    report = _run(
        backend, tasks, _slow_square, tmp_path, retries=0, timeout_s=0.05
    )
    assert report.timeouts == 0
    assert report.results() == [9]


def test_zero_worker_process_request_resolves_to_serial():
    """``workers=0`` has always meant in-process execution; the resolved
    backend (and the manifest) must record what actually ran."""
    resolved = resolve_backend("process", [1, 2], plain_kind(_square), workers=0)
    assert resolved.name == "serial"
    report = run_kind(plain_kind(_square), [1, 2], workers=0, backend="process")
    assert report.backend == "serial"
    assert report.results() == [1, 4]


# ---------------------------------------------------------------------------
# Direct protocol drives: ordering, buffering, cancel semantics
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", BACKEND_NAMES)
def test_progress_only_reports_submitted_tickets(name, tmp_path):
    tasks = [2, 3, 4]
    backend = _make_backend(name, tasks, _square, tmp_path)
    try:
        backend.submit(0, 1)
        backend.submit(2, 1)
        seen = {}
        deadline = time.monotonic() + 30.0
        while len(seen) < 2 and time.monotonic() < deadline:
            for completion in backend.progress(0.05).completions:
                seen[(completion.index, completion.attempt)] = completion
        assert set(seen) == {(0, 1), (2, 1)}
        assert seen[(0, 1)].envelope.result == 4
        assert seen[(2, 1)].envelope.result == 16
        assert backend.cancel() == []  # nothing left in flight
    finally:
        backend.shutdown()


@pytest.mark.parametrize("name", ["serial", "shared-store"])
def test_cancel_returns_queued_tickets(name, tmp_path):
    """Tickets accepted but not yet computed come back from cancel, and
    the backend accepts fresh submits afterwards."""
    tasks = [5, 6]
    backend = _make_backend(name, tasks, _square, tmp_path)
    backend.submit(0, 1)
    backend.submit(1, 2)
    assert sorted(backend.cancel()) == [(0, 1), (1, 2)]
    backend.submit(1, 1)
    completions = backend.progress(0.05).completions
    assert [(c.index, c.envelope.result) for c in completions] == [(1, 36)]
    backend.shutdown()


def test_process_cancel_reaps_hung_workers_and_respawns(tmp_path):
    tasks = [-1, -2, 7]
    backend = _make_backend("process", tasks, _hang_if_negative, tmp_path)
    backend.submit(0, 1)
    backend.submit(1, 1)
    time.sleep(0.3)  # let the workers actually start hanging
    started = time.monotonic()
    unfinished = backend.cancel()
    assert time.monotonic() - started < 30.0, "cancel must reclaim hung workers"
    assert sorted(unfinished) == [(0, 1), (1, 1)]
    # The fabric respawns lazily: a fresh submit on the same backend works.
    backend.submit(2, 1)
    deadline = time.monotonic() + 30.0
    result = None
    while result is None and time.monotonic() < deadline:
        for completion in backend.progress(0.05).completions:
            result = completion.envelope.result
    assert result == 7
    backend.shutdown()


def test_process_cancel_buffers_completed_work(tmp_path):
    """Attempts that finished before a cancel are never discarded; the
    next progress() delivers them."""
    tasks = [4]
    backend = _make_backend("process", tasks, _square, tmp_path)
    backend.submit(0, 1)
    # Wait for the future to finish without collecting it — progress()
    # would deliver it, which is exactly what this test must not do.
    (future,) = list(backend._running)
    deadline = time.monotonic() + 30.0
    while not future.done() and time.monotonic() < deadline:
        time.sleep(0.02)
    assert future.done(), "trivial task never finished"
    assert backend.cancel() == []  # finished attempt is not "unfinished"
    buffered = backend.progress(0.0).completions
    assert [(c.index, c.envelope.result) for c in buffered] == [(0, 16)]
    backend.shutdown()


def test_reap_executor_reclaims_hung_workers():
    """The single kill helper shared by respawn, cancel and interrupt
    teardown terminates workers stuck in user code (satellite fix)."""
    executor = ProcessPoolExecutor(max_workers=2)
    executor.submit(_hang_if_negative, -1)
    executor.submit(_hang_if_negative, -2)
    deadline = time.monotonic() + 30.0
    while not executor._processes and time.monotonic() < deadline:
        time.sleep(0.01)
    processes = list(executor._processes.values())
    assert processes, "workers never spawned"
    started = time.monotonic()
    reap_executor(executor)
    assert time.monotonic() - started < 30.0
    for process in processes:
        assert not process.is_alive()


# ---------------------------------------------------------------------------
# Shared-store claim semantics
# ---------------------------------------------------------------------------


def test_shared_store_adopts_peer_results(tmp_path):
    """A ticket whose key a peer claims waits, then completes from the
    peer's published result without computing anything locally."""
    store = ResultStore(root=tmp_path)
    key = _task_key(0)
    backend = SharedStoreBackend(
        [7], _square, keys=[key], store=store,
        encode=_identity, decode=_identity,
    )
    assert store.try_claim(key)  # the test plays the peer
    backend.submit(0, 1)
    first = backend.progress(0.01)
    assert first.completions == []
    assert [(f.index, f.attempt) for f in first.in_flight] == [(0, 1)]
    # Peer publishes its result and releases the claim...
    store.put(key, 49, kind="backend_conformance")
    store.release_claim(key)
    second = backend.progress(0.01)
    assert len(second.completions) == 1
    envelope = second.completions[0].envelope
    assert envelope.ok and envelope.result == 49
    assert envelope.cached and envelope.attempts == 0
    backend.shutdown()


def test_shared_store_recovers_from_stale_claim(tmp_path):
    """A claim left behind by a dead peer (old mtime, no result) is
    broken after ``stale_claim_s`` and the task recomputed locally."""
    store = _conformance_store(tmp_path)
    key = _task_key(6)
    assert store.try_claim(key)
    ancient = time.time() - 3600.0
    os.utime(store.claim_path(key), (ancient, ancient))
    backend = SharedStoreBackend(
        [6], _square, keys=[key], store=store,
        encode=_identity, decode=_identity, stale_claim_s=1.0,
    )
    report = _run(backend, [6], _square, tmp_path, retries=2, timeout_s=30.0)
    assert report.results() == [36]
    assert not report.failed
    assert report.envelopes[0].cached is False, "recomputed, not adopted"
    assert store.claim_age_s(key) is None, "broken claim must be released"
    assert store.get(key) == 36, "the recomputed result is published"


def test_shared_store_claim_gone_without_result_recomputes(tmp_path):
    """Claim released but no result behind it (peer crashed between
    release and put): the waiting ticket recomputes instead of failing."""
    store = ResultStore(root=tmp_path)
    key = _task_key(0)
    backend = SharedStoreBackend(
        [8], _square, keys=[key], store=store,
        encode=_identity, decode=_identity,
    )
    assert store.try_claim(key)
    backend.submit(0, 1)
    assert backend.progress(0.01).completions == []  # parked behind peer
    store.release_claim(key)  # ...but the peer never published
    deadline = time.monotonic() + 10.0
    completions = []
    while not completions and time.monotonic() < deadline:
        completions = backend.progress(0.01).completions
    assert completions[0].envelope.result == 64
    assert completions[0].envelope.cached is False
    backend.shutdown()


def test_shared_store_skewed_clock_does_not_break_live_claim(tmp_path):
    """Peer clock skew must not kill a live claim (satellite fix).

    The claim's mtime is hours in the past (as a skewed NFS peer's clock
    would stamp it), but *we* have only just observed it — staleness is
    measured on our own monotonic clock from first observation, so the
    claim survives every poll inside the stale window.  The pre-fix
    ``time.time() - st_mtime`` aging broke it on the first poll.
    """
    store = ResultStore(root=tmp_path)
    key = _task_key(0)
    assert store.try_claim(key)
    skewed = time.time() - 7200.0  # peer clock 2 h behind ours
    os.utime(store.claim_path(key), (skewed, skewed))
    backend = SharedStoreBackend(
        [5], _square, keys=[key], store=store,
        encode=_identity, decode=_identity, stale_claim_s=30.0,
    )
    backend.submit(0, 1)
    for _ in range(5):
        progress = backend.progress(0.01)
        assert progress.completions == []
        assert [(f.index, f.attempt) for f in progress.in_flight] == [(0, 1)]
        assert store.claim_path(key).exists(), "live claim was broken"
    # The live peer finishes normally and the waiting ticket adopts it.
    store.put(key, 25, kind="backend_conformance")
    store.release_claim(key)
    adopted = backend.progress(0.01)
    assert len(adopted.completions) == 1
    assert adopted.completions[0].envelope.cached
    backend.shutdown()


def test_shared_store_refreshed_claim_restarts_staleness_clock(tmp_path):
    """An mtime change marks a new claim generation: the local staleness
    observation restarts instead of accumulating across generations."""
    store = ResultStore(root=tmp_path)
    key = _task_key(0)
    assert store.try_claim(key)
    backend = SharedStoreBackend(
        [5], _square, keys=[key], store=store,
        encode=_identity, decode=_identity, stale_claim_s=0.15,
    )
    backend.submit(0, 1)
    assert backend.progress(0.01).completions == []  # parked, observing
    time.sleep(0.1)
    os.utime(store.claim_path(key))  # peer heartbeats its claim
    assert backend.progress(0.01).completions == []
    time.sleep(0.1)
    # 0.2 s total wall time > stale_claim_s, but only ~0.1 s since the
    # refresh — the claim must survive this poll.
    backend.progress(0.01)
    assert store.claim_path(key).exists(), "refreshed claim was broken"
    backend.shutdown()


def test_break_claim_if_stale_requires_unchanged_mtime(tmp_path):
    """The store re-stats immediately before unlinking: a claim whose
    mtime moved since first observation is someone else's and survives."""
    store = ResultStore(root=tmp_path)
    key = _task_key(0)
    assert store.try_claim(key)
    observed = store.claim_mtime(key)
    assert observed is not None
    # A live peer re-wins or refreshes the claim between our observation
    # and our break attempt...
    later = observed + 5.0
    os.utime(store.claim_path(key), (later, later))
    assert store.break_claim_if_stale(key, observed) is False
    assert store.claim_mtime(key) is not None, "fresh claim must survive"
    # ...but an unchanged claim is provably the one we watched go stale.
    assert store.break_claim_if_stale(key, later) is True
    assert store.claim_mtime(key) is None
    # And a vanished claim is a no-op, not an error.
    assert store.break_claim_if_stale(key, later) is False


def test_run_kind_shared_store_persists_exactly_once(tmp_path):
    """``persists_results`` backends publish inside the transport; the
    runner must not put a second copy."""
    store = ResultStore(root=tmp_path)
    tasks = [2, 3]
    report = run_kind(
        plain_kind(_square), tasks, store=store, backend="shared-store"
    )
    assert report.results() == [4, 9]
    assert report.backend == "shared-store"
    assert store.puts == len(tasks), "exactly one put per computed miss"
    assert store.misses == len(tasks) and store.hits == 0


def test_ready_backend_with_partial_store_hits_runs_the_misses(tmp_path):
    """A ready backend is built over the caller's whole task list: when
    the store serves some tasks, each miss must still run its own task
    (and persist its own result)."""
    store = ResultStore(root=tmp_path)
    kind = plain_kind(_square)
    run_kind(kind, [3], store=store, backend="serial")  # task 3 is now a hit
    tasks = [2, 3, 4]
    report = run_kind(
        kind, tasks, store=store, backend=SerialBackend(tasks, _square)
    )
    assert report.results() == [4, 9, 16]
    assert [e.cached for e in report.envelopes] == [False, True, False]
    assert store.load(kind.key(4), kind.decode) == 16


def test_ready_shared_store_backend_brings_its_own_store(tmp_path, monkeypatch):
    """Without ``store=``, a ready shared-store backend's own store is the
    one the runner looks hits up in and reports keys of; the default
    store is never opened."""
    default_dir = tmp_path / "default-store"
    default_dir.mkdir()
    monkeypatch.setenv("REPRO_STORE_DIR", str(default_dir))
    tasks = [2, 3, 4]
    backend = _make_backend("shared-store", tasks, _square, tmp_path)
    backend.store.save(_task_key(3), 9)
    report = run_kind(plain_kind(_square, key=_task_key), tasks, backend=backend)
    assert report.results() == [4, 9, 16]
    assert [e.cached for e in report.envelopes] == [False, True, False]
    assert (report.store_hits, report.store_misses) == (1, 2)
    assert report.task_keys == [_task_key(task) for task in tasks]
    assert list(default_dir.iterdir()) == []


# ---------------------------------------------------------------------------
# Resolution: names, env var, guard rails
# ---------------------------------------------------------------------------


def test_resolve_backend_name_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_SWEEP_BACKEND", raising=False)
    assert resolve_backend_name(None) == "process"
    assert resolve_backend_name("serial") == "serial"
    monkeypatch.setenv("REPRO_SWEEP_BACKEND", "shared-store")
    assert resolve_backend_name(None) == "shared-store"
    assert resolve_backend_name("serial") == "serial"  # explicit wins
    monkeypatch.setenv("REPRO_SWEEP_BACKEND", "")
    assert resolve_backend_name(None) == "process"


def test_resolve_backend_name_rejects_unknown(monkeypatch):
    with pytest.raises(SimulationError, match="unknown execution backend"):
        resolve_backend_name("quantum")
    monkeypatch.setenv("REPRO_SWEEP_BACKEND", "quantum")
    with pytest.raises(SimulationError, match="REPRO_SWEEP_BACKEND"):
        resolve_backend_name(None)


def test_shared_store_needs_store_and_codec():
    with pytest.raises(SimulationError, match="shared-store"):
        resolve_backend("shared-store", [1, 2], plain_kind(_square))
