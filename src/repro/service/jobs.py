"""Job lifecycle for the sweep service: queueing, dedup, drain.

The manager is the synchronous heart the async HTTP layer talks to.  It
owns one worker thread per *backend name* (serial jobs queue behind
serial jobs, process-pool jobs behind process-pool jobs), and every job
runs its config's sweep kind through
:func:`repro.simulation.resilience.run_kind` over the shared
:class:`repro.store.ResultStore` — which is where all the
multi-tenant economics come from:

* **Dedup across tenants.**  A submission's identity is its canonical
  config key (:func:`repro.service.schemas.job_config_key`).  A second
  tenant posting the same config while the first job is queued, running
  or done gets the *same* job back (``service.dedup_hits``), so a hot
  config posted by N clients costs one computation.  Only a *failed* job
  is re-runnable: resubmitting its config starts a fresh attempt.
* **Restart-free resume.**  Every completed task is persisted through
  ``on_result`` the moment it lands, so a drained or killed service
  loses only in-flight attempts; resubmitting the job after restart
  replays the finished tasks as store hits with zero recomputation.
* **Byte-identity with the CLI.**  The per-task keys and codec are the
  same ones ``repro sweep workload`` uses, and the finished job document
  is the same :data:`repro.simulation.sweep.RESULTS_SCHEMA` document —
  fetched via ``/v1/results/<key>`` it is byte-for-byte what
  ``--results-out`` writes.

Graceful drain: :meth:`JobManager.drain` stops intake (submissions get a
503), asks running jobs to stop at their next completed task (the
``on_result`` hook raises :class:`JobDrained`, which unwinds through the
resilience loop and shuts the backend down), and joins the workers.
Tasks that completed before the drain are already in the store.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ServiceError
from repro.service.schemas import (
    EVENT_SCHEMA,
    JOB_SCHEMA,
    job_config_key,
    parse_job_request,
)

__all__ = [
    "JOB_QUEUED",
    "JOB_RUNNING",
    "JOB_DONE",
    "JOB_FAILED",
    "SERVICE_RESULTS_KIND",
    "Job",
    "JobDrained",
    "JobManager",
]

JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"

#: Kind tag on the assembled results document persisted under the job's
#: config key (informational; the key namespace is what separates it
#: from per-task entries).
SERVICE_RESULTS_KIND = "service.sweep_results/1"

TASK_PENDING = "pending"
TASK_DONE = "done"
TASK_CACHED = "cached"
TASK_FAILED = "failed"


class JobDrained(Exception):
    """Control-flow signal: the manager asked a running job to stop.

    Raised from the ``on_result`` hook so it unwinds through the
    resilience loop (whose ``finally`` shuts the backend down) after the
    just-landed task has been persisted — nothing computed is lost.
    """


class Job:
    """One submitted sweep and its observable lifecycle."""

    def __init__(
        self,
        job_id: str,
        key: str,
        config: Any,
        tasks: List[Any],
        task_keys: List[str],
        task_labels: List[str],
        backend: str,
    ) -> None:
        self.id = job_id
        self.key = key
        self.config = config
        self.tasks: Optional[List[Any]] = tasks  # dropped when the job ends
        self.task_keys = task_keys
        self.task_labels = task_labels
        self.backend = backend
        self.state = JOB_QUEUED
        self.error: Optional[str] = None
        self.created_s = time.time()
        self.started_s: Optional[float] = None
        self.finished_s: Optional[float] = None
        self.task_states: List[str] = [TASK_PENDING] * len(task_keys)
        self.cached_hits = 0
        self.store_hits = 0
        self.store_misses = 0
        #: Monotonic event log consumed by the ``/events`` stream.
        self.events: List[Dict[str, Any]] = []

    @property
    def terminal(self) -> bool:
        return self.state in (JOB_DONE, JOB_FAILED)

    @property
    def done_tasks(self) -> int:
        return sum(s in (TASK_DONE, TASK_CACHED) for s in self.task_states)

    def document(self) -> Dict[str, Any]:
        """The wire form ``GET /v1/jobs/<id>`` returns."""
        config = self.config.material_config()
        config["kind"] = self.config.request_kind
        config["backend"] = self.backend
        config["retries"] = self.config.retries
        return {
            "schema": JOB_SCHEMA,
            "id": self.id,
            "key": self.key,
            "state": self.state,
            "error": self.error,
            "backend": self.backend,
            "created_s": self.created_s,
            "started_s": self.started_s,
            "finished_s": self.finished_s,
            "config": config,
            "results_key": self.key,
            "progress": {
                "total": len(self.task_keys),
                "done": self.done_tasks,
                "cached": self.cached_hits,
                "failed": self.task_states.count(TASK_FAILED),
            },
            "tasks": [
                {
                    "index": index,
                    "label": self.task_labels[index],
                    "key": self.task_keys[index],
                    "state": self.task_states[index],
                }
                for index in range(len(self.task_keys))
            ],
        }


class JobManager:
    """Thread-safe job registry + per-backend worker threads.

    Args:
        store: the shared :class:`repro.store.ResultStore` (required —
            dedup across tenants and restart-free resume both live in
            it).
        telemetry: optional :class:`repro.telemetry.Telemetry`;
            ``service.*`` counters land in its registry next to the
            ``store.*`` / ``sweep.*`` ones.
        backend: default backend name for jobs that don't pick one
            (None = ``$REPRO_SWEEP_BACKEND`` or the process pool).
        workers: default worker count forwarded to the sweep.
        retries: default per-task retry budget.
        task_timeout_s: per-task deadline forwarded to the sweep.
    """

    def __init__(
        self,
        store: Any,
        telemetry: Optional[Any] = None,
        backend: Optional[str] = None,
        workers: Optional[int] = None,
        retries: int = 1,
        task_timeout_s: Optional[float] = None,
    ) -> None:
        from repro.telemetry import maybe

        self.store = store
        self.telemetry = telemetry
        self._tel = maybe(telemetry)
        self._default_backend = backend
        self._default_workers = workers
        self._default_retries = retries
        self._task_timeout_s = task_timeout_s
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._jobs: Dict[str, Job] = {}
        self._by_key: Dict[str, str] = {}
        self._seq = 0
        self._queues: Dict[str, "queue.Queue[Optional[Job]]"] = {}
        self._threads: Dict[str, threading.Thread] = {}
        self._draining = threading.Event()
        self._workload_jobs: Dict[str, int] = {}
        store.bind_telemetry(telemetry)

    # -- submission ----------------------------------------------------------

    def _count(self, name: str, amount: float = 1.0) -> None:
        if self._tel is not None:
            self._tel.count(name, amount)

    def submit(self, payload: Any) -> Tuple[Job, bool]:
        """Validate + enqueue one submission; returns ``(job, deduped)``.

        Idempotent on the config key: an identical config whose job is
        queued, running or done returns that job (``deduped=True``).  A
        failed job does not absorb resubmissions — the new submission
        gets a fresh job (completed tasks still resume free from the
        store).
        """
        if self._draining.is_set():
            raise ServiceError("service is draining", status=503)
        config = parse_job_request(payload)
        from repro.errors import ReproError
        from repro.simulation.backends import resolve_backend_name

        key = job_config_key(config)
        try:
            backend = resolve_backend_name(
                config.backend
                if config.backend is not None
                else self._default_backend
            )
            with self._cond:
                existing = self._live_job(key)
            # Build tasks only for a config that does not dedup.
            tasks = [] if existing is not None else config.build_tasks()
        except ReproError as exc:
            # Unknown names, invalid fault or fleet-topology plans.
            raise ServiceError(str(exc)) from exc
        if existing is not None:
            return existing, True
        task_key = config.sweep_kind().key
        task_keys = [task_key(task) for task in tasks]
        task_labels = [task.label() for task in tasks]
        with self._cond:
            existing = self._live_job(key)  # a concurrent twin may have won
            if existing is not None:
                return existing, True
            self._seq += 1
            job = Job(
                job_id=f"job-{self._seq:06d}-{key[:8]}",
                key=key,
                config=config,
                tasks=tasks,
                task_keys=task_keys,
                task_labels=task_labels,
                backend=backend,
            )
            self._jobs[job.id] = job
            self._by_key[key] = job.id
            for name in set(config.workloads):
                self._workload_jobs[name] = self._workload_jobs.get(name, 0) + 1
            self._append_event(job, "job_queued")
            self._count("service.jobs.submitted")
            self._ensure_worker(backend).put(job)
        return job, False

    def _live_job(self, key: str) -> Optional[Job]:
        """The unfailed job of ``key``, counted as a dedup hit (lock held)."""
        job = self._jobs.get(self._by_key.get(key, ""))
        if job is None or job.state == JOB_FAILED:
            return None
        self._count("service.dedup_hits")
        return job

    def _ensure_worker(self, backend: str) -> "queue.Queue[Optional[Job]]":
        """The submission queue for ``backend``, starting its thread."""
        q = self._queues.get(backend)
        if q is None:
            q = queue.Queue()
            self._queues[backend] = q
            thread = threading.Thread(
                target=self._worker_loop,
                args=(backend, q),
                name=f"repro-service-{backend}",
                daemon=True,
            )
            self._threads[backend] = thread
            thread.start()
        return q

    # -- execution -----------------------------------------------------------

    def _worker_loop(
        self, backend: str, q: "queue.Queue[Optional[Job]]"
    ) -> None:
        while True:
            job = q.get()
            if job is None:  # drain sentinel
                return
            if self._draining.is_set():
                self._finish(job, JOB_FAILED, "drained before start")
                continue
            try:
                self._run_job(job)
            except Exception as exc:  # pragma: no cover - defensive
                self._finish(job, JOB_FAILED, f"internal error: {exc!r}")

    def _run_job(self, job: Job) -> None:
        from repro.simulation.resilience import run_kind

        kind = job.config.sweep_kind()
        with self._cond:
            job.state = JOB_RUNNING
            job.started_s = time.time()
            self._append_event(job, "job_running")

        def on_result(envelope: Any) -> None:
            with self._cond:
                state = TASK_CACHED if envelope.cached else TASK_DONE
                job.task_states[envelope.index] = state
                if envelope.cached:
                    job.cached_hits += 1
                self._append_event(
                    job,
                    "task_done",
                    index=envelope.index,
                    label=job.task_labels[envelope.index],
                    key=job.task_keys[envelope.index],
                    cached=bool(envelope.cached),
                )
            if self._draining.is_set():
                # The landed task is already persisted; stop here so the
                # backend unwinds and the process can exit promptly.
                raise JobDrained(job.id)

        try:
            report = run_kind(
                kind,
                job.tasks,
                store=self.store,
                workers=(
                    job.config.workers
                    if job.config.workers is not None
                    else self._default_workers
                ),
                retries=job.config.retries,
                timeout_s=self._task_timeout_s,
                telemetry=self.telemetry,
                backend=job.backend,
                on_result=on_result,
            )
        except JobDrained:
            self._count("service.jobs.drained")
            self._finish(job, JOB_FAILED, "drained")
            return
        except Exception as exc:
            self._finish(job, JOB_FAILED, f"{type(exc).__name__}: {exc}")
            return
        failed = report.failed
        with self._cond:
            job.store_hits = report.store_hits
            job.store_misses = report.store_misses
            for envelope in failed:
                job.task_states[envelope.index] = TASK_FAILED
        if failed:
            first = failed[0]
            self._finish(
                job,
                JOB_FAILED,
                f"{len(failed)} task(s) failed "
                f"(first: {first.error_type}: {first.error_message})",
            )
            return
        self._put_document(job.key, kind.document(report.results()))
        self._finish(job, JOB_DONE, None)

    def _put_document(self, key: str, document: Any) -> Any:
        """Persist a job's results document and return it; a failing put
        degrades the fetch path, never the job (the per-task entries
        rebuild the document)."""
        self.store.save(key, document, kind=SERVICE_RESULTS_KIND)
        return document

    def _finish(self, job: Job, state: str, error: Optional[str]) -> None:
        with self._cond:
            job.state = state
            job.error = error
            job.finished_s = time.time()
            job.tasks = None  # a finished job keeps only keys and labels
            done = state == JOB_DONE
            self._append_event(job, "job_done" if done else "job_failed", error=error)
            self._count("service.jobs.completed" if done else "service.jobs.failed")

    def _append_event(self, job: Job, kind: str, **fields: Any) -> None:
        """Append one event (caller holds the lock) and wake waiters."""
        event: Dict[str, Any] = {
            "schema": EVENT_SCHEMA,
            "seq": len(job.events),
            "job": job.id,
            "event": kind,
            "state": job.state,
            "time_s": time.time(),
        }
        event.update(fields)
        job.events.append(event)
        self._cond.notify_all()

    # -- observation ---------------------------------------------------------

    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(f"no such job: {job_id}", status=404)
        return job

    def jobs(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    def events_since(self, job_id: str, cursor: int) -> Tuple[List[Dict[str, Any]], bool]:
        """Events after ``cursor`` plus whether the job is terminal."""
        job = self.get(job_id)
        with self._lock:
            return list(job.events[cursor:]), job.terminal

    def wait_for_job(self, job_id: str, timeout_s: float = 60.0) -> Job:
        """Block until the job is terminal (test/CLI convenience)."""
        job = self.get(job_id)
        deadline = time.monotonic() + timeout_s
        with self._cond:
            while not job.terminal:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ServiceError(
                        f"job {job_id} still {job.state} after {timeout_s} s",
                        status=504,
                    )
                self._cond.wait(remaining)
        return job

    def results_bytes(self, key: str) -> bytes:
        """The stored payload under ``key`` as canonical JSON bytes.

        For a job's config key this is the :data:`RESULTS_SCHEMA`
        document, byte-identical to ``repro sweep workload
        --results-out`` for the same config.  A stored document is served
        as the text the store's integrity check verified, not serialized
        again.  If the assembled document was evicted but every per-task
        entry survives, it is rebuilt from them (and re-persisted)
        transparently.
        """
        from repro.errors import StoreError
        from repro.store import stable_json

        try:
            self.store._check_key(key)
        except StoreError as exc:
            raise ServiceError(str(exc), status=400) from exc
        text = self.store.get_text(key)
        if text is None:
            payload = self._rebuild_results(key)
            if payload is None:
                raise ServiceError(f"no result under key {key}", status=404)
            text = stable_json(payload)
        self._count("service.results_served")
        return (text + "\n").encode("utf-8")

    def _rebuild_results(self, key: str) -> Optional[Any]:
        """Reassemble a job's results document from its per-task entries."""
        with self._lock:
            job = self._jobs.get(self._by_key.get(key, ""))
        if job is None or job.state != JOB_DONE:
            return None
        parts = [self.store.get(task_key) for task_key in job.task_keys]
        if any(part is None for part in parts):
            return None
        kind = job.config.sweep_kind()
        return self._put_document(key, kind.document([kind.decode(p) for p in parts]))

    def metrics_text(self, labels: Optional[Dict[str, str]] = None) -> str:
        """The Prometheus exposition for ``GET /metrics``.

        Registry metrics (``service.*``, ``store.*``, ``sweep.*``) carry
        the optional constant ``labels``; per-workload job counts are
        appended as properly-escaped labelled samples.
        """
        from repro.reporting.telemetry_export import (
            format_sample,
            registry_to_prometheus,
        )

        if self._tel is None:
            return ""
        text = registry_to_prometheus(self._tel.registry, labels=labels)
        with self._lock:
            counts = sorted(self._workload_jobs.items())
        if counts:
            name = "repro_service_jobs_by_workload_total"
            lines = [
                f"# HELP {name} jobs submitted per workload",
                f"# TYPE {name} counter",
            ]
            for workload, count in counts:
                sample_labels = dict(labels or {})
                sample_labels["workload"] = workload
                lines.append(format_sample(name, sample_labels, float(count)))
            text += "\n".join(lines) + "\n"
        return text

    # -- drain ---------------------------------------------------------------

    def drain(self, timeout_s: float = 30.0) -> None:
        """Stop intake, stop running jobs at their next task, join workers.

        Everything completed before (and during) the drain is already in
        the store; a restarted service resumes the interrupted jobs free
        on resubmission.
        """
        self._draining.set()
        with self._lock:
            queues = list(self._queues.values())
            threads = list(self._threads.values())
        for q in queues:
            q.put(None)
        deadline = time.monotonic() + timeout_s
        for thread in threads:
            remaining = max(0.1, deadline - time.monotonic())
            thread.join(remaining)

    @property
    def draining(self) -> bool:
        return self._draining.is_set()
