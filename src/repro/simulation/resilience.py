"""Resilient sweep execution: result envelopes, retries, crash recovery.

The plain executor path (``executor.map``) has an all-or-nothing failure
mode: one raised exception in any worker aborts the whole sweep with a
pickled traceback and discards every completed point; a crashed worker
process breaks the pool for everyone.  This module wraps each sweep task
in a :class:`TaskEnvelope` so a run always produces *per-task outcomes*:

* ``ok`` — the worker returned a result;
* ``error`` — the worker raised; the envelope carries the exception type,
  message and full traceback text (captured worker-side, so it survives
  pickling);
* ``timeout`` — the task exceeded its deadline; the hung worker process
  is reclaimed by respawning the pool.

On top of the envelopes sit bounded **retries with exponential backoff**,
**per-task deadlines**, broken-fabric **recovery** (respawn, resume from
the last completed task — only unfinished tasks are resubmitted) with
**crash blame attribution** by isolated re-execution, explicit
``KeyboardInterrupt`` handling (pending work is cancelled and worker
processes shut down, no orphans), and a **failure manifest** (schema
``repro.sweep_manifest/2``) for the ``--partial-results`` mode.

All of that is **backend-agnostic**: one loop drives an
:class:`repro.simulation.backends.ExecutionBackend` (serial, process
pool, or shared-store peer coordination) through the four-method
protocol — ``submit`` / ``progress`` / ``cancel`` / ``shutdown`` — so
every backend, including future remote ones, gets retries, deadlines,
blame attribution and manifests for free.  The resolved backend name is
recorded on the report and manifest *only*; it never enters a store
key, because the determinism contract says every backend produces
byte-identical results for the same configuration.

:func:`run_kind` is the one public runner: it serves store hits, decides
where the misses run (:func:`plan_dispatch`: a ``process`` request only
forks a pool when the misses cost more than one), hands them to that
loop and persists each computed result as it lands.

Fault/retry/recovery counters are mirrored into a
:class:`repro.telemetry.MetricsRegistry` when one is supplied, so the
standard exporters (JSON / CSV / Prometheus) report them.
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
    Set,
    Tuple,
    Union,
)

from repro.errors import EngineRefused, SimulationError, SweepExecutionError
from repro.simulation.backends import (
    POLL_INTERVAL_S,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    BackendBroken,
    ExecutionBackend,
    InFlight,
    SharedStoreBackend,
    TaskEnvelope,
    resolve_backend,
    resolve_backend_name,
)

#: Schema identifier of the failure manifest document.  ``/2`` added the
#: ``backend`` field recording which execution backend actually ran.
MANIFEST_SCHEMA = "repro.sweep_manifest/2"

#: Backend spec accepted by :func:`run_kind`: a name (``serial`` /
#: ``process`` / ``shared-store``), a ready instance, or None (resolve
#: from ``REPRO_SWEEP_BACKEND``, default ``process``).
BackendSpec = Optional[Union[str, ExecutionBackend]]

__all__ = [
    "MANIFEST_SCHEMA",
    "POLL_INTERVAL_S",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_TIMEOUT",
    "BackendSpec",
    "POOL_START_S",
    "POOL_TICKET_S",
    "SweepKind",
    "SweepRunReport",
    "TaskEnvelope",
    "plan_dispatch",
    "pool_pays",
    "run_kind",
]


@dataclass
class SweepRunReport:
    """Everything one :func:`run_kind` sweep produced, healthy or not.

    ``envelopes`` is in task order; ``results()`` keeps that order with
    ``None`` holes where tasks failed, so zips against the task list stay
    aligned.  ``backend`` names the execution backend that actually ran
    (after dispatch — a ``process`` request over one worker, or one
    whose misses cost less than a pool, executes, and is recorded as,
    ``serial``); ``dispatch`` says why.
    """

    envelopes: List[TaskEnvelope]
    pool_breaks: int = 0
    timeouts: int = 0
    retries: int = 0
    interrupted: bool = False
    #: result-store accounting (``task_keys`` is None when the run had
    #: no store).
    store_hits: int = 0
    store_misses: int = 0
    task_keys: Optional[List[str]] = None
    backend: str = ""
    #: why the misses ran on ``backend`` (see :func:`plan_dispatch`) and
    #: their summed ``SweepKind.cost`` (None when the family has none).
    dispatch: str = ""
    estimated_serial_s: Optional[float] = None

    def results(self) -> List[Any]:
        """Per-task results in task order (None for failed tasks)."""
        return [e.result if e.ok else None for e in self.envelopes]

    def ok_results(self) -> List[Any]:
        """Only the healthy results, still in task order."""
        return [e.result for e in self.envelopes if e.ok]

    @property
    def ok_count(self) -> int:
        return sum(1 for e in self.envelopes if e.ok)

    @property
    def failed(self) -> List[TaskEnvelope]:
        return [e for e in self.envelopes if not e.ok]

    def raise_on_failure(self) -> None:
        """Strict mode: surface the first failure as one typed error."""
        for envelope in self.envelopes:
            if not envelope.ok:
                raise SweepExecutionError(
                    f"sweep task {envelope.index} failed "
                    f"({envelope.status}) after {envelope.attempts} "
                    f"attempt(s): [{envelope.error_type}] "
                    f"{envelope.error_message}",
                    traceback_text=envelope.traceback_text,
                )

    def manifest(
        self, task_labels: Optional[Sequence[str]] = None
    ) -> Dict[str, Any]:
        """The failure manifest document (``repro.sweep_manifest/2``).

        Args:
            task_labels: optional human-readable label per task (e.g.
                ``"tpcc@15000rpm"``); indexed by task position.
        """

        def label(index: int) -> Optional[str]:
            if task_labels is not None and index < len(task_labels):
                return task_labels[index]
            return None

        failures = []
        for envelope in self.failed:
            entry = envelope.as_dict()
            if label(envelope.index) is not None:
                entry["task"] = label(envelope.index)
            failures.append(entry)
        document = {
            "schema": MANIFEST_SCHEMA,
            "backend": self.backend,
            "dispatch": {
                "reason": self.dispatch,
                "estimated_serial_s": self.estimated_serial_s,
            },
            "tasks_total": len(self.envelopes),
            "tasks_ok": self.ok_count,
            "tasks_failed": len(self.failed),
            "pool_breaks": self.pool_breaks,
            "timeouts": self.timeouts,
            "retries": self.retries,
            "interrupted": self.interrupted,
            "failures": failures,
        }
        if self.task_keys is not None:
            from repro.store import STORE_SCHEMA

            document["store"] = {
                "schema": STORE_SCHEMA,
                "hits": self.store_hits,
                "misses": self.store_misses,
                "task_keys": list(self.task_keys),
            }
        return document


class _Counters:
    """Optional mirror of resilience counters into a telemetry registry."""

    def __init__(self, telemetry: Optional[Any]) -> None:
        from repro.telemetry import maybe

        self._tel = maybe(telemetry)

    def count(self, name: str, amount: float = 1.0) -> None:
        if self._tel is not None:
            self._tel.count(name, amount)


def _backoff_sleep(backoff_s: float, attempt: int) -> None:
    """Sleep before retry ``attempt`` (first retry is attempt 2)."""
    if backoff_s > 0 and attempt > 1:
        time.sleep(backoff_s * (2.0 ** (attempt - 2)))


def _run_with_backend(
    positions: Sequence[int],
    backend: ExecutionBackend,
    retries: int,
    backoff_s: float,
    timeout_s: Optional[float],
    counters: _Counters,
    on_result: Optional[Callable[[TaskEnvelope], None]] = None,
) -> SweepRunReport:
    """The one resilience loop every backend runs under.

    Bookkeeping lives entirely on this side of the protocol: the backend
    only knows about ``(index, attempt)`` tickets, while retries,
    deadlines and blame stay identical across serial, process-pool and
    shared-store execution.  Tickets are the caller's task positions
    (every task, or only the store misses), so envelopes come back
    already indexed by position and the report lists them in
    ``positions`` order.
    """
    envelopes: Dict[int, TaskEnvelope] = {}
    report = SweepRunReport(envelopes=[], backend=backend.name)
    # Tickets not yet dispatched (or requeued for another attempt).
    pending: Deque[Tuple[int, int]] = deque((index, 1) for index in positions)
    # Tickets that were in flight when the fabric broke.  A dead worker
    # breaks *every* in-flight attempt, so the crash cannot be attributed
    # from the wreckage alone; suspects are re-run one at a time on a
    # quiet fabric — innocents complete, and a ticket that breaks the
    # fabric while isolated is definitively the culprit and is charged
    # the attempt.
    suspects: List[Tuple[int, int]] = []
    # Tickets submitted to the backend and not yet folded into the report.
    outstanding: Set[Tuple[int, int]] = set()
    isolated: Optional[Tuple[int, int]] = None

    def record_failure(
        index: int, attempt: int, status: str, error_type: str, message: str,
        traceback_text: str = "", elapsed_s: float = 0.0,
    ) -> None:
        """Count one failed attempt; requeue while retry budget remains.

        An engine refusal depends on the task alone, so it fails on its
        first attempt instead of spending the retry budget.
        """
        counters.count(
            "sweep.task_timeouts_total"
            if status == STATUS_TIMEOUT
            else "sweep.task_errors_total"
        )
        if attempt <= retries and error_type != EngineRefused.__name__:
            pending.append((index, attempt + 1))
            report.retries += 1
            counters.count("sweep.retries_total")
        else:
            envelopes[index] = TaskEnvelope(
                index=index,
                status=status,
                error_type=error_type,
                error_message=message,
                traceback_text=traceback_text,
                attempts=attempt,
                elapsed_s=elapsed_s,
            )

    def submit_one(index: int, attempt: int) -> bool:
        """Dispatch one ticket; False when the fabric turned out broken."""
        _backoff_sleep(backoff_s, attempt)
        try:
            backend.submit(index, attempt)
        except BackendBroken:
            # Never dispatched: innocent by construction, back to pending.
            pending.append((index, attempt))
            return False
        outstanding.add((index, attempt))
        return True

    def reclaim_fabric(to_suspects: bool) -> None:
        """Cancel the backend and requeue whatever didn't finish.

        Unfinished tickets keep their current attempt number — they were
        victims of a fabric break or a neighbour's timeout, not (proven)
        culprits.  After a break they go to ``suspects`` for isolated
        re-execution; after a timeout straight back to ``pending``.
        Attempts that completed before the cancel stay ``outstanding``;
        the backend buffers them and the next ``progress`` delivers them
        normally.
        """
        nonlocal isolated
        for ticket in backend.cancel():
            if ticket in outstanding:
                outstanding.discard(ticket)
                (suspects if to_suspects else pending).append(ticket)
        isolated = None

    try:
        while pending or suspects or outstanding:
            broke = False
            if suspects:
                # Isolation mode: exactly one suspect on a quiet fabric.
                if not outstanding:
                    ticket = suspects.pop(0)
                    if submit_one(*ticket):
                        isolated = ticket
                    else:
                        broke = True
            else:
                while pending and len(outstanding) < backend.capacity:
                    index, attempt = pending.popleft()
                    if not submit_one(index, attempt):
                        broke = True
                        break
            in_flight: List[InFlight] = []
            if not broke and outstanding:
                progress = backend.progress(POLL_INTERVAL_S)
                in_flight = progress.in_flight
                for completion in progress.completions:
                    ticket = (completion.index, completion.attempt)
                    if ticket not in outstanding:
                        # Superseded: this ticket was requeued by an
                        # earlier cancel; the late result of a pure
                        # worker is safe to drop.
                        continue
                    outstanding.discard(ticket)
                    was_isolated = ticket == isolated
                    if was_isolated:
                        isolated = None
                    if completion.broken:
                        broke = True
                        if was_isolated:
                            # Alone on the fabric: this ticket killed
                            # its own worker.
                            record_failure(
                                completion.index, completion.attempt,
                                STATUS_ERROR, "BrokenProcessPool",
                                "worker process died mid-task",
                            )
                        else:
                            suspects.append(ticket)
                        continue
                    envelope = completion.envelope
                    if envelope is None:  # pragma: no cover - defensive
                        continue
                    if envelope.ok:
                        envelopes[completion.index] = envelope
                        if on_result is not None:
                            on_result(envelope)
                    else:
                        record_failure(
                            completion.index, completion.attempt,
                            STATUS_ERROR, envelope.error_type,
                            envelope.error_message, envelope.traceback_text,
                            envelope.elapsed_s,
                        )
            if broke:
                report.pool_breaks += 1
                counters.count("sweep.pool_breaks_total")
                reclaim_fabric(to_suspects=True)
                continue
            if timeout_s is not None and in_flight:
                now = time.monotonic()
                expired = [
                    flight
                    for flight in in_flight
                    if now - flight.since_monotonic > timeout_s
                    and (flight.index, flight.attempt) in outstanding
                ]
                if expired:
                    report.timeouts += len(expired)
                    for flight in expired:
                        outstanding.discard((flight.index, flight.attempt))
                        record_failure(
                            flight.index, flight.attempt, STATUS_TIMEOUT,
                            "TimeoutError",
                            f"task exceeded {timeout_s} s deadline",
                            elapsed_s=now - flight.since_monotonic,
                        )
                    # An expired attempt may be hung inside a worker; the
                    # only way to reclaim it is cancelling the fabric.
                    # In-flight survivors are requeued at their current
                    # attempt (or delivered from the backend's buffer).
                    reclaim_fabric(to_suspects=False)
    except KeyboardInterrupt:
        report.interrupted = True
        backend.cancel()
        raise
    finally:
        backend.shutdown()
    report.envelopes = [envelopes[i] for i in positions if i in envelopes]
    missing = len(positions) - len(report.envelopes)
    if missing:  # pragma: no cover - defensive; every path fills its slot
        raise SimulationError(f"{missing} sweep task(s) produced no envelope")
    return report


# ---------------------------------------------------------------------------
# Sweep families: one record per family, one runner for all of them
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepKind:
    """Everything the runner needs to know about one sweep family.

    ``name`` is the task-family tag stored with every result (and salted
    into the family's keys by ``key``); ``worker`` computes one task in a
    pool process; ``key`` / ``encode`` / ``decode`` are the store key and
    payload codec; ``document`` builds the family's canonical results
    document from a (possibly holey) result list (None for the roadmap,
    which writes none); ``cost`` estimates the serial seconds of one
    task's own work, from the task's own fields, so :func:`run_kind` can
    tell a sweep too cheap for a process pool (None: no estimate, and a
    ``process`` request keeps its pool).  Work that every process
    running the family repeats, serial or pooled (the workload family's
    per-trace pre-plan), is left out: a pool cannot split it.

    Families build their record *when a run starts* (see
    :func:`repro.simulation.sweep.workload_sweep_kind`,
    :func:`repro.simulation.sweep.roadmap_sweep_kind` and
    :func:`repro.fleet.sweep.fleet_sweep_kind`), so rebinding one of the
    module-level functions — tracing, tests — takes effect on the next
    run.
    """

    name: str
    worker: Callable[[Any], Any]
    key: Callable[[Any], str]
    encode: Callable[[Any], Any]
    decode: Callable[[Any], Any]
    document: Optional[Callable[[Sequence[Any]], Dict[str, Any]]] = None
    cost: Optional[Callable[[Any], float]] = None


# ---------------------------------------------------------------------------
# Dispatch: whether a ``process`` request is worth its pool
# ---------------------------------------------------------------------------

#: Seconds a two-worker process pool costs beyond its share of the work:
#: fork, the workers' first touches of the inherited heap, the first
#: round trip and the teardown.  Measured with ``tools/measure_dispatch.py``
#: on a 2-core x86-64 host (CPython 3.11, fork start method), which times
#: real sweeps through :func:`run_kind` serial and on the pool, 3-7
#: alternating runs a side, and fits ``pool wall - shared - (serial wall
#: - shared) / 2 = start-up + tickets x ticket cost`` by least squares,
#: ``shared`` being the work every worker repeats (a workload sweep's
#: pre-plans; none for the other families), over the three Figure 2
#: panels, racks of 72 drives x 4/14/28/56, racks of 240 drives x
#: 4/8/16/32, exact workload sweeps of 5 workloads x 2 rungs at 200, 600
#: and 4000 requests and 2 workloads x 4 rungs at 4000 analytic requests.
#: Three runs fitted 19.0, 20.2 and 16.1 ms; this is their median.  A
#: pool over a trivial worker (``abs``) starts in 6.8-9.4 ms: the rest
#: is workers running slower than the warm parent until their pages and
#: caches are their own.  Only two-worker pools were measured; the rule
#: divides the estimate by however many workers a run resolves to.
POOL_START_S = 0.0190

#: Seconds each dispatched task adds on the pool beyond its share of the
#: work: pickling the task and its envelope both ways, waking the parent,
#: and the parent's share of two busy cores.  Fitted with
#: :data:`POOL_START_S`: 0.52, 0.51 and 0.78 ms in the three runs; this
#: is their median.
POOL_TICKET_S = 0.00052

#: Why :func:`run_kind` ran its misses where it did (recorded on the
#: report and the manifest, never in a key).
DISPATCH_EXPLICIT = "explicit backend"
DISPATCH_TIMEOUT = "timeout requested"
DISPATCH_BELOW_POOL_COST = "below pool cost"
DISPATCH_ABOVE_POOL_COST = "above pool cost"
DISPATCH_NO_ESTIMATE = "no cost estimate"
DISPATCH_ONE_WORKER = "one worker"
DISPATCH_ALL_HITS = "all hits"


def pool_pays(estimate_s: float, tickets: int, workers: int) -> bool:
    """Whether ``workers`` pool processes are predicted to finish
    ``tickets`` tasks worth ``estimate_s`` serial seconds sooner than
    the parent would on its own: start-up + estimate / workers + tickets
    x ticket cost < estimate.

    On these constants the three Figure 2 panels (~6 ms) never pay;
    racks of 72 drives (~1.3 ms each) pay on two workers from 149
    racks on, racks of 240 drives from 12; ten exact replays pay from
    215 requests each; all-analytic sweeps (0.57 us a request once the
    pre-plan is built) need ~30 rungs of 4000 requests; the Figure 4
    ladder (20 exact replays of 4000 requests, ~1.8 s) pays many times
    over.
    """
    return POOL_START_S + estimate_s / workers + tickets * POOL_TICKET_S < estimate_s


def plan_dispatch(
    kind: SweepKind,
    misses: Sequence[Any],
    backend: BackendSpec,
    workers: int,
    timeout_s: Optional[float],
) -> Tuple[BackendSpec, str, Optional[float]]:
    """Where a sweep's misses run: ``(backend, reason, estimate_s)``.

    ``estimate_s`` is the summed ``kind.cost`` of the misses (None when
    the family has no estimate).  Only ``process`` (named, from the
    environment or by default) is reconsidered: it becomes ``serial``
    when the pool's predicted wall time (:func:`pool_pays`) is no
    shorter than the serial estimate.  ``serial``, ``shared-store`` and a
    ready :class:`ExecutionBackend` instance pass through as given, and
    so does ``process`` when a ``timeout_s`` is set, since the serial
    path cannot enforce deadlines.  ``workers`` is the resolved pool
    size; at one worker ``process`` already runs serial.
    """
    estimate = (
        sum(kind.cost(task) for task in misses) if kind.cost is not None else None
    )
    if isinstance(backend, ExecutionBackend) or resolve_backend_name(backend) != "process":
        return backend, DISPATCH_EXPLICIT, estimate
    if workers <= 1:
        return backend, DISPATCH_ONE_WORKER, estimate
    if timeout_s is not None:
        return backend, DISPATCH_TIMEOUT, estimate
    if estimate is None:
        return backend, DISPATCH_NO_ESTIMATE, estimate
    if pool_pays(estimate, len(misses), workers):
        return backend, DISPATCH_ABOVE_POOL_COST, estimate
    return "serial", DISPATCH_BELOW_POOL_COST, estimate


def run_kind(
    kind: SweepKind,
    tasks: Sequence[Any],
    *,
    store: Optional[Any] = None,
    workers: Optional[int] = None,
    retries: int = 0,
    backoff_s: float = 0.0,
    timeout_s: Optional[float] = None,
    telemetry: Optional[Any] = None,
    backend: BackendSpec = None,
    on_result: Optional[Callable[[TaskEnvelope], None]] = None,
) -> SweepRunReport:
    """Run one sweep family's tasks: the one sweep runner of every caller.

    Every task key is looked up in the store (when one is in play)
    *before any backend is built*: hits become ``cached`` ok-envelopes
    with zero attempts, and only the misses are computed — in-process
    when they are too cheap for the ``process`` pool they asked for
    (:func:`plan_dispatch`).  Each computed miss is persisted as soon
    as it lands, so a run killed halfway leaves its finished tasks
    behind as hits — re-running the same configuration *is* the
    resume.  Cache trouble costs recomputation,
    never a sweep: a corrupt entry is quarantined by the store, one the
    codec refuses is rejected (:meth:`repro.store.ResultStore.load`),
    and a failing put is counted, not raised
    (:meth:`repro.store.ResultStore.save`).  Task failures never raise
    either; strict callers follow up with
    :meth:`SweepRunReport.raise_on_failure`.

    Args:
        kind: the sweep family (worker, store key and payload codec).
        tasks: the task list (each must be picklable for the process
            backend, as must the worker's results).
        store: optional :class:`repro.store.ResultStore`.  The
            ``shared-store`` backend coordinates *through* a store, so
            selecting it without one uses a ready backend's own store,
            and opens the default store (``REPRO_STORE_DIR``, else
            ``~/.cache/repro``) for one selected by name.
        workers: process count (None = all cores; 0/1 = serial
            in-process, which produces identical results).
        retries: extra attempts granted to a failed task (0 = one
            attempt only).  Tasks that were in flight when the fabric
            broke also consume an attempt — a task that repeatedly kills
            its worker exhausts its budget instead of wedging the sweep.
        backoff_s: base of the exponential backoff slept before retry
            ``n`` (``backoff_s * 2**(n-1)``); 0 disables sleeping.
        timeout_s: per-task deadline measured from dispatch.  Expired
            tasks are marked ``timeout`` and their (possibly hung)
            execution fabric is reclaimed.  Only enforced on backends
            that report in-flight work — not on the serial path.
        telemetry: optional :class:`repro.telemetry.Telemetry`; mirrors
            the ``sweep.*`` counters (over the computed tasks) and the
            store's ``store.*`` counters into its registry.
        backend: backend name, instance, or None (env / ``process``
            default); see :func:`repro.simulation.backends.resolve_backend`.
            A ``process`` request whose misses cost less than the pool
            runs serial instead (:func:`plan_dispatch`).  The backend
            that ran, the reason and the misses' estimated serial seconds
            land on the report and manifest, never in a key.
        on_result: parent-side hook called once per ok envelope, with
            ``envelope.index`` the task's position: first for every store
            hit (in task order, before any backend is built), then for
            each computed task in completion order, after it has been
            persisted.  An exception raised by the hook aborts the sweep
            (the backend is shut down on the way out) — the job service
            uses exactly that for graceful drain.

    Returns:
        A :class:`SweepRunReport` with one envelope per task, in task
        order, regardless of how many attempts or fabric respawns it
        took; with a store, ``store_hits`` / ``store_misses`` /
        ``task_keys`` are filled in too.

    Raises:
        SimulationError: on invalid arguments.
        KeyboardInterrupt: re-raised after cancelling pending work and
            shutting the fabric down (no orphaned workers).
    """
    if retries < 0:
        raise SimulationError(f"retries must be >= 0, got {retries}")
    if backoff_s < 0:
        raise SimulationError(f"backoff must be >= 0, got {backoff_s}")
    if timeout_s is not None and timeout_s <= 0:
        raise SimulationError(f"timeout must be positive, got {timeout_s}")
    label = (
        backend.name
        if isinstance(backend, ExecutionBackend)
        else resolve_backend_name(backend)
    )
    if store is None and isinstance(backend, SharedStoreBackend):
        store = backend.store
    elif store is None and label == "shared-store":
        from repro.store import ResultStore

        store = ResultStore()
    slots: List[Optional[TaskEnvelope]] = [None] * len(tasks)
    keys: List[str] = []
    if store is not None:
        store.bind_telemetry(telemetry)
        keys = [kind.key(task) for task in tasks]
        for index, key in enumerate(keys):
            result = store.load(key, kind.decode)
            if result is not None:
                slots[index] = TaskEnvelope(index=index, result=result, cached=True)
        if on_result is not None:
            for slot in slots:
                if slot is not None:
                    on_result(slot)
    misses = [index for index, slot in enumerate(slots) if slot is None]
    counters = _Counters(telemetry)
    counters.count("sweep.tasks_total", float(len(misses)))
    report = SweepRunReport(
        envelopes=[], backend=label, dispatch=DISPATCH_ALL_HITS,
        estimated_serial_s=0.0 if kind.cost is not None else None,
    )
    if misses:
        from repro.simulation.sweep import resolve_workers

        # The backend sees the whole task list (tickets are positions),
        # but its fabric is sized for the misses alone.
        pool_size = resolve_workers(workers, len(misses))
        chosen, reason, estimate = plan_dispatch(
            kind, [tasks[i] for i in misses], backend, pool_size, timeout_s
        )
        resolved = resolve_backend(
            chosen,
            tasks,
            kind,
            workers=pool_size,
            keys=keys if store is not None else None,
            store=store,
            counters=counters.count,
        )
        counters.count("sweep.backend.selected." + resolved.name.replace("-", "_"))
        save = (
            store.save
            if store is not None and not resolved.persists_results
            else None
        )

        def landed(envelope: TaskEnvelope) -> None:
            if save is not None:
                save(
                    keys[envelope.index], envelope.result, kind.encode,
                    kind=kind.name,
                )
            if on_result is not None:
                on_result(envelope)

        report = _run_with_backend(
            misses, resolved, retries, backoff_s, timeout_s, counters,
            landed if save is not None or on_result is not None else None,
        )
        report.dispatch = reason
        report.estimated_serial_s = estimate
        counters.count("sweep.tasks_ok", float(report.ok_count))
        counters.count("sweep.tasks_failed_total", float(len(report.failed)))
    for envelope in report.envelopes:
        slots[envelope.index] = envelope
    report.envelopes = [slot for slot in slots if slot is not None]
    if store is not None:
        report.store_hits = len(tasks) - len(misses)
        report.store_misses = len(misses)
        report.task_keys = keys
    return report
