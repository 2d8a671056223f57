"""Pluggable execution backends for the sweep machinery.

``serial``, ``process`` and ``shared-store`` implementations of the
:class:`~repro.simulation.backends.base.ExecutionBackend` protocol, plus
the name/env resolution used by the CLI (``--backend``) and the
``REPRO_SWEEP_BACKEND`` environment variable.  The resilience layer
(:mod:`repro.simulation.resilience`) drives whichever backend resolves;
see :mod:`repro.simulation.backends.base` for the protocol contract.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Optional, Sequence, Union

from .base import (
    POLL_INTERVAL_S,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    BackendBroken,
    BackendProgress,
    Completion,
    CounterHook,
    ExecutionBackend,
    InFlight,
    TaskEnvelope,
    guarded_call,
)
from .process import ProcessPoolBackend, reap_executor
from .serial import SerialBackend
from .shared_store import DEFAULT_STALE_CLAIM_S, SharedStoreBackend

if TYPE_CHECKING:  # pragma: no cover - cycle broken at runtime
    from repro.simulation.resilience import SweepKind

__all__ = [
    "BACKEND_ENV_VAR",
    "BACKEND_NAMES",
    "BackendBroken",
    "BackendProgress",
    "Completion",
    "CounterHook",
    "DEFAULT_STALE_CLAIM_S",
    "ExecutionBackend",
    "InFlight",
    "POLL_INTERVAL_S",
    "ProcessPoolBackend",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_TIMEOUT",
    "SerialBackend",
    "SharedStoreBackend",
    "TaskEnvelope",
    "guarded_call",
    "reap_executor",
    "resolve_backend",
    "resolve_backend_name",
]

#: Environment variable consulted when no explicit backend is passed.
BACKEND_ENV_VAR = "REPRO_SWEEP_BACKEND"

#: The resolvable backend names, in documentation order.
BACKEND_NAMES = ("serial", "process", "shared-store")


def resolve_backend_name(name: Optional[str]) -> str:
    """Resolve a backend name: explicit arg > env var > ``process``.

    Raises:
        SimulationError: on a name outside :data:`BACKEND_NAMES`.
    """
    from repro.errors import SimulationError

    source = "argument"
    if name is None:
        name = os.environ.get(BACKEND_ENV_VAR)
        source = f"env {BACKEND_ENV_VAR}"
    if name is None or not name.strip():
        return "process"
    cleaned = name.strip().lower()
    if cleaned not in BACKEND_NAMES:
        raise SimulationError(
            f"unknown execution backend {name!r} (from {source}); "
            f"expected one of {', '.join(BACKEND_NAMES)}"
        )
    return cleaned


def resolve_backend(
    name: Optional[Union[str, ExecutionBackend]],
    tasks: Sequence[Any],
    kind: "SweepKind",
    workers: Optional[int] = None,
    keys: Optional[Sequence[str]] = None,
    store: Optional[Any] = None,
    counters: Optional[CounterHook] = None,
) -> ExecutionBackend:
    """Build the backend a sweep will actually run on.

    An :class:`ExecutionBackend` instance passes through untouched (for
    tests and embedders that construct their own).  A name (or None —
    see :func:`resolve_backend_name`) selects a construction running
    ``kind.worker``:

    * ``serial`` — always :class:`SerialBackend`.
    * ``process`` — :class:`ProcessPoolBackend`, except when the worker
      resolution (``resolve_workers``) lands on <= 1 worker, where the
      serial backend is returned instead: that is what actually runs,
      and the manifest must record the truth (``workers=0`` has always
      meant in-process execution).  :func:`repro.simulation.resilience.run_kind`
      asks for ``serial`` instead when the misses cost less than a pool
      (:func:`repro.simulation.resilience.plan_dispatch`).
    * ``shared-store`` — :class:`SharedStoreBackend`; requires a result
      store plus per-task content keys, which
      :func:`repro.simulation.resilience.run_kind` always supplies, and
      publishes through the family's ``kind.encode`` / ``kind.decode``.

    Raises:
        SimulationError: unknown name, or ``shared-store`` without a
            store and keys.
    """
    from repro.errors import SimulationError

    if isinstance(name, ExecutionBackend):
        return name
    resolved = resolve_backend_name(name)
    if resolved == "shared-store":
        if store is None or keys is None:
            raise SimulationError(
                "the shared-store backend coordinates through a result "
                "store and needs per-task content keys; run it through "
                "run_kind, which supplies both"
            )
        return SharedStoreBackend(
            tasks,
            kind.worker,
            keys=keys,
            store=store,
            encode=kind.encode,
            decode=kind.decode,
            kind=kind.name,
            counters=counters,
        )
    from repro.simulation.sweep import resolve_workers

    effective = resolve_workers(workers, len(tasks))
    if resolved == "serial" or effective <= 1:
        return SerialBackend(tasks, kind.worker, counters=counters)
    return ProcessPoolBackend(tasks, kind.worker, effective, counters=counters)
