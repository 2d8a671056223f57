"""Test-side helpers for driving ``run_kind``.

Production families (workload, roadmap, fleet) build their own records;
the runner and backend suites only need a worker, so :func:`plain_kind`
wraps one with a content key over the task's value and an identity
payload codec.  :func:`process_pool` hands byte-identity gates a real
pool however small their sweep.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.simulation.backends import ProcessPoolBackend
from repro.simulation.resilience import SweepKind
from repro.store import config_key

#: Task-family tag of plain-worker test sweeps (salted into their keys).
PLAIN_KIND = "test_plain"


def _identity(value: Any) -> Any:
    return value


def _plain_key(task: Any) -> str:
    return config_key(PLAIN_KIND, {"task": task})


def plain_kind(
    worker: Callable[[Any], Any], key: Callable[[Any], str] = _plain_key
) -> SweepKind:
    """A sweep family running ``worker`` over JSON-safe tasks and results."""
    return SweepKind(
        name=PLAIN_KIND,
        worker=worker,
        key=key,
        encode=_identity,
        decode=_identity,
    )


def process_pool(kind: SweepKind, tasks: Sequence[Any]) -> ProcessPoolBackend:
    """A ready two-worker pool running ``kind``'s worker over ``tasks``.

    ``run_kind`` runs a ``process`` request whose tasks cost less than a
    pool in-process; a ready instance passes through unchanged, so a
    gate comparing pooled with serial bytes still crosses process
    boundaries however small its sweep.
    """
    return ProcessPoolBackend(tasks, kind.worker, workers=2)
