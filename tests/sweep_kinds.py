"""A test-side :class:`SweepKind` for driving ``run_kind`` with a plain worker.

Production families (workload, roadmap, fleet) build their own records;
the runner and backend suites only need a worker, so this wraps one with
a content key over the task's value and an identity payload codec.
"""

from __future__ import annotations

from typing import Any, Callable

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
