"""One set-up sample, run in a fresh interpreter by ``common.time_setup``.

``replay``: import the sweep and workload layers and fork the first
process pool.  ``fleet``: import the thermal, fleet and store layers,
create a result store and fork the first process pool.  Prints ``ready``
once a pool worker has answered one task, when the workload's first
operation could start; the pool is torn down after that, outside the
timed interval.

Usage: ``python3 perfbench/setup_probe.py replay|fleet [STORE_DIR]``
"""

from __future__ import annotations

import sys
import time
from typing import Any, List


def _fork_pool() -> Any:
    """The program's process backend with its workers forked and one
    task answered."""
    from repro.simulation.backends.process import ProcessPoolBackend

    backend = ProcessPoolBackend([-1], abs, workers=2)
    backend.submit(0, 0)
    completions: List[Any] = []
    deadline = time.monotonic() + 60.0
    while not completions:
        if time.monotonic() > deadline:
            raise RuntimeError("no pool worker answered within 60 s")
        completions = backend.progress(timeout_s=5.0).completions
    envelope = completions[0].envelope
    if envelope is None or not envelope.ok or envelope.result != 1:
        raise RuntimeError("the first pool task failed")
    return backend


def main(argv: list) -> int:
    probe = argv[0]
    if probe == "replay":
        import repro.simulation.sweep  # noqa: F401
        from repro.workloads import workload

        for name in ("tpcc", "openmail", "oltp", "tpch", "search_engine"):
            workload(name)
    elif probe == "fleet":
        import repro.fleet.sweep  # noqa: F401
        import repro.scaling.roadmap  # noqa: F401
        import repro.simulation.sweep  # noqa: F401
        from repro.store import ResultStore

        ResultStore(root=argv[1])
    else:
        print(f"unknown probe {probe!r}", file=sys.stderr)
        return 2
    backend = _fork_pool()
    print("ready", flush=True)
    backend.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
