"""Fast self-test of the benchmark: every workload at tiny scale.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py

Checks that each workload, untraced and traced, exits 0 and prints every
metric named in ``run.py`` with its unit, and that the traced run
measures each layer the workload enters; that a corrupted pinned digest
makes a run fail; and that a directory holding only ``BENCHMARK.json``
and ``perfbench/`` makes the benchmark exit non-zero without a result.
Every run is made in a session of its own, and no process of it may
outlive it.  Its records go to ``perfbench/out/selftest/``, apart from
the records ``compare.py`` is meant to read.  Takes about a minute on
two cores.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import signal
import subprocess
import sys
from typing import Any, Dict, List, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import common  # noqa: E402
import run  # noqa: E402


#: Where the self-test's tiny-scale records go.
OUT_DIR = os.path.join(common.OUT_DIR, "selftest")


def _run(args: List[str], cwd: str = ROOT) -> Tuple[int, List[str]]:
    """One benchmark run in a session of its own; fails if any process
    of that session outlives it, or if ``run.py`` had to stop one the
    workload left running."""
    proc = subprocess.Popen(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args, "--out", OUT_DIR],
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=300)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    left = common.processes_where(3, proc.pid)
    for pid in left:
        with contextlib.suppress(OSError):
            os.kill(pid, signal.SIGKILL)
    lines = stdout.decode("utf-8").splitlines()
    assert not left, (args, "processes outlived the run", left)
    assert not any(line.startswith("note: stopped") for line in lines), (args, lines)
    return proc.returncode, lines


def _result(lines: List[str]) -> Dict[str, Any]:
    return json.loads(lines[-1])


#: Per workload, layer metrics its traced run must measure (non-zero), so
#: that every layer is covered by some gated workload.
ENTERED = {
    "replay-ladder": (
        "workloads.generate_s", "workloads.requests", "simulation.build_s",
        "simulation.run_trace_s", "simulation.stats_s", "simulation.events_fired",
        "backends.task_compute_s", "backends.tasks",
    ),
    "fleet-thermal": (
        "backends.task_compute_s", "backends.tasks", "store.get_s", "store.put_s",
        "store.hits", "store.misses", "store.bytes_written", "codec.encode_s",
        "codec.decode_s", "codec.document_s", "scaling.roadmap_s",
        "thermal.cooling_budget_s", "fleet.tiering_s", "fleet.coordinate_s",
        "fleet.reliability_s",
    ),
    "service-mixed": (
        "service.post_ms", "service.fetch_ms", "service.queue_wait_ms",
        "service.compute_ms", "service.polls", "service.dedup_hits",
        "load.late_p95_ms", "store.hits", "store.misses",
    ),
}


def check_workloads() -> None:
    for workload in sorted(run.WORKLOADS):
        for trace, wanted in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            rc, lines = _run([
                "--workload", workload, "--seconds", "1", "--trace", str(trace),
                "--scale", "tiny",
            ])
            assert rc == 0, (workload, trace, rc, lines[-5:])
            result = _result(lines)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] is True and result["failed"] == 0, (workload, result)
            assert result["attempted"] >= 1
            metrics = result["metrics"]
            assert list(metrics) == list(wanted), (workload, trace, sorted(metrics))
            for name, unit in wanted.items():
                assert metrics[name]["unit"] == unit, (workload, name)
                assert isinstance(metrics[name]["value"], float), (workload, name)
            if trace == 0:
                assert all(m["value"] > 0 for m in metrics.values()), (workload, metrics)
            else:
                zero = [name for name in ENTERED[workload] if metrics[name]["value"] <= 0]
                assert not zero, (workload, "layers not measured", zero)
            print(f"ok  {workload} trace={trace}: {len(metrics)} metrics")


def check_corrupted_digest() -> None:
    table = common.load_digests(common.DIGESTS_PATH)
    seed = str(common.default_seeds()["default"])
    workload = "fleet-thermal"
    pinned = table[workload]["tiny"][seed]
    name = sorted(pinned)[0]
    pinned[name] = ("0" if pinned[name][0] != "0" else "1") + pinned[name][1:]
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "corrupted-digests.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(table, handle)
    rc, lines = _run([
        "--workload", workload, "--seconds", "1", "--trace", "0",
        "--scale", "tiny", "--digests", path,
    ])
    result = _result(lines)
    assert rc != 0 and result["correct"] is False and result["failed"] >= 1, (rc, result)
    assert any(line.startswith("FAILED: digest") for line in lines), lines
    print(f"ok  corrupted digest {workload}/{name} reported as a failure")


def check_bare_directory() -> None:
    bare = common.scratch_dir("bare-")
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(
            BENCH_DIR, os.path.join(bare, "perfbench"),
            ignore=shutil.ignore_patterns("out", "__pycache__"),
        )
        rc, lines = _run(
            ["--workload", "replay-ladder", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare,
        )
    finally:
        common.remove_dir(bare)
    assert rc != 0, rc
    assert not any(line.startswith("{") for line in lines), lines
    print("ok  bare directory exits non-zero without a result")


def main() -> int:
    check_workloads()
    check_corrupted_digest()
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
