"""Shared plumbing for the benchmark workloads.

Everything here is workload-agnostic: locating the checkout, quantiles,
the host clock, peak RSS, set-up probes run in fresh interpreters, the
host record, pinned output digests and the one-line JSON result a run
ends with.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Run records (unless ``run.py --out`` says otherwise) and scratch stores.
OUT_DIR = os.path.join(BENCH_DIR, "out")
DIGESTS_PATH = os.path.join(BENCH_DIR, "digests.json")
SEEDS_PATH = os.path.join(BENCH_DIR, "seeds.json")

#: Worker processes (and, for the service, connections) the load may use.
WORKERS = 2

#: How many fresh interpreters one run starts to time set-up; the run
#: reports their median.
SETUP_SAMPLES = 15

#: Environment variables that would silently change which backend or
#: store the program picks; the benchmark always passes both explicitly.
_PROGRAM_ENV = ("REPRO_SWEEP_BACKEND", "REPRO_STORE_DIR", "REPRO_STORE_MAX_BYTES")


def program_env() -> Dict[str, str]:
    """Environment for child interpreters: ``src`` first on the path."""
    env = {k: v for k, v in os.environ.items() if k not in _PROGRAM_ENV}
    env["PYTHONPATH"] = SRC
    return env


def prepare_process() -> None:
    """Make ``repro`` importable from the checkout and scrub program env."""
    for name in _PROGRAM_ENV:
        os.environ.pop(name, None)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def scratch_dir(prefix: str) -> str:
    """A fresh directory under ``perfbench/out`` (inside the checkout)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=OUT_DIR)


def remove_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def processes_where(field_index: int, value: int) -> List[int]:
    """Pids whose ``/proc/<pid>/stat`` field ``field_index``, counted
    from the state after ``(comm)``, equals ``value`` (1: parent pid,
    3: session id); zombies included."""
    pids = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return pids
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r", encoding="ascii", errors="replace") as handle:
                text = handle.read()
        except OSError:
            continue
        # "pid (comm) state ppid pgrp session ..."; comm may hold spaces
        # and parens.
        if int(text.rsplit(")", 1)[1].split()[field_index]) == value:
            pids.append(int(entry))
    return pids


def reap_children(grace_s: float = 10.0) -> List[int]:
    """Stop and wait for every child still alive; returns their pids.

    Each workload stops what it starts; this is the last line of
    defence, run on every way out of ``run.py``, so that no process of
    the benchmark outlives it.
    """
    pids = processes_where(1, os.getpid())
    for pid in pids:
        with contextlib.suppress(OSError):
            os.kill(pid, signal.SIGTERM)
    deadline = time.monotonic() + grace_s
    for pid in pids:
        while True:
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                break
            if done:
                break
            if time.monotonic() > deadline:
                with contextlib.suppress(OSError):
                    os.kill(pid, signal.SIGKILL)
                with contextlib.suppress(ChildProcessError):
                    os.waitpid(pid, 0)
                break
            time.sleep(0.01)
    return pids


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Inclusive linear-interpolation percentile (``q`` in [0, 100]).

    A p90 is only reported from at least 100 samples, so that ten lie
    beyond it; with fewer the sample does not support it.
    """
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    if len(data) == 1:
        return float(data[0])
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    frac = pos - lo
    return float(data[lo] + (data[hi] - data[lo]) * frac)


# ---------------------------------------------------------------------------
# Host clock
# ---------------------------------------------------------------------------


def _cpu_ticks() -> Tuple[int, int]:
    """(steal, busy) clock ticks of the whole machine since boot, from
    the first line of ``/proc/stat``; (0, 0) where it cannot be read.

    Busy is user + nice + system + irq + softirq + steal: the time some
    CPU had work to run.  Steal is the part of it the hypervisor gave to
    other guests.
    """
    try:
        with open("/proc/stat", "r", encoding="ascii") as handle:
            fields = [int(x) for x in handle.readline().split()[1:9]]
        user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    except (OSError, ValueError):
        return 0, 0
    return steal, user + nice + system + irq + softirq + steal


@dataclass(frozen=True)
class Mark:
    """A point on the host clock: wall time plus CPU tick counters."""

    wall: float
    steal: int
    busy: int


def mark() -> Mark:
    steal, busy = _cpu_ticks()
    return Mark(time.perf_counter(), steal, busy)


def steal_share(start: Mark, end: Mark) -> float:
    """Share of the busy CPU time between two marks that was stolen."""
    busy = end.busy - start.busy
    return (end.steal - start.steal) / busy if busy > 0 else 0.0


def net_s(start: Mark, end: Mark) -> float:
    """Host seconds between two marks, less the stolen share.

    On a virtual machine the hypervisor takes CPU time from the guest
    (steal) in bursts that come and go with other guests' load; wall time
    then swings by tens of percent with no change in the program.  Every
    time the benchmark reports is wall time scaled by ``1 - steal share``
    over the same interval.  Where nothing is stolen, or ``/proc/stat``
    is absent, it equals wall time.
    """
    return (end.wall - start.wall) * (1.0 - steal_share(start, end))


# ---------------------------------------------------------------------------
# Host measurements
# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child, in
    MB.  ``getrusage`` reports no sum over children, so two workers that
    peak together count once; workloads read it when their window ends,
    before the output checks run."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak RSS so far (``VmHWM``) of a live process, in MB; 0 where
    ``/proc`` does not show it."""
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError):
        pass
    return 0.0


def host_record(backend: str, workers: int) -> Dict[str, Any]:
    """What a result was measured on; results from differing hosts are
    never compared (see ``compare.py``)."""
    try:
        import numpy  # noqa: F401

        has_numpy = True
    except ImportError:
        has_numpy = False
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "numpy": has_numpy,
        "backend": backend,
        "workers": workers,
    }


def time_setup(probe: str, extra: Sequence[str] = ()) -> float:
    """Median spawn-to-ready host time (``net_s``) of
    ``setup_probe.py <probe>``.

    Each sample starts a fresh interpreter, which imports the layers the
    workload uses, creates what the workload creates before its first
    operation (store, process pool), prints ``ready`` once a pool worker
    has answered, and only then tears the pool down.
    """
    samples = []
    script = os.path.join(BENCH_DIR, "setup_probe.py")
    for _ in range(SETUP_SAMPLES):
        start = mark()
        proc = subprocess.Popen(
            [sys.executable, script, probe, *extra],
            stdout=subprocess.PIPE,
            env=program_env(),
            cwd=ROOT,
        )
        try:
            line = proc.stdout.readline() if proc.stdout is not None else b""
            elapsed = net_s(start, mark())
            proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe {probe!r} failed (rc={proc.returncode})")
        samples.append(elapsed)
    return median(samples)


def backend_figures(reports: List[Any], walls: List[float], workers: int, tasks: List[Any]) -> Dict[str, Tuple[float, str]]:
    """Backend-layer figures from untraced ``SweepRunReport``s."""
    compute = sum(e.elapsed_s for r in reports for e in r.envelopes)
    pickled = sum(len(pickle.dumps(t)) for t in tasks) + sum(
        len(pickle.dumps(e.result)) for r in reports for e in r.envelopes if e.ok
    )
    return {
        "backends.task_compute_s": (compute, "s"),
        "backends.overhead_s": (sum(walls) * workers - compute, "s"),
        "backends.pickled_bytes": (float(pickled), "bytes"),
        "backends.tasks": (float(sum(len(r.envelopes) for r in reports)), "count"),
        "backends.retries": (float(sum(r.retries for r in reports)), "count"),
        "backends.pool_breaks": (float(sum(r.pool_breaks for r in reports)), "count"),
    }


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_digests(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def default_seeds() -> Dict[str, int]:
    with open(SEEDS_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


@dataclass
class Outcome:
    """What one workload run produced."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: output name -> sha256 of its canonical bytes (pinned for the
    #: default seed).
    digests: Dict[str, str] = field(default_factory=dict)
    #: why ``failed`` grew, one line per cause.
    failures: List[str] = field(default_factory=list)
    #: observations that are not failures.
    notes: List[str] = field(default_factory=list)
    spans: List[Dict[str, Any]] = field(default_factory=list)
    #: the workload's headline figures (replay_req_per_s, ...), printed
    #: under their own names.
    figures: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: raw per-operation timings behind the medians, kept in the record.
    samples: Dict[str, List[float]] = field(default_factory=dict)

    def fail(self, why: str, count: int = 1) -> None:
        self.failed += count
        self.failures.append(why)

    def tail(self, samples: Sequence[float], name: str) -> float:
        """p90 of ``samples``, noting when fewer than 100 back it."""
        if len(samples) < 100:
            self.notes.append(f"{name}: p90 of only {len(samples)} samples")
        return percentile(samples, 90)


def check_pinned(
    outcome: Outcome, table: Dict[str, Any], workload: str, scale: str, seed: int
) -> None:
    """Compare ``outcome.digests`` with the pinned table, when one exists
    for this (workload, scale, seed)."""
    pinned = table.get(workload, {}).get(scale, {}).get(str(seed))
    if pinned is None:
        return
    shared = sorted(set(pinned) & set(outcome.digests))
    if not shared:
        outcome.fail(f"digests: none of {sorted(pinned)} produced")
    for name in shared:
        got, expected = outcome.digests[name], pinned[name]
        if got != expected:
            outcome.fail(f"digest {name}: {got[:12]} != pinned {expected[:12]}")


def result_line(correct: bool, outcome: Outcome) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in outcome.metrics.items()
            },
        },
        sort_keys=False,
    )
