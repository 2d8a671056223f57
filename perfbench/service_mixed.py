"""``service-mixed``: ``repro serve`` under a closed-loop job mix.

``repro serve --backend serial`` runs as a subprocess on an ephemeral
port with a fresh store under ``perfbench/out``.  One client, with one
connection open at a time, runs a seeded job sequence back to back:
``POST /v1/jobs``, poll ``GET /v1/jobs/{id}`` every ``POLL_INTERVAL_S``
until the job finishes, fetch ``/v1/results/{key}``, then send the next
job.  The sequence comes in shuffled blocks of ten: five fresh small
``workload`` sweeps (every catalog workload at its base RPM, in a seeded
order), two fresh ``fleet_sweep`` jobs (1008 drives, seeded
recirculation, cooling budget and tiering) and three exact repeats of
earlier fresh submissions, two of workload sweeps and one of a fleet job,
which the service answers from its dedup table and store.  A repeated
fleet job returns a ~300 KB document and takes several times as long as
a repeated sweep, so the repeat mix is fixed per block: were the kind of
each repeat drawn at random, the dedup median would move with the draw.

A closed loop keeps one job in the server at a time, so no queue builds
up and amplifies the host's speed swings; the server is busy for most
of the window.  A job's latency runs from its send until its result
bytes arrive, scaled by ``1 - stolen share`` of the window
(``common.net_s``).  A job that errors, is refused, times out or returns
wrong bytes counts as failed and takes ``2 * LATENCY_LIMIT_MS``.

After the window, every distinct result is compared with the bytes
``repro sweep workload`` / ``repro fleet`` write with ``--results-out``
for the same config (the CLI entry point, called in two forked worker
processes).
"""

from __future__ import annotations

import contextlib
import http.client
import io
import json
import multiprocessing
import os
import random
import resource
import signal
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from common import (
    ROOT,
    SETUP_SAMPLES,
    WORKERS,
    Outcome,
    digest,
    mark,
    median,
    net_s,
    process_peak_rss_mb,
    percentile,
    program_env,
    remove_dir,
    scratch_dir,
    steal_share,
)
from tracing import Tracer, abba

NAMES = ("tpcc", "openmail", "oltp", "tpch", "search_engine")

#: Limit on fresh-job p90 latency; failed jobs count as twice this.
LATENCY_LIMIT_MS = 5000.0
#: Seconds between polls of the unfinished job.
POLL_INTERVAL_S = 0.005
#: A job unfinished this long after its send has failed.
JOB_TIMEOUT_S = 30.0

SCALES = {
    # traced_jobs: length of each pass of the traced run.
    # rss_jobs: jobs done when peak RSS is read (see ``drive``).
    "full": {
        "requests": 80, "racks": 14, "enclosures": 6, "drives": 12,
        "traced_jobs": 40, "rss_jobs": 150,
    },
    "tiny": {
        "requests": 30, "racks": 2, "enclosures": 2, "drives": 3,
        "traced_jobs": 10, "rss_jobs": 10,
    },
}

#: fresh workload, fresh fleet, repeat of a workload, repeat of a fleet
#: job — per block of ten jobs.
BLOCK = ("workload",) * 5 + ("fleet",) * 2 + ("repeat-workload",) * 2 + ("repeat-fleet",)
#: Every run sends at least this many jobs; their results are pinned for
#: the default seed, whatever the window.
PINNED_SLOTS = len(BLOCK)


# ---------------------------------------------------------------------------
# Job sequence
# ---------------------------------------------------------------------------


@dataclass
class Slot:
    kind: str  # "workload" | "fleet" | "repeat"
    payload: Dict[str, Any]
    #: filled in by the client
    latency_ms: Optional[float] = None
    ok: bool = False
    job: Dict[str, Any] = field(default_factory=dict)
    body: bytes = b""


def schedule(seed: int, scale: str) -> Iterator[Slot]:
    """The seeded job sequence; a run takes as much of it as its window
    allows, so every run's sequence starts the same way."""
    shape = SCALES[scale]
    rng = random.Random(f"service-mixed/{seed}")
    block: List[str] = []
    fresh: Dict[str, List[Dict[str, Any]]] = {"workload": [], "fleet": []}
    while True:
        if not block:
            block = list(BLOCK)
            rng.shuffle(block)
        kind = block.pop()
        if kind.startswith("repeat-"):
            kind = kind[len("repeat-"):]
            if fresh[kind]:
                yield Slot("repeat", dict(rng.choice(fresh[kind])))
                continue
            # nothing of this kind to repeat yet: send a fresh one
        if kind == "workload":
            names = list(NAMES)
            rng.shuffle(names)
            payload: Dict[str, Any] = {
                "workloads": names,
                "rpm_steps": 1,
                "requests": shape["requests"],
                "seed": rng.randrange(1, 2**31),
            }
        else:
            payload = {
                "kind": "fleet_sweep",
                "racks": shape["racks"],
                "enclosures_per_rack": shape["enclosures"],
                "drives_per_enclosure": shape["drives"],
                "recirculation": round(rng.uniform(0.1, 0.35), 3),
                "cooling_budget_w": round(rng.uniform(220.0, 380.0), 1),
                "tiering_extents": rng.randrange(24, 96),
                "tiering_seed": rng.randrange(2**31),
            }
        fresh[kind].append(payload)
        yield Slot(kind, payload)


def cli_argv(payload: Dict[str, Any], out_path: str) -> List[str]:
    """The ``repro`` command line that computes the same results."""
    if payload.get("kind") == "fleet_sweep":
        return [
            "fleet",
            "--racks", str(payload["racks"]),
            "--enclosures", str(payload["enclosures_per_rack"]),
            "--drives", str(payload["drives_per_enclosure"]),
            "--recirculation", repr(payload["recirculation"]),
            "--cooling-budget", repr(payload["cooling_budget_w"]),
            "--tiering-extents", str(payload["tiering_extents"]),
            "--tiering-seed", str(payload["tiering_seed"]),
            "--backend", "serial",
            "--results-out", out_path,
        ]
    return [
        "sweep", "workload", ",".join(payload["workloads"]),
        "-n", str(payload["requests"]),
        "--steps", str(payload["rpm_steps"]),
        "--seed", str(payload["seed"]),
        "--backend", "serial",
        "--results-out", out_path,
    ]


# ---------------------------------------------------------------------------
# Server process
# ---------------------------------------------------------------------------


class Server:
    """``repro serve`` on an ephemeral port with its own fresh store."""

    def __init__(self) -> None:
        self.dir = scratch_dir("service-")
        port_file = os.path.join(self.dir, "port")
        start = mark()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--port-file", port_file,
                "--store-dir", os.path.join(self.dir, "store"),
                "--backend", "serial",
            ],
            env=program_env(),
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            self.port = self._wait_for_port(port_file)
        except BaseException:
            self.close()
            raise
        #: spawn until the port file was written (``net_s``)
        self.setup_s = net_s(start, mark())
        # The port file is written just before the stop-signal handlers
        # are installed; one served request means they are in place.
        status, _ = self.request("GET", "/healthz")
        if status != 200:
            self.close()
            raise RuntimeError(f"server unhealthy after start-up ({status})")

    def _wait_for_port(self, port_file: str) -> int:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited during start-up ({self.proc.returncode})")
            try:
                with open(port_file, "r", encoding="utf-8") as handle:
                    text = handle.read().strip()
                if text:
                    return int(text)
            except FileNotFoundError:
                pass
            time.sleep(0.002)
        raise RuntimeError("server wrote no port file within 60 s")

    def request(self, method: str, path: str, payload: Any = None) -> Tuple[int, bytes]:
        """One request on its own connection (the server closes every
        connection after one response)."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=JOB_TIMEOUT_S)
        try:
            body = None if payload is None else json.dumps(payload)
            conn.request(method, path, body=body)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def close(self) -> int:
        """SIGTERM, wait, and remove the store; returns the exit code."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
            return self.proc.returncode
        finally:
            remove_dir(self.dir)


def time_server_setup() -> float:
    samples = []
    for _ in range(SETUP_SAMPLES):
        server = Server()
        samples.append(server.setup_s)
        if server.close() != 0:
            raise RuntimeError("server did not shut down cleanly")
    return median(samples)


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------


@dataclass
class PassResult:
    slots: List[Slot]
    #: host seconds of the pass (``net_s``)
    net_s: float
    #: the client's own time between one job's end and the next send
    gap_ms: List[float]
    polls: int
    metrics_text: str
    server_rc: int
    #: share of the busy CPU time the hypervisor took during the pass
    stolen: float
    #: peak RSS of this process plus the server's, read once
    #: ``rss_jobs`` jobs are done
    rss_mb: float
    #: jobs done when ``rss_mb`` was read
    rss_jobs: int


class _Client:
    def __init__(self, server: Server, tracer: Optional[Tracer]) -> None:
        self.server = server
        self.tracer = tracer
        self.polls = 0

    def call(self, name: str, method: str, path: str, payload: Any = None) -> Tuple[int, bytes]:
        start = time.perf_counter()
        try:
            return self.server.request(method, path, payload)
        finally:
            if self.tracer is not None:
                self.tracer.record(name, start, time.perf_counter())

    def run_job(self, slot: Slot) -> None:
        """Submit, poll until finished, fetch; fills in ``slot``."""
        start = time.perf_counter()
        status, body = self.call("service.post", "POST", "/v1/jobs", slot.payload)
        if status in (200, 201):
            slot.job = json.loads(body)
            while slot.job["state"] not in ("done", "failed"):
                if time.perf_counter() - start > JOB_TIMEOUT_S:
                    break
                time.sleep(POLL_INTERVAL_S)
                self.polls += 1
                status, body = self.call("service.poll", "GET", f"/v1/jobs/{slot.job['id']}")
                if status != 200:
                    break
                slot.job = json.loads(body)
            if slot.job.get("state") == "done":
                status, slot.body = self.call(
                    "service.fetch", "GET", f"/v1/results/{slot.job['key']}"
                )
                slot.ok = status == 200
        slot.latency_ms = (time.perf_counter() - start) * 1000.0


def _warm_up(server: Server) -> None:
    """One small job of each kind, untimed, so the server's lazy imports
    are done before the window starts (a long-running server's users
    never pay them)."""
    client = _Client(server, None)
    for payload in (
        {"workloads": list(NAMES), "rpm_steps": 1, "requests": 10, "seed": 0},
        {"kind": "fleet_sweep", "racks": 1, "enclosures_per_rack": 1, "drives_per_enclosure": 1},
    ):
        slot = Slot("warm-up", payload)
        client.run_job(slot)
        if not slot.ok:
            raise RuntimeError(f"warm-up job {payload} did not finish")


def drive(
    seed: int, scale: str, seconds: float = 0.0, jobs: int = 0, tracer: Optional[Tracer] = None
) -> PassResult:
    """Run the job sequence against a fresh server for ``seconds`` (or
    for ``jobs`` jobs), never fewer than ``PINNED_SLOTS``.

    Peak RSS is read once ``rss_jobs`` jobs are done (or at the end, if
    the pass is shorter): the server and the client keep every job's
    document, so a figure read at the window's end would grow with the
    number of jobs the host's speed let into the window.
    """
    rss_jobs = SCALES[scale]["rss_jobs"]
    rss: Optional[Tuple[float, int]] = None
    server = Server()
    try:
        _warm_up(server)
        client = _Client(server, tracer)
        slots: List[Slot] = []
        gaps: List[float] = []
        sequence = schedule(seed, scale)
        start = mark()
        last_end = start.wall
        while (
            len(slots) < max(PINNED_SLOTS, jobs)
            or (not jobs and time.perf_counter() - start.wall < seconds)
        ):
            slot = next(sequence)
            gaps.append((time.perf_counter() - last_end) * 1000.0)
            client.run_job(slot)
            last_end = time.perf_counter()
            slots.append(slot)
            if len(slots) == rss_jobs:
                rss = _rss_mb(server), len(slots)
        end = mark()
        if rss is None:
            rss = _rss_mb(server), len(slots)
        stolen = steal_share(start, end)
        for slot in slots:
            slot.latency_ms = (slot.latency_ms or 0.0) * (1.0 - stolen)
        status, metrics = server.request("GET", "/metrics")
        text = metrics.decode("utf-8") if status == 200 else ""
    finally:
        rc = server.close()
    return PassResult(slots, net_s(start, end), gaps, client.polls, text, rc, stolen, *rss)


def _rss_mb(server: Server) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + process_peak_rss_mb(server.proc.pid)


def _sample(text: str, name: str) -> float:
    """Sum of the samples of one metric in a Prometheus exposition."""
    total = 0.0
    for line in text.splitlines():
        if line.startswith(name + " ") or line.startswith(name + "{"):
            total += float(line.rsplit(" ", 1)[1])
    return total


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _cli_bytes(argv: List[str]) -> Tuple[int, bytes]:
    """Run the ``repro`` CLI in this process; return (exit code, the
    bytes it wrote to ``--results-out``)."""
    from repro.cli import main as cli_main

    path = argv[-1]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = cli_main(argv)
    try:
        with open(path, "rb") as handle:
            return rc, handle.read()
    except FileNotFoundError:
        return rc, b""


def check_outputs(result: PassResult, out: Outcome) -> None:
    """Every distinct result must equal the CLI's bytes for its config."""
    if result.server_rc != 0:
        out.fail(f"server exited with {result.server_rc}")
    by_key: Dict[str, Slot] = {}
    for slot in result.slots:
        if not slot.ok:
            continue
        first = by_key.setdefault(slot.job["key"], slot)
        if slot.body != first.body:
            slot.ok = False
            out.failures.append("a repeat's result bytes differ from the first submission's")
    work = scratch_dir("service-cli-")
    try:
        keys = sorted(by_key)
        argvs = [cli_argv(by_key[k].payload, os.path.join(work, k + ".json")) for k in keys]
        # fork, not spawn: a spawn context starts multiprocessing's
        # resource tracker, which outlives this process.
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=WORKERS, mp_context=context) as pool:
            expected = list(pool.map(_cli_bytes, argvs, chunksize=8))
    finally:
        remove_dir(work)
    for key, (rc, data) in zip(keys, expected):
        if rc != 0 or data != by_key[key].body:
            for other in result.slots:
                if other.job.get("key") == key:
                    other.ok = False
            out.failures.append(f"result {key[:12]} differs from the CLI's bytes")
    # Pinned: the results of the sequence's first PINNED_SLOTS jobs, which
    # do not depend on the window length.
    head = result.slots[:PINNED_SLOTS]
    pairs = sorted({(s.job.get("key", ""), digest(s.body)) for s in head})
    out.digests[f"results_first{len(head)}"] = digest(json.dumps(pairs).encode("utf-8"))
    out.attempted += len(result.slots)
    bad = sum(1 for slot in result.slots if not slot.ok)
    if bad:
        out.fail(f"{bad} job(s) failed, were refused or returned wrong bytes", bad)


def _latencies(slots: List[Slot], fresh: bool) -> List[float]:
    return [
        (s.latency_ms if s.ok and s.latency_ms is not None else 2 * LATENCY_LIMIT_MS)
        for s in slots
        if (s.kind != "repeat") == fresh
    ]


def _repeat_block_means(slots: List[Slot]) -> List[float]:
    """Mean repeat latency of each whole block of ten jobs that holds all
    three of ``BLOCK``'s repeats (the first may hold fewer: a repeat drawn
    before anything of its kind was sent goes out fresh).  Every block
    repeats two sweeps and one fleet job, so these means are comparable,
    and a repeated fleet job (~20 ms) weighs in every one of them; the
    plain p50 over all repeats instead falls among the 2-3 ms sweep
    repeats' upper tail, which a few ms of stolen CPU stretch."""
    want = sum(1 for kind in BLOCK if kind.startswith("repeat-"))
    means = []
    for i in range(0, len(slots) - len(BLOCK) + 1, len(BLOCK)):
        block = _latencies(slots[i:i + len(BLOCK)], fresh=False)
        if len(block) == want:
            means.append(sum(block) / want)
    return means


def run(seed: int, seconds: float, trace: bool, scale: str) -> Outcome:
    out = Outcome()
    if trace:
        return _run_traced(seed, scale, out)
    setup_s = time_server_setup()
    result = drive(seed, scale, seconds=seconds)
    out.metrics["peak_rss_mb"] = (result.rss_mb, "MB")
    if result.rss_jobs < SCALES[scale]["rss_jobs"]:
        out.notes.append(f"peak RSS read after only {result.rss_jobs} jobs")
    check_outputs(result, out)
    fresh = _latencies(result.slots, fresh=True)
    repeat = _latencies(result.slots, fresh=False)
    out.metrics["setup_s"] = (setup_s, "s")
    out.metrics["primary_ms"] = (percentile(fresh, 50), "ms")
    out.metrics["secondary_ms"] = (out.tail(fresh, "fresh jobs"), "ms")
    blocks = _repeat_block_means(result.slots)
    if not blocks:
        out.notes.append("no whole block of repeats; tertiary is the mean of all repeats")
        blocks = [sum(repeat) / len(repeat)]
    out.metrics["tertiary_ms"] = (median(blocks), "ms")
    out.figures["svc_fresh_p50_ms"] = out.metrics["primary_ms"]
    out.figures["svc_fresh_p90_ms"] = out.metrics["secondary_ms"]
    out.figures["svc_dedup_p50_ms"] = (percentile(repeat, 50), "ms")
    out.figures["svc_dedup_block_ms"] = out.metrics["tertiary_ms"]
    out.figures["fresh_jobs"] = (float(len(fresh)), "count")
    out.figures["repeat_jobs"] = (float(len(repeat)), "count")
    out.figures["jobs_per_s"] = (len(result.slots) / result.net_s, "jobs/s")
    busy = sum(
        s.job["finished_s"] - s.job["started_s"]
        for s in result.slots
        if s.ok and s.kind != "repeat" and s.job.get("started_s")
    )
    out.figures["server_busy"] = (busy / result.net_s, "ratio")
    out.figures["stolen_share"] = (result.stolen, "ratio")
    out.samples["fresh_ms"] = fresh
    out.samples["repeat_ms"] = repeat
    if out.metrics["secondary_ms"][0] > LATENCY_LIMIT_MS:
        out.notes.append(f"fresh p90 above the {LATENCY_LIMIT_MS:.0f} ms limit")
    return out


def _run_traced(seed: int, scale: str, out: Outcome) -> Outcome:
    jobs = SCALES[scale]["traced_jobs"]
    tracers: List[Tracer] = []

    def traced_pass() -> PassResult:
        tracer = Tracer(run_id=f"service-mixed-{seed}-{len(tracers)}")
        tracers.append(tracer)
        return drive(seed, scale, jobs=jobs, tracer=tracer)

    # abba's own times would include server start-up; use the passes'.
    plains, traceds, _, _ = abba(lambda: drive(seed, scale, jobs=jobs), traced_pass, pairs=2)
    for result in plains + traceds:
        check_outputs(result, out)
    plain_s = median([p.net_s for p in plains])
    traced_s = median([p.net_s for p in traceds])
    traced, tracer = traceds[0], tracers[0]

    spans = tracer.spans()

    def span_ms(name: str) -> float:
        values = [(s["end_s"] - s["start_s"]) * 1000.0 for s in spans if s["name"] == name]
        return median(values) if values else 0.0

    fresh_docs = [s.job for s in traced.slots if s.kind != "repeat" and s.ok]
    waits = [(j["started_s"] - j["created_s"]) * 1000.0 for j in fresh_docs if j.get("started_s")]
    computes = [
        (j["finished_s"] - j["started_s"]) * 1000.0
        for j in fresh_docs if j.get("finished_s") and j.get("started_s")
    ]
    hits = _sample(traced.metrics_text, "repro_store_hit_total")
    misses = _sample(traced.metrics_text, "repro_store_miss_total")
    out.metrics.update(
        {
            "service.post_ms": (span_ms("service.post"), "ms"),
            "service.fetch_ms": (span_ms("service.fetch"), "ms"),
            "service.queue_wait_ms": (median(waits) if waits else 0.0, "ms"),
            "service.compute_ms": (median(computes) if computes else 0.0, "ms"),
            "service.polls": (float(traced.polls), "count"),
            "service.dedup_hits": (_sample(traced.metrics_text, "repro_service_dedup_hits_total"), "count"),
            "load.late_p95_ms": (percentile(traced.gap_ms, 95), "ms"),
            "store.hits": (hits, "count"),
            "store.misses": (misses, "count"),
            "store.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
            "trace.untraced_wall_s": (plain_s, "s"),
            "trace.traced_wall_s": (traced_s, "s"),
            "trace.overhead_s": (traced_s - plain_s, "s"),
        }
    )
    out.spans = spans
    return out
