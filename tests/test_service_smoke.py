"""CI ``service-smoke`` gate: the real ``repro serve`` process.

Where :mod:`tests.test_service` drives the service in-process, this file
boots the actual CLI subprocess the way an operator would and asserts
the two contracts the service exists for:

* **Dedup + byte-identity** — two identical submissions share one job,
  and the bytes ``GET /v1/results/<key>`` returns are exactly what the
  CLI sweep path computes for the same config.
* **SIGTERM resume** — killing the server mid-job loses nothing that
  completed: a restarted server over the same store replays the
  finished tasks as cache hits and only computes the remainder.

Kept small (two tasks for the round trip, four chunkier ones for the
kill) so the gate stays well under a minute.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.simulation.sweep import results_json_bytes, sweep_workloads

PAYLOAD = {
    "workloads": ["tpcc", "oltp"],
    "rpm_steps": 2,
    "requests": 200,
    "seed": 11,
    "backend": "serial",
}


class _Server:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, store_dir, port_file):
        self.store_dir = store_dir
        self.port_file = port_file
        self.proc = None
        self.port = None

    def __enter__(self):
        argv = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--port-file",
            str(self.port_file),
            "--store-dir",
            str(self.store_dir),
            "--backend",
            "serial",
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(argv, env=env)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server died during startup: {self.proc.returncode}"
                )
            try:
                text = self.port_file.read_text().strip()
            except FileNotFoundError:
                text = ""
            if text:
                self.port = int(text)
                return self
            time.sleep(0.05)
        raise RuntimeError("server did not write its port file in 30 s")

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                raise

    def request(self, method, path, payload=None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            body = None if payload is None else json.dumps(payload)
            conn.request(method, path, body=body)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def json(self, method, path, payload=None):
        status, body = self.request(method, path, payload)
        return status, json.loads(body)

    def wait_job(self, job_id, timeout_s=120.0):
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            status, doc = self.json("GET", f"/v1/jobs/{job_id}")
            assert status == 200
            if doc["state"] in ("done", "failed"):
                return doc
            time.sleep(0.1)
        raise AssertionError(f"job {job_id} not terminal in {timeout_s} s")


@pytest.fixture
def store_dir(tmp_path):
    return tmp_path / "store"


def test_subprocess_dedup_and_cli_byte_identity(store_dir, tmp_path):
    with _Server(store_dir, tmp_path / "port") as server:
        status, first = server.json("POST", "/v1/jobs", PAYLOAD)
        assert status == 201
        status, second = server.json("POST", "/v1/jobs", PAYLOAD)
        assert status == 200
        assert second["deduplicated"] is True
        assert second["id"] == first["id"]

        doc = server.wait_job(first["id"])
        assert doc["state"] == "done"
        assert doc["progress"]["done"] == doc["progress"]["total"] == 4

        status, body = server.request("GET", f"/v1/results/{first['key']}")
        assert status == 200
        expected = results_json_bytes(
            sweep_workloads(["tpcc", "oltp"], rpm_steps=2, requests=200, seed=11)
        )
        assert body == expected

        status, metrics = server.request("GET", "/metrics")
        assert status == 200
        from repro.reporting import parse_prometheus_text

        parsed = parse_prometheus_text(metrics.decode("utf-8"))
        assert parsed["repro_service_dedup_hits_total"]["samples"] == {"": 1.0}
    assert server.proc.returncode == 0  # clean SIGTERM shutdown


def test_sigterm_midjob_then_restart_resumes_from_store(store_dir, tmp_path):
    # Four chunkier tasks (~0.3 s each, serial, on a 2-core Xeon VM) so
    # SIGTERM lands mid-job: the drain must reach the job before the
    # remaining tasks finish.
    payload = {
        "workloads": ["tpcc"],
        "rpm_steps": 4,
        "requests": 6000,
        "seed": 23,
        "backend": "serial",
    }
    with _Server(store_dir, tmp_path / "port-a") as server:
        status, doc = server.json("POST", "/v1/jobs", payload)
        assert status == 201
        job_id = doc["id"]
        # Wait for the first task to land, then pull the plug.
        deadline = time.monotonic() + 60.0
        done_before = 0
        while time.monotonic() < deadline:
            _, doc = server.json("GET", f"/v1/jobs/{job_id}")
            done_before = doc["progress"]["done"]
            if done_before >= 1 or doc["state"] in ("done", "failed"):
                break
            time.sleep(0.05)
        assert done_before >= 1, "job made no progress before the kill"
        server.proc.send_signal(signal.SIGTERM)
        server.proc.wait(timeout=30)
    assert server.proc.returncode == 0

    with _Server(store_dir, tmp_path / "port-b") as server:
        status, doc = server.json("POST", "/v1/jobs", payload)
        assert status == 201  # fresh process, fresh job ledger
        doc = server.wait_job(doc["id"])
        assert doc["state"] == "done"
        progress = doc["progress"]
        assert progress["done"] == progress["total"] == 4
        # Everything that completed before SIGTERM replays from the
        # store; the drain may have let at most the in-flight task land.
        assert progress["cached"] >= done_before
        assert progress["cached"] < progress["total"] or done_before == 4
    assert server.proc.returncode == 0


#: Child program for the start-up SIGTERM test: ``repro serve``'s entry
#: point, with the port-file write hooked so the process signals itself
#: the instant the file is opened — the earliest moment a supervisor
#: watching for the file could send SIGTERM.
_SIGTERM_AT_PORT_FILE = """
import builtins, os, signal, sys
from repro.service import app
from repro.store import ResultStore

store_dir, port_file = sys.argv[1], sys.argv[2]

def open_then_sigterm(path, *args, **kwargs):
    handle = builtins.open(path, *args, **kwargs)
    if path == port_file:
        os.kill(os.getpid(), signal.SIGTERM)
    return handle

app.open = open_then_sigterm
sys.exit(app.run_service(ResultStore(root=store_dir), port=0, port_file=port_file))
"""


def test_sigterm_as_port_file_appears_drains(store_dir, tmp_path):
    port_file = tmp_path / "port"
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _SIGTERM_AT_PORT_FILE, str(store_dir), str(port_file)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    # Killed by the signal, this is -SIGTERM; with the handlers in place
    # before the port file exists, the service drains and exits 0.
    assert proc.returncode == 0, proc.stderr
    assert "drained" in proc.stdout
    assert port_file.read_text().strip().isdigit()
