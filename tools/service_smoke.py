#!/usr/bin/env python
"""CI ``service-smoke`` driver: boot ``repro serve``, prove the economics.

Boots the real service as a subprocess on an ephemeral port, submits the
canonical smoke sweep twice (the second submission must dedup against
the first), waits for the job, writes the fetched ``/v1/results/<key>``
bytes to ``--out`` (CI then ``cmp``'s them against a ``repro sweep
workload --results-out`` artifact for byte-identity), runs one fleet job
with a non-default ``max_rounds`` and writes its results to
``--fleet-out`` (``cmp``'d against ``repro fleet --max-rounds 1``),
scrapes ``/metrics`` — asserting the exposition parses back and the
dedup counter reads 1 — and finally SIGTERMs the server, requiring a
clean exit.

Usage::

    PYTHONPATH=src python tools/service_smoke.py \
        --store-dir /tmp/svc-store --out service.json \
        --fleet-out service_fleet.json --metrics-out metrics.prom
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from typing import Any, Optional, Tuple

PAYLOAD = {
    "workloads": ["tpcc", "oltp"],
    "rpm_steps": 2,
    "requests": 200,
    "seed": 11,
    "backend": "serial",
}

#: The service twin of ``repro fleet --racks 2 --enclosures 3 --drives 4
#: --cooling-budget 150 --max-rounds 1 --backend serial``; one throttle
#: round leaves this fleet short of its default-``max_rounds`` result.
FLEET_PAYLOAD = {
    "kind": "fleet_sweep",
    "racks": 2,
    "enclosures_per_rack": 3,
    "drives_per_enclosure": 4,
    "cooling_budget_w": 150.0,
    "max_rounds": 1,
    "backend": "serial",
}


def request(
    port: int, method: str, path: str, payload: Optional[Any] = None
) -> Tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        body = None if payload is None else json.dumps(payload)
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def start_server(store_dir: str, port_file: str) -> "subprocess.Popen[bytes]":
    argv = [
        sys.executable,
        "-m",
        "repro",
        "serve",
        "--port",
        "0",
        "--port-file",
        port_file,
        "--store-dir",
        store_dir,
        "--backend",
        "serial",
    ]
    return subprocess.Popen(argv, env=dict(os.environ, PYTHONPATH="src"))


def wait_for_port(port_file: str, proc: "subprocess.Popen[bytes]") -> int:
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SystemExit(f"server died during startup: {proc.returncode}")
        try:
            with open(port_file, "r", encoding="utf-8") as handle:
                text = handle.read().strip()
            if text:
                return int(text)
        except FileNotFoundError:
            pass
        time.sleep(0.05)
    raise SystemExit("server did not write its port file in 30 s")


def wait_for_job(port: int, job_id: str) -> Any:
    """Poll one job until it finishes; returns its final document."""
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        status, body = request(port, "GET", f"/v1/jobs/{job_id}")
        assert status == 200, (status, body)
        doc = json.loads(body)
        if doc["state"] in ("done", "failed"):
            break
        time.sleep(0.2)
    assert doc["state"] == "done", doc
    return doc


def fetch_results(port: int, key: str, out: str) -> None:
    """Write one job's ``/v1/results/<key>`` bytes to ``out``."""
    status, results = request(port, "GET", f"/v1/results/{key}")
    assert status == 200, status
    with open(out, "wb") as handle:
        handle.write(results)
    print(f"results: {len(results)} bytes -> {out}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--store-dir", required=True)
    parser.add_argument(
        "--out", required=True, help="where the fetched results bytes land"
    )
    parser.add_argument(
        "--fleet-out", required=True, help="where the fleet job's results land"
    )
    parser.add_argument(
        "--metrics-out", default=None, help="optional raw /metrics dump"
    )
    args = parser.parse_args()

    from repro.reporting import parse_prometheus_text

    port_file = os.path.join(tempfile.mkdtemp(prefix="repro-svc-"), "port")
    proc = start_server(args.store_dir, port_file)
    try:
        port = wait_for_port(port_file, proc)
        print(f"service up on port {port}")

        status, body = request(port, "POST", "/v1/jobs", PAYLOAD)
        assert status == 201, (status, body)
        first = json.loads(body)
        assert first["deduplicated"] is False

        status, body = request(port, "POST", "/v1/jobs", PAYLOAD)
        assert status == 200, (status, body)
        second = json.loads(body)
        assert second["deduplicated"] is True, second
        assert second["id"] == first["id"]
        print(f"dedup confirmed: both submissions map to {first['id']}")

        progress = wait_for_job(port, first["id"])["progress"]
        print(
            f"job done: {progress['done']}/{progress['total']} tasks "
            f"({progress['cached']} cached)"
        )
        fetch_results(port, first["key"], args.out)

        status, body = request(port, "POST", "/v1/jobs", FLEET_PAYLOAD)
        assert status == 201, (status, body)
        fleet = json.loads(body)
        wait_for_job(port, fleet["id"])
        print(f"fleet job done: max_rounds={FLEET_PAYLOAD['max_rounds']}")
        fetch_results(port, fleet["key"], args.fleet_out)

        status, metrics = request(port, "GET", "/metrics")
        assert status == 200, status
        text = metrics.decode("utf-8")
        if args.metrics_out:
            with open(args.metrics_out, "w", encoding="utf-8") as handle:
                handle.write(text)
        parsed = parse_prometheus_text(text)
        dedup = parsed["repro_service_dedup_hits_total"]["samples"]
        assert list(dedup.values()) == [1.0], dedup
        assert "repro_service_jobs_completed_total" in parsed
        assert "repro_service_jobs_by_workload_total" in parsed
        print(f"metrics: {len(parsed)} families parsed back, dedup_hits=1")
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise SystemExit("server ignored SIGTERM for 30 s")
    assert proc.returncode == 0, f"server exit code {proc.returncode}"
    print("clean SIGTERM shutdown; service smoke passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
