"""Tests for the sweep job service (:mod:`repro.service`).

Three layers:

* schema/key tests — strict parsing, the material-fields-only dedup key;
* :class:`JobManager` lifecycle — run-to-done byte-identity with the CLI
  sweep path, concurrent duplicate submissions computing once, graceful
  drain followed by a zero-recompute resume on a fresh manager;
* HTTP tests against an in-process :class:`ServiceApp` on an ephemeral
  port — submit/dedup/status/events/results/metrics plus the error
  surface (404/405/400/503).
"""

import http.client
import json
import threading
import time

import pytest

from repro.errors import ServiceError
from repro.service import (
    JobManager,
    ServiceApp,
    SweepJobConfig,
    job_config_key,
    parse_job_request,
)
from repro.service.jobs import JOB_DONE, JOB_FAILED, TASK_CACHED, TASK_DONE
from repro.simulation.sweep import results_json_bytes, sweep_workloads
from repro.store import ResultStore, stable_json
from repro.store.canonical import text_digest
from repro.telemetry import Telemetry

#: Small-but-not-instant sweep: two tasks at ~0.1 s each on the serial
#: backend, enough room for the drain test to interrupt reliably.
PAYLOAD = {
    "workloads": ["tpcc"],
    "rpm_steps": 2,
    "requests": 120,
    "seed": 11,
    "backend": "serial",
}

#: A small fleet job: two racks of 3 x 4 drives, one throttle round.
FLEET_PAYLOAD = {
    "kind": "fleet_sweep",
    "racks": 2,
    "enclosures_per_rack": 3,
    "drives_per_enclosure": 4,
    "cooling_budget_w": 150.0,
    "max_rounds": 1,
    "backend": "serial",
}


def _store(tmp_path, name="store"):
    return ResultStore(root=tmp_path / name)


def _manager(tmp_path, name="store"):
    telemetry = Telemetry()
    return JobManager(_store(tmp_path, name), telemetry=telemetry, retries=0)


def _counter(manager, name):
    metric = manager.telemetry.registry.get(name)
    return 0.0 if metric is None else metric.value


class TestSchemas:
    def test_unknown_field_rejected(self):
        with pytest.raises(ServiceError) as exc:
            parse_job_request({"workloads": ["tpcc"], "rqeuests": 5})
        assert exc.value.status == 400
        assert "rqeuests" in str(exc.value)

    def test_non_object_rejected(self):
        with pytest.raises(ServiceError):
            parse_job_request(["tpcc"])

    def test_missing_workloads_rejected(self):
        with pytest.raises(ServiceError):
            parse_job_request({"requests": 10})

    def test_bool_does_not_pass_as_count(self):
        with pytest.raises(ServiceError):
            parse_job_request({"workloads": ["tpcc"], "requests": True})

    def test_wrong_types_rejected(self):
        for bad in (
            {"workloads": "tpcc"},
            {"workloads": ["tpcc"], "rpms": "fast"},
            {"workloads": ["tpcc"], "rpms": [True]},
            {"workloads": ["tpcc"], "engine": 5},
            {"workloads": [""]},
            {"workloads": []},
            {"workloads": ["tpcc"], "requests": 0},
            {"workloads": ["tpcc"], "rpm_steps": -1},
            {"workloads": ["tpcc"], "retries": -1},
        ):
            with pytest.raises(ServiceError):
                parse_job_request(bad)

    def test_execution_knobs_do_not_enter_key(self):
        base = parse_job_request(PAYLOAD)
        tweaked = parse_job_request(
            dict(PAYLOAD, backend="process", retries=5, workers=3)
        )
        assert job_config_key(base) == job_config_key(tweaked)

    def test_material_fields_change_key(self):
        base = parse_job_request(PAYLOAD)
        for delta in (
            {"seed": 12},
            {"requests": 121},
            {"rpm_steps": 3},
            {"workloads": ["oltp"]},
            {"engine": "analytic"},
            {"inject_faults": True},
        ):
            other = parse_job_request(dict(PAYLOAD, **delta))
            assert job_config_key(base) != job_config_key(other), delta

    def test_fault_fields_fold_away_when_injection_off(self):
        base = parse_job_request(PAYLOAD)
        noisy = parse_job_request(
            dict(PAYLOAD, fault_seed=99, media_rate=0.5, servo_rate=0.5)
        )
        assert job_config_key(base) == job_config_key(noisy)
        on = parse_job_request(dict(PAYLOAD, inject_faults=True, fault_seed=99))
        assert job_config_key(base) != job_config_key(on)

    def test_defaults_match_cli_sweep_defaults(self):
        config = parse_job_request({"workloads": ["tpcc"]})
        assert config == SweepJobConfig(workloads=("tpcc",))
        assert config.requests == 6000
        assert config.rpm_steps == 4
        assert config.media_rate == 0.01
        assert config.servo_rate == 0.0


class TestJobManager:
    def test_job_runs_to_done_with_cli_byte_identity(self, tmp_path):
        manager = _manager(tmp_path)
        job, deduped = manager.submit(PAYLOAD)
        assert not deduped
        manager.wait_for_job(job.id, timeout_s=60.0)
        assert job.state == JOB_DONE
        assert job.error is None
        assert job.done_tasks == len(job.task_keys) == 2
        assert all(s in (TASK_DONE, TASK_CACHED) for s in job.task_states)
        # The service's stored document is byte-for-byte what the CLI
        # sweep path would write for the same config.
        expected = results_json_bytes(
            sweep_workloads(
                ["tpcc"], rpm_steps=2, requests=120, seed=11
            )
        )
        assert manager.results_bytes(job.key) == expected
        manager.drain(timeout_s=10.0)

    def test_concurrent_duplicate_submissions_compute_once(self, tmp_path):
        manager = _manager(tmp_path)
        barrier = threading.Barrier(2)
        outcomes = []

        def submit():
            barrier.wait()
            outcomes.append(manager.submit(PAYLOAD))

        threads = [threading.Thread(target=submit) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(outcomes) == 2
        (job_a, dedup_a), (job_b, dedup_b) = outcomes
        assert job_a.id == job_b.id
        assert sorted([dedup_a, dedup_b]) == [False, True]
        assert len(manager.jobs()) == 1
        assert _counter(manager, "service.dedup_hits") == 1.0
        manager.wait_for_job(job_a.id, timeout_s=60.0)
        assert job_a.state == JOB_DONE
        # The one computation has zero store hits: nothing was cached.
        assert job_a.store_hits == 0
        assert job_a.store_misses == 2
        manager.drain(timeout_s=10.0)

    def test_resubmit_after_done_is_deduped(self, tmp_path):
        manager = _manager(tmp_path)
        job, _ = manager.submit(PAYLOAD)
        manager.wait_for_job(job.id, timeout_s=60.0)
        again, deduped = manager.submit(PAYLOAD)
        assert deduped
        assert again.id == job.id
        manager.drain(timeout_s=10.0)

    def test_explicit_ladder_folds_rpm_steps(self, tmp_path):
        # With ``rpms`` set, ``rpm_steps`` shapes no task, so it must not
        # split the dedup key either.
        ladder = dict(PAYLOAD, rpms=[10000.0, 20000.0])
        first = parse_job_request(dict(ladder, rpm_steps=2))
        second = parse_job_request(dict(ladder, rpm_steps=7))
        assert first.build_tasks() == second.build_tasks()
        assert job_config_key(first) == job_config_key(second)
        manager = _manager(tmp_path)
        job, _ = manager.submit(dict(ladder, rpm_steps=2))
        again, deduped = manager.submit(dict(ladder, rpm_steps=7))
        assert deduped
        assert again.id == job.id
        manager.drain(timeout_s=10.0)

    def test_tasks_built_once_per_job(self, tmp_path, monkeypatch):
        calls = []
        build = SweepJobConfig.build_tasks

        def counting(config, *args, **kwargs):
            calls.append(config)
            return build(config, *args, **kwargs)

        monkeypatch.setattr(SweepJobConfig, "build_tasks", counting)
        manager = _manager(tmp_path)
        job, _ = manager.submit(PAYLOAD)
        manager.wait_for_job(job.id, timeout_s=60.0)
        assert job.state == JOB_DONE
        assert len(calls) == 1
        assert job.tasks is None  # a finished job holds keys, not tasks
        _, deduped = manager.submit(PAYLOAD)
        assert deduped
        assert len(calls) == 1
        manager.drain(timeout_s=10.0)

    def test_drain_then_restart_resumes_with_zero_recompute(self, tmp_path):
        manager = _manager(tmp_path)
        # Four ~0.1 s tasks leave the watcher ample room to trip the
        # drain flag between the first landing and the last.
        payload = dict(PAYLOAD, rpm_steps=4)
        job, _ = manager.submit(payload)

        def drain_after_first_task():
            with manager._cond:
                while not any(e["event"] == "task_done" for e in job.events):
                    manager._cond.wait(30.0)
            manager._draining.set()

        watcher = threading.Thread(target=drain_after_first_task)
        watcher.start()
        deadline = time.monotonic() + 60.0
        with manager._cond:
            while not job.terminal and time.monotonic() < deadline:
                manager._cond.wait(1.0)
        watcher.join(10.0)
        manager.drain(timeout_s=10.0)
        assert job.state == JOB_FAILED
        assert job.error in ("drained", "drained before start")
        completed = job.done_tasks
        total = len(job.task_keys)
        assert 0 < completed < total
        # While draining, submissions are refused with a 503.
        with pytest.raises(ServiceError) as exc:
            manager.submit(payload)
        assert exc.value.status == 503

        # A fresh manager over the same store resumes the job: every
        # task that landed before the drain replays as a store hit.
        restarted = _manager(tmp_path)
        resumed, deduped = restarted.submit(payload)
        assert not deduped  # failed jobs don't absorb resubmissions
        assert resumed is not job
        assert resumed.key == job.key
        restarted.wait_for_job(resumed.id, timeout_s=60.0)
        assert resumed.state == JOB_DONE
        assert resumed.store_hits == completed
        assert resumed.store_misses == total - completed
        assert resumed.cached_hits == completed
        restarted.drain(timeout_s=10.0)

    def test_results_bytes_rejects_bad_and_missing_keys(self, tmp_path):
        manager = _manager(tmp_path)
        with pytest.raises(ServiceError) as exc:
            manager.results_bytes("not hex!")
        assert exc.value.status == 400
        with pytest.raises(ServiceError) as exc:
            manager.results_bytes("0" * 32)
        assert exc.value.status == 404
        manager.drain(timeout_s=10.0)

    def test_results_bytes_are_the_stored_payload_serialized(self, tmp_path):
        manager = _manager(tmp_path)
        job, _ = manager.submit(FLEET_PAYLOAD)
        manager.wait_for_job(job.id, timeout_s=60.0)
        assert job.state == JOB_DONE
        stored = manager.results_bytes(job.key)
        assert stored == (stable_json(manager.store.get(job.key)) + "\n").encode()
        # Evict the assembled document: the rebuild from the per-task
        # entries serves the same bytes and re-persists the document.
        manager.store.path_for(job.key).unlink()
        rebuilt = manager.results_bytes(job.key)
        assert rebuilt == stored
        assert manager.store.get_text(job.key) + "\n" == stored.decode()
        manager.drain(timeout_s=10.0)

    def test_results_bytes_quarantine_a_tampered_document(self, tmp_path):
        manager = _manager(tmp_path)
        job, _ = manager.submit(FLEET_PAYLOAD)
        manager.wait_for_job(job.id, timeout_s=60.0)
        expected = manager.results_bytes(job.key)
        path = manager.store.path_for(job.key)
        envelope = json.loads(path.read_text())
        # Re-spaced on disk, same digest: the served text is the verified
        # re-serialization, never the raw file.
        path.write_text(json.dumps(envelope, indent=2))
        assert manager.results_bytes(job.key) == expected
        assert manager.store.corrupt == 0
        # Re-spaced and re-digested over its own raw text: quarantined,
        # and the fetch rebuilds the document from the per-task entries.
        raw = json.dumps(envelope.pop("payload"), indent=2, sort_keys=True)
        envelope["payload_digest"] = text_digest(raw)
        path.write_text('{"payload": ' + raw + ", " + json.dumps(envelope)[1:])
        assert manager.results_bytes(job.key) == expected
        assert manager.store.corrupt == 1
        manager.drain(timeout_s=10.0)

    def test_get_unknown_job_is_404(self, tmp_path):
        manager = _manager(tmp_path)
        with pytest.raises(ServiceError) as exc:
            manager.get("job-999999-deadbeef")
        assert exc.value.status == 404
        manager.drain(timeout_s=10.0)

    def test_unknown_workload_rejected_before_queueing(self, tmp_path):
        manager = _manager(tmp_path)
        with pytest.raises(ServiceError) as exc:
            manager.submit({"workloads": ["no-such-workload"]})
        assert exc.value.status == 400
        assert manager.jobs() == []
        manager.drain(timeout_s=10.0)

    def test_unknown_engine_rejected_before_queueing(self, tmp_path):
        manager = _manager(tmp_path)
        with pytest.raises(ServiceError, match="unknown engine") as exc:
            manager.submit({"workloads": ["oltp"], "engine": "vectorized"})
        assert exc.value.status == 400
        assert manager.jobs() == []
        manager.drain(timeout_s=10.0)

    def test_metrics_text_round_trips_with_labels(self, tmp_path):
        from repro.reporting import parse_prometheus_text
        from repro.reporting.telemetry_export import parse_label_set

        manager = _manager(tmp_path)
        job, _ = manager.submit(PAYLOAD)
        manager.wait_for_job(job.id, timeout_s=60.0)
        labels = {"instance": 'replica "one"\n'}
        text = manager.metrics_text(labels=labels)
        parsed = parse_prometheus_text(text)
        submitted = parsed["repro_service_jobs_submitted_total"]
        (suffix,) = submitted["samples"]
        assert parse_label_set(suffix) == labels
        assert submitted["samples"][suffix] == 1.0
        per_workload = parsed["repro_service_jobs_by_workload_total"]
        (suffix,) = per_workload["samples"]
        assert parse_label_set(suffix) == dict(labels, workload="tpcc")
        assert per_workload["samples"][suffix] == 1.0
        manager.drain(timeout_s=10.0)


class _Service:
    """An in-process service on an ephemeral port, for HTTP tests."""

    def __init__(self, tmp_path):
        self.app = ServiceApp(
            _store(tmp_path, "http-store"),
            telemetry=Telemetry(),
            port=0,
            retries=0,
            drain_timeout_s=10.0,
            metric_labels={"instance": "t-http"},
        )
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def _serve(self):
        import asyncio

        async def main():
            await self.app.start()
            self._ready.set()
            assert self.app._stop is not None
            await self.app._stop.wait()
            await self.app.shutdown()

        asyncio.run(main())

    def __enter__(self):
        self._thread.start()
        if not self._ready.wait(10.0):
            raise RuntimeError("service did not start")
        return self

    def __exit__(self, *exc):
        self.app.request_stop()
        self._thread.join(30.0)

    def request(self, method, path, payload=None):
        conn = http.client.HTTPConnection("127.0.0.1", self.app.port, timeout=60)
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


class TestHTTP:
    def test_full_lifecycle_over_http(self, tmp_path):
        with _Service(tmp_path) as service:
            status, health = service.json("GET", "/healthz")
            assert (status, health["status"]) == (200, "ok")

            status, doc = service.json("POST", "/v1/jobs", PAYLOAD)
            assert status == 201
            assert doc["deduplicated"] is False
            assert doc["schema"] == "repro.service.job/1"
            job_id, key = doc["id"], doc["key"]

            # Idempotent resubmission: same job, dedup flagged.
            status, doc2 = service.json("POST", "/v1/jobs", PAYLOAD)
            assert status == 200
            assert doc2["deduplicated"] is True
            assert doc2["id"] == job_id

            # The chunked event stream runs queued -> terminal.
            status, body = service.request(
                "GET", f"/v1/jobs/{job_id}/events"
            )
            assert status == 200
            events = [json.loads(line) for line in body.splitlines()]
            kinds = [e["event"] for e in events]
            assert kinds[0] == "job_queued"
            assert kinds[-1] == "job_done"
            assert kinds.count("task_done") == 2
            assert [e["seq"] for e in events] == list(range(len(events)))

            status, doc = service.json("GET", f"/v1/jobs/{job_id}")
            assert status == 200
            assert doc["state"] == "done"
            assert doc["progress"]["done"] == doc["progress"]["total"] == 2

            status, listing = service.json("GET", "/v1/jobs")
            assert status == 200
            assert [j["id"] for j in listing["jobs"]] == [job_id]

            # Results bytes match the CLI sweep path exactly.
            status, body = service.request("GET", f"/v1/results/{key}")
            assert status == 200
            expected = results_json_bytes(
                sweep_workloads(["tpcc"], rpm_steps=2, requests=120, seed=11)
            )
            assert body == expected

            # Metrics carry the instance label and parse back.
            from repro.reporting import parse_prometheus_text
            from repro.reporting.telemetry_export import parse_label_set

            status, body = service.request("GET", "/metrics")
            assert status == 200
            parsed = parse_prometheus_text(body.decode("utf-8"))
            dedup = parsed["repro_service_dedup_hits_total"]
            (suffix,) = dedup["samples"]
            assert parse_label_set(suffix) == {"instance": "t-http"}
            assert dedup["samples"][suffix] == 1.0

    def test_http_error_surface(self, tmp_path):
        with _Service(tmp_path) as service:
            status, body = service.json("GET", "/v1/jobs/job-000042-cafebabe")
            assert status == 404
            assert "no such job" in body["error"]

            status, body = service.json("DELETE", "/v1/jobs")
            assert status == 405

            status, body = service.json("GET", "/no/such/route")
            assert status == 404

            status, body = service.json(
                "POST", "/v1/jobs", {"workloads": ["tpcc"], "bogus": 1}
            )
            assert status == 400
            assert "bogus" in body["error"]

            status, _ = service.request("POST", "/v1/jobs", None)
            assert status == 400  # empty body is not valid JSON

    def test_unknown_engine_is_a_400_at_the_wire(self, tmp_path):
        with _Service(tmp_path) as service:
            status, body = service.json(
                "POST", "/v1/jobs", {"workloads": ["oltp"], "engine": "vectorized"}
            )
            assert status == 400
            assert "unknown engine" in body["error"]
            assert service.app.manager.jobs() == []
            status, listing = service.json("GET", "/v1/jobs")
            assert (status, listing["jobs"]) == (200, [])


    @pytest.mark.parametrize(
        "body, message",
        [
            (b'{"kind": "fleet_sweep", "racks": 1, "inlet_c": NaN}', "non-finite number NaN"),
            (
                b'{"kind": "fleet_sweep", "racks": 1, "rpm_levels": [9600, Infinity]}',
                "non-finite number Infinity",
            ),
            (
                b'{"kind": "fleet_sweep", "racks": 1, "envelope_c": -Infinity}',
                "non-finite number -Infinity",
            ),
            (b'{"kind": "fleet_sweep", "racks": 1, "inlet_c": 1e400}', "1e400 is not finite"),
            (
                b'{"workloads": ["tpcc"], "requests": 50, "media_rate": -1e400}',
                "-1e400 is not finite",
            ),
            (
                b'{"kind": "fleet_sweep", "racks": 1, "inlet_c": 1' + b"0" * 400 + b"}",
                "'inlet_c' does not fit a float",
            ),
            (
                b'{"kind": "fleet_sweep", "racks": 1, "rpm_levels": [-1' + b"0" * 400 + b"]}",
                "'rpm_levels' does not fit a float",
            ),
        ],
    )
    def test_non_finite_numbers_are_refused_at_the_wire(self, tmp_path, body, message):
        with _Service(tmp_path) as service:
            conn = http.client.HTTPConnection("127.0.0.1", service.app.port, timeout=60)
            try:
                conn.request("POST", "/v1/jobs", body=body)
                response = conn.getresponse()
                status, reply = response.status, json.loads(response.read())
            finally:
                conn.close()
            assert status == 400
            assert message in reply["error"]
            assert service.app.manager.jobs() == []
            status, listing = service.json("GET", "/v1/jobs")
            assert (status, listing["jobs"]) == (200, [])


def _fuzz_cases(seed=0x5EED, per_family=12):
    """(label, raw request bytes, expectation) for hostile requests.

    ``"4xx"`` accepts any client error; ``"400"`` and ``"length"`` demand
    the parser's own 400 (``length``: a plain Content-Length message,
    never Python's ``int()`` text).  A closed connection with no reply
    is always acceptable.
    """
    import random

    from repro.service.app import MAX_HEADER_LINES

    rng = random.Random(seed)
    junk = bytes(range(32, 127)) + b"\t\x00\x7f\xb2\xff"
    cases = [("empty line", b"\r\n", "4xx")]
    for index in range(per_family):
        tokens = [
            bytes(rng.choice(junk) for _ in range(rng.randrange(1, 12)))
            for _ in range(rng.choice((1, 2, 4, 5)))
        ]
        cases.append((f"request line {index}", b" ".join(tokens) + b"\r\n", "4xx"))
    for index in range(per_family):
        lines = rng.randrange(MAX_HEADER_LINES + 1, 3 * MAX_HEADER_LINES)
        headers = b"".join(b"X-Flood-%d: %d\r\n" % (n, rng.randrange(10**6))
                           for n in range(lines))
        cases.append((f"header flood {index}",
                      b"GET /healthz HTTP/1.1\r\n" + headers + b"\r\n", "400"))
    lengths = [b"-1", b"-4096", b"abc", b"1e3", b"0x10", b"+5", b"5 5",
               b"\xb2", b"\xd9\xa3", b"12.0"]
    for _ in range(per_family - len(lengths)):
        lengths.append(b"-%d" % rng.randrange(1, 10**9))
    for index, value in enumerate(lengths):
        cases.append((f"length {index} {value!r}",
                      b"POST /v1/jobs HTTP/1.1\r\nContent-Length: " + value
                      + b"\r\n\r\n{}", "length"))
    cases.append(("length too large",
                  b"POST /v1/jobs HTTP/1.1\r\nContent-Length: " + b"9" * 30
                  + b"\r\n\r\n", "400"))
    cases.append(("short body", b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 50"
                  b"\r\n\r\n{}", "4xx"))
    return cases


async def _exchange(port, raw):
    """Send ``raw``, half-close, read the reply (b"" if the peer closed)."""
    import asyncio

    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(raw)
        await writer.drain()
        writer.write_eof()
        return await reader.read()
    except ConnectionError:
        return b""
    finally:
        writer.close()


class TestRequestParserFuzz:
    def test_hostile_requests_get_a_4xx_or_a_close_never_a_500(self, tmp_path):
        import asyncio

        async def run_all(port):
            outcomes = []
            for label, raw, expect in _fuzz_cases():
                reply = await asyncio.wait_for(_exchange(port, raw), timeout=10.0)
                outcomes.append((label, expect, reply))
            return outcomes

        with _Service(tmp_path) as service:
            outcomes = asyncio.run(run_all(service.app.port))
            # The server survived every case and still answers.
            status, health = service.json("GET", "/healthz")
            assert (status, health["status"]) == (200, "ok")

        answered = 0
        for label, expect, reply in outcomes:
            if not reply:
                continue  # a closed connection is an acceptable answer
            answered += 1
            head, _, body = reply.partition(b"\r\n\r\n")
            status = int(head.split(b" ", 2)[1])
            assert 400 <= status < 500, (label, reply[:200])
            if expect in ("400", "length"):
                assert status == 400, (label, reply[:200])
            if expect == "length":
                assert json.loads(body)["error"] == (
                    "Content-Length must be a non-negative integer"
                ), label
        assert answered >= len(outcomes) // 2


class TestReadTimeout:
    """A client that stalls mid-request is disconnected within
    ``READ_TIMEOUT_S``; a prompt client is unaffected."""

    BOUND_S = 0.5

    def test_stalled_client_is_disconnected_and_normal_requests_succeed(
        self, tmp_path, monkeypatch
    ):
        import asyncio

        from repro.service import app as service_app

        monkeypatch.setattr(service_app, "READ_TIMEOUT_S", self.BOUND_S)

        async def stall(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                # Half a request: the request line and one header, no
                # terminating blank line, and the socket stays open.
                writer.write(b"GET /healthz HTTP/1.1\r\nHost: x\r\n")
                await writer.drain()
                started = time.monotonic()
                reply = await asyncio.wait_for(reader.read(), timeout=10.0)
                return reply, time.monotonic() - started
            finally:
                writer.close()

        with _Service(tmp_path) as service:
            reply, waited = asyncio.run(stall(service.app.port))
            status, health = service.json("GET", "/healthz")
        assert reply == b""  # closed without a reply
        assert waited < self.BOUND_S + 5.0
        assert (status, health["status"]) == (200, "ok")
