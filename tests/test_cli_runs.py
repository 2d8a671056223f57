"""The shared run path of ``repro sweep workload`` and ``repro fleet``.

Both commands hand their tasks to one CLI helper that owns the result
store, ``--resume``, strict vs ``--partial-results``, the manifest and
``--results-out``.  Every case runs for both commands on tiny configs
with the serial backend, in temp directories:

* a cold ``--store --partial-results --manifest-out`` run, then a
  ``--resume`` run that is all store hits with identical result bytes;
* a strict run and a ``--partial-results`` run write identical bytes;
* ``--resume`` against another config's manifest is an error.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.cli import main

#: Tiny argv per command; ``other`` changes every task key.
COMMANDS = {
    "sweep": {
        "argv": ["sweep", "workload", "tpcc", "-n", "150", "--steps", "2",
                 "--seed", "5", "--backend", "serial"],
        "other": ["--seed", "6"],
        "tasks": 2,
    },
    "fleet": {
        "argv": ["fleet", "--racks", "2", "--enclosures", "2", "--drives", "2",
                 "--backend", "serial"],
        "other": ["--recirculation", "0.3"],
        "tasks": 2,
    },
}

STORE_LINE = re.compile(r"store: (\d+) hit\(s\), (\d+) miss\(es\), 0 corrupt")


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(params=sorted(COMMANDS))
def command(request, tmp_path, monkeypatch):
    # A --resume run writes its manifest to the default path in the
    # working directory; keep that inside the test's temp dir.
    monkeypatch.chdir(tmp_path)
    return COMMANDS[request.param]


def test_cold_store_run_then_resume_is_all_hits(command, tmp_path, capsys):
    store = ["--store", "--store-dir", str(tmp_path / "store")]
    manifest = tmp_path / "manifest.json"
    cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
    code, out, _ = _run(
        capsys,
        command["argv"] + store + [
            "--partial-results", "--manifest-out", str(manifest),
            "--results-out", str(cold),
        ],
    )
    assert code == 0
    assert STORE_LINE.search(out).groups() == ("0", str(command["tasks"]))
    assert "backend: serial" in out
    document = json.loads(manifest.read_text())
    assert document["tasks_ok"] == document["tasks_total"] == command["tasks"]
    assert len(document["store"]["task_keys"]) == command["tasks"]

    code, out, _ = _run(
        capsys,
        command["argv"] + store + [
            "--resume", str(manifest), "--results-out", str(warm),
        ],
    )
    assert code == 0
    assert f"resuming from {manifest}" in out
    assert STORE_LINE.search(out).groups() == (str(command["tasks"]), "0")
    assert warm.read_bytes() == cold.read_bytes()


def test_strict_and_partial_runs_write_identical_bytes(command, tmp_path, capsys):
    strict, partial = tmp_path / "strict.json", tmp_path / "partial.json"
    code, _, _ = _run(capsys, command["argv"] + ["--results-out", str(strict)])
    assert code == 0
    code, out, _ = _run(
        capsys,
        command["argv"] + [
            "--partial-results", "--manifest-out", str(tmp_path / "m.json"),
            "--results-out", str(partial),
        ],
    )
    assert code == 0
    assert "completed; manifest written to" in out
    assert partial.read_bytes() == strict.read_bytes()


def test_resume_against_another_configs_manifest_errors(command, tmp_path, capsys):
    store = ["--store-dir", str(tmp_path / "store")]
    manifest = tmp_path / "manifest.json"
    code, _, _ = _run(
        capsys,
        command["argv"] + store + [
            "--partial-results", "--manifest-out", str(manifest),
        ],
    )
    assert code == 0
    code, out, err = _run(
        capsys,
        command["argv"] + command["other"] + store + ["--resume", str(manifest)],
    )
    assert code == 1
    assert "describes a different sweep" in err
    assert "store:" not in out  # refused before anything ran


def test_retries_and_task_timeout_always_reach_the_runner(
    command, tmp_path, capsys, monkeypatch
):
    # No --store, no --partial-results: both commands still honour the
    # resilience flags (the sweep command used to drop them here).
    from repro.simulation import resilience

    seen = {}
    real = resilience.run_kind

    def spy(kind, tasks, **kwargs):
        seen.update(kwargs)
        return real(kind, tasks, **kwargs)

    monkeypatch.setattr(resilience, "run_kind", spy)
    code, _, _ = _run(
        capsys, command["argv"] + ["--retries", "3", "--task-timeout", "30"]
    )
    assert code == 0
    assert (seen["retries"], seen["timeout_s"]) == (3, 30.0)


def test_roadmap_sweep_on_shared_store_prints_the_serial_table(
    tmp_path, capsys, monkeypatch
):
    # The roadmap is a sweep family like the others: shared-store runs
    # through the default store, cold and then warm, and prints exactly
    # what the serial backend prints.
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
    argv = ["sweep", "roadmap", "-p", "1,2", "-w", "2", "--backend"]
    code, serial, _ = _run(capsys, argv + ["serial"])
    assert code == 0
    assert "2-platter roadmap:" in serial
    for _ in range(2):
        code, out, _ = _run(capsys, argv + ["shared-store"])
        assert code == 0
        assert out == serial
    assert list((tmp_path / "store").rglob("*.json"))
