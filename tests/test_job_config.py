"""The CLI and the service read one config record per sweep family.

``repro sweep workload`` and ``repro fleet`` derive their flags from
:class:`repro.job_config.SweepJobConfig` / :class:`FleetJobConfig`, the
same records the job service parses request bodies into.  For 200
hand-seeded configs per family that set every field:

* rendering the config to argv through the CLI's flag table, parsing it
  with ``build_parser()`` and rebuilding the config gives the original
  config back;
* the rebuilt config's job key equals the key the service derives from
  the same config's wire body.

Plus: running ``repro fleet`` or ``repro sweep workload`` never imports
the service package, and every non-finite float field is refused by the
config record itself, so the CLI and in-process submits share one rule.
"""

from __future__ import annotations

import random
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

import pytest

from repro.cli import _CONFIG_FLAGS, _config_from_args, build_parser, main
from repro.errors import ReproError, ServiceError
from repro.job_config import FleetJobConfig, SweepJobConfig, config_fields
from repro.service import job_config_key, parse_job_request
from repro.simulation.fastpath import ENGINES

SEED = 20261018
CASES = 200

WORKLOADS = ("openmail", "oltp", "search_engine", "tpcc", "tpch")
BACKENDS = ("serial", "process", "shared-store")


def _maybe(rng: random.Random, value: Any) -> Any:
    """``value``, or None for one case in five (Optional fields)."""
    return None if rng.random() < 0.2 else value


def _execution(rng: random.Random) -> Dict[str, Any]:
    return {
        "backend": _maybe(rng, rng.choice(BACKENDS)),
        "retries": rng.randint(0, 5),
        "workers": _maybe(rng, rng.randint(0, 8)),
    }


def _faults(rng: random.Random) -> Dict[str, Any]:
    return {
        "inject_faults": rng.random() < 0.5,
        "fault_seed": rng.randint(0, 2**31),
        "media_rate": rng.uniform(0.0, 0.2),
        "servo_rate": rng.uniform(0.0, 0.1),
    }


def sweep_config(rng: random.Random) -> SweepJobConfig:
    ladder = tuple(rng.uniform(5000.0, 30000.0) for _ in range(rng.randint(1, 4)))
    return SweepJobConfig(
        workloads=tuple(rng.sample(WORKLOADS, rng.randint(1, len(WORKLOADS)))),
        rpms=_maybe(rng, ladder),
        rpm_steps=rng.randint(1, 8),
        requests=rng.randint(1, 10000),
        seed=rng.randint(0, 2**31),
        keep_samples=rng.random() < 0.5,
        engine=rng.choice(ENGINES),
        **_faults(rng),
        **_execution(rng),
    )


def fleet_config(rng: random.Random) -> FleetJobConfig:
    return FleetJobConfig(
        racks=rng.randint(1, 16),
        enclosures_per_rack=rng.randint(1, 8),
        drives_per_enclosure=rng.randint(1, 12),
        airflow_m3_per_s=rng.uniform(0.004, 0.05),
        cooling_budget_w=rng.uniform(50.0, 500.0),
        diameter_in=rng.choice((1.6, 2.1, 2.6, 3.3)),
        platter_count=rng.randint(1, 4),
        vcm_duty=rng.uniform(0.0, 1.0),
        inlet_c=rng.uniform(5.0, 50.0),
        recirculation=rng.uniform(0.0, 1.0),
        envelope_c=rng.uniform(40.0, 60.0),
        rpm_levels=tuple(sorted(rng.uniform(5000.0, 30000.0) for _ in range(rng.randint(1, 5)))),
        max_rounds=rng.randint(1, 128),
        base_afr=rng.uniform(0.001, 0.1),
        reference_c=rng.uniform(25.0, 50.0),
        mttr_hours=rng.uniform(1.0, 72.0),
        tiering_extents=rng.randint(0, 64),
        tiering_seed=rng.randint(0, 2**31),
        tiering_target_utilization=rng.uniform(0.05, 1.0),
        accesses_per_drive=rng.randint(0, 512),
        **_faults(rng),
        **_execution(rng),
    )


FAMILIES = {
    "sweep": (("sweep", "workload"), sweep_config),
    "fleet": (("fleet",), fleet_config),
}


def render_argv(command: tuple, config: Any) -> List[str]:
    """The command line that asks for ``config``, built from the CLI's
    flag table: every field that is not None, booleans as bare flags."""
    argv = list(command)
    for field in config_fields(type(config)):
        flags, _ = _CONFIG_FLAGS[field.name]
        value = getattr(config, field.name)
        if value is None or value is False:
            continue
        if value is True:
            argv.append(flags[-1])
            continue
        text = ",".join(str(v) for v in value) if field.is_tuple else str(value)
        argv += [text] if not flags[0].startswith("-") else [flags[-1], text]
    return argv


def wire_body(config: Any) -> Dict[str, Any]:
    """The same config as a ``POST /v1/jobs`` body."""
    body: Dict[str, Any] = {"kind": config.request_kind}
    for field in config_fields(type(config)):
        value = getattr(config, field.name)
        body[field.name] = list(value) if field.is_tuple and value is not None else value
    return body


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_config_round_trips_through_the_command_line(family):
    command, generate = FAMILIES[family]
    rng = random.Random(f"{SEED}/{family}")
    parser = build_parser()
    for case in range(CASES):
        config = generate(rng)
        args = parser.parse_args(render_argv(command, config))
        rebuilt = _config_from_args(type(config), args)
        assert rebuilt == config, case
        assert job_config_key(rebuilt) == job_config_key(
            parse_job_request(wire_body(config))
        ), case


def test_generated_configs_cover_every_field_and_both_fault_states():
    for family, (_, generate) in FAMILIES.items():
        rng = random.Random(f"{SEED}/{family}")
        configs = [generate(rng) for _ in range(CASES)]
        for field in config_fields(type(configs[0])):
            values = {repr(getattr(c, field.name)) for c in configs}
            assert len(values) > 1, (family, field.name)


@pytest.mark.parametrize(
    "argv",
    [
        ["fleet", "--racks", "1", "--enclosures", "1", "--drives", "2",
         "--max-rounds", "3", "--backend", "serial"],
        ["sweep", "workload", "tpcc", "-n", "60", "--steps", "1",
         "--backend", "serial"],
    ],
)
def test_job_commands_never_import_the_service(argv, tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        "import sys\n"
        "from repro.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('repro.service'))\n"
        "assert not loaded, loaded\n"
        "print('ok')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("ok")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fleet", "--racks", "1", "--enclosures", "1", "--drives", "2",
          "--inlet", "nan"], "'inlet_c' must be finite, got nan"),
        (["fleet", "--racks", "1", "--enclosures", "1", "--drives", "2",
          "--envelope", "nan"], "'envelope_c' must be finite, got nan"),
        (["sweep", "workload", "oltp", "-n", "50", "--steps", "1",
          "--rpms", "nan"], "'rpms' must be finite, got (nan,)"),
        (["fleet", "--racks", "1", "--rpm-levels", "9600,-inf"],
         "'rpm_levels' must be finite, got (9600.0, -inf)"),
    ],
)
def test_cli_refuses_non_finite_numbers_before_any_output(argv, message, tmp_path, capsys):
    out = tmp_path / "results.json"
    assert main(argv + ["--backend", "serial", "--results-out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


def test_cli_refuses_an_unknown_engine_before_any_output(tmp_path, capsys):
    out = tmp_path / "results.json"
    with pytest.raises(SystemExit) as caught:
        main(["sweep", "workload", "oltp", "--engine", "vectorized",
              "--results-out", str(out)])
    assert caught.value.code == 2
    assert "invalid choice: 'vectorized'" in capsys.readouterr().err
    assert not out.exists()


def test_every_float_field_and_tuple_element_must_be_finite():
    for cls in (SweepJobConfig, FleetJobConfig):
        base = {"workloads": ("tpcc",)} if cls is SweepJobConfig else {}
        for field in config_fields(cls):
            if field.scalar is not float:
                continue
            for bad in (float("nan"), float("inf"), float("-inf")):
                value = (1.0, bad) if field.is_tuple else bad
                with pytest.raises(ReproError, match=f"'{field.name}' must be finite"):
                    cls(**base, **{field.name: value})
    # Finite extremes and an unset optional tuple are fine.
    SweepJobConfig(workloads=("tpcc",), rpms=None, media_rate=1e308)
    FleetJobConfig(inlet_c=-1e308, rpm_levels=(5e-324,))


def test_in_process_submit_refuses_non_finite_numbers(tmp_path):
    from repro.service import JobManager
    from repro.store import ResultStore

    manager = JobManager(ResultStore(root=tmp_path / "store"), retries=0)
    for payload in (
        {"kind": "fleet_sweep", "racks": 1, "inlet_c": float("nan")},
        {"workloads": ["oltp"], "requests": 50, "rpms": [10000.0, float("inf")]},
    ):
        with pytest.raises(ServiceError, match="must be finite") as caught:
            manager.submit(payload)
        assert caught.value.status == 400
    assert manager.jobs() == []


#: Each family's counts that must be positive, one request body each.
_COUNT_BODIES = [
    ({"workloads": ["oltp"], "rpm_steps": 0}, "'rpm_steps' must be positive, got 0"),
    ({"workloads": ["oltp"], "requests": -3}, "'requests' must be positive, got -3"),
    ({"kind": "fleet_sweep", "racks": 0}, "'racks' must be positive, got 0"),
]


@pytest.mark.parametrize("payload, message", _COUNT_BODIES)
def test_one_positive_count_rule_for_every_front_door(payload, message, tmp_path, capsys):
    """The config refuses a count below one with one message, whether the
    config comes from the wire, from ``JobManager.submit`` or from CLI
    flags, before any job is queued or any output is written."""
    from repro.service import JobManager
    from repro.store import ResultStore

    body = {k: v for k, v in payload.items() if k != "kind"}
    cls = FleetJobConfig if payload.get("kind") == "fleet_sweep" else SweepJobConfig
    with pytest.raises(ReproError) as direct:
        cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in body.items()})
    assert str(direct.value) == message

    with pytest.raises(ServiceError) as wire:
        parse_job_request(payload)
    assert (wire.value.status, str(wire.value)) == (400, message)

    manager = JobManager(ResultStore(root=tmp_path / "store"), retries=0)
    with pytest.raises(ServiceError) as submitted:
        manager.submit(payload)
    assert (submitted.value.status, str(submitted.value)) == (400, message)
    assert manager.jobs() == []

    flags = {
        "rpm_steps": "--steps", "requests": "-n", "racks": "--racks",
    }
    (name, value), = ((k, v) for k, v in body.items() if k != "workloads")
    argv = ["fleet"] if cls is FleetJobConfig else ["sweep", "workload", "oltp"]
    out = tmp_path / "results.json"
    code = main(argv + [flags[name], str(value), "--backend", "serial",
                        "--results-out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


def test_a_count_the_config_ignores_is_not_refused(tmp_path, capsys):
    """``rpms`` replace the ``rpm_steps`` ladder, so ``rpm_steps`` shapes
    nothing there: any value of it is accepted by the config, the wire
    and the CLI, and none splits the job key or the task grid."""
    reference = SweepJobConfig(workloads=("oltp",), rpms=(7200.0,), requests=200)
    for steps in (0, -2):
        config = SweepJobConfig(
            workloads=("oltp",), rpms=(7200.0,), rpm_steps=steps, requests=200
        )
        assert config.material_config() == reference.material_config()
        assert config.build_tasks() == reference.build_tasks()
        parsed = parse_job_request(
            {"workloads": ["oltp"], "rpms": [7200.0], "rpm_steps": steps, "requests": 200}
        )
        assert job_config_key(parsed) == job_config_key(reference)

    out = tmp_path / "results.json"
    code = main(["sweep", "workload", "oltp", "--rpms", "7200", "--steps", "0",
                 "-n", "200", "--backend", "serial", "--results-out", str(out)])
    assert code == 0, capsys.readouterr().err
    assert out.exists()
    # Without rpms the ladder is built from rpm_steps, which must be positive.
    with pytest.raises(ReproError, match="'rpm_steps' must be positive, got 0"):
        SweepJobConfig(workloads=("oltp",), rpm_steps=0)
