"""Flag pins for the job-running subcommands.

``repro sweep workload``, ``repro fleet``, ``repro sweep roadmap`` and
``repro serve`` are scripted against (CI jobs, docs, the benchmark's
CLI twin of a service job), so every option of theirs is pinned here:
its option strings, dest, type, choices, default, action and whether
it is required.  A flag that is renamed, retyped or given a new
default fails this test; a new flag must be added to the table.
"""

from __future__ import annotations

import argparse
from typing import Any, List, Tuple

import pytest

from repro.cli import _CONFIG_CHOICES, build_parser
from repro.simulation.fastpath import ENGINES

STORE, FLAG, HELP = "_StoreAction", "_StoreTrueAction", "_HelpAction"
BACKENDS = ("serial", "process", "shared-store")
LADDER = "[9600.0, 12000.0, 15000.0]"
HELP_ROW = (("-h", "--help"), "help", None, None, "'==SUPPRESS=='", HELP, False)

#: (option strings, dest, type name, choices, repr(default), action
#: class, required) per option, sorted.
PINS = {
    "sweep workload": [
        ((), "names", "_name_list", None, "None", STORE, True),
        (("--backend",), "backend", None, BACKENDS, "None", STORE, False),
        (("--engine",), "engine", None, ENGINES, "'exact'", STORE, False),
        (("--fault-seed",), "fault_seed", "int", None, "0", STORE, False),
        (("--inject-faults",), "inject_faults", None, None, "False", FLAG, False),
        (("--keep-samples",), "keep_samples", None, None, "False", FLAG, False),
        (("--manifest-out",), "manifest_out", None, None, "None", STORE, False),
        (("--media-rate",), "media_rate", "float", None, "0.01", STORE, False),
        (("--partial-results",), "partial_results", None, None, "False", FLAG, False),
        (("--probe-interval",), "probe_interval", "float", None, "100.0", STORE, False),
        (("--results-out",), "results_out", None, None, "None", STORE, False),
        (("--resume",), "resume", None, None, "None", STORE, False),
        (("--retries",), "retries", "int", None, "2", STORE, False),
        (("--rpms",), "rpms", "_float_list", None, "None", STORE, False),
        (("--seed",), "seed", "int", None, "1", STORE, False),
        (("--servo-rate",), "servo_rate", "float", None, "0.0", STORE, False),
        (("--steps",), "steps", "int", None, "4", STORE, False),
        (("--store",), "store", None, None, "False", FLAG, False),
        (("--store-dir",), "store_dir", None, None, "None", STORE, False),
        (("--task-timeout",), "task_timeout", "float", None, "None", STORE, False),
        (("--telemetry",), "telemetry", None, None, "False", FLAG, False),
        (("--telemetry-out",), "telemetry_out", None, None, "None", STORE, False),
        HELP_ROW,
        (("-n", "--requests"), "requests", "int", None, "4000", STORE, False),
        (("-w", "--workers"), "workers", "int", None, "None", STORE, False),
    ],
    "fleet": [
        (("--accesses",), "accesses", "int", None, "256", STORE, False),
        (("--airflow",), "airflow", "float", None, "0.018", STORE, False),
        (("--backend",), "backend", None, BACKENDS, "None", STORE, False),
        (("--base-afr",), "base_afr", "float", None, "0.02", STORE, False),
        (("--cooling-budget",), "cooling_budget", "float", None, "300.0", STORE, False),
        (("--drives",), "drives", "int", None, "3", STORE, False),
        (("--enclosures",), "enclosures", "int", None, "4", STORE, False),
        (("--envelope",), "envelope", "float", None, "45.22", STORE, False),
        (("--fault-seed",), "fault_seed", "int", None, "0", STORE, False),
        (("--inject-faults",), "inject_faults", None, None, "False", FLAG, False),
        (("--inlet",), "inlet", "float", None, "28.0", STORE, False),
        (("--manifest-out",), "manifest_out", None, None, "None", STORE, False),
        (("--max-rounds",), "max_rounds", "int", None, "64", STORE, False),
        (("--media-rate",), "media_rate", "float", None, "0.01", STORE, False),
        (("--mttr-hours",), "mttr_hours", "float", None, "12.0", STORE, False),
        (("--partial-results",), "partial_results", None, None, "False", FLAG, False),
        (("--racks",), "racks", "int", None, "2", STORE, False),
        (("--recirculation",), "recirculation", "float", None, "0.2", STORE, False),
        (("--reference-c",), "reference_c", "float", None, "40.0", STORE, False),
        (("--results-out",), "results_out", None, None, "None", STORE, False),
        (("--resume",), "resume", None, None, "None", STORE, False),
        (("--retries",), "retries", "int", None, "2", STORE, False),
        (("--rpm-levels",), "rpm_levels", "_float_list", None, LADDER, STORE, False),
        (("--servo-rate",), "servo_rate", "float", None, "0.0", STORE, False),
        (("--store",), "store", None, None, "False", FLAG, False),
        (("--store-dir",), "store_dir", None, None, "None", STORE, False),
        (("--task-timeout",), "task_timeout", "float", None, "None", STORE, False),
        (("--tiering-extents",), "tiering_extents", "int", None, "0", STORE, False),
        (("--tiering-seed",), "tiering_seed", "int", None, "0", STORE, False),
        (("--tiering-utilization",), "tiering_utilization", "float", None, "0.7", STORE, False),
        (("--vcm-duty",), "vcm_duty", "float", None, "0.5", STORE, False),
        (("-d", "--diameter"), "diameter", "float", None, "2.6", STORE, False),
        HELP_ROW,
        (("-p", "--platters"), "platters", "int", None, "1", STORE, False),
        (("-w", "--workers"), "workers", "int", None, "None", STORE, False),
    ],
    "sweep roadmap": [
        (("--backend",), "backend", None, BACKENDS, "None", STORE, False),
        HELP_ROW,
        (("-p", "--platters"), "platters", "_int_list", None, "[1, 2, 4]", STORE, False),
        (("-w", "--workers"), "workers", "int", None, "None", STORE, False),
    ],
    "serve": [
        (("--backend",), "backend", None, BACKENDS, "None", STORE, False),
        (("--drain-timeout",), "drain_timeout", "float", None, "30.0", STORE, False),
        (("--host",), "host", None, None, "'127.0.0.1'", STORE, False),
        (("--port",), "port", "int", None, "8765", STORE, False),
        (("--port-file",), "port_file", None, None, "None", STORE, False),
        (("--retries",), "retries", "int", None, "1", STORE, False),
        (("--store-dir",), "store_dir", None, None, "None", STORE, False),
        (("--task-timeout",), "task_timeout", "float", None, "None", STORE, False),
        HELP_ROW,
        (("-w", "--workers"), "workers", "int", None, "None", STORE, False),
    ],
}


def _subparser(parser: argparse.ArgumentParser, path: Tuple[str, ...]):
    for name in path:
        action = next(
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        )
        parser = action.choices[name]
    return parser


def _records(command: str) -> List[Tuple[Any, ...]]:
    parser = _subparser(build_parser(), tuple(command.split()))
    return sorted(
        (
            tuple(a.option_strings),
            a.dest,
            None if a.type is None else a.type.__name__,
            None if a.choices is None else tuple(a.choices),
            repr(a.default),
            type(a).__name__,
            a.required,
        )
        for a in parser._actions
    )


@pytest.mark.parametrize("command", sorted(PINS))
def test_every_option_is_pinned(command):
    assert _records(command) == sorted(PINS[command])


def test_engine_choices_are_the_simulation_engines():
    """The CLI keeps its own literal (building the parser loads no
    simulator); it must name exactly the engines the simulator runs."""
    assert _CONFIG_CHOICES["engine"] == ENGINES
