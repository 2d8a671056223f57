"""Command-line interface.

Exposes the library's main queries without writing Python::

    python -m repro validate                 # Table 1 model validation
    python -m repro envelope -d 2.6 -p 1     # max in-envelope RPM
    python -m repro transient -m 90          # Figure 1 warm-up curve
    python -m repro roadmap -p 1 --cooling 5 # Figure 2/3 roadmap
    python -m repro workload tpcc -n 4000    # Figure 4 RPM sweep
    python -m repro throttle --rpm-high 24534 --t-cool 0.5,1,2,4
    python -m repro slack                    # Figure 5a
    python -m repro sweep roadmap -p 1,2,4   # parallel Figure 2 sweep
    python -m repro sweep workload tpcc,oltp # parallel Figure 4 sweep
    python -m repro sweep workload tpcc --telemetry --telemetry-out tel.json
    python -m repro sweep workload tpcc --inject-faults --partial-results
    python -m repro sweep workload tpcc --store      # memoized sweep
    python -m repro sweep workload tpcc --store --resume sweep_manifest.json
    python -m repro sweep workload tpcc --backend shared-store  # peer-coordinated
    python -m repro fleet --racks 4 --drives 12   # rack-coupled fleet + DTM + AFR
    python -m repro store stats              # result-store inventory
    python -m repro store verify             # integrity-check every entry
    python -m repro trace tpcc -n 2000       # instrumented replay + sparklines
    python -m repro faults tpcc --media-rate 0.02   # fault-injected replay
    python -m repro lint src/repro           # thermolint static analysis

Every command prints an aligned plain-text table.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from types import ModuleType
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.constants import AMBIENT_TEMPERATURE_C, THERMAL_ENVELOPE_C
from repro.errors import ReproError
from repro.job_config import FleetJobConfig, SweepJobConfig, config_fields
from repro.reporting import format_table

#: ``--backend`` choices (:data:`repro.simulation.backends.BACKEND_NAMES`).
_BACKEND_CHOICES = ("serial", "process", "shared-store")


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.drives import PAPER_MODEL_PREDICTIONS, TABLE1_DRIVES

    rows = []
    for drive in TABLE1_DRIVES:
        paper_cap, paper_idr = PAPER_MODEL_PREDICTIONS[drive.model]
        rows.append(
            [
                drive.model,
                f"{drive.datasheet_capacity_gb:.0f}",
                f"{drive.modeled_capacity_paper_gb():.1f}",
                f"{paper_cap:.1f}",
                f"{drive.datasheet_idr_mb_per_s:.1f}",
                f"{drive.modeled_idr_mb_per_s():.1f}",
                f"{paper_idr:.1f}",
            ]
        )
    print(
        format_table(
            ["model", "cap ds", "cap ours", "cap paper", "IDR ds", "IDR ours", "IDR paper"],
            rows,
        )
    )
    return 0


def _cmd_envelope(args: argparse.Namespace) -> int:
    from repro.thermal import max_rpm_within_envelope, steady_air_temperature_c

    rpm = max_rpm_within_envelope(
        args.diameter,
        platter_count=args.platters,
        envelope_c=args.envelope,
        ambient_c=args.ambient,
        vcm_active=not args.vcm_off,
    )
    temp = steady_air_temperature_c(
        args.diameter,
        rpm,
        platter_count=args.platters,
        ambient_c=args.ambient,
        vcm_active=not args.vcm_off,
    )
    print(
        format_table(
            ["media", "platters", "VCM", "max RPM", "steady air C", "envelope C"],
            [
                [
                    f'{args.diameter}"',
                    args.platters,
                    "off" if args.vcm_off else "on",
                    f"{rpm:.0f}",
                    f"{temp:.2f}",
                    f"{args.envelope:.2f}",
                ]
            ],
        )
    )
    return 0


def _cmd_transient(args: argparse.Namespace) -> int:
    from repro.drives import cheetah15k3

    model = cheetah15k3.thermal_model(ambient_c=args.ambient)
    result = model.transient(
        args.minutes * 60.0, dt_s=0.5, record_every=120, from_ambient=True
    )
    rows = []
    for t, air in zip(result.times_s, result.series("air")):
        minute = t / 60.0
        if minute.is_integer() and int(minute) % max(args.minutes // 15, 1) == 0:
            rows.append([f"{minute:.0f}", f"{air:.2f}"])
    print(format_table(["minute", "air C"], rows))
    print(f"steady state: {result.final('air'):.2f} C")
    return 0


def _roadmap_table(points: Sequence[Any]) -> str:
    """The Figure 2 table: per year, the 40% IDR growth target and, per
    platter size, the best in-envelope IDR (``*`` = meets the target)
    and its capacity."""
    # scaling pulls in the thermal network (and numpy); only the roadmap
    # commands need it, and the workload sweep must stay importable on
    # numpy-less hosts (exact engine).
    from repro.scaling import PAPER_TRENDS

    rows = []
    for year in sorted({p.year for p in points}):
        row: List = [year, f"{PAPER_TRENDS.target_idr_mb_s(year):.0f}"]
        for diameter in (2.6, 2.1, 1.6):
            point = next(
                p for p in points if p.year == year and p.diameter_in == diameter
            )
            marker = "*" if point.meets_target else " "
            row.append(f"{point.max_idr_mb_s:.0f}{marker}")
            row.append(f"{point.capacity_gb:.1f}")
        rows.append(row)
    return format_table(
        ["year", "target", '2.6"', "cap", '2.1"', "cap", '1.6"', "cap"], rows
    )


def _roadmap_sweep_text(by_count: Mapping[int, Sequence[Any]]) -> str:
    """What ``repro sweep roadmap`` prints: one Figure 2 table per
    platter count, in the order given, and the target legend."""
    panels = [
        f"{count}-platter roadmap:\n{_roadmap_table(points)}\n"
        for count, points in by_count.items()
    ]
    return "\n".join(panels + ["(* = meets the 40% IDR growth target)"])


def _cmd_roadmap(args: argparse.Namespace) -> int:
    from repro.scaling import cooling_budget_ambient_c, thermal_roadmap

    ambient = (
        cooling_budget_ambient_c(args.platters) - args.cooling
        if args.cooling
        else None
    )
    points = thermal_roadmap(platter_count=args.platters, ambient_c=ambient)
    print(_roadmap_table(points))
    print("(* = meets the 40% IDR growth target)")
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    from repro.simulation.resilience import run_kind
    from repro.simulation.sweep import build_workload_tasks, workload_sweep_kind
    from repro.workloads import workload

    spec = workload(args.name)
    tasks = build_workload_tasks(
        [args.name], rpm_steps=args.steps, requests=args.requests, seed=args.seed
    )
    # Explicitly serial: REPRO_SWEEP_BACKEND must not open a store here.
    report = run_kind(workload_sweep_kind(), tasks, workers=0, backend="serial")
    report.raise_on_failure()
    rows = [
        [
            f"{r.rpm:.0f}",
            f"{r.mean_ms:.2f}",
            f"{r.median_ms:.2f}",
            f"{r.p95_ms:.2f}",
            f"{r.max_utilization:.2f}",
        ]
        for r in report.ok_results()
    ]
    print(f"{spec.display_name}: {args.requests} requests")
    print(format_table(["RPM", "mean ms", "median ms", "p95 ms", "util"], rows))
    return 0


def _cmd_throttle(args: argparse.Namespace) -> int:
    from repro.dtm import ThrottlingScenario, throttle_cycle

    scenario = ThrottlingScenario(
        diameter_in=args.diameter,
        rpm_high=args.rpm_high,
        rpm_low=args.rpm_low,
    )
    rows = []
    for t_cool in args.t_cool:
        cycle = throttle_cycle(scenario, t_cool, dt_s=0.02, mode=args.mode)
        rows.append(
            [
                f"{cycle.t_cool_s:.2f}",
                f"{cycle.t_heat_s:.2f}",
                f"{cycle.ratio:.2f}",
                f"{cycle.utilization:.2f}",
            ]
        )
    print(
        f"throttling {args.diameter}\" at {args.rpm_high:.0f} RPM"
        + (f" (low level {args.rpm_low:.0f})" if args.rpm_low else "")
    )
    print(format_table(["t_cool s", "t_heat s", "ratio", "utilization"], rows))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """One instrumented replay: metrics, event trace, probe sparklines."""
    import json

    from repro.reporting import (
        probes_to_csv,
        registry_to_prometheus,
        render_probe_sparklines,
        to_json,
    )
    from repro.telemetry import Telemetry
    from repro.workloads import workload

    spec = workload(args.name)
    tel = Telemetry(
        trace_capacity=args.trace_capacity, probe_interval_ms=args.interval
    )
    trace = spec.generate(num_requests=args.requests, seed=args.seed)
    report = spec.build_system(args.rpm, telemetry=tel).run_trace(trace)

    if args.output:
        if args.format == "json":
            payload = to_json(tel)
        elif args.format == "csv":
            payload = probes_to_csv(tel.probes)
        else:
            payload = registry_to_prometheus(tel.registry)
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(payload)
            if not payload.endswith("\n"):
                handle.write("\n")
        print(f"wrote {args.format} telemetry to {args.output}")

    print(
        f"{spec.display_name}: {report.requests} requests over "
        f"{report.simulated_ms / 1000.0:.1f} s simulated, "
        f"mean {report.stats.mean_ms():.2f} ms"
    )
    print()
    print(render_probe_sparklines(tel.probes, ascii_only=args.ascii))
    print()
    rows = []
    for name, snap in sorted(tel.registry.as_dict().items()):
        if snap["kind"] == "counter" or snap["kind"] == "gauge":
            rows.append([name, snap["kind"], f"{snap['value']:g}"])
        elif snap["kind"] == "histogram":
            mean = snap["mean"]
            rows.append(
                [
                    name,
                    "histogram",
                    f"n={snap['count']} mean={mean:.3f}" if mean is not None else "n=0",
                ]
            )
        else:
            rows.append(
                [name, "timer", f"{snap['elapsed_s']:.4f}s/{snap['starts']}"]
            )
    print(format_table(["metric", "kind", "value"], rows))
    print()
    recorded, dropped = tel.trace.recorded, tel.trace.dropped
    print(
        f"event trace: {recorded} recorded, {dropped} dropped "
        f"(capacity {args.trace_capacity}); last {args.limit}:"
    )
    tail = tel.trace.events(kind=args.kind, limit=args.limit)
    for event in tail:
        fields = " ".join(
            f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in sorted(event.fields.items())
        )
        print(f"  {event.time_ms:10.2f}ms {event.kind:16s} {event.subject:8s} {fields}")
    if args.format == "json" and not args.output:
        print()
        print(json.dumps(tel.trace.counts_by_kind(), indent=2, sort_keys=True))
    return 0


def _backend_from(explicit: Optional[str]) -> Optional[str]:
    """The resolved backend name, or None when nothing selects one.

    ``--backend`` wins over ``REPRO_SWEEP_BACKEND``; both validate here,
    in the parent, so a typo'd env var fails fast with the full name
    list instead of from inside a sweep.
    """
    import os

    from repro.simulation.backends import BACKEND_ENV_VAR, resolve_backend_name

    if explicit is None and not os.environ.get(BACKEND_ENV_VAR, "").strip():
        return None
    return resolve_backend_name(explicit)


def _check_resume_manifest(path: str, task_keys: List[str]) -> None:
    """Validate a ``--resume`` manifest against this sweep's task keys.

    The manifest is advisory — resume itself is just the store serving
    hits — but resuming against the *wrong* configuration silently
    recomputes everything, so a key mismatch is a hard error naming the
    actual problem.
    """
    import json

    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ReproError(f"cannot read resume manifest {path}: {exc}") from exc
    store_section = manifest.get("store") if isinstance(manifest, dict) else None
    if not isinstance(store_section, dict) or "task_keys" not in store_section:
        raise ReproError(
            f"resume manifest {path} has no store section; it was written "
            "by a sweep that ran without --store"
        )
    previous = store_section["task_keys"]
    if previous != task_keys:
        raise ReproError(
            f"resume manifest {path} describes a different sweep "
            f"({len(previous)} task(s), this run has {len(task_keys)}; "
            "keys differ) — same workloads, RPM ladder, request count, "
            "seed and fault plan are required"
        )
    print(
        f"resuming from {path}: {manifest.get('tasks_ok', '?')}/"
        f"{manifest.get('tasks_total', '?')} task(s) previously completed"
    )


def _run_kind_from_args(
    args: argparse.Namespace,
    config: Any,
    tasks: Sequence[Any],
    units: str,
    default_manifest: str,
    results_what: str,
    announce_backend: bool = True,
) -> List[Any]:
    """Run one job config's tasks the way the run flags ask.

    Shared by ``repro sweep workload`` and ``repro fleet``: the
    ``--resume`` check, strict vs ``--partial-results``, the manifest,
    the backend/store lines and ``--results-out``.  ``config`` supplies
    the sweep kind and the execution knobs (backend, workers, retries).
    ``units`` names the tasks in the manifest line, ``results_what`` the
    results line.  Returns the per-task results, with None holes for
    failed tasks.
    """
    from repro.simulation.resilience import run_kind

    kind = config.sweep_kind()
    backend = _backend_from(config.backend)
    store = None
    # Resuming goes through the store, and the shared-store backend
    # coordinates through it, so both imply --store.
    if args.store or args.store_dir or args.resume or backend == "shared-store":
        from repro.store import ResultStore

        store = ResultStore(root=args.store_dir)
    partial = bool(args.partial_results or args.resume)
    if args.resume:
        _check_resume_manifest(args.resume, [kind.key(t) for t in tasks])
    report = run_kind(
        kind,
        tasks,
        store=store,
        workers=config.workers,
        retries=config.retries,
        timeout_s=args.task_timeout,
        backend=backend,
    )
    if not partial:
        report.raise_on_failure()
    if partial and (report.failed or args.manifest_out or store is not None):
        import json

        manifest = report.manifest(task_labels=[t.label() for t in tasks])
        out = args.manifest_out or default_manifest
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True, allow_nan=False)
            handle.write("\n")
        print(
            f"{report.ok_count}/{len(report.envelopes)} {units} completed; "
            f"manifest written to {out}"
        )
    if report.backend and (announce_backend or partial or store is not None):
        print(f"backend: {report.backend}")
    if store is not None:
        print(
            f"store: {report.store_hits} hit(s), "
            f"{report.store_misses} miss(es), "
            f"{store.corrupt} corrupt — {store.root}"
        )
    results = report.results()
    if args.results_out:
        from repro.store import stable_json

        assert kind.document is not None  # both CLI families write one
        with open(args.results_out, "wb") as binary:
            binary.write((stable_json(kind.document(results)) + "\n").encode("utf-8"))
        print(
            f"wrote canonical {results_what.format(report.ok_count)} "
            f"to {args.results_out}"
        )
    return results


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.axis == "roadmap":
        from repro.simulation.sweep import sweep_roadmap

        by_count = sweep_roadmap(
            platter_counts=args.platters,
            workers=args.workers,
            backend=_backend_from(args.backend),
        )
        print(_roadmap_sweep_text(by_count))
        return 0

    config = _config_from_args(SweepJobConfig, args)
    telemetry = bool(args.telemetry or args.telemetry_out)
    tasks = config.build_tasks(
        telemetry=telemetry, probe_interval_ms=args.probe_interval
    )
    results = [
        r
        for r in _run_kind_from_args(
            args,
            config,
            tasks,
            units="sweep points",
            default_manifest="sweep_manifest.json",
            results_what="results for {} points",
            announce_backend=False,
        )
        if r is not None
    ]
    if telemetry:
        import json

        from repro.reporting.telemetry_export import _finite

        payload = {
            "schema": "repro.sweep_telemetry/1",
            "points": [
                {
                    "workload": r.workload,
                    "rpm": r.rpm,
                    "requests": r.requests,
                    "seed": r.seed,
                    "mean_ms": r.mean_ms,
                    "fault_summary": r.fault_summary,
                    "telemetry": r.telemetry,
                }
                for r in results
            ],
        }
        out = args.telemetry_out or "sweep_telemetry.json"
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(
                _finite(payload), handle, indent=2, sort_keys=True,
                allow_nan=False,
            )
            handle.write("\n")
        print(f"wrote telemetry for {len(results)} sweep points to {out}")
    headers = ["workload", "RPM", "mean ms", "median ms", "p95 ms", "util", "hit"]
    rows = [
        [
            r.workload,
            f"{r.rpm:.0f}",
            f"{r.mean_ms:.2f}",
            f"{r.median_ms:.2f}",
            f"{r.p95_ms:.2f}",
            f"{r.max_utilization:.2f}",
            f"{r.cache_hit_ratio:.2f}",
        ]
        for r in results
    ]
    if config.engine != "exact":
        # Surface which engine actually answered (fallbacks show "exact").
        headers.append("engine")
        for row, r in zip(rows, results):
            row.append(r.engine)
    if config.inject_faults:
        headers.append("faults")
        for row, r in zip(rows, results):
            injected = (r.fault_summary or {}).get("total_injected", 0)
            row.append(f"{injected:.0f}")
    print(format_table(headers, rows))
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    """Fleet sweep: one content-keyed task per rack over the backends."""
    from repro.fleet import fleet_summary

    config = _config_from_args(FleetJobConfig, args)
    tasks = config.build_tasks()
    results = _run_kind_from_args(
        args,
        config,
        tasks,
        units="rack(s)",
        default_manifest="fleet_manifest.json",
        results_what="fleet results for {} rack(s)",
    )
    headers = [
        "rack", "drives", "conv", "rounds", "steps", "cap",
        "heat W", "max C", "EAF", "avail",
    ]
    rows = []
    for task, result in zip(tasks, results):
        if result is None:
            rows.append([task.rack.name, f"{task.rack.drive_count}"]
                        + ["-"] * (len(headers) - 2))
            continue
        rows.append(
            [
                result.rack,
                f"{result.drive_count}",
                "yes" if result.converged else "NO",
                f"{result.rounds}",
                f"{len(result.throttle_events)}",
                f"{result.capacity_fraction:.3f}",
                f"{result.total_heat_w:.1f}",
                f"{result.max_internal_c:.2f}",
                f"{result.expected_annual_failures:.3f}",
                f"{result.availability:.6f}",
            ]
        )
    print(format_table(headers, rows))
    summary = fleet_summary(results)
    if summary is not None:
        print(
            f"fleet: {summary['drives']} drive(s) in {summary['racks']} "
            f"rack(s), capacity {summary['capacity_fraction']:.3f}, "
            f"availability {summary['availability']:.6f}, "
            f"expected annual failures "
            f"{summary['expected_annual_failures']:.3f}"
        )
        if config.tiering_extents > 0:
            print(
                f"tiering: saved {summary['tiering_saved_power_w']:.2f} W "
                f"across the fleet"
            )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the multi-tenant sweep job service until SIGTERM/SIGINT.

    The service always runs over a result store — cross-tenant dedup
    and restart-free resume both live there — so ``--store-dir`` (or
    ``$REPRO_STORE_DIR``) names the shared directory; see
    docs/service.md for the API and deployment notes.
    """
    from repro.service import run_service
    from repro.store import ResultStore
    from repro.telemetry import Telemetry

    telemetry = Telemetry()
    store = ResultStore(root=args.store_dir, telemetry=telemetry)
    return run_service(
        store,
        telemetry=telemetry,
        host=args.host,
        port=args.port,
        port_file=args.port_file,
        backend=args.backend,
        workers=args.workers,
        retries=args.retries,
        task_timeout_s=args.task_timeout,
        drain_timeout_s=args.drain_timeout,
    )


def _cmd_slack(args: argparse.Namespace) -> int:
    from repro.dtm import slack_by_platter_size

    rows = [
        [
            f'{p.diameter_in}"',
            f"{p.vcm_power_w:.2f}",
            f"{p.envelope_rpm:.0f}",
            f"{p.vcm_off_rpm:.0f}",
            f"{p.rpm_gain_fraction * 100:.1f}%",
        ]
        for p in slack_by_platter_size()
    ]
    print(format_table(["media", "VCM W", "envelope RPM", "VCM-off RPM", "gain"], rows))
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    """One fault-injected replay: response-time impact + fault breakdown."""
    from repro.faults import FaultConfig
    from repro.workloads import workload

    config = FaultConfig(
        seed=args.fault_seed,
        media_rate=args.media_rate,
        servo_rate=args.servo_rate,
        remap_fraction=args.remap_fraction,
        max_ecc_retries=args.max_ecc_retries,
    )
    spec = workload(args.name)
    trace = spec.generate(num_requests=args.requests, seed=args.seed)
    rpm = args.rpm if args.rpm is not None else spec.base_rpm
    healthy = spec.build_system(rpm).run_trace(trace)
    faulty = spec.build_system(rpm, fault_config=config).run_trace(trace)
    summary = faulty.fault_summary or {}

    print(
        f"{spec.display_name} at {rpm:.0f} RPM, {len(trace)} requests, "
        f"media rate {config.media_rate:g}, servo rate {config.servo_rate:g}, "
        f"fault seed {config.seed}"
    )
    print(
        format_table(
            ["run", "mean ms", "median ms", "p95 ms", "max ms"],
            [
                [
                    label,
                    f"{r.stats.mean_ms():.2f}",
                    f"{r.stats.median_ms():.2f}",
                    f"{r.stats.percentile_ms(95):.2f}",
                    f"{r.stats.max_ms():.2f}",
                ]
                for label, r in (("healthy", healthy), ("injected", faulty))
            ],
        )
    )
    print()
    print(
        format_table(
            ["fault", "count"],
            [
                ["media retries", f"{summary.get('media_retries', 0):.0f}"],
                ["media remaps", f"{summary.get('media_remaps', 0):.0f}"],
                ["servo faults", f"{summary.get('servo_faults', 0):.0f}"],
                ["ECC re-reads", f"{summary.get('ecc_retries', 0):.0f}"],
                ["total injected", f"{summary.get('total_injected', 0):.0f}"],
                ["extra latency ms", f"{summary.get('extra_ms', 0.0):.1f}"],
            ],
        )
    )
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    """Result-store maintenance: stats / gc / verify."""
    from repro.store import ResultStore

    store = ResultStore(root=args.store_dir)
    if args.action == "stats":
        stats = store.stats()
        print(
            format_table(
                ["store", "entries", "bytes", "cap bytes", "quarantined"],
                [
                    [
                        stats.root,
                        f"{stats.entries}",
                        f"{stats.total_bytes}",
                        f"{stats.max_bytes}",
                        f"{stats.quarantined}",
                    ]
                ],
            )
        )
        return 0
    if args.action == "gc":
        evicted = store.gc(max_bytes=args.max_bytes)
        stats = store.stats()
        print(
            f"evicted {evicted} entr{'y' if evicted == 1 else 'ies'}; "
            f"{stats.entries} left ({stats.total_bytes} bytes) in {stats.root}"
        )
        return 0
    # verify
    report = store.verify()
    print(
        f"checked {report.checked} entr"
        f"{'y' if report.checked == 1 else 'ies'}: "
        f"{report.ok} ok, {report.corrupt} corrupt"
    )
    for key in report.quarantined_keys:
        print(f"  quarantined {key}")
    return 1 if report.corrupt else 0


def _load_thermolint() -> "ModuleType":
    """Import the thermolint package, falling back to the in-repo tools/ dir.

    thermolint ships in ``tools/`` (it is a development gate, not a runtime
    dependency), so an installed ``repro`` won't have it on the path; when
    running from a checkout we add ``tools/`` ourselves.
    """
    try:
        import thermolint
    except ImportError:
        from pathlib import Path

        tools_dir = Path(__file__).resolve().parents[2] / "tools"
        if not (tools_dir / "thermolint").is_dir():
            raise ReproError(
                "thermolint is not importable and no tools/thermolint directory "
                "was found next to this checkout"
            ) from None
        sys.path.insert(0, str(tools_dir))
        import thermolint
    return thermolint


def _cmd_lint(args: argparse.Namespace) -> int:
    thermolint = _load_thermolint()
    from thermolint.cli import main as thermolint_main

    argv: List[str] = list(args.paths)
    argv += ["--format", args.format]
    if args.select:
        argv += ["--select", ",".join(args.select)]
    if args.ignore:
        argv += ["--ignore", ",".join(args.ignore)]
    if args.statistics:
        argv.append("--statistics")
    if args.deep:
        argv.append("--deep")
    if args.project_root is not None:
        argv += ["--project-root", args.project_root]
    if args.baseline is not None:
        argv += ["--baseline", args.baseline]
    if args.no_baseline:
        argv.append("--no-baseline")
    if args.update_baseline:
        argv.append("--update-baseline")
    if args.update_keyed_manifest:
        argv.append("--update-keyed-manifest")
    if args.cache_dir is not None:
        argv += ["--cache-dir", args.cache_dir]
    if args.no_cache:
        argv.append("--no-cache")
    return thermolint_main(argv)


def _float_list(text: str) -> List[float]:
    try:
        return [float(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _int_list(text: str) -> List[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _name_list(text: str) -> List[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


#: How each job-config field appears on the command line: its flag
#: strings (a bare name is a positional) and help.  Its type, default and
#: optionality come from the field (:func:`repro.job_config.config_fields`),
#: apart from :data:`_CLI_DEFAULTS`.
_CONFIG_FLAGS: Dict[str, Tuple[Tuple[str, ...], Optional[str]]] = {
    # repro sweep workload
    "workloads": (("names",), "comma-separated workload names (e.g. tpcc,oltp)"),
    "rpms": (("--rpms",), "comma-separated RPM ladder for every workload (replaces --steps)"),
    "rpm_steps": (("--steps",), "RPM ladder length"),
    "requests": (("-n", "--requests"), None),
    "seed": (("--seed",), None),
    "keep_samples": (("--keep-samples",), "carry every response-time sample into the results"),
    "engine": (
        ("--engine",),
        "simulation engine: the event-driven simulator (exact), the closed-form "
        "queueing estimator (analytic), or analytic where it qualifies and exact "
        "otherwise (auto); see docs/fastpath.md",
    ),
    # repro fleet
    "racks": (("--racks",), "rack count"),
    "enclosures_per_rack": (("--enclosures",), "enclosures per rack"),
    "drives_per_enclosure": (("--drives",), "drives per enclosure"),
    "airflow_m3_per_s": (("--airflow",), "enclosure cooling airflow in m^3/s"),
    "cooling_budget_w": (("--cooling-budget",), "per-enclosure cooling budget in W"),
    "diameter_in": (("-d", "--diameter"), "platter diameter (in)"),
    "platter_count": (("-p", "--platters"), "platters per drive"),
    "vcm_duty": (("--vcm-duty",), "seek activity in [0, 1]"),
    "inlet_c": (("--inlet",), "cold-aisle supply temperature (C)"),
    "recirculation": (
        ("--recirculation",),
        "fraction of upstream exhaust rise reaching downstream inlets",
    ),
    "envelope_c": (("--envelope",), "thermal envelope the fleet DTM enforces (C)"),
    "rpm_levels": (("--rpm-levels",), "comma-separated multi-speed ladder, ascending"),
    "max_rounds": (("--max-rounds",), "fleet DTM throttle rounds before giving up"),
    "base_afr": (("--base-afr",), "annualized failure rate at the reference temperature"),
    "reference_c": (("--reference-c",), "reference temperature of --base-afr (C)"),
    "mttr_hours": (("--mttr-hours",), "mean time to repair"),
    "tiering_extents": (("--tiering-extents",), "extents to tier per rack (0 = tiering off)"),
    "tiering_seed": (("--tiering-seed",), "extent-heat seed"),
    "tiering_target_utilization": (
        ("--tiering-utilization",),
        "balanced-layout utilization target in (0, 1]",
    ),
    "accesses_per_drive": (
        ("--accesses",),
        "fault-replayed media accesses per drive (with --inject-faults)",
    ),
    # both families
    "inject_faults": (("--inject-faults",), "inject deterministic per-drive media/servo faults"),
    "fault_seed": (("--fault-seed",), "fault-injection seed"),
    "media_rate": (
        ("--media-rate",),
        "per-media-access media-error probability (with --inject-faults)",
    ),
    "servo_rate": (
        ("--servo-rate",),
        "per-media-access servo-fault probability (with --inject-faults)",
    ),
    "backend": (
        ("--backend",),
        "execution backend (default $REPRO_SWEEP_BACKEND or process); process "
        "runs in-process when the tasks cost less than a pool, unless "
        "--task-timeout is set; shared-store coordinates with peer processes "
        "through the result store and implies --store",
    ),
    "retries": (("--retries",), "extra attempts per failed task"),
    "workers": (
        ("-w", "--workers"),
        "process count for the process backend (0 or 1: in-process)",
    ),
}

#: The CLI's own defaults where they differ from the config's (which
#: the service uses): smaller default sweeps, one more retry.
_CLI_DEFAULTS: Dict[str, Any] = {"requests": 4000, "retries": 2}

#: Choices of the closed-set string fields (``engine``:
#: :data:`repro.simulation.fastpath.ENGINES`).
_CONFIG_CHOICES: Dict[str, Tuple[str, ...]] = {
    "engine": ("exact", "analytic", "auto"),
    "backend": _BACKEND_CHOICES,
}


def _flag_dest(flags: Tuple[str, ...]) -> str:
    """The ``args`` attribute argparse stores a field's flag under."""
    name = next((flag for flag in flags if flag.startswith("--")), flags[0])
    return name.lstrip("-").replace("-", "_")


def _add_config_flags(p: argparse.ArgumentParser, cls: type) -> None:
    """One flag per field of job config ``cls``, in field order."""
    list_types: Dict[type, Callable[[str], List[Any]]] = {str: _name_list, float: _float_list}
    for field in config_fields(cls):
        flags, help_text = _CONFIG_FLAGS[field.name]
        default = _CLI_DEFAULTS.get(field.name, field.default)
        kwargs: Dict[str, Any] = {"help": help_text}
        if field.scalar is bool:
            kwargs["action"] = "store_true"
        elif field.is_tuple:
            kwargs["type"] = list_types[field.scalar]
        elif field.scalar is not str:
            kwargs["type"] = field.scalar
        if field.name in _CONFIG_CHOICES:
            kwargs["choices"] = _CONFIG_CHOICES[field.name]
        if default is not dataclasses.MISSING:
            kwargs["default"] = list(default) if isinstance(default, tuple) else default
        p.add_argument(*flags, **kwargs)


def _config_from_args(cls: type, args: argparse.Namespace) -> Any:
    """Rebuild the job config ``cls`` from its parsed flags."""
    values = {}
    for field in config_fields(cls):
        value = getattr(args, _flag_dest(_CONFIG_FLAGS[field.name][0]))
        values[field.name] = tuple(value) if field.is_tuple and value is not None else value
    return cls(**values)


def _add_run_flags(
    p: argparse.ArgumentParser,
    cls: type,
    units: str,
    default_manifest: str,
    results_schema: str,
) -> None:
    """The flags of a job-running command: one per field of job config
    ``cls``, then the run flags ``repro sweep workload`` and ``repro
    fleet`` share: deadlines, partial results and manifests, the result
    store, resume and results output.  ``units`` names what one task
    computes (``points``, ``racks``)."""
    _add_config_flags(p, cls)
    p.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-task wall-clock deadline",
    )
    p.add_argument(
        "--partial-results",
        action="store_true",
        help=f"survive failing {units}: keep healthy results and write a "
        "failure manifest instead of aborting",
    )
    p.add_argument(
        "--manifest-out",
        default=None,
        metavar="PATH",
        help="failure-manifest JSON path (with --partial-results; "
        f"default {default_manifest}, written only on failures unless set)",
    )
    p.add_argument(
        "--store",
        action="store_true",
        help=f"serve completed {units} from the content-addressed result "
        "store and persist new ones (see `repro store`)",
    )
    p.add_argument(
        "--store-dir",
        default=None,
        metavar="PATH",
        help="result-store directory (implies --store; default "
        "$REPRO_STORE_DIR or ~/.cache/repro)",
    )
    p.add_argument(
        "--resume",
        default=None,
        metavar="MANIFEST",
        help="resume a previous --store run from its manifest (implies "
        f"--store and --partial-results; completed {units} become hits)",
    )
    p.add_argument(
        "--results-out",
        default=None,
        metavar="PATH",
        help=f"write canonical results JSON ({results_schema}) here",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Disk-drive thermal roadmap reproduction (ISCA 2005)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("validate", help="Table 1: model vs 13 real drives")

    p = sub.add_parser("envelope", help="max RPM inside the thermal envelope")
    p.add_argument("-d", "--diameter", type=float, default=2.6, help="platter inches")
    p.add_argument("-p", "--platters", type=int, default=1)
    p.add_argument("--envelope", type=float, default=THERMAL_ENVELOPE_C)
    p.add_argument("--ambient", type=float, default=AMBIENT_TEMPERATURE_C)
    p.add_argument("--vcm-off", action="store_true", help="exploit idle slack")

    p = sub.add_parser("transient", help="Figure 1 warm-up transient")
    p.add_argument("-m", "--minutes", type=int, default=90)
    p.add_argument("--ambient", type=float, default=AMBIENT_TEMPERATURE_C)

    p = sub.add_parser("roadmap", help="Figure 2 thermally-limited roadmap")
    p.add_argument("-p", "--platters", type=int, default=1)
    p.add_argument(
        "--cooling", type=float, default=0.0, help="extra ambient cooling in C"
    )

    p = sub.add_parser("workload", help="Figure 4 RPM sweep for one workload")
    p.add_argument(
        "name",
        choices=["openmail", "oltp", "search_engine", "tpcc", "tpch"],
    )
    p.add_argument("-n", "--requests", type=int, default=4000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--steps", type=int, default=4, help="RPM ladder length")

    p = sub.add_parser("throttle", help="Figure 7 throttling ratios")
    p.add_argument("-d", "--diameter", type=float, default=2.6)
    p.add_argument("--rpm-high", type=float, required=True)
    p.add_argument("--rpm-low", type=float, default=None)
    p.add_argument(
        "--t-cool", type=_float_list, default=[0.5, 1.0, 2.0, 4.0, 8.0],
        help="comma-separated cooling intervals in seconds",
    )
    p.add_argument("--mode", choices=["paper", "sustained"], default="paper")

    sub.add_parser("slack", help="Figure 5a thermal slack by platter size")

    p = sub.add_parser("lint", help="thermolint determinism/unit-safety static analysis")
    p.add_argument(
        "paths",
        nargs="*",
        default=[],
        help=(
            "files or directories to lint (default: src/repro); with --deep "
            "these only filter reported findings"
        ),
    )
    p.add_argument("--format", choices=["text", "json", "sarif"], default="text")
    p.add_argument(
        "--select", type=_name_list, default=None, help="comma-separated rule ids"
    )
    p.add_argument(
        "--ignore", type=_name_list, default=None, help="comma-separated rule ids"
    )
    p.add_argument("--statistics", action="store_true")
    p.add_argument(
        "--deep",
        action="store_true",
        help="project-wide pass: call graph, keyed-zone taint rules TL007-TL013",
    )
    p.add_argument("--project-root", default=None, help="repository root for --deep")
    p.add_argument("--baseline", default=None, help="baseline file for --deep")
    p.add_argument(
        "--no-baseline", action="store_true", help="ignore any baseline file"
    )
    p.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the deep baseline to current findings and exit",
    )
    p.add_argument(
        "--update-keyed-manifest",
        action="store_true",
        help="regenerate the keyed-zone schema-drift manifest and exit",
    )
    p.add_argument("--cache-dir", default=None, help="deep summary cache directory")
    p.add_argument(
        "--no-cache", action="store_true", help="disable the deep summary cache"
    )

    p = sub.add_parser(
        "sweep", help="parallel sweep over roadmap or workload configurations"
    )
    sweep_sub = p.add_subparsers(dest="axis", required=True)
    ps = sweep_sub.add_parser("roadmap", help="Figure 2 sweep over platter counts")
    ps.add_argument(
        "-p",
        "--platters",
        type=_int_list,
        default=[1, 2, 4],
        help="comma-separated platter counts",
    )
    ps.add_argument(
        "-w", "--workers", type=int, default=None,
        help="process count for the process backend (0 or 1: in-process)",
    )
    ps.add_argument(
        "--backend",
        choices=_BACKEND_CHOICES,
        default=None,
        help="execution backend (default $REPRO_SWEEP_BACKEND or process); "
        "process runs in-process when the panels cost less than a pool; "
        "shared-store coordinates with peer processes through the result "
        "store ($REPRO_STORE_DIR, else ~/.cache/repro)",
    )
    ps = sweep_sub.add_parser(
        "workload", help="Figure 4 sweep over (workload, RPM) points"
    )
    _add_run_flags(
        ps,
        SweepJobConfig,
        units="points",
        default_manifest="sweep_manifest.json",
        results_schema="repro.sweep_results/2",
    )
    ps.add_argument(
        "--telemetry",
        action="store_true",
        help="instrument every replay and write per-point telemetry JSON",
    )
    ps.add_argument(
        "--telemetry-out",
        default=None,
        metavar="PATH",
        help="telemetry JSON path (implies --telemetry; "
        "default sweep_telemetry.json)",
    )
    ps.add_argument(
        "--probe-interval",
        type=float,
        default=100.0,
        help="time-series sampling interval in simulated ms",
    )

    p = sub.add_parser(
        "fleet",
        help="fleet-scale sweep: racks of thermally coupled enclosures with "
        "fleet DTM, tiering and AFR/availability reporting",
    )
    _add_run_flags(
        p,
        FleetJobConfig,
        units="racks",
        default_manifest="fleet_manifest.json",
        results_schema="repro.fleet_results/1",
    )

    p = sub.add_parser(
        "serve", help="multi-tenant sweep job service (HTTP/JSON over the store)"
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument(
        "--port",
        type=int,
        default=8765,
        help="bind port (0 = OS-assigned ephemeral port)",
    )
    p.add_argument(
        "--port-file",
        default=None,
        metavar="PATH",
        help="write the bound port here after startup (for --port 0 scripts)",
    )
    p.add_argument(
        "--store-dir",
        default=None,
        metavar="PATH",
        help="result-store directory shared by tenants/replicas "
        "(default $REPRO_STORE_DIR or ~/.cache/repro)",
    )
    p.add_argument(
        "--backend",
        choices=_BACKEND_CHOICES,
        default=None,
        help="default execution backend for jobs that don't pick one "
        "(process runs a job in-process when its tasks cost less than a pool)",
    )
    p.add_argument(
        "-w", "--workers", type=int, default=None,
        help="default worker count per job",
    )
    p.add_argument(
        "--retries", type=int, default=1,
        help="default extra attempts per failed sweep task",
    )
    p.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-task wall-clock deadline",
    )
    p.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="max seconds to wait for running jobs on SIGTERM",
    )

    p = sub.add_parser(
        "store", help="content-addressed result-store maintenance"
    )
    store_sub = p.add_subparsers(dest="action", required=True)
    for action, blurb in (
        ("stats", "entry count, size and quarantine inventory"),
        ("gc", "evict least-recently-used entries down to the size cap"),
        ("verify", "integrity-check every entry, quarantining failures"),
    ):
        ps2 = store_sub.add_parser(action, help=blurb)
        ps2.add_argument(
            "--store-dir",
            default=None,
            metavar="PATH",
            help="store directory (default $REPRO_STORE_DIR or ~/.cache/repro)",
        )
        if action == "gc":
            ps2.add_argument(
                "--max-bytes",
                type=int,
                default=None,
                help="override the size cap for this collection",
            )

    p = sub.add_parser(
        "faults", help="fault-injected replay: healthy vs injected comparison"
    )
    p.add_argument(
        "name",
        choices=["openmail", "oltp", "search_engine", "tpcc", "tpch"],
    )
    p.add_argument("-n", "--requests", type=int, default=2000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--rpm", type=float, default=None, help="override spindle speed")
    p.add_argument("--fault-seed", type=int, default=0)
    p.add_argument(
        "--media-rate",
        type=float,
        default=0.01,
        help="per-media-access media-error probability",
    )
    p.add_argument(
        "--servo-rate",
        type=float,
        default=0.005,
        help="per-media-access servo-fault probability",
    )
    p.add_argument(
        "--remap-fraction",
        type=float,
        default=0.25,
        help="fraction of media errors escalating to a sector remap",
    )
    p.add_argument(
        "--max-ecc-retries",
        type=int,
        default=3,
        help="worst-case ECC re-read attempts per media error",
    )

    p = sub.add_parser(
        "trace", help="instrumented single replay: metrics, trace, sparklines"
    )
    p.add_argument(
        "name",
        choices=["openmail", "oltp", "search_engine", "tpcc", "tpch"],
    )
    p.add_argument("-n", "--requests", type=int, default=2000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--rpm", type=float, default=None, help="override spindle speed")
    p.add_argument(
        "--interval",
        type=float,
        default=100.0,
        help="probe sampling interval in simulated ms",
    )
    p.add_argument(
        "--trace-capacity",
        type=int,
        default=65536,
        help="event-trace ring-buffer capacity",
    )
    p.add_argument(
        "--limit", type=int, default=10, help="trace-tail events to print"
    )
    p.add_argument(
        "--kind", default=None, help="only show trace events of this kind"
    )
    p.add_argument(
        "--format",
        choices=["json", "csv", "prom"],
        default="json",
        help="export format for --output",
    )
    p.add_argument(
        "-o", "--output", default=None, metavar="PATH", help="write telemetry here"
    )
    p.add_argument(
        "--ascii", action="store_true", help="ASCII sparklines (no unicode blocks)"
    )
    return parser


_HANDLERS = {
    "validate": _cmd_validate,
    "envelope": _cmd_envelope,
    "transient": _cmd_transient,
    "roadmap": _cmd_roadmap,
    "workload": _cmd_workload,
    "throttle": _cmd_throttle,
    "slack": _cmd_slack,
    "sweep": _cmd_sweep,
    "fleet": _cmd_fleet,
    "serve": _cmd_serve,
    "store": _cmd_store,
    "trace": _cmd_trace,
    "faults": _cmd_faults,
    "lint": _cmd_lint,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
