"""Repository benchmark: one workload, one seed, one measurement window.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload replay-ladder --seed 1 \
        --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes the separate traced run that attributes time to the
program's layers.  Every input is generated from ``--seed``.  Outputs are
checked on every run; for the default seed they must also match the
digests pinned in ``perfbench/digests.json``.  The last line of standard
output is the JSON result; the full record (host, figures, notes, spans)
is written under ``perfbench/out/`` (or ``--out``).  The exit code is 0 only when every
output checked out.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

import common  # noqa: E402

#: workload name -> module implementing ``run(seed, seconds, trace, scale)``
WORKLOADS = {
    "replay-ladder": "replay_ladder",
    "fleet-thermal": "fleet_thermal",
    "service-mixed": "service_mixed",
}

#: Measured with tracing off, on every workload (see README.md for what
#: primary/secondary/tertiary mean on each workload).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "primary_ms": "ms",
    "secondary_ms": "ms",
    "tertiary_ms": "ms",
}

#: Produced by the traced run; a layer a workload never enters reads 0.
PER_LAYER = {
    "workloads.generate_s": "s",
    "workloads.requests": "count",
    "simulation.build_s": "s",
    "simulation.run_trace_s": "s",
    "simulation.stats_s": "s",
    "simulation.events_fired": "count",
    "simulation.host_us_per_event": "us",
    "backends.task_compute_s": "s",
    "backends.overhead_s": "s",
    "backends.pickled_bytes": "bytes",
    "backends.tasks": "count",
    "backends.retries": "count",
    "backends.pool_breaks": "count",
    "store.get_s": "s",
    "store.put_s": "s",
    "store.hits": "count",
    "store.misses": "count",
    "store.hit_ratio": "ratio",
    "store.bytes_written": "bytes",
    "codec.encode_s": "s",
    "codec.decode_s": "s",
    "codec.document_s": "s",
    "codec.payload_bytes": "bytes",
    "scaling.roadmap_s": "s",
    "thermal.cooling_budget_s": "s",
    "scaling.roadmap_points": "count",
    "fleet.tiering_s": "s",
    "fleet.coordinate_s": "s",
    "fleet.reliability_s": "s",
    "fleet.dtm_rounds": "count",
    "fleet.throttle_events": "count",
    "fleet.residual_breaches": "count",
    "service.post_ms": "ms",
    "service.fetch_ms": "ms",
    "service.queue_wait_ms": "ms",
    "service.compute_ms": "ms",
    "service.polls": "count",
    "service.dedup_hits": "count",
    "load.late_p95_ms": "ms",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
}


def _parse(argv: list) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None, help="default: seeds.json")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="input size; tiny is for the self-test only",
    )
    parser.add_argument(
        "--digests", default=common.DIGESTS_PATH, help="pinned digest table"
    )
    parser.add_argument(
        "--out", default=common.OUT_DIR, help="directory for the run record"
    )
    return parser.parse_args(argv)


def main(argv: list) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(common.SRC, "repro")):
        print(f"error: no program sources under {common.SRC}", file=sys.stderr)
        return 2
    common.prepare_process()
    seeds = common.default_seeds()
    seed = seeds["default"] if args.seed is None else args.seed
    module = __import__(WORKLOADS[args.workload])
    started = time.perf_counter()
    outcome = module.run(seed, args.seconds, bool(args.trace), args.scale)
    leaked = common.reap_children()
    if leaked:
        outcome.notes.append(f"stopped {len(leaked)} child process(es) the workload left running")
    if seed == seeds["default"]:
        common.check_pinned(
            outcome, common.load_digests(args.digests), args.workload, args.scale, seed
        )
    if outcome.attempted < 1:
        outcome.fail("no operation attempted")
        outcome.attempted = 1

    wanted = PER_LAYER if args.trace else END_TO_END
    if not args.trace:
        missing = [name for name in END_TO_END if name not in outcome.metrics]
        if missing:
            outcome.fail(f"metrics not measured: {', '.join(missing)}")
    outcome.metrics = {
        name: (float(outcome.metrics.get(name, (0.0, unit))[0]), unit)
        for name, unit in wanted.items()
    }
    correct = outcome.failed == 0

    host = common.host_record(
        backend="serial" if args.workload == "service-mixed" else "process",
        workers=common.WORKERS,
    )
    record = {
        "schema": "perfbench.result/1",
        "workload": args.workload,
        "seed": seed,
        "scale": args.scale,
        "trace": args.trace,
        "seconds": args.seconds,
        "wall_s": time.perf_counter() - started,
        "host": host,
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failed_frac": outcome.failed / outcome.attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome.metrics.items()},
        "figures": {k: {"value": v, "unit": u} for k, (v, u) in outcome.figures.items()},
        "samples": outcome.samples,
        "digests": outcome.digests,
        "failures": outcome.failures,
        "notes": outcome.notes,
    }
    os.makedirs(args.out, exist_ok=True)
    stem = f"{args.workload}-{args.scale}-seed{seed}-trace{args.trace}-{os.getpid()}"
    with open(os.path.join(args.out, stem + ".json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    if args.trace:
        with open(os.path.join(args.out, stem + ".spans.json"), "w", encoding="utf-8") as handle:
            json.dump(outcome.spans, handle)

    print(f"host: {json.dumps(host, sort_keys=True)}")
    print(f"failed_frac: {record['failed_frac']:.6g} ratio "
          f"({outcome.failed}/{outcome.attempted})")
    for name, (value, unit) in outcome.figures.items():
        print(f"{name}: {value:.6g} {unit}")
    for note in outcome.notes:
        print(f"note: {note}")
    for failure in outcome.failures:
        print(f"FAILED: {failure}")
    print(common.result_line(correct, outcome))
    return 0 if correct else 1


def _stop(signum: int, _frame: object) -> None:
    # Unwind through every ``finally`` (servers, pools), then reap.
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _stop)
    try:
        code = main(sys.argv[1:])
    finally:
        common.reap_children()
    sys.exit(code)
