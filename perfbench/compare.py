"""Compare two sets of benchmark records, per workload and metric.

Usage::

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the ``*.json`` records ``run.py`` writes under
``perfbench/out/``.  Records are grouped by workload, scale and window
length; only groups present on both sides are compared.  For every group
and end-to-end metric, prints the median of each side, the change as a
share of the base median, and whether it stays within the metric's bound
from ``BENCHMARK.json``.

Exit codes: 0 all within bounds, 1 a metric regressed past its bound or
a run was incorrect, 2 the records were taken on differing hosts (the
comparison is refused) or a directory holds no records.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from typing import Any, Dict, List, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")


def _records(directory: str) -> List[Dict[str, Any]]:
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        if path.endswith(".spans.json"):
            continue
        with open(path, "r", encoding="utf-8") as handle:
            record = json.load(handle)
        if record.get("schema") == "perfbench.result/1" and record["trace"] == 0:
            records.append(record)
    return records


def _group(record: Dict[str, Any]) -> Tuple[str, str, float]:
    """Records are only comparable within one workload, scale and window."""
    return record["workload"], record["scale"], float(record["seconds"])


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (_records(d) for d in argv)
    if not base or not new:
        print("error: no untraced records found", file=sys.stderr)
        return 2
    groups = sorted({_group(r) for r in base} & {_group(r) for r in new})
    if not groups:
        print("error: no workload, scale and window appears on both sides", file=sys.stderr)
        return 2
    for group in groups:
        hosts = {
            json.dumps(r["host"], sort_keys=True)
            for r in base + new
            if _group(r) == group
        }
        if len(hosts) > 1:
            print(f"error: {group[0]} records come from differing hosts; "
                  "refusing to compare:", file=sys.stderr)
            for host in sorted(hosts):
                print(f"  {host}", file=sys.stderr)
            return 2
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}

    verdict = 0
    print(f"{'workload/scale/window':28s} {'metric':14s} "
          f"{'base':>12s} {'new':>12s} {'change':>8s} {'bound':>6s}")
    for group in groups:
        workload = f"{group[0]}/{group[1]}/{group[2]:g}s"
        sides = [[r for r in rs if _group(r) == group] for rs in (base, new)]
        if not all(r["correct"] for side in sides for r in side):
            print(f"{workload}: an incorrect run is present")
            verdict = 1
        for metric, (bound, better) in bounds.items():
            b, n = (
                statistics.median(r["metrics"][metric]["value"] for r in side)
                for side in sides
            )
            change = (n - b) / b
            worse = change if better == "lower" else -change
            flag = "REGRESSED" if worse > bound else ""
            if flag:
                verdict = 1
            print(f"{workload:28s} {metric:14s} "
                  f"{b:12.4f} {n:12.4f} {change:+8.1%} {bound:6.2f} {flag}")
    return verdict


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
