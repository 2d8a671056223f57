#!/usr/bin/env python3
"""One-shot reproduction driver.

Runs the full test suite and the complete benchmark harness (every table
and figure of the paper plus the extension studies), tees the outputs to
``test_output.txt`` and ``bench_output.txt``, and prints a short index of
the regenerated artifacts in ``benchmarks/results/``.  Performance is
measured separately by ``perfbench/run.py``.

Usage:  python reproduce.py [--skip-tests] [--skip-benches]
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent


def run(label: str, command: list, tee_to: Path) -> int:
    print(f"\n=== {label}: {' '.join(command)} ===")
    process = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
    )
    lines = []
    assert process.stdout is not None
    for line in process.stdout:
        sys.stdout.write(line)
        lines.append(line)
    process.wait()
    tee_to.write_text("".join(lines), encoding="utf-8")
    return process.returncode


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--skip-tests", action="store_true")
    parser.add_argument("--skip-benches", action="store_true")
    args = parser.parse_args()

    status = 0
    if not args.skip_tests:
        status |= run(
            "test suite",
            [sys.executable, "-m", "pytest", "tests/"],
            ROOT / "test_output.txt",
        )
    if not args.skip_benches:
        status |= run(
            "benchmark harness",
            [sys.executable, "-m", "pytest", "benchmarks/", "--benchmark-only"],
            ROOT / "bench_output.txt",
        )
        results = sorted((ROOT / "benchmarks" / "results").glob("*.txt"))
        print(f"\nregenerated {len(results)} artifacts in benchmarks/results/:")
        for path in results:
            print(f"  {path.name}")
    print("\nsee EXPERIMENTS.md for the paper-vs-measured comparison.")
    return status


if __name__ == "__main__":
    sys.exit(main())
