"""Literal byte pins of the exact replay engine.

The exact engine's per-access path (LBA mapping, rotational wait, seek and
transfer accounting, the event drain) may be rewritten for speed, but never
so that one result byte moves.  These tests pin, by SHA-256 digest:

* the canonical results document of an exact, ``keep_samples=True`` sweep
  over all five catalog workloads;
* the logical response-time samples of an SSTF and a LOOK replay (the
  position-aware schedulers key on ``DiskLayout.cylinder_of``);
* the per-disk mechanical totals (:class:`DiskStats`) of one replay;
* the mean response times of the Figure 4 tpcc RPM ladder at full scale,
  as literals (the values first recorded in ``BENCH_PR1.json``).

A moved digest means the engine's arithmetic changed; a deliberate model
change must update these literals in the same commit.
"""

from __future__ import annotations

import hashlib
import struct

from repro.simulation.sweep import results_json_bytes, sweep_workloads
from repro.simulation.system import build_system
from repro.workloads import generate_trace, workload

CATALOG = ("tpcc", "openmail", "oltp", "tpch", "search_engine")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _floats_digest(values) -> str:
    """Digest of a float sequence by its exact IEEE-754 bits."""
    values = list(values)
    return _sha256(struct.pack(f"<{len(values)}d", *values))


def _scheduled_replay(scheduler_name: str):
    """A 4-disk RAID-0 replay of a dense tpcc-shaped trace: deep enough
    queues that SSTF/LOOK reorder requests."""
    system = build_system(
        disk_count=4,
        rpm=10000.0,
        disk_capacity_gb=18.0,
        scheduler_name=scheduler_name,
    )
    trace = generate_trace(
        shape=workload("tpcc").shape.scaled_rate(4.0),
        num_requests=600,
        capacity_sectors=system.array.logical_sectors,
        seed=11,
    )
    system.run_trace(trace)
    return system


class TestExactEnginePins:
    def test_catalog_sweep_results_bytes(self):
        results = sweep_workloads(
            list(CATALOG),
            rpm_steps=2,
            requests=300,
            seed=7,
            workers=0,
            keep_samples=True,
            engine="exact",
        )
        assert _sha256(results_json_bytes(results)) == (
            "cbc838030e11766d47cbbd7e2b023ece15d7f9a98ea87e71265822f8ba941e7e"
        )

    def test_sstf_replay_samples(self):
        system = _scheduled_replay("sstf")
        assert _floats_digest(system.stats.samples_ms) == (
            "e6693fcd9d909a8bc92f2e0ef9164bfd3c2e7c19358c5cb2f3b4e3ebbbb0ace0"
        )

    def test_look_replay_samples(self):
        system = _scheduled_replay("look")
        assert _floats_digest(system.stats.samples_ms) == (
            "2cf32dd0106133ad321ed69db1949b375da7be94b52d23d3c0410ad85e21f49c"
        )

    def test_disk_stats_totals(self):
        spec = workload("openmail")
        system = spec.build_system(spec.base_rpm + 5000.0)
        system.run_trace(spec.generate(num_requests=500, seed=3))
        totals = []
        for disk in system.disks:
            s = disk.stats
            totals.extend(
                [
                    s.seek_ms,
                    s.rotational_ms,
                    s.transfer_ms,
                    float(s.seeks_with_movement),
                    float(s.total_seek_cylinders),
                    s.busy_ms,
                ]
            )
        assert _floats_digest(totals) == (
            "1c61a408a0001adae71a32900a97cbbb0185706b4de2e23b51c65313a4cfa750"
        )

    def test_figure4_tpcc_ladder_means(self):
        results = sweep_workloads(["tpcc"], requests=6000, workers=0)
        assert [round(r.mean_ms, 6) for r in results] == [
            9.797353, 6.873089, 5.429306, 4.638604
        ]
