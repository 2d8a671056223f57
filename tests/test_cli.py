"""CLI tests: every subcommand produces its table and exits cleanly."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["defrag"])

    def test_t_cool_list_parsing(self):
        args = build_parser().parse_args(
            ["throttle", "--rpm-high", "24534", "--t-cool", "0.5,1,2"]
        )
        assert args.t_cool == [0.5, 1.0, 2.0]

    def test_t_cool_rejects_garbage(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["throttle", "--rpm-high", "24534", "--t-cool", "fast"]
            )

    def test_workload_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["workload", "exchange"])

    def test_sweep_requires_axis(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep"])

    def test_sweep_platter_list_parsing(self):
        args = build_parser().parse_args(["sweep", "roadmap", "-p", "1,4"])
        assert args.platters == [1, 4]

    def test_sweep_name_list_parsing(self):
        args = build_parser().parse_args(["sweep", "workload", "tpcc, oltp"])
        assert args.names == ["tpcc", "oltp"]


class TestCommands:
    def test_validate(self, capsys):
        code, out, err = run_cli(capsys, "validate")
        assert code == 0
        assert "Cheetah 15K.3" in out
        assert "IDR ours" in out

    def test_envelope(self, capsys):
        code, out, _ = run_cli(capsys, "envelope", "-d", "2.6")
        assert code == 0
        # ~15,000 RPM for the 2.6" envelope design.
        tokens = out.split()
        assert any(t.startswith(("149", "150")) and len(t) == 5 for t in tokens)
        assert "45.22" in out

    def test_envelope_vcm_off(self, capsys):
        code, out, _ = run_cli(capsys, "envelope", "-d", "2.6", "--vcm-off")
        assert code == 0
        assert "off" in out

    def test_envelope_infeasible_design_reports_error(self, capsys):
        code, out, err = run_cli(
            capsys, "envelope", "-d", "2.6", "-p", "4", "--envelope", "30"
        )
        assert code == 1
        assert "error:" in err

    def test_transient(self, capsys):
        code, out, _ = run_cli(capsys, "transient", "-m", "30")
        assert code == 0
        assert "steady state" in out

    def test_roadmap(self, capsys):
        code, out, _ = run_cli(capsys, "roadmap")
        assert code == 0
        assert "2012" in out
        assert "*" in out  # some year meets the target

    def test_roadmap_with_cooling(self, capsys):
        code, out, _ = run_cli(capsys, "roadmap", "--cooling", "5")
        assert code == 0

    def test_workload(self, capsys):
        code, out, _ = run_cli(
            capsys, "workload", "oltp", "-n", "400", "--steps", "2"
        )
        assert code == 0
        assert "OLTP" in out
        assert "15000" in out

    def test_workload_table_is_pinned(self, capsys, monkeypatch):
        # The exact Figure 4 table; the command runs serially in process
        # whatever backend the environment names.
        monkeypatch.setenv("REPRO_SWEEP_BACKEND", "shared-store")
        code, out, _ = run_cli(
            capsys, "workload", "oltp", "-n", "400", "--steps", "2"
        )
        assert code == 0
        assert out == (
            "OLTP Application: 400 requests\n"
            "  RPM  mean ms  median ms  p95 ms  util\n"
            "-----  -------  ---------  ------  ----\n"
            "10000     5.74       5.18   11.54  0.29\n"
            "15000     4.36       3.81    9.18  0.24\n"
        )

    def test_workload_refuses_zero_requests(self, capsys):
        code, _, err = run_cli(capsys, "workload", "oltp", "-n", "0")
        assert code == 1
        assert "at least one request" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["workload", "oltp", "--steps", "0"], "at least one RPM"),
            (["sweep", "workload", "oltp", "--steps", "0"],
             "'rpm_steps' must be positive, got 0"),
            (["sweep", "workload", "oltp", "--rpms", ""], "at least one RPM"),
        ],
        ids=["argv0", "argv1", "argv2"],
    )
    def test_workload_refuses_an_empty_ladder(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv, "-n", "400")
        assert code == 1
        assert message in err
        assert out == ""

    def test_throttle(self, capsys):
        code, out, _ = run_cli(
            capsys, "throttle", "--rpm-high", "24534", "--t-cool", "1,4"
        )
        assert code == 0
        assert "ratio" in out

    def test_throttle_infeasible(self, capsys):
        code, out, err = run_cli(
            capsys, "throttle", "--rpm-high", "12000", "--t-cool", "1"
        )
        assert code == 1
        assert "error:" in err

    def test_slack(self, capsys):
        code, out, _ = run_cli(capsys, "slack")
        assert code == 0
        assert '2.6"' in out

    def test_sweep_workload(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "workload", "tpcc", "-n", "300", "--steps", "2", "-w", "1",
        )
        assert code == 0
        assert "tpcc" in out
        assert "mean ms" in out

    def test_sweep_workload_unknown_name_reports_error(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "workload", "exchange", "-n", "100"
        )
        assert code == 1
        assert "error:" in err

    def test_sweep_roadmap(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "roadmap", "-p", "1", "-w", "1")
        assert code == 0
        assert "1-platter roadmap:" in out
        assert "meets the 40% IDR growth target" in out

    def test_sweep_roadmap_prints_pooled_panels_byte_identically(self, capsys):
        """The CI ``process`` row prints a ready pool's panels through
        ``_roadmap_sweep_text``: they must be the serial CLI's bytes."""
        from repro.cli import _roadmap_sweep_text
        from repro.simulation.resilience import run_kind
        from repro.simulation.sweep import RoadmapTask, roadmap_sweep_kind
        from tests.sweep_kinds import process_pool

        code, out, _ = run_cli(
            capsys, "sweep", "roadmap", "-p", "1,2", "-w", "2", "--backend", "serial"
        )
        assert code == 0
        kind = roadmap_sweep_kind()
        tasks = [RoadmapTask(platter_count=count) for count in (1, 2)]
        report = run_kind(kind, tasks, backend=process_pool(kind, tasks))
        report.raise_on_failure()
        assert report.backend == "process"
        by_count = {t.platter_count: r for t, r in zip(tasks, report.ok_results())}
        assert _roadmap_sweep_text(by_count) + "\n" == out
