"""End-to-end tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.analysis.dbf import set_demand_kernel
from repro.cli import build_parser, main
from repro.experiments.acceptance import clear_samples
from repro.util.env import DBF_KERNELS, RUNNER_BACKENDS
from tests.conftest import forward_oracle


@pytest.fixture
def taskset_file(tmp_path):
    path = tmp_path / "ts.json"
    code = main(
        [
            "generate",
            "--m",
            "1",
            "--uhh",
            "0.5",
            "--ulh",
            "0.25",
            "--ull",
            "0.3",
            "--seed",
            "cli-test",
            "-o",
            str(path),
        ]
    )
    assert code == 0
    return path


class TestGenerate:
    def test_writes_valid_json(self, taskset_file):
        rows = json.loads(taskset_file.read_text())
        assert isinstance(rows, list) and rows
        assert {"period", "criticality", "wcet_lo", "wcet_hi"} <= set(rows[0])

    def test_stdout_mode(self, capsys):
        code = main(
            [
                "generate", "--m", "1",
                "--uhh", "0.4", "--ulh", "0.2", "--ull", "0.2",
            ]
        )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows

    def test_infeasible_targets_exit_1(self, capsys):
        # m*U_HH = 7.92 cannot be carved into <= 4 HC tasks of u <= 0.99.
        code = main(
            [
                "generate", "--m", "8",
                "--uhh", "0.99", "--ulh", "0.5", "--ull", "0.3",
                "--nmin", "8", "--nmax", "8",
            ]
        )
        assert code == 1

    def test_count_range_respected(self, capsys):
        code = main(
            [
                "generate", "--m", "1",
                "--uhh", "0.4", "--ulh", "0.2", "--ull", "0.2",
                "--nmin", "4", "--nmax", "4",
            ]
        )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 4


class TestCheck:
    def test_schedulable_exit_0(self, taskset_file, capsys):
        code = main(["check", str(taskset_file), "--test", "ecdf"])
        assert code == 0
        assert "SCHEDULABLE" in capsys.readouterr().out

    def test_all_tests_run(self, taskset_file):
        for test in ("edf-vd", "ey", "amc-max", "amc-rtb", "edf-lo"):
            code = main(["check", str(taskset_file), "--test", test])
            assert code in (0, 2)


class TestPartition:
    def test_partition_success(self, taskset_file, capsys):
        code = main(
            [
                "partition", str(taskset_file),
                "--m", "2", "--strategy", "cu-udp", "--test", "edf-vd",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "SUCCESS" in out and "cu-udp" in out


class TestSimulate:
    def test_validates_accepted_set(self, taskset_file, capsys):
        code = main(
            [
                "simulate", str(taskset_file),
                "--test", "ecdf", "--horizon", "3000",
            ]
        )
        assert code == 0
        assert "validated" in capsys.readouterr().out


DATA = Path(__file__).parent / "data"


class TestFigure:
    @pytest.mark.parametrize("name", ["fig4", "fig7b"])
    def test_qpa_equals_forward_oracle(self, name, capsys, tmp_path, monkeypatch):
        """The result file under qpa equals, byte for byte, the one computed
        with the in-order walk in place of the QPA decider and the accept
        screens (fig7b's elastic service puts degraded LC rows in HI mode,
        where the walk's trigger restriction matters)."""
        monkeypatch.chdir(tmp_path)
        argv = ["figure", name, "--samples", "2", "--m", "2", "-o"]
        previous = set_demand_kernel("qpa")
        try:
            assert main([*argv, str(tmp_path / "qpa.json")]) == 0
        finally:
            set_demand_kernel(previous)
        clear_samples()
        with forward_oracle():
            assert main([*argv, str(tmp_path / "forward.json")]) == 0
        capsys.readouterr()
        assert (tmp_path / "qpa.json").read_bytes() == (
            tmp_path / "forward.json"
        ).read_bytes()

    def test_fig6b_recorded_output(self, capsys, tmp_path, monkeypatch):
        """Constrained deadlines across the PH extremes, where whole buckets
        cannot be filled: the result file equals the recorded one byte for
        byte (CI ``cmp``s the same command's output)."""
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "fig6b.json"
        code = main(["figure", "fig6b", "--samples", "4", "--m", "2", "-o", str(out)])
        assert code == 0
        capsys.readouterr()
        assert out.read_bytes() == (DATA / "fig6b-samples4-m2.json").read_bytes()

    def test_fig5_recorded_output(self, capsys, tmp_path, monkeypatch):
        """Constrained deadlines at m = 4, where many descents on a core
        replay one cached HI trajectory for different LC probes: the result
        file equals the recorded one byte for byte (CI ``cmp``s the same
        command's output)."""
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "fig5.json"
        code = main(["figure", "fig5", "--samples", "8", "--m", "4", "-o", str(out)])
        assert code == 0
        capsys.readouterr()
        assert out.read_bytes() == (DATA / "fig5-samples8-m4.json").read_bytes()

    def test_fig5_m2_recorded_output(self, capsys, tmp_path, monkeypatch):
        """Constrained deadlines at m = 2, the benchmark's fig5 slice, where
        most tuning calls accept by uniform deadline scaling: the result
        file equals the recorded one byte for byte (CI ``cmp``s the same
        command's output)."""
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "fig5.json"
        code = main(["figure", "fig5", "--samples", "16", "--m", "2", "-o", str(out)])
        assert code == 0
        capsys.readouterr()
        assert out.read_bytes() == (DATA / "fig5-samples16-m2.json").read_bytes()

    def test_fig4_recorded_output(self, capsys, tmp_path, monkeypatch):
        """Implicit deadlines at m = 4, where ECDF's refined stages often
        stop at the V* floor: the result file equals the recorded one byte
        for byte (CI ``cmp``s the same command's output)."""
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "fig4.json"
        code = main(["figure", "fig4", "--samples", "8", "--m", "4", "-o", str(out)])
        assert code == 0
        capsys.readouterr()
        assert out.read_bytes() == (DATA / "fig4-samples8-m4.json").read_bytes()

    def test_fig3_recorded_output(self, capsys, tmp_path, monkeypatch):
        """Implicit deadlines at m = 2, 4 and 8 under EDF-VD, whose draws
        reach the randfixedsum fallback: the result file equals the
        recorded one byte for byte (CI ``cmp``s the same command's
        output), and the generator's work counters are the recorded ones
        (the screened UUniFast-discard tail counts every attempt the
        attempt loop would)."""
        from repro import obs

        monkeypatch.chdir(tmp_path)
        out = tmp_path / "fig3.json"
        obs.clear()
        previous = obs.set_recorder(obs.MetricsRecorder(obs.REGISTRY))
        try:
            code = main(
                ["figure", "fig3", "--samples", "20", "--m", "2,4,8", "-o", str(out)]
            )
            counters = obs.REGISTRY.counters("generator.")
        finally:
            obs.set_recorder(previous)
            obs.clear()
        assert code == 0
        capsys.readouterr()
        assert out.read_bytes() == (DATA / "fig3-samples20.json").read_bytes()
        assert counters == {
            "generator.samples": 30,
            "generator.fold-attempts": 11947,
            "generator.retries": 24,
            "generator.coupling-fallbacks": 60,
        }  # no "generator.empty-draws": every bucket can be filled

    def test_fig6a_recorded_output(self, capsys, tmp_path, monkeypatch):
        """Implicit deadlines across the PH extremes: the result file
        equals the recorded one byte for byte (CI ``cmp``s the same
        command's output)."""
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "fig6a.json"
        code = main(["figure", "fig6a", "--samples", "4", "--m", "2,4", "-o", str(out)])
        assert code == 0
        capsys.readouterr()
        assert out.read_bytes() == (DATA / "fig6a-samples4.json").read_bytes()

    def test_fig7a_recorded_output(self, capsys, tmp_path, monkeypatch):
        """Degraded LC service: the only figure with the U_res ledger
        column and the res-difference fit metric beside difference, where
        sibling service levels share one sample.  The result file equals
        the recorded one byte for byte (CI ``cmp``s the same command's
        output)."""
        monkeypatch.chdir(tmp_path)
        clear_samples()
        out = tmp_path / "fig7a.json"
        code = main(
            ["figure", "fig7a", "--samples", "16", "--m", "2,4", "-o", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        assert out.read_bytes() == (DATA / "fig7a-samples16.json").read_bytes()

    def test_fig4_diagnostics_recorded(self, capsys, tmp_path, monkeypatch):
        """Per-algorithm attribution: each algorithm's settle counts and
        demand-kernel counters equal the recorded block.  fig4 puts three
        demand-screen algorithms beside AMC, which always falls back.  The
        ``descent`` row is not per algorithm (and reads lifetime histograms
        under recording), so it is left out of the comparison.  The block
        records the ``qpa`` kernel's counters, so the run names that kernel
        rather than inherit ``REPRO_DBF_KERNEL``."""
        monkeypatch.chdir(tmp_path)
        code = main(
            ["figure", "fig4", "--samples", "8", "--m", "4",
             "--demand-kernel", "qpa", "-o", str(tmp_path / "fig4.json")]
        )
        assert code == 0
        err = capsys.readouterr().err
        block = err[err.index("pipeline diagnostics"):].splitlines()
        got = [line for line in block if line.startswith(("pipeline", "  "))]
        got = [line for line in got if not line.startswith("  descent:")]
        want = (DATA / "fig4-samples8-m4-diagnostics.txt").read_text()
        assert got == want.splitlines()

    def test_tiny_figure_run(self, capsys, tmp_path, monkeypatch):
        # run in tmp so an ambient REPRO_OBS=trace writes its default
        # repro-obs.json/repro-trace.json here, not over committed files
        monkeypatch.chdir(tmp_path)
        code = main(["figure", "fig3", "--samples", "1", "--m", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cu-udp-edf-vd" in out

    def test_obs_snapshot_default_path(self, capsys, tmp_path, monkeypatch):
        # the default snapshot path must not be the committed artifact's
        from repro import obs

        monkeypatch.chdir(tmp_path)
        previous = obs.set_recorder(obs.MetricsRecorder(obs.REGISTRY))
        try:
            code = main(["figure", "fig3", "--samples", "1", "--m", "2"])
        finally:
            obs.set_recorder(previous)
            obs.clear()
        assert code == 0
        capsys.readouterr()
        snapshot = json.loads((tmp_path / "repro-obs.json").read_text())
        assert snapshot["mode"] == "metrics"
        assert not (tmp_path / "BENCH_obs.json").exists()

    def test_obs_snapshot_explicit_path(self, capsys, tmp_path, monkeypatch):
        from repro import obs

        monkeypatch.chdir(tmp_path)
        previous = obs.set_recorder(obs.MetricsRecorder(obs.REGISTRY))
        try:
            code = main(
                [
                    "figure", "fig3", "--samples", "1", "--m", "2",
                    "--obs-out", str(tmp_path / "o.json"),
                ]
            )
        finally:
            obs.set_recorder(previous)
            obs.clear()
        assert code == 0
        capsys.readouterr()
        assert json.loads((tmp_path / "o.json").read_text())["mode"] == "metrics"
        assert not (tmp_path / "repro-obs.json").exists()
        assert not (tmp_path / "BENCH_obs.json").exists()

    def test_parallel_run_with_cache_and_output(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        args = [
            "figure", "fig3", "--samples", "2", "--m", "2",
            "--jobs", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "-o", str(tmp_path / "fig3.json"),
        ]
        assert main(args) == 0
        serial_out = capsys.readouterr().out
        assert (tmp_path / "fig3.json").exists()
        # rerun answers from cache and renders the same tables
        assert main(args) == 0
        assert capsys.readouterr().out == serial_out


class TestTrace:
    def test_trace_writes_snapshot_and_chrome_trace(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro import obs

        monkeypatch.chdir(tmp_path)
        code = main(["trace", "fig3", "--samples", "1", "--m", "2"])
        obs.clear()  # the forced recorder fed the process-global registry
        assert code == 0
        out = capsys.readouterr().out
        assert "obs counters" in out and "obs spans" in out

        snapshot = json.loads((tmp_path / "repro-obs.json").read_text())
        assert not (tmp_path / "BENCH_obs.json").exists()
        assert snapshot["schema"].startswith("repro-obs-snapshot/")
        assert snapshot["mode"] == "trace"
        # a batched fig3 settles via the prefilter ledger; every shard
        # also lands one latency observation
        assert any(k.startswith("prefilter.") for k in snapshot["counters"])
        assert "runner.shard-seconds" in snapshot["histograms"]
        assert snapshot["spans"]["count"] > 0

        trace = json.loads((tmp_path / "repro-trace.json").read_text())
        names = {event["name"] for event in trace["traceEvents"]}
        assert {"sweep", "shard"} <= names

    def test_explicit_output_paths(self, capsys, tmp_path, monkeypatch):
        from repro import obs

        monkeypatch.chdir(tmp_path)
        code = main(
            [
                "trace", "fig3", "--samples", "1", "--m", "2",
                "--trace-out", str(tmp_path / "t.json"),
                "--obs-out", str(tmp_path / "o.json"),
            ]
        )
        obs.clear()
        assert code == 0
        capsys.readouterr()
        assert (tmp_path / "t.json").exists()
        assert (tmp_path / "o.json").exists()
        assert not (tmp_path / "repro-obs.json").exists()


class TestCampaign:
    def test_campaign_runs_and_resumes(self, capsys, tmp_path):
        args = [
            "campaign", "--figures", "fig3", "--samples", "2",
            "--out", str(tmp_path / "out"), "--no-progress",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "0 from cache" in first
        assert (tmp_path / "out" / "fig3.json").exists()
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "0 shards computed" in second

    def test_spec_file_campaign(self, capsys, tmp_path):
        spec = {
            "name": "from-file",
            "figures": [{"figure": "fig3", "samples": 1, "m_values": [2]}],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        code = main(
            [
                "campaign", str(spec_path),
                "--out", str(tmp_path / "out"), "--no-progress",
            ]
        )
        assert code == 0
        assert "from-file" in capsys.readouterr().out

    def test_recorded_campaign(self, capsys, tmp_path):
        """fig3, fig6a and fig7b through the campaign engine: each output
        equals the recorded one byte for byte.  The spec pins ``samples``
        and ``m_values``, so no ambient knob moves them (CI ``cmp``s the
        same command's outputs)."""
        record = DATA / "campaign-samples3-m2"
        clear_samples()
        code = main(
            [
                "campaign", str(record / "spec.json"), "--jobs", "1",
                "--out", str(tmp_path / "out"), "--no-progress",
            ]
        )
        assert code == 0
        capsys.readouterr()
        for key in ("fig3", "fig6a", "fig7b"):
            name = f"{key}.json"
            assert (tmp_path / "out" / name).read_bytes() == (
                record / name
            ).read_bytes(), name

    def test_spec_and_figures_are_exclusive(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "campaign", "spec.json", "--figures", "fig3",
                    "--out", str(tmp_path), "--no-progress",
                ]
            )


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig9"])

    @pytest.mark.parametrize("retired", ["vec", "forward"])
    @pytest.mark.parametrize("command", ["figure", "campaign", "trace"])
    def test_retired_kernel_rejected(self, command, retired, capsys):
        """Every --demand-kernel flag reads the one kernel list, so the
        retired ``vec`` and ``forward`` kernels are a usage error naming
        the valid ones."""
        target = ["--figures", "fig3"] if command == "campaign" else ["fig3"]
        with pytest.raises(SystemExit) as exit_info:
            main([command, *target, "--demand-kernel", retired])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"invalid choice: '{retired}'" in err
        assert "'qpa', 'block'" in err

    @pytest.mark.parametrize("kernel", DBF_KERNELS)
    @pytest.mark.parametrize("command", ["figure", "campaign", "trace"])
    def test_every_kernel_accepted(self, command, kernel):
        """Each name in the one kernel list parses on every subcommand
        that takes --demand-kernel."""
        target = ["--figures", "fig3"] if command == "campaign" else ["fig3"]
        args = build_parser().parse_args(
            [command, *target, "--demand-kernel", kernel]
        )
        assert args.demand_kernel == kernel

    @pytest.mark.parametrize("command", ["figure", "campaign", "trace"])
    def test_kernel_defaults_to_unset(self, command):
        """Without the flag the CLI leaves the kernel to REPRO_DBF_KERNEL."""
        target = ["--figures", "fig3"] if command == "campaign" else ["fig3"]
        assert build_parser().parse_args([command, *target]).demand_kernel is None

    @pytest.mark.parametrize("command", ["figure", "campaign", "trace"])
    def test_kernel_help_states_block_is_sound_only(self, command, capsys):
        """The help must not promise bit-identical results across kernels:
        ``block`` may accept sets ``qpa`` rejects."""
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "forward" not in text
        assert "block is sound but may accept more than qpa" in text
        assert "bit-identical" not in text

    @pytest.mark.parametrize("command", ["figure", "campaign", "trace"])
    def test_retired_pool_backend_rejected(self, command, capsys):
        """Every --backend flag reads the one backend list, so the
        retired ``pool`` backend is a usage error naming the valid ones."""
        target = ["--figures", "fig3"] if command == "campaign" else ["fig3"]
        with pytest.raises(SystemExit) as exit_info:
            main([command, *target, "--backend", "pool"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'pool'" in err
        assert "'serial', 'cluster'" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["figure", "fig3"],
            ["campaign", "--figures", "fig3"],
            ["trace", "fig3"],
        ],
    )
    def test_pipeline_flag_removed(self, argv, capsys):
        """Sweeps run the batched path; ``--pipeline`` is a usage error."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([*argv, "--pipeline", "scalar"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --pipeline" in err

    @pytest.mark.parametrize("command", ["figure", "campaign", "trace"])
    def test_shared_run_options(self, command):
        """figure, campaign and trace take the same run options, with the
        same defaults; only campaign leaves --m to its spec."""
        target = ["--figures", "fig3"] if command == "campaign" else ["fig3"]
        parser = build_parser()
        args = parser.parse_args([command, *target])
        assert (args.samples, args.jobs, args.backend, args.demand_kernel) == (
            None, 1, None, None,
        )
        args = parser.parse_args(
            [command, *target, "--samples", "3", "--jobs", "2"]
        )
        assert (args.samples, args.jobs) == (3, 2)
        if command == "campaign":
            with pytest.raises(SystemExit):
                parser.parse_args([command, *target, "--m", "2"])
        else:
            assert parser.parse_args([command, *target]).m is None
            assert parser.parse_args([command, *target, "--m", "2,4"]).m == "2,4"

    @pytest.mark.parametrize("backend", RUNNER_BACKENDS)
    @pytest.mark.parametrize("command", ["figure", "campaign", "trace"])
    def test_every_backend_accepted(self, command, backend):
        target = ["--figures", "fig3"] if command == "campaign" else ["fig3"]
        args = build_parser().parse_args([command, *target, "--backend", backend])
        assert args.backend == backend
