import json

import pytest

from dremobs.cli import EXIT_ABORT, EXIT_CONFIG, EXIT_OK, _build_parser, _resolve_config, main
from dremobs.trace import read_trace


def run_cli(*argv):
    return main(list(argv))


def set_field(row, k, value):
    """A trace data row with its field ``k`` set to ``value``."""
    fields = row.split(",")
    fields[k] = value
    return ",".join(fields)


class TestSimulateCommand:
    def test_preset_run_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_cli(
            "simulate", "--preset", "chua", "--mode", "ideal",
            "--out", str(out), "--T", "1",
        )
        assert code == EXIT_OK
        assert (out / "trace.csv").exists()
        assert (out / "summary.json").exists()
        for panel in ("mode", "excitation", "theta_error", "state1", "state2", "state3", "x_error"):
            assert (out / f"{panel}.svg").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mode"] == "ideal"
        stdout = capsys.readouterr().out
        assert "final parameter error norms" in stdout

    def test_identical_invocations_bit_identical_csv(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            code = run_cli(
                "simulate", "--preset", "chua", "--mode", "robust",
                "--seed", "3", "--out", str(out), "--T", "1", "--no-plots",
            )
            assert code == EXIT_OK
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for seed, out in ((1, out1), (2, out2)):
            run_cli(
                "simulate", "--preset", "chua", "--mode", "robust",
                "--seed", str(seed), "--out", str(out), "--T", "1", "--no-plots",
            )
        assert (out1 / "trace.csv").read_bytes() != (out2 / "trace.csv").read_bytes()

    def test_config_file_run(self, tmp_path):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"plant": "chua", "mode": "ideal", "end_time": 0.5}))
        out = tmp_path / "run"
        code = run_cli("simulate", "--config", str(cfg_path), "--out", str(out), "--no-plots")
        assert code == EXIT_OK
        trace = read_trace(out / "trace.csv")
        assert trace.t[-1] == pytest.approx(0.5)

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"plant": "unknown-preset"}))
        code = run_cli("simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_nan_initial_estimate_exits_2(self, tmp_path, capsys):
        # JSON NaN used to pass loading and end in a ValueError traceback.
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(
            '{"plant": "chua", "end_time": 0.1, "theta_init": [[NaN, 0], [0, 0], [0, 0]]}'
        )
        code = run_cli("simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "config.theta_init[0][0]" in err
        assert "Traceback" not in err

    def test_diverging_run_exits_3(self, tmp_path, capsys):
        # The oscillator matrices with the switching pinned to the middle
        # branch: every loop gain stays stable, but the gated adaptation
        # step h*gamma*delta^2 passes RK4's real-axis stability limit (about
        # 142 in the aborting chunk), the estimates blow up, and the
        # integrator must abort with a diagnostic (x_hat[0] at t = 1.313,
        # while |x| is about 57).
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "plant": {
                        "a": [[-10.0, 10.0, 0.0], [1.0, -1.0, 1.0], [0.0, -16.0, -0.0385]],
                        "b": [0.0, 0.0, 0.0],
                        "c": [1.0, 0.0, 0.0],
                        "psi": {
                            "constant": [[0.0, -10.0], [0.0, 0.0], [0.0, 0.0]],
                            "output_gain": [[-10.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                        },
                        "true_params": [[-0.7143, -0.4286], [-1.1429, 0.0], [-0.7143, 0.4286]],
                        "switching": {"type": "schedule", "entries": [[0.0, 2]]},
                        "initial_state": [2.88, -0.066, -2.12],
                    },
                    "filter_gains": [
                        [0, -1, -15], [-2, 2.5, 20], [-2, 0.1, 1],
                        [-0.4, -0.4, -8], [-8, 6.5, 18],
                    ],
                    "observer_gain": [-2, 2.5, 20],
                    "end_time": 20.0,
                }
            )
        )
        code = run_cli("simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
        assert code == EXIT_ABORT
        err = capsys.readouterr().err
        assert "runtime abort" in err and "t=" in err

    def test_step_whose_filter_recurrence_diverges_exits_2(self, tmp_path, capsys):
        # At h = 0.3 the RK4 step polynomial P(h Acl) of filter_gains[0] has
        # spectral radius 1.715: the run used to load, take 55 steps and
        # exit 3 on x_hat[0], blaming an adaptation step of 1.22e20.
        out = tmp_path / "o"
        code = run_cli("simulate", "--preset", "chua", "--h", "0.3", "--out", str(out))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config.filter_gains[0]: [0.0, -1.0, -15.0] at step_size 0.3" in err
        assert "spectral radius 1 or more" in err
        assert not out.exists()

    def test_step_flag_on_a_file_is_checked_as_its_key(self, tmp_path, capsys):
        # --h on a file used to fail under an "--seed/--T/--h override"
        # wrapper that named no config path.
        path = tmp_path / "chua.json"
        path.write_text(json.dumps({"plant": "chua"}))
        out = tmp_path / "o"
        code = run_cli("simulate", "--config", str(path), "--h", "0.3", "--out", str(out))
        assert code == EXIT_CONFIG
        assert "config.filter_gains[0]: [0.0, -1.0, -15.0] at step_size 0.3" in capsys.readouterr().err
        assert not out.exists()

    def test_step_whose_loops_stay_inside_the_unit_circle_runs(self, tmp_path):
        # At h = 0.2 every step polynomial's radius is below 1 (largest 0.998).
        out = tmp_path / "o"
        code = run_cli("simulate", "--preset", "chua", "--h", "0.2", "--out", str(out), "--no-plots")
        assert code == EXIT_OK
        assert read_trace(out / "trace.csv").t[-1] == pytest.approx(100.0)

    def test_unstable_custom_gain_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "plant": "chua",
                    "filter_gains": [
                        [0, -1, -15], [-2, 2.5, 20], [-2, 0.1, 1],
                        [-0.4, -0.4, -8], [-100, 0, 0],
                    ],
                }
            )
        )
        code = run_cli("simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
        assert code == EXIT_CONFIG
        assert "-100" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "end_time, override, names",
        [
            pytest.param(1e300, None, "config.end_time", id="config-1e300"),
            pytest.param(1e9, None, "config.end_time", id="config-1e9"),
            pytest.param(1.0, "1e300", "config.end_time", id="override-1e300"),
        ],
    )
    def test_horizon_beyond_trace_row_limit_exits_2(self, tmp_path, end_time, override, names):
        # Caught at load time: no trace array is allocated, no traceback.
        import subprocess
        import sys

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"plant": "chua", "end_time": end_time}))
        argv = ["simulate", "--config", str(path), "--out", str(tmp_path / "o")]
        if override is not None:
            argv += ["--T", override]
        proc = subprocess.run(
            [sys.executable, "-m", "dremobs.cli", *argv], capture_output=True, text=True
        )
        assert proc.returncode == EXIT_CONFIG
        assert "Traceback" not in proc.stderr
        assert names in proc.stderr and "trace rows" in proc.stderr
        assert not (tmp_path / "o").exists()


    @pytest.mark.parametrize(
        "config, override, names",
        [
            pytest.param(
                {"start_time": 1e16, "end_time": 10000000000000010}, None, "config.start_time",
                id="config-1e16",
            ),
            pytest.param(
                {"start_time": 1e12, "end_time": 1000000000001}, "1e-4", "config.start_time",
                id="override-1e12",
            ),
        ],
    )
    def test_grid_times_that_cannot_increase_exit_2(self, tmp_path, config, override, names):
        # Rejected at load time, before the time column is built.
        import subprocess
        import sys

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"plant": "chua", **config}))
        argv = ["simulate", "--config", str(path), "--out", str(tmp_path / "o")]
        if override is not None:
            argv += ["--h", override]
        proc = subprocess.run(
            [sys.executable, "-m", "dremobs.cli", *argv], capture_output=True, text=True
        )
        assert proc.returncode == EXIT_CONFIG
        assert "Traceback" not in proc.stderr
        assert names in proc.stderr and "start_time: grid times" in proc.stderr
        assert not (tmp_path / "o").exists()


class TestVerifyCommand:
    def test_short_verify_passes(self, tmp_path, capsys):
        out = tmp_path / "v"
        code = run_cli("verify", "--preset", "chua", "--T", "2", "--out", str(out))
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert stdout.count("PASS") == 6
        report = json.loads((out / "verify_report.json").read_text())
        assert report["all_passed"] is True
        assert len(report["checks"]) == 6

    def test_flags_left_out_take_the_config_defaults(self):
        args = _build_parser().parse_args(["verify"])
        cfg = _resolve_config(args)
        assert (cfg.step.step_size, cfg.step.end_time) == (1e-3, 100.0)
        assert cfg.noise is None

    def test_step_flag_is_checked_as_its_key(self, tmp_path, capsys):
        out = tmp_path / "v"
        code = run_cli("verify", "--h", "0.3", "--out", str(out))
        assert code == EXIT_CONFIG
        assert "config.filter_gains[0]: [0.0, -1.0, -15.0] at step_size 0.3" in capsys.readouterr().err
        assert not out.exists()


class TestPlotCommand:
    def test_replot_is_bit_identical(self, tmp_path):
        run_out = tmp_path / "run"
        run_cli(
            "simulate", "--preset", "chua", "--mode", "ideal",
            "--out", str(run_out), "--T", "1",
        )
        plot_out = tmp_path / "replot"
        code = run_cli("plot", "--trace", str(run_out / "trace.csv"), "--out", str(plot_out))
        assert code == EXIT_OK
        for panel in ("mode", "excitation", "theta_error", "x_error"):
            assert (run_out / f"{panel}.svg").read_bytes() == (
                plot_out / f"{panel}.svg"
            ).read_bytes()

    @pytest.mark.parametrize(
        "line, edit",
        [
            pytest.param(8, lambda text: text.replace(",1,", ",abc,", 1), id="data-field"),
            pytest.param(1, lambda text: text[:-3], id="meta-json"),
            pytest.param(3, lambda text: "# switch_times: [0,zero]", id="switch-times"),
            # These two used to plot, with nan coordinates in state1.svg.
            pytest.param(8, lambda text: set_field(text, 2, "nan"), id="nan-x1"),
            pytest.param(8, lambda text: set_field(text, 2, "inf"), id="inf-x1"),
        ],
    )
    def test_malformed_trace_exits_2_without_traceback(self, tmp_path, line, edit):
        import subprocess
        import sys

        run_out = tmp_path / "run"
        run_cli(
            "simulate", "--preset", "chua", "--out", str(run_out), "--T", "0.01", "--no-plots",
        )
        path = run_out / "trace.csv"
        lines = path.read_text().splitlines()
        lines[line] = edit(lines[line])
        path.write_text("\n".join(lines) + "\n")
        proc = subprocess.run(
            [
                sys.executable, "-m", "dremobs.cli", "plot",
                "--trace", str(path), "--out", str(tmp_path / "p"),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_CONFIG
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("trace error: ")
        assert str(path) in proc.stderr
        assert not list((tmp_path / "p").glob("*.svg"))

    def test_missing_trace_exits_2(self, tmp_path, capsys):
        code = run_cli("plot", "--trace", str(tmp_path / "nope.csv"), "--out", str(tmp_path))
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("trace error: cannot read trace from ")


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        import subprocess
        import sys

        proc = subprocess.run(
            [
                sys.executable, "-m", "dremobs.cli", "simulate",
                "--preset", "chua", "--out", str(tmp_path / "o"),
                "--T", "0.1", "--no-plots",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_OK
        assert "trace:" in proc.stdout


def run_module(*argv):
    """``python -m dremobs.cli`` in a subprocess, output captured as text."""
    import subprocess
    import sys

    return subprocess.run(
        [sys.executable, "-m", "dremobs.cli", *argv], capture_output=True, text=True
    )


class TestRunDescription:
    """A run is described once, by its config, and checked when it is
    loaded: nothing on the command line silently overrides it, and an
    unrunnable config stops before the output directory exists."""

    def test_mode_differing_from_the_file_exits_2(self, tmp_path, capsys):
        # --mode ideal used to be indistinguishable from no --mode at all,
        # and the file's robust run went ahead with exit 0.
        path = tmp_path / "robust.json"
        path.write_text(json.dumps({"plant": "chua", "mode": "robust", "end_time": 0.01}))
        out = tmp_path / "o"
        code = run_cli("simulate", "--config", str(path), "--mode", "ideal", "--out", str(out))
        assert code == EXIT_CONFIG
        assert "config.mode" in capsys.readouterr().err
        assert not out.exists()
        code = run_cli("simulate", "--config", str(path), "--mode", "robust", "--out", str(out))
        assert code == EXIT_OK

    def test_seed_override_on_a_robust_file_is_recorded(self, tmp_path):
        path = tmp_path / "robust.json"
        path.write_text(json.dumps({"plant": "chua", "mode": "robust", "seed": 5, "end_time": 0.01}))
        out = tmp_path / "o"
        code = run_cli("simulate", "--config", str(path), "--seed", "9", "--out", str(out), "--no-plots")
        assert code == EXIT_OK
        assert "\n# seed: 9\n" in (out / "trace.csv").read_text()
        assert read_trace(out / "trace.csv").meta["seed"] == 9
        assert json.loads((out / "summary.json").read_text())["seed"] == 9

    def test_seed_flag_replaces_the_seed_of_the_noise_object(self, tmp_path):
        # The file sets its seed inside its noise object, where a second
        # top-level seed would be rejected: --seed takes its place there.
        noise = {"v0": 0.1, "seed": 3}
        path = tmp_path / "robust.json"
        path.write_text(json.dumps({"plant": "chua", "mode": "robust", "end_time": 0.01, "noise": noise}))
        out = tmp_path / "o"
        code = run_cli("simulate", "--config", str(path), "--seed", "9", "--out", str(out), "--no-plots")
        assert code == EXIT_OK
        assert "\n# seed: 9\n" in (out / "trace.csv").read_text()
        assert json.loads((out / "summary.json").read_text())["seed"] == 9

    def test_file_that_is_not_an_object_takes_no_flags(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([{"plant": "chua"}]))
        proc = run_module("simulate", "--config", str(path), "--T", "1", "--out", str(tmp_path / "o"))
        assert proc.returncode == EXIT_CONFIG
        assert "Traceback" not in proc.stderr
        assert proc.stderr == "config error: config: expected a JSON object\n"
        assert not (tmp_path / "o").exists()

    def test_verify_file_is_an_ideal_run(self, tmp_path):
        # The mode a file's run has follows from its noise; verify has none.
        path = tmp_path / "verify.json"
        path.write_text(json.dumps({"plant": "chua", "mode": "verify", "end_time": 0.01}))
        out = tmp_path / "o"
        code = run_cli("simulate", "--config", str(path), "--mode", "ideal", "--out", str(out), "--no-plots")
        assert code == EXIT_OK
        assert json.loads((out / "summary.json").read_text())["mode"] == "ideal"

    def test_output_dir_key_is_unknown(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"plant": "chua", "end_time": 0.01, "output_dir": "elsewhere"}))
        out = tmp_path / "o"
        code = run_cli("simulate", "--config", str(path), "--out", str(out))
        assert code == EXIT_CONFIG
        assert "config.output_dir: unknown key" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "changes, names",
        [
            pytest.param(
                {"filter_gains": [[0, -1, -15], [-2, 2.5, 20], [-2, 0.1, 1],
                                  [-0.4, -0.4, -8], [-100, 0, 0]]},
                "config.filter_gains[4]: [-100.0, 0.0, 0.0] gives an unstable",
                id="filter-gain",
            ),
            pytest.param(
                {"observer_gain": [-50, 0, 0]},
                "config.observer_gain: [-50.0, 0.0, 0.0] gives an unstable",
                id="observer-gain",
            ),
            pytest.param(
                {"observer_gain": [-1e300, 0, 0]},
                "config.observer_gain: [-1e+300, 0.0, 0.0] gives an indeterminate",
                id="out-of-float-range",
            ),
        ],
    )
    def test_unstable_gain_exits_2_at_load(self, tmp_path, changes, names):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"plant": "chua", "end_time": 0.01, **changes}))
        proc = run_module("simulate", "--config", str(path), "--out", str(tmp_path / "o"))
        assert proc.returncode == EXIT_CONFIG
        assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
        assert names in proc.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "content", [b'{"plant": "\xffchua"}', b"[" * 100_000], ids=["not-utf8", "deep-nesting"]
    )
    def test_undecodable_config_exits_2(self, tmp_path, content):
        # Both used to end in a traceback with exit code 1.
        path = tmp_path / "cfg.json"
        path.write_bytes(content)
        proc = run_module("simulate", "--config", str(path), "--out", str(tmp_path / "o"))
        assert proc.returncode == EXIT_CONFIG
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"config error: {path}: ")
        assert not (tmp_path / "o").exists()


class TestOutputDirectory:
    """An --out that cannot be a directory exits 2 before any work, and an
    artifact that cannot be written exits 2, with the path named and no
    traceback."""

    def test_simulate(self, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        proc = run_module(
            "simulate", "--preset", "chua", "--T", "0.01", "--out", str(taken)
        )
        assert proc.returncode == EXIT_CONFIG
        assert "Traceback" not in proc.stderr and str(taken) in proc.stderr
        assert "trace:" not in proc.stdout

    def test_verify(self, tmp_path):
        # Exit 1 would mean a failed check; the report's directory is made
        # before the run, so no check is printed.
        taken = tmp_path / "taken"
        taken.write_text("")
        proc = run_module("verify", "--preset", "chua", "--T", "0.5", "--out", str(taken))
        assert proc.returncode == EXIT_CONFIG
        assert "Traceback" not in proc.stderr and str(taken) in proc.stderr
        assert proc.stdout == ""

    def test_plot(self, tmp_path):
        run_out = tmp_path / "run"
        assert run_cli(
            "simulate", "--preset", "chua", "--out", str(run_out), "--T", "0.01", "--no-plots"
        ) == EXIT_OK
        taken = tmp_path / "taken"
        taken.write_text("")
        proc = run_module("plot", "--trace", str(run_out / "trace.csv"), "--out", str(taken))
        assert proc.returncode == EXIT_CONFIG
        assert "Traceback" not in proc.stderr and str(taken) in proc.stderr
        assert proc.stdout == ""

    def test_simulate_blocked_artifact(self, tmp_path):
        out = tmp_path / "run"
        (out / "mode.svg").mkdir(parents=True)
        proc = run_module("simulate", "--preset", "chua", "--T", "0.01", "--out", str(out))
        assert proc.returncode == EXIT_CONFIG
        assert "Traceback" not in proc.stderr
        assert f"output error: cannot write {out / 'mode.svg'}" in proc.stderr

    def test_verify_blocked_report(self, tmp_path):
        # Exit 1 would mean a failed check: the checks ran and passed.
        out = tmp_path / "report"
        (out / "verify_report.json").mkdir(parents=True)
        proc = run_module("verify", "--preset", "chua", "--T", "0.5", "--out", str(out))
        assert proc.returncode == EXIT_CONFIG
        assert "Traceback" not in proc.stderr
        assert f"output error: cannot write {out / 'verify_report.json'}" in proc.stderr
        assert "all checks passed" not in proc.stdout

    def test_plot_blocked_panel(self, tmp_path):
        run_out = tmp_path / "run"
        assert run_cli(
            "simulate", "--preset", "chua", "--out", str(run_out), "--T", "0.01", "--no-plots"
        ) == EXIT_OK
        out = tmp_path / "plots"
        (out / "state2.svg").mkdir(parents=True)
        proc = run_module("plot", "--trace", str(run_out / "trace.csv"), "--out", str(out))
        assert proc.returncode == EXIT_CONFIG
        assert "Traceback" not in proc.stderr
        assert f"output error: cannot write {out / 'state2.svg'}" in proc.stderr
        assert proc.stdout == ""
