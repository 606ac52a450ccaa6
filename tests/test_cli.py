import json

import pytest

from dremobs.cli import EXIT_ABORT, EXIT_CONFIG, EXIT_OK, main
from dremobs.trace import read_trace


def run_cli(*argv):
    return main(list(argv))


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
        assert str(path) in proc.stderr

    def test_missing_trace_exits_2(self, tmp_path):
        code = run_cli("plot", "--trace", str(tmp_path / "nope.csv"), "--out", str(tmp_path))
        assert code == EXIT_CONFIG


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
