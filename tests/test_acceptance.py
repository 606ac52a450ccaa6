"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The expensive runs (the 100 s ideal experiment and one robust seed)
are session fixtures shared with the module tests.
"""

import math
import time

import numpy as np

import dremobs as d
from dremobs.cli import main as cli_main
from dremobs.linalg import det_adjugate_batch
from dremobs.plant import NoiseSpec
from dremobs.sim import adaptation_rates
from dremobs.verification import excitation_window_means, trapezoid_excitation

from conftest import FULL_HORIZON, STEP, chua_experiment, run_robust


def report(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {num} ({name}): {status} - {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


class TestAcceptance:
    def test_01_mixing_identity_random_matrices(self):
        rng = np.random.default_rng(2024)
        start = time.perf_counter()
        worst = 0.0
        eye = np.eye(5)
        for _ in range(500):
            n = rng.uniform(-1.0, 1.0, (5, 5))
            adj_nt = det_adjugate_batch(n.T[None])[1][0]
            det_n = det_adjugate_batch(n[None])[0][0]
            res = adj_nt @ n.T - det_n * eye
            worst = max(worst, float(np.abs(res).max()))
        elapsed = time.perf_counter() - start
        report(
            1,
            "mixing identity",
            worst <= 1e-9 and elapsed < 1.0,
            f"max |adj(N^T) N^T - det(N) I| = {worst:.3e} (tol 1e-9), "
            f"runtime {elapsed:.2f} s (< 1 s)",
        )

    def test_02_decomposition_oracle(self, full_ideal_run):
        worst = float(full_ideal_run.diagnostics.decomposition_residual.max())
        elapsed = full_ideal_run.elapsed_seconds
        report(
            2,
            "decomposition oracle",
            worst <= 1e-4 and elapsed <= 30.0,
            f"max ||x - phi x_k - xu - ups theta|| = {worst:.3e} (tol 1e-4), "
            f"run time {elapsed:.1f} s (<= 30 s)",
        )

    def test_03_regression_oracle(self, full_ideal_run):
        worst = float(full_ideal_run.diagnostics.lre_residual_max.max())
        report(
            3,
            "scalar regression oracle",
            worst <= 1e-4,
            f"max_j |z_j - row_j . truth| = {worst:.3e} (tol 1e-4)",
        )

    def test_04_elementwise_decay(self, full_ideal_run):
        trace = full_ideal_run.trace
        errors = trace.theta_hat - full_ideal_run.model.true_params[None]
        mags = np.abs(errors)
        running_min = np.minimum.accumulate(mags, axis=0)
        worst_rise = float((mags - running_min).max())

        sigma_step = trace.sigma[:-1]
        freeze_ok = True
        for i in range(trace.num_subsystems):
            inactive = sigma_step != i + 1
            if inactive.any():
                change = np.abs(np.diff(errors[:, i, :], axis=0))[inactive]
                freeze_ok = freeze_ok and float(change.max()) == 0.0

        prev, cur = errors[:-1], errors[1:]
        flips = (np.sign(prev) * np.sign(cur) < 0) & (
            np.minimum(np.abs(prev), np.abs(cur)) > 1e-8
        )
        sign_ok = not bool(flips.any())
        report(
            4,
            "element-wise decay",
            worst_rise <= 1e-10 and freeze_ok and sign_ok,
            f"max rise above running min {worst_rise:.3e} (slack 1e-10), "
            f"inactive intervals exactly constant: {freeze_ok}, "
            f"no sign change above 1e-8: {sign_ok}",
        )

    def test_05_convergence(self, full_ideal_run):
        trace = full_ideal_run.trace
        ratios = trace.theta_error[-1] / trace.theta_error[0]
        x_final = float(trace.x_error[-1])
        report(
            5,
            "ideal convergence",
            bool((ratios <= 0.05).all()) and x_final <= 1e-2,
            f"parameter error ratios {np.array2string(ratios, precision=2)} (<= 0.05), "
            f"final state error {x_final:.3e} (<= 1e-2)",
        )

    def test_06_excitation_evidence(self, full_ideal_run):
        trace = full_ideal_run.trace
        half_row = int(round((FULL_HORIZON / 2) / STEP))
        at_half = trace.excitation[half_row]
        at_end = trace.excitation[-1]
        growing = bool((at_end > at_half).all())
        quad = trapezoid_excitation(trace)
        rel = float(np.max(np.abs(at_end - quad) / np.maximum(np.abs(at_end), 1e-30)))
        floor = excitation_window_means(trace, window=20.0).min(axis=1)
        report(
            6,
            "excitation evidence",
            growing and rel <= 1e-3,
            f"integral growth second half {np.array2string(at_end - at_half, precision=3)} "
            f"(all > 0), online vs trapezoid rel diff {rel:.3e} (tol 1e-3); "
            f"empirical 20 s window floor {np.array2string(floor, precision=4)}",
        )

    def test_07_scalar_closed_form(self):
        gamma, delta, horizon, h = 2.0, 0.8, 2.0, 1e-3
        theta_true = 0.7
        gammas = np.array([gamma])
        zbar = np.array([delta * theta_true])
        theta = np.array([[0.0]])
        for _ in range(int(round(horizon / h))):
            def rate(th):
                slope, offset, _ = adaptation_rates(gammas, delta, zbar, 1, 1)
                return slope * th + offset

            k1 = rate(theta)
            k2 = rate(theta + h / 2 * k1)
            k3 = rate(theta + h / 2 * k2)
            k4 = rate(theta + h * k3)
            theta = theta + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        got = abs(theta[0, 0] - theta_true)
        expected = math.exp(-gamma * delta**2 * horizon) * 0.7
        err = abs(got - expected)
        report(
            7,
            "scalar closed form",
            err <= 1e-6,
            f"|error(T)| = {got:.9f} vs exp(-gamma delta^2 T)|error(0)| = "
            f"{expected:.9f}, diff {err:.2e} (tol 1e-6)",
        )

    def test_08_robustness(self, robust_seed4_run, full_ideal_run):
        seeds = range(1, 11)
        mid_x, fin_x = [], []
        mid_th = np.zeros((10, 3))
        fin_th = np.zeros((10, 3))
        bounded = True
        per_seed = []
        for k, seed in enumerate(seeds):
            result = robust_seed4_run if seed == 4 else run_robust(seed)
            trace = result.trace
            t, horizon = trace.t, trace.t[-1]
            mid = (t >= 0.4 * horizon) & (t <= 0.6 * horizon)
            fin = t >= 0.8 * horizon
            bounded = bounded and bool(np.isfinite(trace.data).all())
            bounded = bounded and float(trace.x_error.max()) <= 50.0
            bounded = bounded and float(trace.theta_error.max()) <= 2.0 * float(
                trace.theta_error[0].max()
            )
            mid_x.append(trace.x_error[mid].max())
            fin_x.append(trace.x_error[fin].max())
            mid_th[k] = trace.theta_error[mid].max(axis=0)
            fin_th[k] = trace.theta_error[fin].max(axis=0)
            per_seed.append(
                f"seed {seed}: x ratio {fin_x[-1] / mid_x[-1]:.2f}, "
                f"theta ratios {np.array2string(fin_th[k] / mid_th[k], precision=2)}"
            )
        # Ensemble no-divergence: the worst final-window error over the ten
        # seeds must not exceed 1.5x the worst middle-window error.
        x_ratio = max(fin_x) / max(mid_x)
        th_ratio = (fin_th.max(axis=0) / mid_th.max(axis=0)).max()

        # Degenerate noise must reproduce the ideal-convergence criterion.
        degen = d.run_experiment(
            chua_experiment(FULL_HORIZON, NoiseSpec(v0=0.0, seed=0, omega=None))
        )
        dt = degen.trace
        degen_ratios = dt.theta_error[-1] / dt.theta_error[0]
        degen_ok = bool((degen_ratios <= 0.05).all()) and float(dt.x_error[-1]) <= 1e-2
        degen_matches_ideal = bool(
            np.array_equal(dt.data[:, 2:], full_ideal_run.trace.data[:, 2:])
        )
        passed = bounded and x_ratio <= 1.5 and th_ratio <= 1.5 and degen_ok
        detail = (
            f"all errors bounded: {bounded}; ensemble window ratios: "
            f"x {x_ratio:.2f}, theta {th_ratio:.2f} (<= 1.5); degenerate noise "
            f"meets ideal convergence: {degen_ok} (matches ideal run: "
            f"{degen_matches_ideal}); " + "; ".join(per_seed)
        )
        report(8, "robustness", passed, detail)

    def test_09_determinism(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = cli_main(
                [
                    "simulate", "--preset", "chua", "--mode", "robust",
                    "--seed", "17", "--out", str(out), "--T", "2", "--no-plots",
                ]
            )
            assert code == 0
            outs.append((out / "trace.csv").read_bytes())
        identical = outs[0] == outs[1]
        report(
            9,
            "determinism",
            identical,
            f"two identically-seeded runs produced byte-identical CSV "
            f"({len(outs[0])} bytes)",
        )
