import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import reference
from conftest import experiment
from dremobs.errors import ConfigurationError
from dremobs.linalg import Cofactors, det_adjugate_batch
from dremobs.plant import TimeScheduleRule, chua_preset
from dremobs.sim import StateLayout, StepConfig, adaptation_rates, run_experiment
from dremobs.trace import SimulationTrace, column_names
from dremobs.verification import excitation_window_means


def rates(gamma, theta, delta, zbar, active):
    """(theta rates, excitation rates) of every subsystem at the (s, m)
    estimates ``theta`` from the kernel's gated law, which moves the active
    row only."""
    s, m = theta.shape
    slope, offset, exc_rate = adaptation_rates(
        gamma, delta, np.asarray(zbar, dtype=float), active, m
    )
    out_theta, out_exc = np.zeros_like(theta), np.zeros(s)
    out_theta[active - 1] = slope * theta[active - 1] + offset
    out_exc[active - 1] = exc_rate
    return out_theta, out_exc


def synthetic_trace(t, sigma, delta, s=3, n=3, m=2, switch_times=None, pre_reset=None):
    """Minimal trace carrying only the columns the excitation checks read."""
    rows = len(t)
    data = np.zeros((rows, len(column_names(n, m, s))))
    data[:, 0] = t
    data[:, 1] = sigma
    cols = column_names(n, m, s)
    data[:, cols.index("delta")] = delta
    meta = {"n": n, "m": m, "s": s, "seed": None}
    return SimulationTrace(
        meta=meta,
        data=data,
        switch_times=list(switch_times or [t[0]]),
        pre_reset_delta=list(pre_reset or [math.nan] * len(switch_times or [t[0]])),
    )


class TestMix:
    def test_after_reset_determinant_is_zero(self):
        model = chua_preset()
        panels = StateLayout(model.n, model.m, model.s).filter_reset_template()[:5]
        zf, nt = reference.regressor_stack(model, panels, 0.7)
        dets, adjs = det_adjugate_batch(nt[None])
        assert dets[0] == 0.0
        np.testing.assert_array_equal(adjs[0] @ zf, np.zeros(5))

    def test_degenerate_single_filter(self):
        zf = np.array([2.5])
        dets, adjs = det_adjugate_batch(np.array([[[0.4]]]))
        assert dets[0] == 0.4
        np.testing.assert_array_equal(adjs[0] @ zf, zf)

    def test_matches_reference_kernel_ops(self):
        # Both uses of the cofactor route, the full adjugate and the kernel's
        # cells (columns below m = 2, plus row 0), against LAPACK minors.
        cells = [(i, j) for i in range(5) for j in range(2)] + [(0, j) for j in range(2, 5)]
        kernel = Cofactors(5, cells)
        rng = np.random.default_rng(1)
        for _ in range(20):
            nt = rng.uniform(-1, 1, (5, 5))
            zf = rng.uniform(-1, 1, 5)
            delta_ref, zbar_ref = reference.mix(zf, nt)
            dets, adjs = det_adjugate_batch(nt[None])
            assert abs(dets[0] - delta_ref) <= 1e-12
            np.testing.assert_allclose(adjs[0] @ zf, zbar_ref, atol=1e-12)
            adj_ref = reference.adjugate(nt)
            np.testing.assert_allclose(kernel(nt), [adj_ref[j, i] for i, j in cells], atol=1e-12)

    def test_mixing_identity_against_ground_truth(self, short_ideal_run):
        scale = np.maximum(1.0, np.abs(short_ideal_run.trace.delta))
        assert (np.abs(short_ideal_run.diagnostics.dbar).max(axis=1) / scale).max() <= 1e-3


GAMMA = np.full(3, 10.0)


class TestAdaptationRate:
    def test_inactive_subsystems_have_zero_rates(self):
        # The law returns the active subsystem's rates, built from its own
        # gain; the kernel moves that row only, so across a reset every
        # inactive row keeps its bits.
        gamma = np.array([1.0, 5.0, 9.0])
        for active in (1, 2, 3):
            slope, offset, _ = adaptation_rates(gamma, 0.8, np.arange(5.0), active, 2)
            assert slope == -(gamma[active - 1] * 0.8) * 0.8
            np.testing.assert_array_equal(offset, gamma[active - 1] * 0.8 * np.arange(2.0))
        model = chua_preset()
        switched = replace(model, switching_rule=TimeScheduleRule(((0.0, 1), (0.5, 2))))
        res = run_experiment(
            experiment(switched, StepConfig(1e-3, 1.0), gamma=gamma, theta_init=np.ones((3, 2)))
        )
        theta, sigma = res.trace.theta_hat, res.trace.sigma
        assert (theta[:, 2] == 1.0).all()
        assert (theta[sigma == 2, 0] == theta[np.argmax(sigma == 2), 0]).all()
        assert np.any(theta[-1, 1] != 1.0) and np.any(theta[sigma == 2][0, 0] != 1.0)

    def test_truth_is_a_fixed_point(self):
        theta_true = np.array([[0.3, -0.2], [1.0, 0.5], [0.0, 0.7]])
        delta = 0.9
        zbar = np.concatenate([delta * theta_true[1], [4.0, 5.0, 6.0]])
        theta_rates, _ = rates(GAMMA, theta_true, delta, zbar, active=2)
        np.testing.assert_allclose(theta_rates, np.zeros((3, 2)), atol=1e-15)

    def test_adaptation_ignores_trailing_mixed_entries(self):
        # The state-at-switch block of the mixed vector must not leak into
        # the parameter adaptation.
        theta = np.ones((3, 2))
        zbar = np.array([0.4, -0.3, 100.0, -50.0, 7.0])
        perturbed = zbar.copy()
        perturbed[2:] = [-1e6, 3e7, 0.0]
        for active in (1, 2, 3):
            np.testing.assert_array_equal(
                rates(GAMMA, theta, 0.6, zbar, active)[0],
                rates(GAMMA, theta, 0.6, perturbed, active)[0],
            )

    def test_rate_formula(self):
        theta = np.array([[0.1, 0.2], [0.0, 0.0], [0.0, 0.0]])
        theta_rates, _ = rates(GAMMA, theta, 0.5, [1.0, 2.0, 0.0, 0.0, 0.0], active=1)
        expected = 10.0 * 0.5 * (np.array([1.0, 2.0]) - 0.5 * np.array([0.1, 0.2]))
        np.testing.assert_allclose(theta_rates[0], expected)

    def test_invalid_subsystem(self):
        # Subsystem indices are checked once, when the model is built, so
        # the law never sees one outside 1..s.
        model = chua_preset()
        for index in (0, model.s + 1):
            with pytest.raises(ConfigurationError):
                replace(model, switching_rule=TimeScheduleRule(((0.0, 1), (1.0, index))))


class TestExcitationRate:
    def test_zero_determinant_gives_zero(self):
        theta = np.zeros((3, 2))
        np.testing.assert_array_equal(rates(GAMMA, theta, 0.0, np.zeros(5), 1)[1], np.zeros(3))

    def test_only_active_accumulates(self):
        theta = np.zeros((3, 2))
        np.testing.assert_array_equal(
            rates(GAMMA, theta, 2.0, np.zeros(5), 3)[1], [0.0, 0.0, 4.0]
        )


class TestScalarClosedForm:
    def test_constant_determinant_reproduces_exponential_decay(self):
        # Single subsystem, single parameter, constant mixing signals: the
        # integrated error must match the closed-form exponential.
        gamma, delta, horizon, h = 2.0, 0.8, 2.0, 1e-3
        theta_true = 0.7
        zbar = np.array([delta * theta_true])
        gains = np.array([gamma])

        def rate(t, th):
            return rates(gains, th, delta, zbar, 1)[0]

        theta = np.zeros((1, 1))
        for _ in range(int(round(horizon / h))):
            theta = reference.rk4(rate, 0.0, theta, h)
        err0 = abs(0.0 - theta_true)
        expected = math.exp(-gamma * delta**2 * horizon) * err0
        assert abs(abs(theta[0, 0] - theta_true) - expected) <= 1e-6


class TestResidual:
    def test_ideal_mixed_residual_near_zero(self, short_ideal_run):
        dg = short_ideal_run.diagnostics
        assert np.abs(dg.dbar).max() <= 1e-3

    def test_residual_definition(self):
        np.testing.assert_array_equal(
            reference.residual(2.0, np.array([4.0, 6.0]), np.array([1.0, 2.0])), [2.0, 2.0]
        )


class TestPeCheck:
    def test_zero_determinant_fails_every_window(self):
        t = np.arange(0.0, 10.0 + 1e-9, 0.01)
        trace = synthetic_trace(t, np.ones(t.size), np.zeros(t.size))
        means = excitation_window_means(trace, window=1.0)
        assert means.shape == (3, t.size - 100)
        np.testing.assert_array_equal(means, np.zeros_like(means))

    def test_unit_excitation_passes(self):
        t = np.arange(0.0, 10.0 + 1e-9, 0.01)
        trace = synthetic_trace(t, np.ones(t.size), np.ones(t.size))
        means = excitation_window_means(trace, window=1.0)
        np.testing.assert_allclose(means[0], 1.0, rtol=1e-12)
        np.testing.assert_array_equal(means[1:], 0.0)  # subsystems 2 and 3 never active

    def test_window_larger_than_span_rejected(self):
        t = np.arange(0.0, 1.0 + 1e-9, 0.01)
        trace = synthetic_trace(t, np.ones(t.size), np.ones(t.size))
        with pytest.raises(ConfigurationError):
            excitation_window_means(trace, window=2.0)

    def test_reports_empirical_floor_on_real_run(self, short_ideal_run):
        means = excitation_window_means(short_ideal_run.trace, window=2.0)
        assert means.shape[0] == 3
        assert (means.min(axis=1) >= 0.0).all()


class TestRunLevelBehaviour:
    def test_excitation_integrals_nondecreasing(self, short_ideal_run):
        exc = short_ideal_run.trace.excitation
        assert (np.diff(exc, axis=0) >= 0.0).all()

    def test_online_accumulator_matches_trapezoid(self, short_ideal_run):
        from dremobs.verification import trapezoid_excitation

        trace = short_ideal_run.trace
        quad = trapezoid_excitation(trace)
        online = trace.excitation[-1]
        rel = np.abs(online - quad) / np.maximum(np.abs(online), 1e-30)
        assert rel.max() <= 1e-3

    def test_excitation_check_right_after_an_activation(self):
        # At 9 s subsystem 3 has been active for 0.43 s and its integral is
        # about 5e-20: the squared determinant grows so steeply after the
        # restart that the trapezoid rule alone is off by 2.4e-3.  The check
        # allows for the rule's own error estimate and passes.
        from dremobs.config import config_from_dict, run_experiment
        from dremobs.verification import check_excitation_consistency, trapezoid_excitation

        raw = {"plant": "chua", "mode": "verify", "end_time": 9.0}
        trace = run_experiment(config_from_dict(raw)).trace
        online = trace.excitation[-1]
        rel = np.abs(online - trapezoid_excitation(trace)) / online
        assert online[2] < 1e-19 and rel[2] > 2e-3
        check = check_excitation_consistency(SimpleNamespace(trace=trace))
        assert check.passed, check.line()

    def test_trapezoid_error_estimate_on_a_polynomial(self):
        # delta = t^2 on [0, 1], then delta = 1 - t on [1, 2] after a switch
        # (pre-reset delta 1): the trapezoid errors of t^4 and (1 - t)^2 are
        # h^2/12 (f'(b) - f'(a)) to leading order, 4 h^2/12 and 2 h^2/12.
        h = 0.01
        t = np.arange(201) * h
        sigma = np.where(t < 1.0 - h / 2, 1, 2)
        delta = np.where(sigma == 1, t**2, 1.0 - t)
        delta[100] = 0.0  # the restart zeroes the determinant
        data = np.zeros((201, len(column_names(1, 1, 2))))
        data[:, 0], data[:, 1] = t, sigma
        data[:, column_names(1, 1, 2).index("delta")] = delta
        trace = SimulationTrace(
            meta={"n": 1, "m": 1, "s": 2},
            data=data,
            switch_times=[0.0, 1.0],
            pre_reset_delta=[math.nan, 1.0],
        )
        from dremobs.verification import trapezoid_error_estimate, trapezoid_excitation

        actual = trapezoid_excitation(trace) - np.array([1 / 5, 1 / 3])
        np.testing.assert_allclose(actual, [4 * h**2 / 12, 2 * h**2 / 12], rtol=1e-3)
        np.testing.assert_allclose(trapezoid_error_estimate(trace), actual, rtol=1e-3)

    def test_strict_increase_while_active_with_excitation(self, short_ideal_run):
        trace = short_ideal_run.trace
        exc = trace.excitation
        sigma_step = trace.sigma[:-1]
        delta_step = trace.delta[:-1]
        for i in range(3):
            active = (sigma_step == i + 1) & (np.abs(delta_step) > 1e-12)
            increments = np.diff(exc[:, i])[active]
            if increments.size:
                assert increments.min() > 0.0
