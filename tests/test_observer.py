import numpy as np
import pytest

import dremobs as d
from dremobs.errors import GainStabilityError
from dremobs.plant import CHUA_OBSERVER_GAIN, chua_preset

import reference
from conftest import chua_experiment


@pytest.fixture()
def model():
    return chua_preset()


class TestObserverState:
    """The observer's part of the run description: its gain and initial
    estimate."""

    def test_default_estimate_is_zero(self):
        np.testing.assert_array_equal(chua_experiment(1.0).observer_init, np.zeros(3))

    def test_destabilising_gain_rejected(self):
        # Positive injection into the first state: an unstable closed loop.
        with pytest.raises(GainStabilityError, match="^observer_gain: .* unstable closed-loop"):
            chua_experiment(1.0, observer_gain=np.array([-50.0, 0.0, 0.0]))
        # A Hurwitz loop whose slowest eigenvalue, -3010, puts h lambda = -3.01
        # past RK4's real-axis limit at h = 1e-3: the discretised loop diverges.
        with pytest.raises(GainStabilityError, match="^observer_gain: .* spectral radius 1 or more"):
            chua_experiment(1.0, observer_gain=np.array([3000.0, 0.0, 0.0]))


class TestObserverDerivative:
    def test_matches_plant_at_joint_fixed_point(self, model):
        # Estimate equal to the truth in both state and parameters: the
        # observer copies the plant vector field exactly.
        x = model.initial_state
        y = float(model.c @ x)
        got = reference.observer_rate(model, CHUA_OBSERVER_GAIN, x, model.true_params[0], y, 0.0)
        np.testing.assert_allclose(got, reference.plant_rate(model, x, 0.0, 1), atol=1e-14)

    def test_error_rate_is_injected_linear_flow_when_parameters_true(self, model):
        rng = np.random.default_rng(8)
        a_closed = model.a - np.outer(CHUA_OBSERVER_GAIN, model.c)
        for _ in range(25):
            x = rng.uniform(-2, 2, 3)
            xhat = rng.uniform(-2, 2, 3)
            y = float(model.c @ x)
            sigma = model.switching_rule.subsystem_for(y, 0.0)
            err_rate = reference.observer_rate(
                model, CHUA_OBSERVER_GAIN, xhat, model.true_params[sigma - 1], y, 0.0
            ) - reference.plant_rate(model, x, 0.0, sigma)
            expected = a_closed @ (xhat - x)
            np.testing.assert_allclose(err_rate, expected, atol=1e-12)


class TestErrorMetrics:
    """The trace's own error columns against ``reference.error_metrics``."""

    def test_zero_errors_for_perfect_estimates(self, short_ideal_run, model):
        trace = short_ideal_run.trace
        metrics = reference.error_metrics(trace, model)
        np.testing.assert_array_equal(metrics.x_error, trace.x_error)
        np.testing.assert_allclose(metrics.theta_error.T, trace.theta_error, atol=1e-12)
        # exactly one subsystem active at every grid point
        np.testing.assert_array_equal(metrics.active.sum(axis=0), 1)

    def test_perfect_state_estimate_gives_zero_error(self, short_ideal_run, model):
        trace = short_ideal_run.trace
        data = trace.data.copy()
        cols = trace.columns
        start = cols.index("xhat1")
        data[:, start : start + 3] = trace.x  # pin the estimate to the truth
        perfect = type(trace)(
            meta=trace.meta,
            data=data,
            switch_times=trace.switch_times,
            pre_reset_delta=trace.pre_reset_delta,
        )
        metrics = reference.error_metrics(perfect, model)
        np.testing.assert_array_equal(metrics.x_error, np.zeros(data.shape[0]))

    def test_true_parameters_give_zero_theta_error(self, short_ideal_run, model):
        trace = short_ideal_run.trace
        data = trace.data.copy()
        cols = trace.columns
        start = cols.index("thetahat1_1")
        data[:, start : start + 6] = model.true_params.ravel()
        pinned = type(trace)(
            meta=trace.meta,
            data=data,
            switch_times=trace.switch_times,
            pre_reset_delta=trace.pre_reset_delta,
        )
        metrics = reference.error_metrics(pinned, model)
        np.testing.assert_array_equal(metrics.theta_error, np.zeros((3, data.shape[0])))


class TestConvergenceBehaviour:
    def test_error_decays_exponentially_with_true_parameters(self):
        # Estimates pinned at the truth: the observer error is a stable
        # linear flow, so a fitted exponential envelope must have a positive
        # decay rate.
        res = d.run_experiment(chua_experiment(8.0, theta_init=chua_preset().true_params))
        xe = res.trace.x_error
        t = res.trace.t
        mask = xe > 1e-12
        coeffs = np.polyfit(t[mask], np.log(xe[mask]), 1)
        lam = -coeffs[0]
        assert lam > 0.0
        assert xe[-1] < xe[0]

    def test_theta_error_piecewise_constant_inactive_and_decaying_active(
        self, short_ideal_run
    ):
        trace = short_ideal_run.trace
        theta_err = trace.theta_error
        sigma_step = trace.sigma[:-1]
        for i in range(3):
            diffs = np.diff(theta_err[:, i])
            inactive = sigma_step != i + 1
            if inactive.any():
                np.testing.assert_array_equal(diffs[inactive], 0.0)
            active = ~inactive
            if active.any():
                assert diffs[active].max() <= 1e-10

    def test_full_run_state_error_small_at_end(self, full_ideal_run):
        assert full_ideal_run.trace.x_error[-1] <= 1e-2

    def test_robust_run_windows_do_not_diverge_fixed_seed(self, robust_seed4_run):
        # Deterministic fixed-seed spot check of the no-divergence property;
        # the acceptance suite checks the ensemble over ten seeds.
        trace = robust_seed4_run.trace
        t, horizon = trace.t, trace.t[-1]
        mid = (t >= 0.4 * horizon) & (t <= 0.6 * horizon)
        fin = t >= 0.8 * horizon
        assert trace.x_error[fin].max() <= 1.5 * trace.x_error[mid].max()
        for i in range(3):
            assert (
                trace.theta_error[fin, i].max()
                <= 1.5 * trace.theta_error[mid, i].max()
            )
