import numpy as np
import pytest

import dremobs as d
from dremobs.errors import GainStabilityError
from dremobs.observer import ObserverState, error_metrics
from dremobs.plant import CHUA_FILTER_GAINS, CHUA_OBSERVER_GAIN, chua_preset

import reference
from conftest import make_chua_setup


@pytest.fixture()
def model():
    return chua_preset()


class TestObserverState:
    def test_default_estimate_is_zero(self, model):
        obs = ObserverState(CHUA_OBSERVER_GAIN, model)
        np.testing.assert_array_equal(obs.x_hat, np.zeros(3))

    def test_destabilising_gain_rejected(self, model):
        with pytest.raises(GainStabilityError):
            ObserverState(np.array([-50.0, 0.0, 0.0]), model)


class TestObserverDerivative:
    def test_matches_plant_at_joint_fixed_point(self, model):
        # Estimate equal to the truth in both state and parameters: the
        # observer copies the plant vector field exactly.
        x = model.initial_state
        obs = ObserverState(CHUA_OBSERVER_GAIN, model, x_hat=x)
        y = float(model.c @ x)
        got = reference.observer_rate(model, obs.gain, obs.x_hat, model.true_params[0], y, 0.0)
        np.testing.assert_allclose(got, reference.plant_rate(model, x, 0.0, 1), atol=1e-14)

    def test_error_rate_is_injected_linear_flow_when_parameters_true(self, model):
        rng = np.random.default_rng(8)
        for _ in range(25):
            x = rng.uniform(-2, 2, 3)
            xhat = rng.uniform(-2, 2, 3)
            obs = ObserverState(CHUA_OBSERVER_GAIN, model, x_hat=xhat)
            y = float(model.c @ x)
            sigma = model.switching_rule.subsystem_for(y, 0.0)
            err_rate = reference.observer_rate(
                model, obs.gain, xhat, model.true_params[sigma - 1], y, 0.0
            ) - reference.plant_rate(model, x, 0.0, sigma)
            expected = obs.a_closed @ (xhat - x)
            np.testing.assert_allclose(err_rate, expected, atol=1e-12)


class TestErrorMetrics:
    def test_zero_errors_for_perfect_estimates(self, short_ideal_run, model):
        trace = short_ideal_run.trace
        metrics = error_metrics(trace, model)
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
        metrics = error_metrics(perfect, model)
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
        metrics = error_metrics(pinned, model)
        np.testing.assert_array_equal(metrics.theta_error, np.zeros((3, data.shape[0])))

    def test_dimension_mismatch_rejected(self, short_ideal_run):
        other = chua_preset()
        bad = d.PlantModel(
            a=np.array([[-1.0]]),
            b=np.zeros(1),
            c=np.ones(1),
            psi=lambda y, u: np.zeros(np.shape(y) + (1, 1)),
            true_params=np.zeros((1, 1)),
            switching_rule=d.StateRegionRule((d.OutputRegion(),)),
            initial_state=np.zeros(1),
        )
        with pytest.raises(Exception):
            error_metrics(short_ideal_run.trace, bad)


class TestConvergenceBehaviour:
    def test_error_decays_exponentially_with_true_parameters(self):
        # Estimates pinned at the truth: the observer error is a stable
        # linear flow, so a fitted exponential envelope must have a positive
        # decay rate.
        model, est, obs = make_chua_setup(theta_init=chua_preset().true_params)
        cfg = d.StepConfig(step_size=1e-3, end_time=8.0)
        res = d.run_simulation(
            model, est, obs, cfg, None, filter_gains=CHUA_FILTER_GAINS
        )
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
