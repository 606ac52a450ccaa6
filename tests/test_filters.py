from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

import reference
from conftest import experiment
from dremobs.errors import GainStabilityError
from dremobs.plant import CHUA_FILTER_GAINS, TimeScheduleRule, chua_preset, stable_closed_loop
from dremobs.sim import StateLayout, StepConfig, run_experiment


@pytest.fixture()
def model():
    return chua_preset()


def final_panels(model, end_time, h=1e-3, schedule=None):
    """Filter panels [xu | upsilon | phi] of every unit at the end of a run."""
    if schedule is not None:
        model = replace(model, switching_rule=TimeScheduleRule(schedule))
    return run_experiment(experiment(model, StepConfig(h, end_time))).final_panels


RESET_PANELS = StateLayout(3, 2, 3).filter_reset_template()


class TestFilterUnit:
    def test_construction_is_reset_state(self, model):
        panels = final_panels(model, 0.0)
        np.testing.assert_array_equal(panels[:, :, 0], np.zeros((5, 3)))
        np.testing.assert_array_equal(panels[:, :, 1:3], np.zeros((5, 3, 2)))
        np.testing.assert_array_equal(panels[:, :, 3:], np.broadcast_to(np.eye(3), (5, 3, 3)))

    def test_unstable_gain_rejected(self, model):
        # Positive injection into the first state destabilises the loop.
        with pytest.raises(GainStabilityError):
            stable_closed_loop(model, np.array([-100.0, 0.0, 0.0]))

    def test_reset_is_idempotent(self, model):
        # Runs ending on a restart: every restart lands on the same state.
        schedule = ((0.0, 1), (0.0095, 2), (0.0195, 3))
        first = final_panels(model, 0.01, schedule=schedule)
        second = final_panels(model, 0.02, schedule=schedule)
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(first, RESET_PANELS)


class TestFilterDerivative:
    def test_rates_at_reset_state(self, model):
        gain = CHUA_FILTER_GAINS[1]
        y, u = 0.8, 0.0
        dxu, dups, dphi = reference.filter_rates(
            model, gain, np.zeros(3), np.zeros((3, 2)), np.eye(3), y, u
        )
        np.testing.assert_allclose(dxu, model.b * u + gain * y)
        np.testing.assert_allclose(dups, model.psi(y, u))
        np.testing.assert_allclose(dphi, stable_closed_loop(model, gain))

    def test_unforced_states_decay(self, model):
        # At rest in the middle branch the output stays exactly zero, so the
        # transition factor is the unforced response of every unit.
        at_rest = replace(model, initial_state=np.zeros(3))
        phi = final_panels(at_rest, 12.0, h=1e-2)[3, :, 3:]
        xu0 = np.array([1.0, -1.0, 0.5])
        assert np.linalg.norm(phi @ xu0) < 0.2 * np.linalg.norm(xu0)
        assert np.linalg.norm(phi) < np.linalg.norm(np.eye(3))

    def test_phi_matches_matrix_exponential_oracle(self, model):
        # Constant-coefficient case: phi(1) must equal expm(a_closed).
        phi = final_panels(model, 1.0, schedule=((0.0, 1),))[1, :, 3:]
        oracle = expm(stable_closed_loop(model, CHUA_FILTER_GAINS[1]) * 1.0)
        assert np.abs(phi - oracle).max() <= 1e-8


class TestRegressorAssembly:
    def test_row_right_after_reset(self, model):
        y = 1.23
        (z,), (nu,) = reference.regressor_stack(model, RESET_PANELS[:1], y)
        assert z == y
        np.testing.assert_array_equal(nu, np.concatenate([np.zeros(2), model.c]))

    def test_stack_is_square_with_unit_count(self, model):
        zf, nt = reference.regressor_stack(model, RESET_PANELS[:5], 0.5)
        assert zf.shape == (5,)
        assert nt.shape == (5, 5)

    def test_stack_after_reset_is_singular(self, model):
        _, nt = reference.regressor_stack(model, RESET_PANELS[:5], 0.5)
        assert np.linalg.det(nt) == 0.0


class TestRunLevelInvariants:
    def test_decomposition_identity_on_short_run(self, short_ideal_run):
        assert short_ideal_run.diagnostics.decomposition_residual.max() <= 1e-4

    def test_regression_residual_on_short_run(self, short_ideal_run):
        assert short_ideal_run.diagnostics.lre_residual_max.max() <= 1e-4

    def test_filter_states_bounded(self, short_ideal_run):
        trace = short_ideal_run.trace
        assert np.isfinite(trace.data).all()
        assert np.abs(trace.z).max() < 1e3

    def test_trace_z_equals_measured_output_at_reset_rows(self, short_ideal_run):
        trace = short_ideal_run.trace
        rows = np.searchsorted(trace.t, np.asarray(trace.switch_times))
        for row in rows:
            np.testing.assert_allclose(trace.z[row], np.full(5, trace.ybar[row]))
