"""The freeze and elementwise-decay oracles on hand-built traces: each
passes on a trace that keeps its rule and fails on one that breaks it."""

from types import SimpleNamespace

import numpy as np

from dremobs.trace import SimulationTrace, column_names
from dremobs.verification import MONOTONE_SLACK, SIGN_FLOOR, check_freeze, check_monotone_decay


def oracle_input(sigma, theta_hat, true_params=None):
    """A run result whose n = 1 trace holds the subsystem of each row and
    the estimates (rows, s, m), on a 0.1 s grid, with the true parameters
    (s, m), zero unless given."""
    theta_hat = np.asarray(theta_hat, dtype=float)
    rows, s, m = theta_hat.shape
    data = np.zeros((rows, len(column_names(1, m, s))))
    data[:, 0] = 0.1 * np.arange(rows)
    trace = SimulationTrace(meta={"n": 1, "m": m, "s": s}, data=data)
    trace.sigma_float[:] = sigma
    trace.theta_hat[:] = theta_hat
    truth = np.zeros((s, m)) if true_params is None else np.asarray(true_params, dtype=float)
    return SimpleNamespace(trace=trace, model=SimpleNamespace(true_params=truth))


class TestFreeze:
    # Subsystem 1 is active on both steps, subsystem 2 on neither.
    SIGMA = [1, 1, 2]

    def test_estimates_that_do_not_move_while_inactive_pass(self):
        theta = np.full((3, 2, 1), 0.5)
        theta[2, 0, 0] = 0.25  # the active subsystem may move
        check = check_freeze(oracle_input(self.SIGMA, theta))
        assert check.passed and check.value == 0.0

    def test_an_inactive_estimate_moving_one_ulp_fails(self):
        theta = np.full((3, 2, 1), 0.5)
        theta[2, 1, 0] = np.nextafter(0.5, 1.0)
        check = check_freeze(oracle_input(self.SIGMA, theta))
        assert not check.passed
        assert check.value == np.spacing(0.5)


class TestMonotoneDecay:
    def test_a_rise_within_the_slack_passes(self):
        errors = [1.0, 0.5, 0.5 + 0.5 * MONOTONE_SLACK]
        check = check_monotone_decay(oracle_input([1, 1, 1], np.reshape(errors, (3, 1, 1))))
        assert check.passed, check.line()

    def test_a_rise_above_the_running_minimum_fails(self):
        errors = [1.0, 0.5, 0.5 + 2 * MONOTONE_SLACK]
        check = check_monotone_decay(oracle_input([1, 1, 1], np.reshape(errors, (3, 1, 1))))
        assert not check.passed
        assert check.value > MONOTONE_SLACK
        assert check.detail.endswith(": none")

    def test_a_sign_flip_without_a_rise_fails(self):
        # The magnitude falls from 1 to 0.5, both above the floor.
        truth = [[0.25]]
        check = check_monotone_decay(oracle_input([1, 1], [[[1.25]], [[-0.25]]], truth))
        assert not check.passed
        assert check.value == 0.0
        assert check.detail.endswith(": present")

    def test_a_sign_flip_below_the_floor_passes(self):
        check = check_monotone_decay(oracle_input([1, 1], [[[1.0]], [[-0.5 * SIGN_FLOOR]]]))
        assert check.passed, check.line()
