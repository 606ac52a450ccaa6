import os
from pathlib import Path

import numpy as np
import pytest

import dremobs as d
from dremobs.plant import CHUA_FILTER_GAINS, CHUA_OBSERVER_GAIN

FULL_HORIZON = 100.0
SHORT_HORIZON = 5.0
STEP = 1e-3


def make_chua_setup(gamma=10.0, theta_init=None, xhat_init=None):
    model = d.chua_preset()
    est = d.DremEstimator.create(model.s, model.m, gamma=gamma)
    if theta_init is not None:
        est = d.DremEstimator(theta_hat=np.asarray(theta_init, dtype=float), gamma=est.gamma)
    obs = d.ObserverState(CHUA_OBSERVER_GAIN, model, x_hat=xhat_init)
    return model, est, obs


@pytest.fixture(autouse=True, scope="session")
def subprocess_import_path():
    """Subprocesses (``python -m dremobs.cli``) import the package from the
    source tree the tests import, also when only pytest's ``pythonpath``
    setting put it on the path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", src, prepend=os.pathsep)
        yield


@pytest.fixture(scope="session")
def chua_model():
    return d.chua_preset()


@pytest.fixture(scope="session")
def short_ideal_run():
    """5 s ideal run with diagnostics, shared by module-level invariants."""
    model, est, obs = make_chua_setup()
    cfg = d.StepConfig(step_size=STEP, end_time=SHORT_HORIZON)
    return d.run_simulation(
        model, est, obs, cfg, None,
        filter_gains=CHUA_FILTER_GAINS, collect_diagnostics=True,
    )


@pytest.fixture(scope="session")
def full_ideal_run():
    """The 100 s ideal experiment at the default step, with diagnostics."""
    model, est, obs = make_chua_setup()
    cfg = d.StepConfig(step_size=STEP, end_time=FULL_HORIZON)
    return d.run_simulation(
        model, est, obs, cfg, None,
        filter_gains=CHUA_FILTER_GAINS, collect_diagnostics=True,
    )


def run_robust(seed, end_time=FULL_HORIZON):
    model, est, obs = make_chua_setup()
    cfg = d.StepConfig(step_size=STEP, end_time=end_time)
    return d.run_simulation(
        model, est, obs, cfg, d.chua_robust_noise(seed=seed),
        filter_gains=CHUA_FILTER_GAINS,
    )


@pytest.fixture(scope="session")
def robust_seed4_run():
    """One fixed-seed 100 s robust run, shared between module and acceptance
    tests to keep the suite fast."""
    return run_robust(4)
