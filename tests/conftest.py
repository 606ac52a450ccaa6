import os
from pathlib import Path

import pytest

import dremobs as d
from dremobs.plant import CHUA_FILTER_GAINS, CHUA_OBSERVER_GAIN

FULL_HORIZON = 100.0
SHORT_HORIZON = 5.0
STEP = 1e-3


def experiment(model, step, noise=None, **fields):
    """A test's run description: the Chua filter and observer gains unless
    ``fields`` set others."""
    fields.setdefault("filter_gains", CHUA_FILTER_GAINS)
    fields.setdefault("observer_gain", CHUA_OBSERVER_GAIN)
    return d.ExperimentConfig(model=model, step=step, noise=noise, **fields)


def chua_experiment(end_time, noise=None, step_size=STEP, **fields):
    """The Chua preset from t = 0 to ``end_time``."""
    return experiment(d.chua_preset(), d.StepConfig(step_size, end_time), noise, **fields)


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
    return d.run_experiment(chua_experiment(SHORT_HORIZON), collect_diagnostics=True)


@pytest.fixture(scope="session")
def full_ideal_run():
    """The 100 s ideal experiment at the default step, with diagnostics."""
    return d.run_experiment(chua_experiment(FULL_HORIZON), collect_diagnostics=True)


def run_robust(seed, end_time=FULL_HORIZON):
    return d.run_experiment(chua_experiment(end_time, d.chua_robust_noise(seed=seed)))


@pytest.fixture(scope="session")
def robust_seed4_run():
    """One fixed-seed 100 s robust run, shared between module and acceptance
    tests to keep the suite fast."""
    return run_robust(4)
