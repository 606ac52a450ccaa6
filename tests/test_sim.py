import math
import tracemalloc
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import dremobs as d
from dremobs import sim
from dremobs.config import config_from_dict
from dremobs.errors import ConfigurationError, GainStabilityError, SimulationAbort
from dremobs.linalg import MAX_SIDE
from dremobs.plant import (
    CHUA_FILTER_GAINS,
    OutputRegion,
    StateRegionRule,
    TimeScheduleRule,
    chua_preset,
    chua_robust_noise,
    make_sinusoid_disturbance,
)
from dremobs.sim import StepConfig, run_experiment
from dremobs.trace import trace_to_string
from dremobs.verification import (
    check_decomposition,
    check_freeze,
    check_lre,
    check_mixing,
    check_monotone_decay,
)

import reference
from conftest import chua_experiment, experiment


def pinned_chua(*schedule):
    """The Chua preset under a time schedule of (start, subsystem) pairs."""
    return replace(chua_preset(), switching_rule=TimeScheduleRule(schedule))


def theta_bar_rows(res):
    """The augmented parameter [theta_sigma; x(t_k)] of every grid row, from
    the run's events and active subsystems."""
    event_rows = np.searchsorted(res.trace.t, [e.time for e in res.events])
    last = np.searchsorted(event_rows, np.arange(len(res.trace.t)), side="right") - 1
    states = np.stack([e.state for e in res.events])[last]
    return np.concatenate([res.model.true_params[res.trace.sigma - 1], states], axis=1)


def reference_run(cfg, steps):
    """The reference composition of the first ``steps`` grid steps of
    ``cfg``'s run."""
    return reference.simulate(
        cfg.model, cfg.filter_gains, cfg.observer_gain, cfg.gamma, cfg.theta_init,
        cfg.observer_init, cfg.step.step_size, steps, cfg.noise,
    )


# Gains of the spiralling two-state plants below.
SPIRAL_GAINS = dict(
    filter_gains=np.array([[6.0, 1.0], [10.0, 0.0], [8.0, 2.0]]),
    observer_gain=np.array([10.0, 0.0]),
    gamma=np.ones(2),
)


class TestStepConfig:
    def test_step_count_exact_division(self):
        cfg = StepConfig(step_size=1e-3, end_time=100.0)
        assert cfg.num_steps == 100000
        assert cfg.effective_end == pytest.approx(100.0)

    def test_horizon_rounds_up(self):
        cfg = StepConfig(step_size=1e-3, end_time=0.0015)
        assert cfg.num_steps == 2

    def test_zero_span_allowed(self):
        cfg = StepConfig(step_size=0.1, end_time=2.0, start_time=2.0)
        assert cfg.num_steps == 0

    def test_rejects_bad_step(self):
        with pytest.raises(ConfigurationError):
            StepConfig(step_size=0.0, end_time=1.0)
        with pytest.raises(ConfigurationError):
            StepConfig(step_size=0.1, end_time=-1.0)

    def test_trace_row_limit(self):
        # Rows count the start row: 10^7 - 1 steps are the most allowed.
        assert StepConfig(1e-3, 9999.999).num_steps + 1 == sim.MAX_TRACE_ROWS
        for step_size, end_time in ((1e-3, 10000.0), (1e-3, 1e300), (1e-300, 1.0)):
            with pytest.raises(ConfigurationError, match="trace rows"):
                StepConfig(step_size, end_time)
        with pytest.raises(ConfigurationError, match="trace rows"):
            StepConfig(1.0, 1e308, start_time=-1e308)  # the span overflows

    def test_grid_times_must_increase(self):
        # At 1e16 floats lie 2 apart, and the bound is 4 ulp(2e16) = 16 s.
        with pytest.raises(ConfigurationError, match="start_time: grid times"):
            StepConfig(1e-3, 1e16 + 10.0, start_time=1e16)
        with pytest.raises(ConfigurationError, match="start_time: grid times"):
            StepConfig(16.0, 1e16 + 160.0, start_time=1e16)
        step = math.nextafter(16.0, math.inf)
        cfg = StepConfig(step, 1e16 + 160.0, start_time=1e16)
        times = cfg.start_time + step * np.arange(cfg.num_steps + 1)
        assert cfg.num_steps == 10 and (np.diff(times) > 0.0).all()
        # One row cannot go backwards, whatever the step.
        assert StepConfig(1e-3, -1e16, start_time=-1e16).num_steps == 0

    def test_accepted_grids_increase(self):
        # Steps just above the bound, over many magnitudes and both signs.
        rng = np.random.default_rng(11)
        for t0 in rng.choice([-1.0, 1.0], 300) * 10.0 ** rng.uniform(-3.0, 300.0, 300):
            t0 = float(t0)
            h = math.nextafter(4.0 * math.ulp(2.0 * abs(t0)), math.inf)
            cfg = StepConfig(h, t0 + 50 * h, start_time=t0)
            times = t0 + h * np.arange(cfg.num_steps + 1)
            assert (np.diff(times) > 0.0).all(), (t0, h)


class TestRk4Step:
    def test_zero_derivative_keeps_state(self):
        flat = np.array([1.0, -2.0])
        new = reference.rk4(lambda t, s: np.zeros(2), 0.0, flat, 0.1)
        np.testing.assert_array_equal(new, flat)

    def test_scalar_decay_matches_exponential(self):
        new = reference.rk4(lambda t, s: -s, 0.0, np.array([1.0]), 0.01)
        assert abs(new[0] - math.exp(-0.01)) <= 1e-10

    def test_planar_rotation_preserves_norm(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        flat = np.array([1.0, 0.0])
        for _ in range(1000):
            flat = reference.rk4(lambda t, s: a @ s, 0.0, flat, 1e-3)
        assert abs(np.linalg.norm(flat) - 1.0) < 1e-9

    def test_non_finite_rate_aborts_with_diagnostic(self):
        # Pinned to the middle branch every injection loop stays stable, but
        # at h = 0.01 the gated adaptation step h*gamma*delta^2 leaves RK4's
        # real-axis stability interval (about 4.5e5 in the aborting chunk):
        # the estimates blow up and the observer aborts on x_hat[0] at
        # t = 1.51 while the plant state is still bounded.
        cfg = experiment(pinned_chua((0.0, 2)), StepConfig(0.01, 400.0))
        with pytest.raises(SimulationAbort) as info:
            run_experiment(cfg)
        assert 0.0 < info.value.time <= 400.0
        assert info.value.component in reference.component_names(3, 2, 3)
        assert info.value.component in str(info.value)

    def test_abort_is_independent_of_chunk_length(self, monkeypatch):
        # The downstream blocks advance a chunk at a time; the abort must
        # still name the earliest non-finite grid row and its component.
        cfg = experiment(pinned_chua((0.0, 2)), StepConfig(0.01, 400.0))

        def abort():
            with pytest.raises(SimulationAbort) as info:
                run_experiment(cfg)
            return info.value.time, info.value.component

        default = abort()
        monkeypatch.setattr(sim, "CHUNK", 3)
        assert abort() == default

    def test_abort_names_the_adaptation_step(self):
        # The message judges the aborting chunk's largest gated adaptation
        # step h*gamma*delta^2 against RK4's real-axis stability limit.
        with pytest.raises(SimulationAbort) as info:
            run_experiment(experiment(pinned_chua((0.0, 2)), StepConfig(0.01, 400.0)))
        assert info.value.adaptation_step > 1e5 > sim.RK4_STABILITY_LIMIT
        assert "past RK4's real-axis stability limit 2.785" in str(info.value)

        # A one-state plant that grows as e^{5t} with a constant regressor:
        # the determinant stays bounded and the run aborts on overflow alone.
        growing = d.PlantModel(
            a=np.array([[5.0]]),
            b=np.zeros(1),
            c=np.array([1.0]),
            psi=lambda y, u: np.ones(np.shape(y) + (1, 1)),
            true_params=np.array([[0.1]]),
            switching_rule=TimeScheduleRule(((0.0, 1),)),
            initial_state=np.array([1.0]),
        )
        cfg = experiment(
            growing, StepConfig(0.01, 200.0), filter_gains=np.array([[6.0], [8.0]]),
            observer_gain=np.array([10.0]), gamma=np.ones(1),
        )
        with pytest.raises(SimulationAbort) as info:
            run_experiment(cfg)
        assert 0.0 <= info.value.adaptation_step < 1e-100
        assert "within RK4's real-axis stability limit" in str(info.value)


class TestDetectSwitch:
    """Switch detection at grid points, as run_experiment performs it."""

    def test_reports_new_region(self, short_ideal_run):
        trace = short_ideal_run.trace
        rule = short_ideal_run.model.switching_rule
        expected = [rule.subsystem_for(y, t) for y, t in zip(trace.y, trace.t)]
        np.testing.assert_array_equal(trace.sigma, expected)
        assert trace.sigma[0] == 1 and 2 in trace.sigma

    def test_schedule_rule_uses_time(self):
        pinned = pinned_chua((0.0, 1), (0.995, 2))
        res = run_experiment(experiment(pinned, StepConfig(step_size=1e-2, end_time=2.0)))
        assert res.trace.switch_times == [0.0, pytest.approx(1.0)]
        assert [e.subsystem for e in res.events] == [1, 2]
        np.testing.assert_array_equal(res.trace.sigma, np.where(res.trace.t < 0.995, 1, 2))


class TestRunSimulation:
    def test_zero_length_run_has_single_row(self):
        res = run_experiment(chua_experiment(0.0))
        assert res.trace.data.shape[0] == 1
        assert res.trace.t[0] == 0.0
        assert res.trace.switch_times == [0.0]
        # initial reset applied: regressor determinant is exactly zero
        assert res.trace.delta[0] == 0.0

    def test_wrong_gain_count_rejected(self):
        with pytest.raises(ConfigurationError, match="filter_gains: .*m \\+ n = 5"):
            chua_experiment(1.0, filter_gains=CHUA_FILTER_GAINS[:4])

    def test_sigma_constant_between_events(self, short_ideal_run):
        trace = short_ideal_run.trace
        switch_rows = set(np.searchsorted(trace.t, np.asarray(trace.switch_times)))
        sigma = trace.sigma
        for q in range(1, sigma.size):
            if q not in switch_rows:
                assert sigma[q] == sigma[q - 1]

    def test_events_record_new_subsystem_and_state(self, short_ideal_run):
        trace = short_ideal_run.trace
        for event in short_ideal_run.events:
            row = int(np.searchsorted(trace.t, event.time))
            assert trace.sigma[row] == event.subsystem
            np.testing.assert_allclose(trace.x[row], event.state, atol=1e-15)

    def test_schedule_override_freezes_inactive_estimates(self):
        # A schedule that keeps subsystem 1 active forever: the other
        # estimates must stay exactly at their initial values.
        res = run_experiment(experiment(pinned_chua((0.0, 1)), StepConfig(1e-3, 3.0)))
        theta = res.trace.theta_hat
        assert (theta[:, 1, :] == theta[0, 1, :]).all()
        assert (theta[:, 2, :] == theta[0, 2, :]).all()
        assert np.any(theta[-1, 0, :] != theta[0, 0, :])
        assert (res.trace.sigma == 1).all()

    def test_deterministic_robust_runs_bit_identical(self):
        cfg = chua_experiment(1.0, chua_robust_noise(seed=11))
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert trace_to_string(a.trace) == trace_to_string(b.trace)
        assert np.array_equal(a.trace.data, b.trace.data)

    def test_trace_is_independent_of_chunk_length(self, monkeypatch):
        # The downstream blocks advance a chunk at a time; where the chunks
        # start must not change a single bit of the trace, the diagnostics
        # or the final filter bank, restarts included.
        model = pinned_chua((0.0, 1), (0.4995, 3))
        cfg = experiment(model, StepConfig(1e-3, 1.0), chua_robust_noise(seed=11))

        def run():
            return run_experiment(cfg, collect_diagnostics=True)

        whole = run()
        monkeypatch.setattr(sim, "CHUNK", 3)
        chunked = run()
        assert trace_to_string(chunked.trace) == trace_to_string(whole.trace)
        assert chunked.final_panels.tobytes() == whole.final_panels.tobytes()
        for field in fields(sim.Diagnostics):
            ours, theirs = (getattr(r.diagnostics, field.name) for r in (chunked, whole))
            assert ours.tobytes() == theirs.tobytes(), field.name

    def test_run_state_is_chunk_resident(self):
        # Only the trace (29 columns for Chua) and the per-row active
        # subsystem, held noise and time grow with the horizon; a store of
        # the whole run state per row (105 floats) would not fit the budget.
        def peak(end_time):
            cfg = chua_experiment(end_time, chua_robust_noise(seed=2))
            tracemalloc.start()
            try:
                run_experiment(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        growth = peak(4.0) - peak(1.0)
        assert growth / 3000 < 64 * 8

    def test_different_seeds_differ(self):
        a = run_experiment(chua_experiment(1.0, chua_robust_noise(seed=1)))
        b = run_experiment(chua_experiment(1.0, chua_robust_noise(seed=2)))
        assert not np.array_equal(a.trace.data, b.trace.data)

    def test_plant_overflow_stops_before_the_rule_sees_it(self, monkeypatch):
        # The plant runs ahead of the downstream blocks within a chunk.  A
        # spiralling plant overflows to inf - inf = NaN; stepping must stop
        # there, so the switching rule never sees a non-finite output, and
        # the run aborts at the earliest non-finite row.
        class FiniteOnlyRule(StateRegionRule):
            def subsystem_for(self, y, t):
                assert math.isfinite(y), f"the rule saw y={y} at t={t}"
                return super().subsystem_for(y, t)

        monkeypatch.setattr(sim, "CHUNK", 100_000)  # the whole run in one chunk
        model = d.PlantModel(
            a=np.array([[1.0, 5.0], [-5.0, 1.0]]),
            b=np.zeros(2),
            c=np.array([1.0, 0.0]),
            psi=lambda y, u: np.zeros(np.shape(y) + (2, 1)) + [[1.0], [0.0]],
            true_params=np.array([[0.1], [0.1]]),
            switching_rule=FiniteOnlyRule(
                (OutputRegion(lower=0.0), OutputRegion(upper=0.0, upper_closed=False))
            ),
            initial_state=np.array([1.0, 0.0]),
        )
        cfg = experiment(model, StepConfig(0.05, 1000.0), **SPIRAL_GAINS)
        with pytest.raises(SimulationAbort) as info:
            run_experiment(cfg)
        assert 600.0 < info.value.time < 800.0  # e^t passes the float range
        assert info.value.component in reference.component_names(2, 1, 2)

    def test_noisy_abort_mid_chunk_independent_of_chunk_length(self, monkeypatch):
        # The spiralling plant above with measurement noise and a disturbance
        # on.  At the default chunk length the plant stops mid-chunk, and the
        # chunk's measured outputs cover only the rows it reached; the abort
        # is the same as at a chunk length of 3.
        model = d.PlantModel(
            a=np.array([[1.0, 5.0], [-5.0, 1.0]]),
            b=np.zeros(2),
            c=np.array([1.0, 0.0]),
            psi=lambda y, u: np.zeros(np.shape(y) + (2, 1)) + [[1.0], [0.0]],
            true_params=np.array([[0.1], [0.1]]),
            switching_rule=StateRegionRule(
                (OutputRegion(lower=0.0), OutputRegion(upper=0.0, upper_closed=False))
            ),
            initial_state=np.array([2.0, 0.0]),
        )
        noise = d.NoiseSpec(v0=0.05, seed=9, omega=make_sinusoid_disturbance([0.02, 0.01], [4, 9]))
        cfg = experiment(model, StepConfig(0.05, 1000.0), noise, **SPIRAL_GAINS)
        advance, stops = sim._Plant.advance, []

        def recording(plant, xs, lo, hi, *args):
            reached, *rest = advance(plant, xs, lo, hi, *args)
            if reached < hi:
                stops.append((lo, reached, hi))
            return (reached, *rest)

        monkeypatch.setattr(sim._Plant, "advance", recording)
        aborts = []
        for chunk in (3, sim.CHUNK):
            monkeypatch.setattr(sim, "CHUNK", chunk)
            with pytest.raises(SimulationAbort) as info:
                run_experiment(cfg)
            aborts.append((info.value.time, info.value.component))
        assert aborts[0] == aborts[1]
        row = round(aborts[0][0] / 0.05)
        assert row % 3 and row % sim.CHUNK  # both runs abort mid-chunk
        ((lo, reached, hi),) = stops
        assert lo < row < reached < hi

    def test_divergent_plant_aborts_with_component(self):
        # Flip the sign of the whole linear part: unstable plant, but the
        # loop gains can stay stable long enough to start.
        unstable = replace(
            chua_preset(),
            a=np.array([[200.0, 0.0, 0.0], [0.0, 200.0, 0.0], [0.0, 0.0, 200.0]]),
        )
        with pytest.raises((SimulationAbort, ConfigurationError)):
            run_experiment(experiment(unstable, StepConfig(step_size=0.5, end_time=400.0)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_step_polynomial_rejected_at_load(self):
        # The continuous closed loops are stable, but h * Acl = -1e197
        # overflows the RK4 step polynomial P(h Acl): the config used to
        # load and the run aborted at t = 0.001 on x[0].  It is rejected at
        # load, without a warning.
        raw = {
            "plant": {
                "a": [[-1e200]],
                "b": [0.0],
                "c": [1.0],
                "psi": {"constant": [[0.0]]},
                "true_params": [[1.0]],
                "switching": {"type": "schedule", "entries": [[0.0, 1]]},
                "initial_state": [1.0],
            },
            "filter_gains": [[1.0], [2.0]],
            "observer_gain": [1.0],
            "end_time": 0.01,
        }
        with pytest.raises(
            GainStabilityError,
            match=r"^config\.filter_gains\[0\]: \[1\.0\] at step_size 0\.001 .* beyond the float range",
        ):
            config_from_dict(raw)


def small_switched_setup(step):
    """n = 2, m = 1, s = 2 plant with an input, a schedule and noise on,
    over the grid ``step``."""
    model = d.PlantModel(
        a=np.array([[-1.0, 1.0], [-2.0, -0.5]]),
        b=np.array([0.0, 1.0]),
        c=np.array([1.0, 0.0]),
        psi=lambda y, u: np.stack([np.sin(y), 0.5 + 0.1 * u], axis=-1)[..., None],
        true_params=np.array([[0.8], [-0.6]]),
        switching_rule=TimeScheduleRule(((0.0, 2), (0.0025, 1))),
        initial_state=np.array([0.7, -0.3]),
        input_signal=lambda t: np.cos(3.0 * t),
    )
    noise = d.NoiseSpec(v0=0.05, seed=5, omega=make_sinusoid_disturbance([0.02, 0.01], [4, 9]))
    return experiment(
        model, step, noise,
        filter_gains=np.array([[1.0, 0.5], [2.0, -0.5], [0.5, 1.0]]),
        observer_gain=np.array([1.5, 0.0]),
        gamma=np.array([3.0, 7.0]),
        theta_init=np.array([[0.1], [0.2]]),
        observer_init=np.array([0.1, 0.0]),
    )


class TestLoopMatchesPublicOperations:
    def test_single_step_equals_manual_composition(self):
        """One integrator step must equal the independent reference
        composition of the pipeline stages, compared as flat states."""
        cfg = chua_experiment(1e-3)
        res = run_experiment(cfg)
        rows, _, _ = reference_run(cfg, 1)
        np.testing.assert_allclose(rows[-1], reference.final_state(res), rtol=1e-10, atol=1e-12)

    def test_small_switched_plant_matches_reference(self):
        """A plant other than the preset, with input, noise and a reset
        after three steps: every grid state, the active subsystem, the
        determinants and the mixed residual agree with the reference."""
        h, steps = 1e-3, 6
        cfg = small_switched_setup(StepConfig(h, steps * h))
        model = cfg.model
        res = run_experiment(cfg, collect_diagnostics=True)
        rows, sigmas, pre_reset = reference_run(cfg, steps)
        np.testing.assert_allclose(rows[-1], reference.final_state(res), rtol=1e-10, atol=1e-13)
        np.testing.assert_array_equal(res.trace.sigma, sigmas)
        assert res.trace.switch_times == [0.0, pytest.approx(3 * h)]
        np.testing.assert_allclose(res.trace.pre_reset_delta[1:], pre_reset[1:], atol=1e-15)
        theta_bar = theta_bar_rows(res)
        for q, flat in enumerate(rows):
            x, _, fs, _, _ = reference.views(model, flat)
            np.testing.assert_allclose(res.trace.x[q], x, rtol=1e-10, atol=1e-13)
            zf, nt = reference.regressor_stack(model, fs, res.trace.ybar[q])
            delta, zbar = reference.mix(zf, nt)
            assert res.trace.delta[q] == pytest.approx(delta, abs=1e-15)
            dbar = reference.residual(delta, zbar, theta_bar[q])
            np.testing.assert_allclose(res.diagnostics.dbar[q], dbar, atol=1e-12)

    def test_trace_delta_is_the_law_determinant(self, monkeypatch):
        """The trace's delta and pre_reset_delta are bit-equal to the
        determinant the kernel's adaptation law uses at those grid states."""
        seen = []
        law = sim.adaptation_rates

        def spy(gamma, delta, *rest):
            seen.append(delta[:, 0].copy())  # the first stage sits on the grid
            return law(gamma, delta, *rest)

        monkeypatch.setattr(sim, "adaptation_rates", spy)
        def run(schedule, steps):
            seen.clear()
            out = run_experiment(experiment(pinned_chua(*schedule), StepConfig(1e-3, steps * 1e-3)))
            return out, np.concatenate(seen)

        switched, law_switched = run(((0.0, 1), (0.0095, 2)), 20)
        longer, law_longer = run(((0.0, 1), (0.0095, 2)), 21)
        pinned, law_pinned = run(((0.0, 1),), 11)
        assert switched.trace.delta[:-1].tobytes() == law_switched.tobytes()
        assert switched.trace.delta[-1:].tobytes() == law_longer[20:].tobytes()
        assert switched.trace.delta[10] == 0.0  # restarted filters
        pre = np.array(switched.trace.pre_reset_delta[1:])
        assert pre.tobytes() == law_pinned[10:].tobytes()
        assert pre[0] != 0.0


def _uniform(draw, lo, hi, shape):
    count = int(np.prod(shape, dtype=int))
    values = draw(st.lists(st.floats(lo, hi), min_size=count, max_size=count))
    return np.array(values, dtype=float).reshape(shape)


@st.composite
def small_switched_cases(draw, sides=st.integers(1, 3), zero_b=st.just(False)):
    """A random small plant whose every injection gain is Hurwitz by
    construction: in observable canonical form (superdiagonal ones, c = e1)
    the gain a + p places the closed-loop characteristic polynomial at p,
    whose roots are drawn negative; a diagonally dominant similarity then
    hides the structure.

    ``sides`` draws n (m is 1 or 2, at most MAX_SIDE - n) and ``zero_b``
    whether B is zero."""
    n = draw(sides)
    m = draw(st.integers(1, min(2, MAX_SIDE - n)))
    s = draw(st.integers(2, 3))
    first_col = _uniform(draw, -2.0, 2.0, (n,))
    canonical = np.eye(n, k=1)
    canonical[:, 0] = first_col
    spread = min(0.3, 0.9 / n)  # off-diagonal row sums below 1
    sim_t = np.eye(n) + _uniform(draw, -spread, spread, (n, n))
    sim_inv = np.linalg.inv(sim_t)
    gains = np.array(
        [
            sim_t @ (first_col + np.poly(-_uniform(draw, 0.5, 4.0, (n,)))[1:])
            for _ in range(m + n + 1)
        ]
    )
    const, out_gain, in_gain = (_uniform(draw, -1.0, 1.0, (n, m)) for _ in range(3))
    frequency = draw(st.floats(0.5, 5.0))
    model = d.PlantModel(
        a=sim_t @ canonical @ sim_inv,
        b=np.zeros(n) if draw(zero_b) else _uniform(draw, -1.0, 1.0, (n,)),
        c=np.eye(n)[0] @ sim_inv,
        psi=lambda y, u: const + np.multiply.outer(y, out_gain) + np.multiply.outer(u, in_gain),
        true_params=_uniform(draw, -1.0, 1.0, (s, m)),
        switching_rule=TimeScheduleRule(((0.0, 1),)),
        initial_state=_uniform(draw, -1.0, 1.0, (n,)),
        input_signal=lambda t: math.cos(frequency * t),
    )
    noise = None
    if draw(st.booleans()):
        noise = d.NoiseSpec(
            v0=0.05,
            seed=draw(st.integers(0, 2**32)),
            omega=make_sinusoid_disturbance(_uniform(draw, 0.0, 0.1, (n,)), np.arange(1.0, n + 1)),
        )
    theta_init, gamma = _uniform(draw, -1.0, 1.0, (s, m)), _uniform(draw, 0.5, 5.0, (s,))
    inputs = dict(
        filter_gains=gains[:-1],
        observer_gain=gains[-1],
        gamma=gamma,
        theta_init=theta_init,
        observer_init=_uniform(draw, -1.0, 1.0, (n,)),
    )
    return dict(
        model=model,
        noise=noise,
        inputs=inputs,
        regions=draw(st.booleans()),
        switch_row=draw(st.integers(2, 5)),
        chunk=draw(st.integers(2, 3)),
    )


def switching_at_row(model, y, row):
    """Output regions under which a run whose outputs stay in subsystem 1
    as ``y`` switches at grid row ``row``: the line is split between the
    outputs at rows row-1 and row, and the region holding y0 comes first."""
    seam = 0.5 * (y[row - 1] + y[row])
    below = y[0] < seam
    assume(bool(np.all((y[:row] < seam) == below)) and (y[row] < seam) != below)
    low, high = OutputRegion(upper=seam, upper_closed=False), OutputRegion(lower=seam)
    regions = (low, high) if below else (high, low)
    extra = (OutputRegion(lower=1e9),) * (model.s - 2)
    return StateRegionRule(regions + extra)


class TestKernelMatchesReference:
    H, STEPS = 0.01, 8

    def switched_run(self, case, noise, collect_diagnostics=False):
        """The case's run, under a time schedule or output regions that
        switch at its switch row, and with its chunk length."""
        model, inputs, h, row = case["model"], case["inputs"], self.H, case["switch_row"]
        step = StepConfig(h, self.STEPS * h)
        if case["regions"]:
            plant_only = reference_run(experiment(model, step, noise, **inputs), row)[0]
            rule = switching_at_row(model, plant_only[:, : model.n] @ model.c, row)
        else:
            rule = TimeScheduleRule(((0.0, 1), ((row - 0.5) * h, model.s)))
        cfg = experiment(replace(model, switching_rule=rule), step, noise, **inputs)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim, "CHUNK", case["chunk"])
            return cfg, run_experiment(cfg, collect_diagnostics)

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(small_switched_cases())
    def test_random_small_plants(self, case):
        """The chunked kernel against the reference on random small
        (n, m, s), with noise on and off, a time schedule or output regions,
        a reset mid-run and chunk boundaries between the grid points."""
        steps, row = self.STEPS, case["switch_row"]
        cfg, res = self.switched_run(case, case["noise"])
        model = cfg.model
        rows, sigmas, pre_reset = reference_run(cfg, steps)
        np.testing.assert_array_equal(res.trace.sigma, sigmas)
        assert res.trace.sigma[row] != res.trace.sigma[0]
        assert len(res.events) == len(pre_reset)
        np.testing.assert_allclose(res.trace.pre_reset_delta[1:], pre_reset[1:], rtol=1e-9, atol=1e-13)
        np.testing.assert_allclose(rows[-1], reference.final_state(res), rtol=1e-10, atol=1e-13)
        for q, flat in enumerate(rows):
            x, xhat, fs, theta, _ = reference.views(model, flat)
            np.testing.assert_allclose(res.trace.x[q], x, rtol=1e-10, atol=1e-13)
            np.testing.assert_allclose(res.trace.xhat[q], xhat, rtol=1e-10, atol=1e-13)
            np.testing.assert_allclose(res.trace.theta_hat[q], theta, rtol=1e-10, atol=1e-13)
            delta, _ = reference.mix(*reference.regressor_stack(model, fs, 0.0))
            assert res.trace.delta[q] == pytest.approx(delta, rel=1e-9, abs=1e-13)

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(small_switched_cases())
    def test_oracles_pass_on_random_small_plants(self, case):
        """The same plants in ideal mode pass the decomposition, regression,
        mixing, freeze and elementwise-decay oracles at their thresholds.
        Excitation consistency is left out: eight steps from a restart leave
        determinants near 1e-14 and excitation integrals near 1e-30, where
        its relative tolerance compares rounding with rounding."""
        _, res = self.switched_run(case, None, collect_diagnostics=True)
        assert res.trace.sigma[case["switch_row"]] != res.trace.sigma[0]
        checks = (check_decomposition, check_lre, check_mixing, check_freeze, check_monotone_decay)
        for check in checks:
            outcome = check(res)
            assert outcome.passed, outcome.line()


class TestLayout:
    """The reference's flat state, and the abort's component names in its
    order."""

    def test_component_names_cover_every_index(self):
        model = chua_preset()
        names = reference.component_names(3, 2, 3)
        assert len(set(names)) == len(names) == reference.state_size(model) == 105
        assert names[0] == "x[0]"
        assert "theta_hat[0,0]" in names
        assert "excitation[2]" in names

    def test_views_are_aliases(self):
        model = chua_preset()
        flat = np.zeros(reference.state_size(model))
        x, xhat, fs, theta, exc = reference.views(model, flat)
        fs[2, 1, 0] = 7.0
        theta[1, 1] = -3.0
        assert flat[6 + 2 * 18 + 1 * 6] == 7.0
        assert flat[6 + 90 + 3] == -3.0

    @pytest.mark.parametrize("dims", [(3, 2, 3), (2, 1, 2), (1, 2, 3)])
    def test_abort_names_the_first_component_in_layout_order(self, dims):
        # Chunk rows 1..3 with NaN at row 2 in one or two flat positions and
        # an inf at row 3: the abort names row 2's first position, also when
        # row 2 restarted and its non-finite panels are the pre-reset ones.
        n, m, s = dims
        dims_only = SimpleNamespace(n=n, m=m, s=s)
        names = reference.component_names(n, m, s)

        def chunk_blocks(flats):
            return [np.stack(v) for v in zip(*(reference.views(dims_only, f) for f in flats))]

        rng = np.random.default_rng(len(names))
        for first in range(len(names)):
            flats = np.zeros((3, len(names)))
            flats[1, [first, rng.integers(first, len(names))]] = np.nan
            flats[2, rng.integers(0, len(names))] = np.inf
            blocks = chunk_blocks(flats)
            assert sim._first_non_finite(blocks, {}, m) == (2, names[first])
            pre_reset = {2: blocks[2][1].copy()}
            blocks[2][1] = 0.0
            assert sim._first_non_finite(blocks, pre_reset, m) == (2, names[first])
        blocks = chunk_blocks(np.ones((3, len(names))))
        assert sim._first_non_finite(blocks, {}, m) is None
        nan_panels = np.full(blocks[2][0].shape, np.nan)
        assert sim._first_non_finite(blocks, {3: nan_panels}, m) == (3, names[2 * n])


class TestRegressionBank:
    """The bank is the m+n regression filters, and the decomposition oracle
    checks every one of them."""

    def test_run_state_holds_only_the_regression_filters(self):
        res = run_experiment(chua_experiment(0.01), collect_diagnostics=True)
        assert res.final_panels.shape == (5, 3, 6)
        assert res.layout.size == 105
        names = [f.name for f in fields(sim.Diagnostics)]
        assert names == ["decomposition_residual", "lre_residual_max", "dbar"]

    @pytest.mark.parametrize("unit", range(5))
    def test_decomposition_oracle_sees_every_filter(self, unit, monkeypatch):
        # Offsetting one unit's xu right after the start's restart breaks
        # that unit's identity x = phi x(t_k) + xu + upsilon theta.
        cfg = chua_experiment(0.05)
        assert check_decomposition(run_experiment(cfg, collect_diagnostics=True)).passed

        class Perturbed(sim._Cascade):
            def __init__(self, cfg, layout):
                super().__init__(cfg, layout)
                n = layout.n
                self.panels = self.panels.copy()
                self.panels[unit * n : (unit + 1) * n, 0] += 1e-3

        monkeypatch.setattr(sim, "_Cascade", Perturbed)
        assert not check_decomposition(run_experiment(cfg, collect_diagnostics=True)).passed


def assert_plant_columns_equal(res, model, noise, h, steps, t0=0.0):
    """The trace's plant columns and switch times are byte-equal to the
    plant stepped alone in the integrator's operation order."""
    xs, y, ybar, sigma, switch_times = reference.plant_grid(model, noise, h, steps, t0)
    trace = res.trace
    assert trace.x.tobytes() == xs.tobytes()
    assert trace.y.tobytes() == y.tobytes()
    assert trace.ybar.tobytes() == ybar.tobytes()
    assert trace.data[:, 1].tobytes() == sigma.tobytes()
    assert np.array(trace.switch_times).tobytes() == np.array(switch_times).tobytes()


class TestPlantMatchesReference:
    """The plant loop's rounding, pinned value by value: its floating-point
    operations and their order are part of its behaviour."""

    H, STEPS = TestKernelMatchesReference.H, TestKernelMatchesReference.STEPS

    @pytest.mark.parametrize("robust", [False, True], ids=["ideal", "robust"])
    def test_chua_one_second(self, robust):
        noise = chua_robust_noise(seed=3) if robust else None
        h, steps = 1e-3, 1000
        cfg = chua_experiment(steps * h, noise, step_size=h)
        res = run_experiment(cfg)
        assert_plant_columns_equal(res, cfg.model, noise, h, steps)

    def test_input_disturbance_and_start_time(self):
        t0, h, steps = 0.37, 1e-3, 300
        cfg = small_switched_setup(StepConfig(h, t0 + steps * h, t0))
        model = replace(
            cfg.model, switching_rule=TimeScheduleRule(((t0, 2), (t0 + 0.1, 1), (t0 + 0.2, 2)))
        )
        res = run_experiment(replace(cfg, model=model))
        assert len(res.events) == 3
        assert_plant_columns_equal(res, model, cfg.noise, h, steps, t0)

    # Enough examples to meet many of the 28 shapes the step loop is
    # compiled for (n up to MAX_SIDE - 1, B zero or not, disturbance or not).
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(small_switched_cases(sides=st.integers(1, MAX_SIDE - 1), zero_b=st.booleans()))
    def test_random_small_plants(self, case):
        model, noise, inputs = case["model"], case["noise"], case["inputs"]
        h, steps, row = self.H, self.STEPS, case["switch_row"]
        if case["regions"]:
            rule = switching_at_row(model, reference.plant_grid(model, noise, h, row)[1], row)
        else:
            rule = TimeScheduleRule(((0.0, 1), ((row - 0.5) * h, model.s)))
        model = replace(model, switching_rule=rule)
        cfg = experiment(model, StepConfig(h, steps * h), noise, **inputs)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim, "CHUNK", case["chunk"])
            res = run_experiment(cfg)
        assert res.trace.sigma[row] != res.trace.sigma[0]
        assert_plant_columns_equal(res, model, noise, h, steps)


class TestDisturbanceContract:
    """``omega`` maps a (K, 1) column of times to a (K, n) array; a callable
    that does not is rejected when the run's config is built."""

    @pytest.mark.parametrize(
        "omega",
        [
            lambda t: np.array([math.sin(t), 0.0]),  # scalar times only
            lambda t: np.zeros(2),  # one row whatever K is
            lambda t: np.zeros((len(t), 3)),  # n = 3 columns for an n = 2 plant
        ],
        ids=["scalar-only", "one-row", "wrong-width"],
    )
    def test_rejected_before_integration(self, omega, monkeypatch):
        cfg = small_switched_setup(StepConfig(1e-3, 1.0))

        def never(*args):
            raise AssertionError("the plant was stepped")

        monkeypatch.setattr(sim._Plant, "advance", never)
        with pytest.raises(ConfigurationError, match=r"^noise\.omega: "):
            run_experiment(replace(cfg, noise=d.NoiseSpec(v0=0.01, omega=omega)))

    def test_sinusoid_disturbance_rows_equal_per_time_calls(self):
        omega = make_sinusoid_disturbance([0.3, 0.02, 0.1], [7.0, 5.0, 13.0])
        t0, h = 12.345, 1e-3
        times = t0 + np.arange(17, 60)[:, None] * h
        for column in (times, times + 0.5 * h, times + h):
            rows = omega(column)
            assert rows.shape == (43, 3)
            for row, t in zip(rows, column[:, 0].tolist()):
                assert row.tobytes() == omega(t).tobytes()


class TestInputContract:
    """``input_signal`` maps a time to a real scalar; a callable that does
    not is rejected when the run's config is built.  A vector input used to
    fail inside the first chunk with a raw TypeError."""

    @pytest.mark.parametrize(
        "input_signal, match",
        [
            (lambda t: np.array([1.0, 2.0]), r"must map a time to a real scalar; at t=0 it returned"),
            (lambda t: 1j * t, r"must map a time to a real scalar"),
            (lambda t: 1.0 / t, r"at t=0 it raised ZeroDivisionError"),
            (lambda t: [0.0][int(t > 0.0)], r"at t=0\.001 it raised IndexError"),
        ],
        ids=["vector", "complex", "raises-at-start", "raises-one-step-in"],
    )
    def test_rejected_before_integration(self, input_signal, match, monkeypatch):
        cfg = small_switched_setup(StepConfig(1e-3, 1.0))

        def never(*args):
            raise AssertionError("the plant was stepped")

        monkeypatch.setattr(sim._Plant, "advance", never)
        model = replace(cfg.model, input_signal=input_signal)
        with pytest.raises(ConfigurationError, match=r"^plant\.input_signal: " + match):
            run_experiment(replace(cfg, model=model))


class TestPsiContract:
    """``psi`` maps floats (y, u) to an (n, m) array and (K,) arrays to the
    (K, n, m) array of the K scalar calls; a callable that does not is
    rejected when the model is built, before the plant is stepped."""

    @pytest.mark.parametrize(
        "psi",
        [
            lambda y, u: np.array([[math.sin(y)], [0.5 + 0.1 * u]]),  # floats only
            lambda y, u: np.array([[np.sin(y)], [0.5 + 0.1 * u]]),  # (n, m, K) at arrays
            lambda y, u: np.ones((2, 1)),  # (n, m) whatever K is
            lambda y, u: np.ones(np.shape(y) + (2, 2)),  # m = 2 columns for an m = 1 plant
            lambda y, u: np.ones(np.shape(y) + (2, 1)) * (np.ndim(y) + 1.0),  # rows differ
        ],
        ids=["scalar-only", "trailing-axis", "one-array", "wrong-width", "unequal-rows"],
    )
    def test_rejected_before_integration(self, psi, monkeypatch):
        cfg = small_switched_setup(StepConfig(1e-3, 1.0))

        def never(*args):
            raise AssertionError("the plant was stepped")

        monkeypatch.setattr(sim._Plant, "advance", never)
        with pytest.raises(ConfigurationError, match="psi"):
            run_experiment(replace(cfg, model=replace(cfg.model, psi=psi)))

    # Signed zeros, subnormals, values near the float limit and ordinary ones.
    EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-310, -1e308, 1e308, 1.7976931348623157e308,
             0.3, -2.75, 1.0, -1.0]

    def _assert_rows_equal_scalar_calls(self, psi):
        ys = np.array(self.EDGES * 2)
        us = np.array([0.0] * len(self.EDGES) + [-0.0, 1.5, -1e308, 3e-320] * 3)
        rows = psi(ys, us)
        assert rows.shape[0] == len(ys)
        for row, y, u in zip(rows, ys.tolist(), us.tolist()):
            assert row.tobytes() == psi(y, u).tobytes(), (y, u)

    def test_chua_rows_equal_scalar_calls(self):
        with np.errstate(over="ignore"):
            self._assert_rows_equal_scalar_calls(d.chua_preset().psi)

    def test_affine_config_rows_equal_scalar_calls(self):
        from dremobs.config import config_from_dict

        cfg = config_from_dict(
            {
                "plant": {
                    "a": [[-1.0, 1.0], [-2.0, -0.5]],
                    "b": [0.0, 1.0],
                    "c": [1.0, 0.0],
                    "psi": {
                        "constant": [[0.25, -0.0], [1e-310, 3.0]],
                        "output_gain": [[1.5, -0.0], [2.0, 1e-300]],
                        "input_gain": [[0.0, -7.0], [0.125, 1e308]],
                    },
                    "true_params": [[0.5, -0.5]],
                    "switching": {"type": "schedule", "entries": [[0.0, 1]]},
                    "initial_state": [0.1, 0.2],
                },
                "filter_gains": [[1.0, 0.5], [2.0, -0.5], [0.5, 1.0], [3.0, 1.0]],
                "observer_gain": [1.5, 0.0],
            }
        )
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            self._assert_rows_equal_scalar_calls(cfg.model.psi)


class TestScheduleEntries:
    """Schedule entries are finite start times and integer subsystem
    indices.  An index of 1.5 used to pass the range check and raise an
    IndexError at its switch; a NaN start time was never reached, so its
    entry was silently skipped.  Both are rejected when the model is built,
    before the plant is stepped."""

    @pytest.mark.parametrize(
        "entries, match",
        [
            (((0.0, 2), (0.1, 1.5)), r"switching\.entries\[1\]\[1\]: .*not an integer"),
            (((0.0, 2), (0.1, True)), r"switching\.entries\[1\]\[1\]: .*not an integer"),
            (((0.0, 2), (math.nan, 1)), r"switching\.entries\[1\]\[0\]: .*not finite"),
            (((0.0, 2), (math.inf, 1)), r"switching\.entries\[1\]\[0\]: .*not finite"),
        ],
        ids=["fractional-index", "bool-index", "nan-time", "inf-time"],
    )
    def test_rejected_before_integration(self, entries, match, monkeypatch):
        cfg = small_switched_setup(StepConfig(1e-3, 1.0))

        def never(*args):
            raise AssertionError("the plant was stepped")

        monkeypatch.setattr(sim._Plant, "advance", never)
        with pytest.raises(ConfigurationError, match=match):
            rule = TimeScheduleRule(entries)
            run_experiment(replace(cfg, model=replace(cfg.model, switching_rule=rule)))

    def test_numpy_integer_index_runs_as_its_int(self):
        cfg = small_switched_setup(StepConfig(1e-3, 0.01))
        rule = TimeScheduleRule(((0.0, np.int64(2)), (0.0025, np.int64(1))))
        numpy_run = run_experiment(replace(cfg, model=replace(cfg.model, switching_rule=rule)))
        assert trace_to_string(numpy_run.trace) == trace_to_string(run_experiment(cfg).trace)
