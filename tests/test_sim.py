import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import dremobs as d
from dremobs import sim
from dremobs.errors import ConfigurationError, SimulationAbort
from dremobs.estimator import DremEstimator
from dremobs.observer import ObserverState
from dremobs.plant import (
    CHUA_FILTER_GAINS,
    CHUA_OBSERVER_GAIN,
    OutputRegion,
    StateRegionRule,
    TimeScheduleRule,
    chua_robust_noise,
    make_sinusoid_disturbance,
)
from dremobs.sim import StateLayout, StepConfig, run_simulation
from dremobs.trace import trace_to_string

import reference
from conftest import make_chua_setup


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
        # Pinned to the middle branch the oscillator spirals out while every
        # injection loop stays stable.
        model, est, obs = make_chua_setup()
        pinned = replace(model, switching_rule=TimeScheduleRule(((0.0, 2),)))
        with pytest.raises(SimulationAbort) as info:
            run_simulation(
                pinned, est, obs, StepConfig(0.01, 400.0), None, filter_gains=CHUA_FILTER_GAINS
            )
        layout = StateLayout(3, 2, 3)
        assert 0.0 < info.value.time <= 400.0
        assert info.value.component in {layout.component_name(i) for i in range(layout.size)}
        assert info.value.component in str(info.value)

    def test_abort_is_independent_of_chunk_length(self, monkeypatch):
        # The downstream blocks advance a chunk at a time; the abort must
        # still name the earliest non-finite grid row and its component.
        model, est, obs = make_chua_setup()
        pinned = replace(model, switching_rule=TimeScheduleRule(((0.0, 2),)))

        def abort():
            with pytest.raises(SimulationAbort) as info:
                run_simulation(
                    pinned, est, obs, StepConfig(0.01, 400.0), None,
                    filter_gains=CHUA_FILTER_GAINS,
                )
            return info.value.time, info.value.component

        default = abort()
        monkeypatch.setattr(sim, "CHUNK", 3)
        assert abort() == default


class TestDetectSwitch:
    """Switch detection at grid points, as run_simulation performs it."""

    def test_reports_new_region(self, short_ideal_run):
        trace = short_ideal_run.trace
        rule = short_ideal_run.model.switching_rule
        expected = [rule.subsystem_for(y, t) for y, t in zip(trace.y, trace.t)]
        np.testing.assert_array_equal(trace.sigma, expected)
        assert trace.sigma[0] == 1 and 2 in trace.sigma

    def test_schedule_rule_uses_time(self):
        model, est, obs = make_chua_setup()
        pinned = replace(model, switching_rule=TimeScheduleRule(((0.0, 1), (0.995, 2))))
        cfg = StepConfig(step_size=1e-2, end_time=2.0)
        res = run_simulation(pinned, est, obs, cfg, None, filter_gains=CHUA_FILTER_GAINS)
        assert res.trace.switch_times == [0.0, pytest.approx(1.0)]
        assert [e.subsystem for e in res.events] == [1, 2]
        np.testing.assert_array_equal(res.trace.sigma, np.where(res.trace.t < 0.995, 1, 2))


class TestRunSimulation:
    def test_zero_length_run_has_single_row(self):
        model, est, obs = make_chua_setup()
        cfg = StepConfig(step_size=1e-3, end_time=0.0)
        res = run_simulation(model, est, obs, cfg, None, filter_gains=CHUA_FILTER_GAINS)
        assert res.trace.data.shape[0] == 1
        assert res.trace.t[0] == 0.0
        assert res.trace.switch_times == [0.0]
        # initial reset applied: regressor determinant is exactly zero
        assert res.trace.delta[0] == 0.0

    def test_wrong_gain_count_rejected(self):
        model, est, obs = make_chua_setup()
        cfg = StepConfig(step_size=1e-3, end_time=1.0)
        with pytest.raises(ConfigurationError, match="m \\+ n = 5"):
            run_simulation(
                model, est, obs, cfg, None, filter_gains=CHUA_FILTER_GAINS[:4]
            )

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
        model, est, obs = make_chua_setup()
        pinned = replace(model, switching_rule=TimeScheduleRule(((0.0, 1),)))
        cfg = StepConfig(step_size=1e-3, end_time=3.0)
        res = run_simulation(pinned, est, obs, cfg, None, filter_gains=CHUA_FILTER_GAINS)
        theta = res.trace.theta_hat
        assert (theta[:, 1, :] == theta[0, 1, :]).all()
        assert (theta[:, 2, :] == theta[0, 2, :]).all()
        assert np.any(theta[-1, 0, :] != theta[0, 0, :])
        assert (res.trace.sigma == 1).all()

    def test_deterministic_robust_runs_bit_identical(self):
        model, est, obs = make_chua_setup()
        cfg = StepConfig(step_size=1e-3, end_time=1.0)
        noise = chua_robust_noise(seed=11)
        a = run_simulation(model, est, obs, cfg, noise, filter_gains=CHUA_FILTER_GAINS)
        b = run_simulation(model, est, obs, cfg, noise, filter_gains=CHUA_FILTER_GAINS)
        assert trace_to_string(a.trace) == trace_to_string(b.trace)
        assert np.array_equal(a.trace.data, b.trace.data)

    def test_trace_is_independent_of_chunk_length(self, monkeypatch):
        # The downstream blocks advance a chunk at a time; where the chunks
        # start must not change a single bit of the trace, restarts included.
        model, est, obs = make_chua_setup()
        model = replace(model, switching_rule=TimeScheduleRule(((0.0, 1), (0.4995, 3))))
        cfg = StepConfig(step_size=1e-3, end_time=1.0)
        noise = chua_robust_noise(seed=11)
        whole = run_simulation(model, est, obs, cfg, noise, filter_gains=CHUA_FILTER_GAINS)
        monkeypatch.setattr(sim, "CHUNK", 3)
        chunked = run_simulation(model, est, obs, cfg, noise, filter_gains=CHUA_FILTER_GAINS)
        assert trace_to_string(chunked.trace) == trace_to_string(whole.trace)
        assert chunked.final_flat.tobytes() == whole.final_flat.tobytes()

    def test_different_seeds_differ(self):
        model, est, obs = make_chua_setup()
        cfg = StepConfig(step_size=1e-3, end_time=1.0)
        a = run_simulation(
            model, est, obs, cfg, chua_robust_noise(seed=1), filter_gains=CHUA_FILTER_GAINS
        )
        b = run_simulation(
            model, est, obs, cfg, chua_robust_noise(seed=2), filter_gains=CHUA_FILTER_GAINS
        )
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
            psi=lambda y, u: np.array([[1.0], [0.0]]),
            true_params=np.array([[0.1], [0.1]]),
            switching_rule=FiniteOnlyRule(
                (OutputRegion(lower=0.0), OutputRegion(upper=0.0, upper_closed=False))
            ),
            initial_state=np.array([1.0, 0.0]),
        )
        est = DremEstimator(theta_hat=np.zeros((2, 1)), gamma=np.ones(2))
        obs = ObserverState(np.array([10.0, 0.0]), model)
        with pytest.raises(SimulationAbort) as info:
            run_simulation(
                model, est, obs, StepConfig(0.05, 1000.0), None,
                filter_gains=np.array([[6.0, 1.0], [10.0, 0.0], [8.0, 2.0]]),
            )
        assert 600.0 < info.value.time < 800.0  # e^t passes the float range
        layout = StateLayout(2, 1, 2)
        assert info.value.component in {layout.component_name(i) for i in range(layout.size)}

    def test_divergent_plant_aborts_with_component(self):
        model, est, obs = make_chua_setup()
        # Flip the sign of the whole linear part: unstable plant, but the
        # loop gains can stay stable long enough to start.
        unstable = replace(
            model,
            a=np.array([[200.0, 0.0, 0.0], [0.0, 200.0, 0.0], [0.0, 0.0, 200.0]]),
        )
        cfg = StepConfig(step_size=0.5, end_time=400.0)
        with pytest.raises((SimulationAbort, ConfigurationError)):
            run_simulation(unstable, est, obs, cfg, None, filter_gains=CHUA_FILTER_GAINS)


def small_switched_setup():
    """n = 2, m = 1, s = 2 plant with an input, a schedule and noise on."""
    model = d.PlantModel(
        a=np.array([[-1.0, 1.0], [-2.0, -0.5]]),
        b=np.array([0.0, 1.0]),
        c=np.array([1.0, 0.0]),
        psi=lambda y, u: np.array([[np.sin(y)], [0.5 + 0.1 * u]]),
        true_params=np.array([[0.8], [-0.6]]),
        switching_rule=TimeScheduleRule(((0.0, 2), (0.0025, 1))),
        initial_state=np.array([0.7, -0.3]),
        input_signal=lambda t: np.cos(3.0 * t),
    )
    gains = np.array([[1.0, 0.5], [2.0, -0.5], [0.5, 1.0]])
    obs_gain = np.array([1.5, 0.0])
    noise = d.NoiseSpec(v0=0.05, seed=5, omega=make_sinusoid_disturbance([0.02, 0.01], [4, 9]))
    est = DremEstimator(theta_hat=np.array([[0.1], [0.2]]), gamma=np.array([3.0, 7.0]))
    obs = ObserverState(obs_gain, model, x_hat=np.array([0.1, 0.0]))
    return model, gains, obs_gain, est, obs, noise


class TestLoopMatchesPublicOperations:
    def test_single_step_equals_manual_composition(self):
        """One integrator step must equal the independent reference
        composition of the pipeline stages on the same flat layout."""
        model, est, obs = make_chua_setup()
        h = 1e-3
        cfg = StepConfig(step_size=h, end_time=h)
        res = run_simulation(model, est, obs, cfg, None, filter_gains=CHUA_FILTER_GAINS)
        rows, _, _ = reference.simulate(
            model, CHUA_FILTER_GAINS, CHUA_OBSERVER_GAIN, est.gamma,
            est.theta_hat, obs.x_hat, h, 1,
        )
        np.testing.assert_allclose(rows[-1], res.final_flat, rtol=1e-10, atol=1e-12)

    def test_small_switched_plant_matches_reference(self):
        """A plant other than the preset, with input, noise and a reset
        after three steps: every grid state, the active subsystem, the
        determinants and the mixed residual agree with the reference."""
        model, gains, obs_gain, est, obs, noise = small_switched_setup()
        h, steps = 1e-3, 6
        res = run_simulation(
            model, est, obs, StepConfig(h, steps * h), noise,
            filter_gains=gains, collect_diagnostics=True,
        )
        rows, sigmas, pre_reset = reference.simulate(
            model, gains, obs_gain, est.gamma, est.theta_hat, obs.x_hat, h, steps, noise
        )
        np.testing.assert_allclose(rows[-1], res.final_flat, rtol=1e-10, atol=1e-13)
        np.testing.assert_array_equal(res.trace.sigma, sigmas)
        assert res.trace.switch_times == [0.0, pytest.approx(3 * h)]
        np.testing.assert_allclose(res.trace.pre_reset_delta[1:], pre_reset[1:], atol=1e-15)
        lay = res.layout
        for q, flat in enumerate(rows):
            np.testing.assert_allclose(res.trace.x[q], flat[lay.x_sl], rtol=1e-10, atol=1e-13)
            fs = lay.views(flat)[2]
            zf, nt = reference.regressor_stack(model, fs[: lay.mn], res.trace.ybar[q])
            delta, zbar = reference.mix(zf, nt)
            assert res.trace.delta[q] == pytest.approx(delta, abs=1e-15)
            dbar = reference.residual(delta, zbar, res.diagnostics.theta_bar[q])
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
        model, est, obs = make_chua_setup()
        def run(schedule, steps):
            seen.clear()
            pinned = replace(model, switching_rule=TimeScheduleRule(schedule))
            cfg = StepConfig(step_size=1e-3, end_time=steps * 1e-3)
            out = run_simulation(pinned, est, obs, cfg, None, filter_gains=CHUA_FILTER_GAINS)
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
def small_switched_cases(draw):
    """A random small plant whose every injection gain is Hurwitz by
    construction: in observable canonical form (superdiagonal ones, c = e1)
    the gain a + p places the closed-loop characteristic polynomial at p,
    whose roots are drawn negative; a diagonally dominant similarity then
    hides the structure."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 2))
    s = draw(st.integers(2, 3))
    first_col = _uniform(draw, -2.0, 2.0, (n,))
    canonical = np.eye(n, k=1)
    canonical[:, 0] = first_col
    sim_t = np.eye(n) + _uniform(draw, -0.3, 0.3, (n, n))
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
        b=_uniform(draw, -1.0, 1.0, (n,)),
        c=np.eye(n)[0] @ sim_inv,
        psi=lambda y, u: const + y * out_gain + u * in_gain,
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
    est = DremEstimator(
        theta_hat=_uniform(draw, -1.0, 1.0, (s, m)), gamma=_uniform(draw, 0.5, 5.0, (s,))
    )
    obs = ObserverState(gains[-1], model, x_hat=_uniform(draw, -1.0, 1.0, (n,)))
    return dict(
        model=model,
        gains=gains[:-1],
        est=est,
        obs=obs,
        noise=noise,
        regions=draw(st.booleans()),
        switch_row=draw(st.integers(2, 5)),
        chunk=draw(st.integers(2, 3)),
    )


class TestKernelMatchesReference:
    H, STEPS = 0.01, 8

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(small_switched_cases())
    def test_random_small_plants(self, case):
        """The chunked kernel against the reference on random small
        (n, m, s), with noise on and off, a time schedule or output regions,
        a reset mid-run and chunk boundaries between the grid points."""
        model, gains, est, obs, noise = (case[k] for k in ("model", "gains", "est", "obs", "noise"))
        h, steps, row = self.H, self.STEPS, case["switch_row"]
        if case["regions"]:
            # Split the line between the outputs at rows row-1 and row of the
            # run that stays in subsystem 1; the region holding y0 comes first.
            plant_only = reference.simulate(
                model, gains, obs.gain, est.gamma, est.theta_hat, obs.x_hat, h, row, noise
            )[0]
            y = plant_only[:, : model.n] @ model.c
            seam = 0.5 * (y[row - 1] + y[row])
            below = y[0] < seam
            assume(bool(np.all((y[:row] < seam) == below)) and (y[row] < seam) != below)
            low, high = OutputRegion(upper=seam, upper_closed=False), OutputRegion(lower=seam)
            regions = (low, high) if below else (high, low)
            extra = (OutputRegion(lower=1e9),) * (model.s - 2)
            rule = StateRegionRule(regions + extra)
        else:
            rule = TimeScheduleRule(((0.0, 1), ((row - 0.5) * h, model.s)))
        model = replace(model, switching_rule=rule)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim, "CHUNK", case["chunk"])
            res = run_simulation(
                model, est, obs, StepConfig(h, steps * h), noise, filter_gains=gains
            )
        rows, sigmas, pre_reset = reference.simulate(
            model, gains, obs.gain, est.gamma, est.theta_hat, obs.x_hat, h, steps, noise
        )
        np.testing.assert_array_equal(res.trace.sigma, sigmas)
        assert res.trace.sigma[row] != res.trace.sigma[0]
        assert len(res.events) == len(pre_reset)
        np.testing.assert_allclose(res.trace.pre_reset_delta[1:], pre_reset[1:], rtol=1e-9, atol=1e-13)
        np.testing.assert_allclose(rows[-1], res.final_flat, rtol=1e-10, atol=1e-13)
        lay = res.layout
        for q, flat in enumerate(rows):
            np.testing.assert_allclose(res.trace.x[q], flat[lay.x_sl], rtol=1e-10, atol=1e-13)
            np.testing.assert_allclose(res.trace.xhat[q], flat[lay.xhat_sl], rtol=1e-10, atol=1e-13)
            np.testing.assert_allclose(
                res.trace.theta_hat[q].ravel(), flat[lay.theta_sl], rtol=1e-10, atol=1e-13
            )
            fs = lay.views(flat)[2]
            delta, _ = reference.mix(*reference.regressor_stack(model, fs[: lay.mn], 0.0))
            assert res.trace.delta[q] == pytest.approx(delta, rel=1e-9, abs=1e-13)


class TestLayout:
    def test_component_names_cover_every_index(self):
        layout = StateLayout(3, 2, 3)
        names = [layout.component_name(i) for i in range(layout.size)]
        assert len(set(names)) == layout.size
        assert names[0] == "x[0]"
        assert "theta_hat[0,0]" in names
        assert "excitation[2]" in names

    def test_views_are_aliases(self):
        layout = StateLayout(3, 2, 3)
        flat = np.zeros(layout.size)
        x, xhat, fs, theta, exc = layout.views(flat)
        fs[2, 1, 0] = 7.0
        theta[1, 1] = -3.0
        assert flat[layout.fs_sl].reshape(layout.num_units, 3, layout.panel)[2, 1, 0] == 7.0
        assert flat[layout.theta_sl][3] == -3.0
