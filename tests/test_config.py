import copy
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import chua_experiment
from dremobs.config import DEFAULT_END, config_from_dict, load_config, run_experiment
from dremobs.errors import ConfigurationError, GainStabilityError, SimulationAbort
from dremobs.sim import StepConfig
from dremobs.plant import (
    CHUA_FILTER_GAINS,
    CHUA_OBSERVER_GAIN,
    NoiseSpec,
    StateRegionRule,
    TimeScheduleRule,
    chua_preset,
)


def custom_plant_spec():
    """A small single-parameter plant in the documented data encoding."""
    return {
        "a": [[-1.0, 0.5], [0.0, -2.0]],
        "b": [0.0, 1.0],
        "c": [1.0, 0.0],
        "psi": {"output_gain": [[1.0], [0.0]]},
        "true_params": [[0.3], [-0.4]],
        "switching": {
            "type": "regions",
            "regions": [{"min": 0.0}, {"max": 0.0, "max_inclusive": False}],
        },
        "initial_state": [1.0, 0.0],
    }


class TestPresetDefaults:
    def test_minimal_config_resolves_full_setup(self):
        cfg = config_from_dict({"plant": "chua", "mode": "ideal"})
        np.testing.assert_array_equal(cfg.filter_gains, CHUA_FILTER_GAINS)
        np.testing.assert_array_equal(cfg.observer_gain, CHUA_OBSERVER_GAIN)
        np.testing.assert_array_equal(cfg.gamma, [10.0, 10.0, 10.0])
        np.testing.assert_array_equal(cfg.observer_init, np.zeros(3))
        np.testing.assert_array_equal(cfg.theta_init, np.zeros((3, 2)))
        assert cfg.step.step_size == 1e-3
        assert cfg.step.end_time == 100.0
        assert cfg.noise is None

    def test_robust_preset_supplies_noise(self):
        cfg = config_from_dict({"plant": "chua", "mode": "robust", "seed": 7})
        assert cfg.noise is not None
        assert cfg.noise.v0 == 0.1
        assert cfg.noise.seed == 7
        np.testing.assert_allclose(
            cfg.noise.omega(0.5), [0.05 * np.sin(3.5), 0.005 * np.sin(2.5), 0.1 * np.sin(6.5)]
        )


class TestValidation:
    def test_unknown_preset(self):
        with pytest.raises(ConfigurationError, match="config.plant"):
            config_from_dict({"plant": "lorenz"})

    def test_unknown_key_has_path(self):
        with pytest.raises(ConfigurationError, match="config.stepsize"):
            config_from_dict({"plant": "chua", "stepsize": 0.1})

    def test_wrong_gain_count_names_rule(self):
        raw = {"plant": "chua", "filter_gains": CHUA_FILTER_GAINS[:4].tolist()}
        with pytest.raises(ConfigurationError, match="m \\+ n = 5"):
            config_from_dict(raw)

    def test_non_hurwitz_gain_rejected_at_startup(self):
        # Rejected when the config is loaded, naming the gain's path.
        raw = {"plant": "chua", "filter_gains": [[0, -1, -15], [-2, 2.5, 20], [-2, 0.1, 1], [-0.4, -0.4, -8], [-100, 0, 0]]}
        with pytest.raises(GainStabilityError, match=r"config\.filter_gains\[4\]: \[-100"):
            config_from_dict(raw)

    def test_overflowing_characteristic_polynomial_rejected_at_startup(self):
        # The Routh screen used to raise a bare ValueError on the overflow.
        spec = dict(custom_plant_spec(), a=[[1e300, 1e300], [1e300, 1e300]])
        raw = {"plant": spec, "filter_gains": [[2.0, 0.0], [1.0, 1.0], [3.0, 0.5]],
               "observer_gain": [2.0, 0.5]}
        with pytest.raises(GainStabilityError, match=r"config\.filter_gains\[0\]: .*out of float range"):
            config_from_dict(raw)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_closed_loop_rejected_at_startup(self):
        # A - g c itself overflowed, and the Routh screen raised a bare
        # ValueError after an overflow warning.
        spec = dict(custom_plant_spec(), a=[[1.7e308, 0.5], [0.0, -2.0]])
        raw = {"plant": spec, "filter_gains": [[-1.7e308, 0.0], [1.0, 1.0], [3.0, 0.5]],
               "observer_gain": [2.0, 0.5]}
        with pytest.raises(GainStabilityError, match=r"config\.filter_gains\[0\]: .*out of float range"):
            config_from_dict(raw)

    def test_duplicate_filter_gain_rejected(self):
        # Two equal gains give two equal regressor rows, so the mixing
        # determinant stays zero and no estimate adapts; it used to run.
        gains = CHUA_FILTER_GAINS.tolist()
        gains[3] = gains[1]
        with pytest.raises(ConfigurationError, match=r"^config\.filter_gains\[3\]: equal to filter_gains\[1\]"):
            config_from_dict({"plant": "chua", "filter_gains": gains})

    def test_noise_only_in_robust_mode(self):
        with pytest.raises(ConfigurationError, match="config.noise"):
            config_from_dict({"plant": "chua", "mode": "ideal", "noise": {"v0": 0.1}})

    def test_robust_custom_plant_needs_noise(self):
        # Only the preset has default noise; a robust custom plant names its own.
        raw = {"plant": custom_plant_spec(), "mode": "robust",
               "filter_gains": [[2.0, 0.0], [1.0, 1.0], [3.0, 0.5]], "observer_gain": [2.0, 0.5]}
        with pytest.raises(ConfigurationError, match=r"^config\.noise: required in robust mode"):
            config_from_dict(raw)
        assert config_from_dict(dict(raw, noise={"v0": 0.1})).noise.v0 == 0.1

    @pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
    def test_lipschitz_psi_is_an_unknown_noise_key(self, value):
        # The declared constant was only echoed into the trace meta; no
        # computation read it.  A value that used to fail its own check now
        # fails as an unknown key.
        raw = {"plant": "chua", "mode": "robust", "noise": {"v0": 0.1, "lipschitz_psi": value}}
        with pytest.raises(ConfigurationError, match=r"^config\.noise\.lipschitz_psi: unknown key"):
            config_from_dict(raw)

    @pytest.mark.parametrize(
        "switching, key",
        [
            ({"type": "regions", "regions": [{}], "bogus": 1}, "bogus"),
            ({"type": "regions", "regions": [{}], "entries": [[0.0, 1]]}, "entries"),
            ({"type": "schedule", "entries": [[0.0, 1]], "regions": [{}]}, "regions"),
        ],
        ids=["bogus", "regions-with-entries", "schedule-with-regions"],
    )
    def test_unknown_switching_key_rejected(self, switching, key):
        # The one JSON object that did not check its keys: each of these ran.
        spec = dict(custom_plant_spec(), true_params=[[0.3]], switching=switching)
        raw = {"plant": spec, "filter_gains": [[2.0, 0.0], [1.0, 1.0], [3.0, 0.5]], "observer_gain": [2.0, 0.5]}
        config_from_dict(dict(raw, plant=dict(spec, switching={k: v for k, v in switching.items() if k != key})))
        with pytest.raises(ConfigurationError, match=rf"^config\.plant\.switching\.{key}: unknown key$"):
            config_from_dict(raw)

    def test_gamma_length_checked(self):
        with pytest.raises(ConfigurationError, match="config.gamma"):
            config_from_dict({"plant": "chua", "gamma": [10.0, 10.0]})

    def test_gamma_positivity_checked(self):
        with pytest.raises(ConfigurationError, match="config.gamma"):
            config_from_dict({"plant": "chua", "gamma": [10.0, -1.0, 10.0]})

    def test_mode_vocabulary(self):
        with pytest.raises(ConfigurationError, match="config.mode"):
            config_from_dict({"plant": "chua", "mode": "fancy"})

    def test_custom_plant_requires_gains(self):
        raw = {"plant": custom_plant_spec()}
        with pytest.raises(ConfigurationError, match="filter_gains"):
            config_from_dict(raw)


class TestCustomPlant:
    def build(self):
        return config_from_dict(
            {
                "plant": custom_plant_spec(),
                "filter_gains": [[2.0, 0.0], [1.0, 1.0], [3.0, 0.5]],
                "observer_gain": [2.0, 0.5],
                "end_time": 1.0,
            }
        )

    def test_dimensions(self):
        cfg = self.build()
        assert (cfg.model.n, cfg.model.m, cfg.model.s) == (2, 1, 2)
        assert isinstance(cfg.model.switching_rule, StateRegionRule)

    def test_affine_psi_encoding(self):
        cfg = self.build()
        np.testing.assert_array_equal(cfg.model.psi(2.0, 0.0), [[2.0], [0.0]])

    def test_custom_plant_runs(self):
        cfg = self.build()
        result = run_experiment(cfg)
        assert result.trace.data.shape[0] == 1001
        assert np.isfinite(result.trace.data).all()

    def test_schedule_encoding(self):
        spec = custom_plant_spec()
        spec["switching"] = {"type": "schedule", "entries": [[0.0, 1], [0.5, 2]]}
        cfg = config_from_dict(
            {
                "plant": spec,
                "filter_gains": [[2.0, 0.0], [1.0, 1.0], [3.0, 0.5]],
                "observer_gain": [2.0, 0.5],
                "end_time": 1.0,
            }
        )
        assert isinstance(cfg.model.switching_rule, TimeScheduleRule)
        result = run_experiment(cfg)
        # exactly one switch, at the scheduled instant
        assert result.trace.switch_times == [0.0, 0.5]


GAP_REGIONS = {  # [2, inf), (-1, 1), (-inf, -1]
    "type": "regions",
    "regions": [
        {"min": 2.0},
        {"min": -1.0, "max": 1.0, "min_inclusive": False, "max_inclusive": False},
        {"max": -1.0},
    ],
}


class TestStaticValidation:
    """Plants the kernel cannot run fail at load, naming the config path.

    Schedule index 0 used to run, write sigma = 0 and adapt subsystem s by
    negative indexing; index s + 1 raised a raw IndexError at the switch; a
    gap between regions failed only when the output reached it.
    """

    @pytest.mark.parametrize(
        "changes, match",
        [
            ({"switching": {"type": "schedule", "entries": [[0.0, 1], [0.5, 0]]}},
             r"config\.plant\.switching\.entries\[1\]\[1\]: subsystem index \d outside 1\.\.2"),
            ({"switching": {"type": "schedule", "entries": [[0.0, 1], [0.5, 3]]}},
             r"config\.plant\.switching\.entries\[1\]\[1\]: subsystem index \d outside 1\.\.2"),
            ({"switching": GAP_REGIONS, "true_params": [[0.3], [-0.4], [0.1]]},
             r"config\.plant\.switching\.regions: .*cover the real line"),
            ({"psi": {"output_gain": [[1.0] * 7, [0.0] * 7]}, "true_params": [[0.1] * 7]},
             r"config\.plant\.true_params: m \+ n = 9 exceeds the supported maximum 8"),
            ({"psi": {"output_gain": [[], []]}, "true_params": [[], []]},
             r"config\.plant\.true_params: expected s >= 1 parameter vectors of length m >= 1"),
            ({"name": 3}, r"config\.plant\.name: expected a string"),
            ({"switching": {"type": "regions",
                            "regions": [{"min": 0.0, "min_inclusive": "no"}, {}]}},
             r"config\.plant\.switching\.regions\[0\]\.min_inclusive: expected true or false"),
            ({"switching": {"type": "schedule", "entries": [[0.0, 1], [0.0, 2]]}},
             r"config\.plant\.switching\.entries: schedule times must be strictly increasing"),
            ({"a": [[-1.0, 0.5, 0.0], [0.0, -2.0, 0.0]]},
             r"config\.plant\.a: expected a non-empty square matrix, got shape \(2, 3\)"),
            ({"b": [0.0, 1.0, 2.0]}, r"config\.plant\.b: expected length n = 2, got shape \(3,\)"),
            ({"initial_state": []}, r"config\.plant\.initial_state: expected length n = 2"),
            ({"true_params": [[0.3], [-0.4], [0.1]]},
             r"config\.plant\.switching\.regions: 2 regions for 3 parameter vectors"),
        ],
        ids=["index-0", "index-s+1", "region-gap", "m+n-9", "m-0", "name-type", "inclusive-type",
             "repeated-time", "a-not-square", "b-length", "x0-empty", "regions-count"],
    )
    def test_rejected_at_load(self, changes, match):
        raw = {"plant": dict(custom_plant_spec(), **changes), "filter_gains": [[2.0, 0.0]] * 3}
        with pytest.raises(ConfigurationError, match=match):
            config_from_dict(raw)


    @pytest.mark.parametrize(
        "key, value, path",
        [
            ("theta_init", [[float("nan"), 0.0], [0.0, 0.0], [0.0, 0.0]], r"config\.theta_init\[0\]\[0\]"),
            ("observer_init", [0.0, float("inf"), 0.0], r"config\.observer_init\[1\]"),
            ("end_time", float("-inf"), r"config\.end_time"),
            ("step_size", 10**400, r"config\.step_size"),
        ],
        ids=["nan-theta", "inf-observer", "minus-inf-end", "huge-int-step"],
    )
    def test_non_finite_numbers_rejected_with_path(self, key, value, path):
        # NaN used to pass loading and stop the run with a ValueError.
        with pytest.raises(ConfigurationError, match=path + ": expected a finite number"):
            config_from_dict({"plant": "chua", key: value})

    def test_negative_noise_bound_names_its_path(self):
        # NoiseSpec checks v0; the parse reports its error under config.noise.
        with pytest.raises(ConfigurationError, match=r"config\.noise\.v0: "):
            config_from_dict({"plant": "chua", "mode": "robust", "noise": {"v0": -1.0}})

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "omega, match",
        [
            ({"amplitudes": [0.1] * 2, "frequencies": [1.0] * 2},
             r"config\.noise\.omega: must map a \(K, 1\) column of times to a \(K, 3\) array"),
            ({"amplitudes": [0.1] * 3, "frequencies": [1.0] * 2},
             r"config\.noise\.omega\.frequencies: expected one per amplitude"),
        ],
        ids=["amplitude-count", "frequency-count"],
    )
    def test_disturbance_rejected_at_load(self, omega, match):
        raw = {"plant": "chua", "mode": "robust", "noise": {"v0": 0.1, "omega": omega}}
        with pytest.raises(ConfigurationError, match=match):
            config_from_dict(raw)

    @pytest.mark.filterwarnings("error")
    def test_non_finite_initial_output_rejected_at_load(self):
        # c x0 = 1e400 - 1e400 is NaN: the plant used to load with a raw
        # RuntimeWarning, and its run aborted at t = 0.01 on x_hat[0].
        spec = dict(custom_plant_spec(), c=[1e200, 1e200], initial_state=[1e200, -1e200])
        raw = {"plant": spec, "filter_gains": [[1e-200, 0.0], [2e-200, 1e-200], [3e-200, 5e-201]],
               "observer_gain": [2e-200, 5e-201], "step_size": 0.01, "end_time": 0.1}
        with pytest.raises(ConfigurationError, match=r"^config\.plant\.initial_state: .* not finite"):
            config_from_dict(raw)

    def test_schedule_starting_after_start_time_rejected(self):
        # Used to load, then fail at the first rule query with no config path.
        spec = dict(custom_plant_spec(), switching={"type": "schedule", "entries": [[1.0, 1]]})
        raw = {"plant": spec, "filter_gains": [[2.0, 0.0], [1.0, 1.0], [3.0, 0.5]],
               "observer_gain": [2.0, 0.5]}
        with pytest.raises(ConfigurationError, match=r"config\.plant\.switching\.entries\[0\]\[0\]"):
            config_from_dict(raw)
        assert config_from_dict(dict(raw, start_time=1.0)).step.start_time == 1.0


class TestFileLoading:
    def test_load_config_round_trip(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"plant": "chua", "mode": "ideal", "end_time": 2.0}))
        cfg = load_config(path)
        assert cfg.step.end_time == 2.0

    def test_invalid_json_reports_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="broken.json"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config(tmp_path / "absent.json")

    @pytest.mark.parametrize(
        "content, reason",
        [
            (b'{"plant": "chua", "name": "\xff"}', "not UTF-8"),
            (b"[" * 100_000, "invalid JSON"),
            (b'{"plant": "chua", "end_time": ' + b"1" * 5000 + b"}", "invalid JSON"),
        ],
        ids=["not-utf8", "deep-nesting", "long-integer"],
    )
    def test_undecodable_file_reports_path(self, tmp_path, content, reason):
        # A UnicodeDecodeError, a RecursionError or the ValueError of an
        # integer beyond Python's digit limit used to escape load_config.
        path = tmp_path / "odd.json"
        path.write_bytes(content)
        with pytest.raises(ConfigurationError, match=f"odd.json: .*{reason}"):
            load_config(path)


CHUA_CONFIG = {
    "plant": "chua",
    "mode": "robust",
    "step_size": 1e-3,
    "end_time": 1.0,
    "start_time": 0.0,
    "gamma": [10.0, 10.0, 10.0],
    "filter_gains": CHUA_FILTER_GAINS.tolist(),
    "observer_gain": CHUA_OBSERVER_GAIN.tolist(),
    "theta_init": [[0.0, 0.0], [0.5, -0.5], [0.0, 1.0]],
    "observer_init": [0.1, 0.0, -0.1],
    "noise": {
        "v0": 0.1,
        "seed": 5,
        "omega": {"amplitudes": [0.05, 0.005, 0.1], "frequencies": [7.0, 5.0, 13.0]},
    },
}

# The Chua oscillator written out in the custom-plant encoding.
CHUA_AS_CUSTOM = dict(
    CHUA_CONFIG,
    plant={
        "name": "chua-custom",
        "a": [[-10.0, 10.0, 0.0], [1.0, -1.0, 1.0], [0.0, -16.0, -0.0385]],
        "b": [0.0, 0.0, 0.0],
        "c": [1.0, 0.0, 0.0],
        "psi": {
            "constant": [[0.0, -10.0], [0.0, 0.0], [0.0, 0.0]],
            "output_gain": [[-10.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        },
        "true_params": [[-0.7143, -0.4286], [-1.1429, 0.0], [-0.7143, 0.4286]],
        "switching": {
            "type": "regions",
            "regions": [
                {"min": 1.0},
                {"min": -1.0, "max": 1.0, "min_inclusive": False, "max_inclusive": False},
                {"max": -1.0},
            ],
        },
        "initial_state": [2.88, -0.066, -2.12],
    },
)


def _custom_chua(**changes):
    return dict(CHUA_AS_CUSTOM, mode="ideal", noise=None, plant=dict(CHUA_AS_CUSTOM["plant"], **changes))


RAGGED_A = [[-10.0, 10.0, 0.0], [1.0, -1.0], [0.0, -16.0, -0.0385]]


class TestOneWording:
    """A bad number is checked by one rule, so a JSON file and the Python
    constructors report it in the same words; the JSON error only adds the
    path of the object that holds it."""

    @pytest.mark.parametrize(
        "raw, build, prefix",
        [
            ({"plant": "chua", "gamma": ["10", 10, 10]},
             lambda: chua_experiment(1.0, gamma=["10", 10, 10]), "config."),
            ({"plant": "chua", "theta_init": [[math.nan, 0.0], [0.0, 0.0], [0.0, 0.0]]},
             lambda: chua_experiment(1.0, theta_init=[[math.nan, 0.0], [0.0, 0.0], [0.0, 0.0]]), "config."),
            ({"plant": "chua", "step_size": True},
             lambda: StepConfig(step_size=True, end_time=DEFAULT_END), "config."),
            (_custom_chua(c=[True, False, False]),
             lambda: replace(chua_preset(), c=[True, False, False]), "config.plant."),
            (_custom_chua(a=RAGGED_A), lambda: replace(chua_preset(), a=RAGGED_A), "config.plant."),
            ({"plant": "chua", "mode": "robust", "noise": {"v0": math.inf}},
             lambda: NoiseSpec(v0=math.inf), "config.noise."),
            ({"plant": "chua", "mode": "robust", "noise": {"v0": 0.1, "seed": 1.5}},
             lambda: NoiseSpec(v0=0.1, seed=1.5), "config.noise."),
        ],
        ids=["gamma-string", "theta-nan", "step-bool", "c-bool", "a-ragged", "v0-inf", "seed-float"],
    )
    def test_json_and_python_agree(self, raw, build, prefix):
        with pytest.raises(ConfigurationError) as from_python:
            build()
        with pytest.raises(ConfigurationError) as from_json:
            config_from_dict(raw)
        assert str(from_json.value) == prefix + str(from_python.value)


def _numbers(draw, shape, lo=-1.0, hi=1.0):
    """Nested lists of floats of the given shape."""
    if not shape:
        return draw(st.floats(lo, hi))
    return [_numbers(draw, shape[1:], lo, hi) for _ in range(shape[0])]


@st.composite
def custom_configs(draw):
    """A random small custom plant with a stable-looking linear part and
    small injection gains, under output regions or a time schedule."""
    n, m, s = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 3))
    a = (-2.0 * np.eye(n) + np.array(_numbers(draw, (n, n), -0.3, 0.3))).tolist()
    if draw(st.booleans()):
        seam = draw(st.floats(-1.0, 1.0))
        regions = [{"max": seam, "max_inclusive": draw(st.booleans())}, {"min": seam}]
        regions += [{"min": 1e9}] * (s - 2)
        switching = {"type": "regions", "regions": regions if s > 1 else [{}]}
    else:
        entries = [[0.1 * k, draw(st.integers(1, s))] for k in range(draw(st.integers(1, 3)))]
        switching = {"type": "schedule", "entries": entries}
    raw = {
        "plant": {
            "a": a,
            "b": _numbers(draw, (n,)),
            "c": [1.0] + [0.0] * (n - 1),
            "psi": {
                "constant": _numbers(draw, (n, m)),
                "output_gain": _numbers(draw, (n, m)),
                "input_gain": _numbers(draw, (n, m)),
            },
            "true_params": _numbers(draw, (s, m)),
            "switching": switching,
            "initial_state": _numbers(draw, (n,)),
        },
        "mode": draw(st.sampled_from(["ideal", "verify", "robust"])),
        "step_size": 0.01,
        "filter_gains": _numbers(draw, (m + n, n), -0.5, 0.5),
        "observer_gain": _numbers(draw, (n,), -0.5, 0.5),
    }
    if raw["mode"] == "robust":
        raw["noise"] = {
            "v0": 0.05,
            "omega": {"amplitudes": _numbers(draw, (n,), 0.0, 0.1), "frequencies": [3.0] * n},
        }
    return raw


def _paths(node, path=()):
    """Every (path, value) in a nested JSON value, the root included."""
    yield path, node
    if isinstance(node, dict):
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


ODD_VALUES = ["text", True, None, {}, [], 7, 2.5, [1.0], {"x": 1.0}]
EXTREME_VALUES = [math.nan, math.inf, -math.inf, 1e300, -1e300]


@st.composite
def mutated(draw, base):
    """``base`` with one to three mutations: a dropped key or entry, a value
    of another type, NaN, an infinity or a huge number, a resized list, an
    unknown key."""
    raw = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop", "type", "extreme", "resize", "unknown"]))
        paths = list(_paths(raw))
        if kind == "resize":
            _, value = draw(st.sampled_from([(p, v) for p, v in paths if isinstance(v, list)]))
            if value and draw(st.booleans()):
                value.pop(draw(st.integers(0, len(value) - 1)))
            else:
                value.append(copy.deepcopy(value[-1]) if value else 1.0)
        elif kind == "unknown":
            _, value = draw(st.sampled_from([(p, v) for p, v in paths if isinstance(v, dict)]))
            value["unexpected_key"] = 1.0
        else:
            path, value = draw(st.sampled_from(paths[1:]))
            parent = raw
            for key in path[:-1]:
                parent = parent[key]
            if kind == "drop":
                del parent[path[-1]]
            elif kind == "extreme":
                parent[path[-1]] = draw(st.sampled_from(EXTREME_VALUES))
            else:
                odd = draw(st.sampled_from([v for v in ODD_VALUES if type(v) is not type(value)]))
                parent[path[-1]] = copy.deepcopy(odd)
    # The same values as they arrive through a JSON file.
    return json.loads(json.dumps(raw))


def _load_and_run_five_steps(raw):
    """A config either fails to load with ConfigurationError or runs the
    horizon of five steps from its start time, to the end or to a
    SimulationAbort; nothing else may escape.  A config that still holds an
    unknown key must fail to load."""
    try:
        cfg = config_from_dict(raw)
    except ConfigurationError:
        return "rejected"
    assert not any(isinstance(v, dict) and "unexpected_key" in v for _, v in _paths(raw))
    h, t0 = cfg.step.step_size, cfg.step.start_time
    cfg = replace(cfg, step=StepConfig(step_size=h, end_time=t0 + 5 * h, start_time=t0))
    try:
        result = run_experiment(cfg)
    except SimulationAbort:
        return "aborted"
    assert result.trace.data.shape == (cfg.step.num_steps + 1, len(result.trace.columns))
    return "ran"


class TestConfigFuzz:
    """JSON configurations mutated at random must load and run, or fail
    to load with ConfigurationError (or abort with SimulationAbort mid-run):
    a loaded config never fails its run with a configuration error."""

    @pytest.mark.parametrize("base", [CHUA_CONFIG, CHUA_AS_CUSTOM], ids=["preset", "custom-chua"])
    def test_unmutated_bases_run(self, base):
        assert _load_and_run_five_steps(base) == "ran"

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from([CHUA_CONFIG, CHUA_AS_CUSTOM]).flatmap(mutated))
    def test_mutated_chua(self, raw):
        _load_and_run_five_steps(raw)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(custom_configs().flatmap(lambda base: st.one_of(st.just(base), mutated(base))))
    def test_random_custom_plants(self, raw):
        _load_and_run_five_steps(raw)
