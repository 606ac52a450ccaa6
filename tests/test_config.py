import json

import numpy as np
import pytest

from dremobs.config import config_from_dict, load_config, preset_config, run_experiment
from dremobs.errors import ConfigurationError, GainStabilityError
from dremobs.plant import CHUA_FILTER_GAINS, CHUA_OBSERVER_GAIN, StateRegionRule, TimeScheduleRule


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

    def test_preset_config_helper(self):
        cfg = preset_config("chua", "ideal", end_time=1.0)
        assert cfg.step.end_time == 1.0
        assert cfg.mode == "ideal"


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
        raw = {"plant": "chua", "filter_gains": [[0, -1, -15], [-2, 2.5, 20], [-2, 0.1, 1], [-0.4, -0.4, -8], [-100, 0, 0]]}
        cfg = config_from_dict(raw)
        with pytest.raises(GainStabilityError, match="-100"):
            run_experiment(cfg)

    def test_noise_only_in_robust_mode(self):
        with pytest.raises(ConfigurationError, match="config.noise"):
            config_from_dict({"plant": "chua", "mode": "ideal", "noise": {"v0": 0.1}})

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
             r"config\.plant: switching\.entries\[1\]\[1\]"),
            ({"switching": {"type": "schedule", "entries": [[0.0, 1], [0.5, 3]]}},
             r"config\.plant: switching\.entries\[1\]\[1\]"),
            ({"switching": GAP_REGIONS, "true_params": [[0.3], [-0.4], [0.1]]},
             r"config\.plant\.switching\.regions: .*cover the real line"),
            ({"psi": {"output_gain": [[1.0] * 7, [0.0] * 7]}, "true_params": [[0.1] * 7]},
             r"config\.plant: m \+ n = 9 exceeds the supported maximum 8"),
        ],
        ids=["index-0", "index-s+1", "region-gap", "m+n-9"],
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
