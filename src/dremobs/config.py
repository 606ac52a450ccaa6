"""Experiment configuration: JSON schema, validation, and presets.

A configuration is a single JSON object.  The only required key is
``plant`` (a preset name or a full plant description); everything else
defaults to the built-in values of the named preset.  See the README for
the full schema.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .estimator import DEFAULT_GAIN, DremEstimator
from .observer import ObserverState
from .plant import (
    CHUA_FILTER_GAINS,
    CHUA_OBSERVER_GAIN,
    NoiseSpec,
    OutputRegion,
    PlantModel,
    StateRegionRule,
    TimeScheduleRule,
    chua_preset,
    chua_robust_noise,
    make_sinusoid_disturbance,
)
from .sim import RunResult, StepConfig, run_simulation

MODES = ("ideal", "robust", "verify")

DEFAULT_STEP = 1e-3
DEFAULT_END = 100.0


@dataclass
class ExperimentConfig:
    """Fully resolved experiment: model, gains, grid, noise, initial values."""

    model: PlantModel
    filter_gains: np.ndarray
    observer_gain: np.ndarray
    gamma: np.ndarray
    step: StepConfig
    mode: str
    seed: int
    theta_init: np.ndarray
    observer_init: np.ndarray
    noise: NoiseSpec | None
    output_dir: str | None = None

    def build_estimator(self) -> DremEstimator:
        return DremEstimator(theta_hat=self.theta_init.copy(), gamma=self.gamma.copy())

    def build_observer(self) -> ObserverState:
        return ObserverState(self.observer_gain, self.model, x_hat=self.observer_init)


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigurationError(f"{path}: {message}")


def _as_float(value, path: str) -> float:
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool), path, "expected a number")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    _expect(math.isfinite(number), path, f"expected a finite number, got {number}")
    return number


def _as_bool(value, path: str) -> bool:
    _expect(isinstance(value, bool), path, "expected true or false")
    return value


def _as_int(value, path: str) -> int:
    _expect(isinstance(value, int) and not isinstance(value, bool), path, "expected an integer")
    return int(value)


def _as_float_list(value, path: str, length: int | None = None) -> np.ndarray:
    _expect(isinstance(value, list), path, "expected a list of numbers")
    arr = np.array([_as_float(v, f"{path}[{k}]") for k, v in enumerate(value)])
    if length is not None:
        _expect(arr.size == length, path, f"expected {length} entries, got {arr.size}")
    return arr


def _as_matrix(value, path: str, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    _expect(isinstance(value, list) and value, path, "expected a non-empty list of rows")
    mat = [
        _as_float_list(row, f"{path}[{k}]", cols if cols is not None else None)
        for k, row in enumerate(value)
    ]
    widths = {r.size for r in mat}
    _expect(len(widths) == 1, path, "rows have inconsistent lengths")
    arr = np.vstack(mat)
    if rows is not None:
        _expect(arr.shape[0] == rows, path, f"expected {rows} rows, got {arr.shape[0]}")
    return arr


def _build_affine_psi(spec: dict, path: str, n: int):
    """Nonlinearity of the form constant + y * output_gain + u * input_gain."""
    _expect(isinstance(spec, dict), path, "expected an object")
    known = {"constant", "output_gain", "input_gain"}
    for key in spec:
        _expect(key in known, f"{path}.{key}", "unknown key")
    parts = {}
    width = None
    for key in known:
        if key in spec:
            mat = _as_matrix(spec[key], f"{path}.{key}", rows=n)
            if width is None:
                width = mat.shape[1]
            _expect(
                mat.shape[1] == width,
                f"{path}.{key}",
                "all blocks must have the same number of columns",
            )
            parts[key] = mat
    _expect(width is not None, path, "at least one block is required")
    const = parts.get("constant", np.zeros((n, width)))
    ygain = parts.get("output_gain")
    ugain = parts.get("input_gain")

    def psi(y: float, u: float) -> np.ndarray:
        out = const.copy()
        if ygain is not None:
            out += y * ygain
        if ugain is not None:
            out += u * ugain
        return out

    return psi


def _build_switching(spec: dict, path: str):
    _expect(isinstance(spec, dict), path, "expected an object")
    kind = spec.get("type")
    _expect(kind in ("regions", "schedule"), f"{path}.type", "expected 'regions' or 'schedule'")
    if kind == "regions":
        regions_spec = spec.get("regions")
        _expect(isinstance(regions_spec, list) and regions_spec, f"{path}.regions", "expected a non-empty list")
        regions = []
        for k, r in enumerate(regions_spec):
            rpath = f"{path}.regions[{k}]"
            _expect(isinstance(r, dict), rpath, "expected an object")
            for key in r:
                _expect(
                    key in ("min", "max", "min_inclusive", "max_inclusive"),
                    f"{rpath}.{key}",
                    "unknown key",
                )
            lower = _as_float(r["min"], f"{rpath}.min") if "min" in r else None
            upper = _as_float(r["max"], f"{rpath}.max") if "max" in r else None
            regions.append(
                OutputRegion(
                    lower=lower,
                    upper=upper,
                    lower_closed=_as_bool(r.get("min_inclusive", True), f"{rpath}.min_inclusive"),
                    upper_closed=_as_bool(r.get("max_inclusive", True), f"{rpath}.max_inclusive"),
                )
            )
        try:
            return StateRegionRule(tuple(regions))
        except ConfigurationError as exc:
            raise ConfigurationError(f"{path}.regions: {exc}") from exc
    entries_spec = spec.get("entries")
    _expect(isinstance(entries_spec, list) and entries_spec, f"{path}.entries", "expected a non-empty list")
    entries = []
    for k, e in enumerate(entries_spec):
        epath = f"{path}.entries[{k}]"
        _expect(isinstance(e, list) and len(e) == 2, epath, "expected a [start_time, subsystem] pair")
        entries.append((_as_float(e[0], f"{epath}[0]"), _as_int(e[1], f"{epath}[1]")))
    return TimeScheduleRule(tuple(entries))


def _build_custom_plant(spec: dict, path: str) -> PlantModel:
    required = ("a", "b", "c", "psi", "true_params", "switching", "initial_state")
    for key in required:
        _expect(key in spec, f"{path}.{key}", "required for a custom plant")
    known = set(required) | {"name"}
    for key in spec:
        _expect(key in known, f"{path}.{key}", "unknown key")
    a = _as_matrix(spec["a"], f"{path}.a")
    n = a.shape[0]
    _expect(a.shape == (n, n), f"{path}.a", "must be square")
    b = _as_float_list(spec["b"], f"{path}.b", length=n)
    c = _as_float_list(spec["c"], f"{path}.c", length=n)
    params = _as_matrix(spec["true_params"], f"{path}.true_params")
    psi = _build_affine_psi(spec["psi"], f"{path}.psi", n)
    rule = _build_switching(spec["switching"], f"{path}.switching")
    x0 = _as_float_list(spec["initial_state"], f"{path}.initial_state", length=n)
    name = spec.get("name", "custom")
    _expect(isinstance(name, str), f"{path}.name", "expected a string")
    try:
        return PlantModel(
            a=a,
            b=b,
            c=c,
            psi=psi,
            true_params=params,
            switching_rule=rule,
            initial_state=x0,
            name=name,
        )
    except (ConfigurationError, ValueError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


def _build_noise(spec, path: str, n: int, seed: int) -> NoiseSpec:
    _expect(isinstance(spec, dict), path, "expected an object")
    for key in spec:
        _expect(
            key in ("v0", "seed", "omega", "lipschitz_psi"),
            f"{path}.{key}",
            "unknown key",
        )
    v0 = _as_float(spec.get("v0", 0.0), f"{path}.v0")
    _expect(v0 >= 0.0, f"{path}.v0", "must be nonnegative")
    omega = None
    omega_bound = 0.0
    if spec.get("omega") is not None:
        ospec = spec["omega"]
        _expect(isinstance(ospec, dict), f"{path}.omega", "expected an object")
        for key in ospec:
            _expect(key in ("amplitudes", "frequencies"), f"{path}.omega.{key}", "unknown key")
        amps = _as_float_list(ospec.get("amplitudes", []), f"{path}.omega.amplitudes", length=n)
        freqs = _as_float_list(ospec.get("frequencies", []), f"{path}.omega.frequencies", length=n)
        omega = make_sinusoid_disturbance(amps, freqs)
        omega_bound = float(np.linalg.norm(amps))
    return NoiseSpec(
        v0=v0,
        seed=_as_int(spec["seed"], f"{path}.seed") if "seed" in spec else seed,
        omega=omega,
        omega_bound=omega_bound,
        lipschitz_psi=_as_float(spec.get("lipschitz_psi", 0.0), f"{path}.lipschitz_psi"),
    )


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Validate a parsed JSON object and resolve all defaults."""
    _expect(isinstance(raw, dict), "config", "expected a JSON object")
    known = {
        "plant",
        "mode",
        "seed",
        "step_size",
        "end_time",
        "start_time",
        "gamma",
        "filter_gains",
        "observer_gain",
        "theta_init",
        "observer_init",
        "noise",
        "output_dir",
    }
    for key in raw:
        _expect(key in known, f"config.{key}", "unknown key")
    _expect("plant" in raw, "config.plant", "required")

    plant_spec = raw["plant"]
    preset = None
    if isinstance(plant_spec, str):
        _expect(plant_spec == "chua", "config.plant", f"unknown preset '{plant_spec}'")
        preset = plant_spec
        model = chua_preset()
    else:
        _expect(isinstance(plant_spec, dict), "config.plant", "expected a preset name or an object")
        model = _build_custom_plant(plant_spec, "config.plant")

    mode = raw.get("mode", "ideal")
    _expect(mode in MODES, "config.mode", f"expected one of {MODES}")
    seed = _as_int(raw.get("seed", 0), "config.seed")
    h = _as_float(raw.get("step_size", DEFAULT_STEP), "config.step_size")
    _expect(h > 0.0, "config.step_size", "must be positive")
    t_end = _as_float(raw.get("end_time", DEFAULT_END), "config.end_time")
    t0 = _as_float(raw.get("start_time", 0.0), "config.start_time")
    _expect(t_end >= t0, "config.end_time", "must not precede start_time")
    rule = model.switching_rule
    if isinstance(rule, TimeScheduleRule):
        _expect(
            rule.entries[0][0] <= t0,
            "config.plant.switching.entries[0][0]",
            f"the schedule starts at t={rule.entries[0][0]:.6g}, after start_time {t0:.6g}",
        )

    mn = model.m + model.n
    if "filter_gains" in raw:
        gains = _as_matrix(raw["filter_gains"], "config.filter_gains")
        _expect(
            gains.shape == (mn, model.n),
            "config.filter_gains",
            f"the bank needs exactly m + n = {mn} gains of length {model.n}, "
            f"got shape {tuple(gains.shape)}",
        )
    elif preset == "chua":
        gains = CHUA_FILTER_GAINS.copy()
    else:
        raise ConfigurationError("config.filter_gains: required for a custom plant")

    if "observer_gain" in raw:
        obs_gain = _as_float_list(raw["observer_gain"], "config.observer_gain", length=model.n)
    elif preset == "chua":
        obs_gain = CHUA_OBSERVER_GAIN.copy()
    else:
        raise ConfigurationError("config.observer_gain: required for a custom plant")

    if "gamma" in raw:
        gamma = _as_float_list(raw["gamma"], "config.gamma", length=model.s)
        _expect(bool(np.all(gamma > 0.0)), "config.gamma", "entries must be positive")
    else:
        gamma = np.full(model.s, DEFAULT_GAIN)

    if "theta_init" in raw:
        theta_init = _as_matrix(raw["theta_init"], "config.theta_init", rows=model.s, cols=model.m)
    else:
        theta_init = np.zeros((model.s, model.m))

    if "observer_init" in raw:
        observer_init = _as_float_list(raw["observer_init"], "config.observer_init", length=model.n)
    else:
        observer_init = np.zeros(model.n)

    noise = None
    if mode == "robust":
        if "noise" in raw and raw["noise"] is not None:
            noise = _build_noise(raw["noise"], "config.noise", model.n, seed)
        elif preset == "chua":
            noise = chua_robust_noise(seed=seed)
        else:
            raise ConfigurationError(
                "config.noise: required in robust mode for a custom plant"
            )
    else:
        _expect(
            raw.get("noise") is None,
            "config.noise",
            f"only allowed in robust mode (mode is '{mode}')",
        )

    output_dir = raw.get("output_dir")
    if output_dir is not None:
        _expect(isinstance(output_dir, str), "config.output_dir", "expected a string")

    return ExperimentConfig(
        model=model,
        filter_gains=gains,
        observer_gain=obs_gain,
        gamma=gamma,
        step=StepConfig(step_size=h, end_time=t_end, start_time=t0),
        mode=mode,
        seed=seed,
        theta_init=theta_init,
        observer_init=observer_init,
        noise=noise,
        output_dir=output_dir,
    )


def load_config(path) -> ExperimentConfig:
    """Load and validate a JSON experiment configuration."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {p}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{p}: invalid JSON ({exc})") from exc
    return config_from_dict(raw)


def preset_config(
    name: str = "chua",
    mode: str = "ideal",
    *,
    seed: int = 0,
    step_size: float = DEFAULT_STEP,
    end_time: float = DEFAULT_END,
) -> ExperimentConfig:
    """Named preset compiled into the package; no config file needed."""
    return config_from_dict(
        {
            "plant": name,
            "mode": mode,
            "seed": seed,
            "step_size": step_size,
            "end_time": end_time,
        }
    )


def run_experiment(cfg: ExperimentConfig, collect_diagnostics: bool = False) -> RunResult:
    """Build the estimator/observer from the config and run the simulation."""
    return run_simulation(
        cfg.model,
        cfg.build_estimator(),
        cfg.build_observer(),
        cfg.step,
        cfg.noise,
        filter_gains=cfg.filter_gains,
        collect_diagnostics=collect_diagnostics,
        seed=cfg.seed,
        mode_label=cfg.mode,
    )
