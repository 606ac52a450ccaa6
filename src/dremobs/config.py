"""JSON experiment files: schema, presets, and the parse into an
``ExperimentConfig``.

A configuration is a single JSON object.  The only required key is
``plant`` (a preset name or a full plant description); everything else
defaults to the built-in values of the named preset.  See the README for
the full schema.  This module parses JSON types and fills in defaults; the
checks on the run inputs themselves are made once, by ``PlantModel``,
``NoiseSpec`` and ``ExperimentConfig``, and reported here under the path of
the object that failed (``config.plant.``, ``config.noise.``, ``config.``).
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
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

# ``run_experiment`` is importable from here too: load a file, then run it.
from .sim import ExperimentConfig, StepConfig, run_experiment  # noqa: F401

DEFAULT_STEP = 1e-3
DEFAULT_END = 100.0


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigurationError(f"{path}: {message}")


@contextmanager
def _under(path: str):
    """Report a ConfigurationError raised inside, whose message starts with
    a field name, under ``path``, keeping its type."""
    try:
        yield
    except ConfigurationError as exc:
        raise type(exc)(f"{path}.{exc}") from exc


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


def _as_float_list(value, path: str) -> np.ndarray:
    _expect(isinstance(value, list), path, "expected a list of numbers")
    return np.array([_as_float(v, f"{path}[{k}]") for k, v in enumerate(value)])


def _as_matrix(value, path: str, rows: int | None = None) -> np.ndarray:
    _expect(isinstance(value, list) and value, path, "expected a non-empty list of rows")
    mat = [_as_float_list(row, f"{path}[{k}]") for k, row in enumerate(value)]
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

    def psi(y, u):
        """(n, m) at float (y, u); (K, n, m) at (K,) arrays, row by row the
        same operations."""
        if isinstance(y, np.ndarray):
            out = np.repeat(const[None], len(y), axis=0)
            y, u = y[:, None, None], u[:, None, None]
        else:
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
        with _under(path):
            return StateRegionRule(tuple(regions))
    entries_spec = spec.get("entries")
    _expect(isinstance(entries_spec, list) and entries_spec, f"{path}.entries", "expected a non-empty list")
    entries = []
    for k, e in enumerate(entries_spec):
        epath = f"{path}.entries[{k}]"
        _expect(isinstance(e, list) and len(e) == 2, epath, "expected a [start_time, subsystem] pair")
        entries.append((_as_float(e[0], f"{epath}[0]"), _as_int(e[1], f"{epath}[1]")))
    with _under(path):
        return TimeScheduleRule(tuple(entries))


def _build_custom_plant(spec: dict, path: str) -> PlantModel:
    required = ("a", "b", "c", "psi", "true_params", "switching", "initial_state")
    for key in required:
        _expect(key in spec, f"{path}.{key}", "required for a custom plant")
    known = set(required) | {"name"}
    for key in spec:
        _expect(key in known, f"{path}.{key}", "unknown key")
    a = _as_matrix(spec["a"], f"{path}.a")
    b = _as_float_list(spec["b"], f"{path}.b")
    c = _as_float_list(spec["c"], f"{path}.c")
    params = _as_matrix(spec["true_params"], f"{path}.true_params")
    psi = _build_affine_psi(spec["psi"], f"{path}.psi", len(a))
    rule = _build_switching(spec["switching"], f"{path}.switching")
    x0 = _as_float_list(spec["initial_state"], f"{path}.initial_state")
    name = spec.get("name", "custom")
    _expect(isinstance(name, str), f"{path}.name", "expected a string")
    with _under(path):
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


def _build_noise(spec, path: str, seed: int) -> NoiseSpec:
    _expect(isinstance(spec, dict), path, "expected an object")
    for key in spec:
        _expect(key in ("v0", "seed", "omega"), f"{path}.{key}", "unknown key")
    v0 = _as_float(spec.get("v0", 0.0), f"{path}.v0")
    omega = None
    if spec.get("omega") is not None:
        ospec = spec["omega"]
        _expect(isinstance(ospec, dict), f"{path}.omega", "expected an object")
        for key in ospec:
            _expect(key in ("amplitudes", "frequencies"), f"{path}.omega.{key}", "unknown key")
        amps = _as_float_list(ospec.get("amplitudes", []), f"{path}.omega.amplitudes")
        freqs = _as_float_list(ospec.get("frequencies", []), f"{path}.omega.frequencies")
        with _under(f"{path}.omega"):
            omega = make_sinusoid_disturbance(amps, freqs)
    if "seed" in spec:
        seed = _as_int(spec["seed"], f"{path}.seed")
    with _under(path):
        return NoiseSpec(v0=v0, seed=seed, omega=omega)


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Parse a JSON object into a checked ExperimentConfig, with the preset's
    defaults for the keys it does not set."""
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
    }
    for key in raw:
        _expect(key in known, f"config.{key}", "unknown key")
    _expect("plant" in raw, "config.plant", "required")

    plant_spec = raw["plant"]
    preset = isinstance(plant_spec, str)
    if preset:
        _expect(plant_spec == "chua", "config.plant", f"unknown preset '{plant_spec}'")
        model = chua_preset()
    else:
        _expect(isinstance(plant_spec, dict), "config.plant", "expected a preset name or an object")
        model = _build_custom_plant(plant_spec, "config.plant")

    # The mode only switches the noise on: a robust run has noise, an ideal
    # run (``verify`` is another name for it) has none.
    mode, modes = raw.get("mode", "ideal"), ("ideal", "robust", "verify")
    _expect(mode in modes, "config.mode", f"expected one of {modes}")
    seed = _as_int(raw.get("seed", 0), "config.seed")
    noise_spec = raw.get("noise")
    both = "seed" in raw and isinstance(noise_spec, dict) and "seed" in noise_spec
    _expect(not both, "config.seed", "also set as noise.seed; set the seed in one place")
    h = _as_float(raw.get("step_size", DEFAULT_STEP), "config.step_size")
    t_end = _as_float(raw.get("end_time", DEFAULT_END), "config.end_time")
    t0 = _as_float(raw.get("start_time", 0.0), "config.start_time")

    fields = {}
    for key, parse in (
        ("filter_gains", _as_matrix),
        ("observer_gain", _as_float_list),
        ("gamma", _as_float_list),
        ("theta_init", _as_matrix),
        ("observer_init", _as_float_list),
    ):
        if key in raw:
            fields[key] = parse(raw[key], f"config.{key}")
    for key, default in (("filter_gains", CHUA_FILTER_GAINS), ("observer_gain", CHUA_OBSERVER_GAIN)):
        _expect(key in fields or preset, f"config.{key}", "required for a custom plant")
        fields.setdefault(key, default)

    noise = None
    if noise_spec is not None:
        noise = _build_noise(noise_spec, "config.noise", seed)
    elif preset and mode == "robust":
        noise = chua_robust_noise(seed=seed)
    if (noise is not None) != (mode == "robust"):
        rule = "required" if noise is None else "only allowed"
        raise ConfigurationError(f"config.noise: {rule} in robust mode (mode is '{mode}')")

    with _under("config"):
        step = StepConfig(step_size=h, end_time=t_end, start_time=t0)
        return ExperimentConfig(model=model, step=step, noise=noise, **fields)


def load_config(path) -> ExperimentConfig:
    """Load and validate a JSON experiment configuration."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {p}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{p}: not UTF-8 text ({exc})") from exc
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError is a ValueError
        raise ConfigurationError(f"{p}: invalid JSON ({exc})") from exc
    return config_from_dict(raw)

