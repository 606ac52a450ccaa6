"""JSON experiment files: schema, presets, and the parse into an
``ExperimentConfig``.

A configuration is a single JSON object.  The only required key is
``plant`` (a preset name or a full plant description); everything else
defaults to the built-in values of the named preset.  See the README for
the full schema.  This module reads the JSON structure: objects, lists,
known keys, the preset, defaults, the mode, the noise and the seed.  It
hands the values as they are to ``PlantModel``, ``StepConfig``,
``NoiseSpec`` and ``ExperimentConfig``, which check every input number once,
through ``plant.checked_number``, and their errors are reported here under
the path of the object that failed (``config.plant.``, ``config.noise.``,
``config.``).  Three checks stay here, through the same rules: the region
bounds, whose JSON keys are not the field names; the affine psi blocks,
which this module builds into a callable; and the seed of a run without
noise.
"""

from __future__ import annotations

import json
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
    checked_array,
    checked_number,
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


def _known_keys(spec: dict, path: str, known) -> None:
    for key in spec:
        _expect(key in known, f"{path}.{key}", "unknown key")


def _as_bool(value, path: str) -> bool:
    _expect(isinstance(value, bool), path, "expected true or false")
    return value


def _build_affine_psi(spec: dict, path: str):
    """Nonlinearity of the form constant + y * output_gain + u * input_gain.
    The blocks are matrices of one shape, which ``PlantModel`` checks is
    (n, m)."""
    _expect(isinstance(spec, dict), path, "expected an object")
    _known_keys(spec, path, ("constant", "output_gain", "input_gain"))
    blocks = {}
    for key, value in spec.items():
        with _under(path):
            block = blocks[key] = checked_array(key, value, (None, None), "expected a matrix")
        shape = next(iter(blocks.values())).shape
        _expect(block.shape == shape, f"{path}.{key}", f"expected the first block's shape {shape}, got {block.shape}")
    _expect(blocks, path, "at least one block is required")
    const = blocks.get("constant", np.zeros(shape))
    ygain = blocks.get("output_gain")
    ugain = blocks.get("input_gain")

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
    _known_keys(spec, path, ("type", "regions" if kind == "regions" else "entries"))
    if kind == "regions":
        regions_spec = spec.get("regions")
        _expect(isinstance(regions_spec, list) and regions_spec, f"{path}.regions", "expected a non-empty list")
        regions = []
        for k, r in enumerate(regions_spec):
            rpath = f"{path}.regions[{k}]"
            _expect(isinstance(r, dict), rpath, "expected an object")
            _known_keys(r, rpath, ("min", "max", "min_inclusive", "max_inclusive"))
            lower = checked_number(f"{rpath}.min", r["min"]) if "min" in r else None
            upper = checked_number(f"{rpath}.max", r["max"]) if "max" in r else None
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
    for k, e in enumerate(entries_spec):
        _expect(isinstance(e, list) and len(e) == 2, f"{path}.entries[{k}]", "expected a [start_time, subsystem] pair")
    with _under(path):
        return TimeScheduleRule(tuple(map(tuple, entries_spec)))


def _build_custom_plant(spec: dict, path: str) -> PlantModel:
    required = ("a", "b", "c", "psi", "true_params", "switching", "initial_state")
    for key in required:
        _expect(key in spec, f"{path}.{key}", "required for a custom plant")
    _known_keys(spec, path, required + ("name",))
    psi = _build_affine_psi(spec["psi"], f"{path}.psi")
    rule = _build_switching(spec["switching"], f"{path}.switching")
    name = spec.get("name", "custom")
    _expect(isinstance(name, str), f"{path}.name", "expected a string")
    with _under(path):
        return PlantModel(
            a=spec["a"],
            b=spec["b"],
            c=spec["c"],
            psi=psi,
            true_params=spec["true_params"],
            switching_rule=rule,
            initial_state=spec["initial_state"],
            name=name,
        )


def _build_noise(spec, path: str, seed: int) -> NoiseSpec:
    _expect(isinstance(spec, dict), path, "expected an object")
    _known_keys(spec, path, ("v0", "seed", "omega"))
    omega = None
    if spec.get("omega") is not None:
        ospec = spec["omega"]
        _expect(isinstance(ospec, dict), f"{path}.omega", "expected an object")
        _known_keys(ospec, f"{path}.omega", ("amplitudes", "frequencies"))
        with _under(f"{path}.omega"):
            omega = make_sinusoid_disturbance(ospec.get("amplitudes", []), ospec.get("frequencies", []))
    with _under(path):
        return NoiseSpec(v0=spec.get("v0", 0.0), seed=spec.get("seed", seed), omega=omega)


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
    _known_keys(raw, "config", known)
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
    # An ideal run builds no noise, but its seed is an integer all the same.
    seed = raw.get("seed", 0)
    with _under("config"):
        NoiseSpec(seed=seed)
    noise_spec = raw.get("noise")
    both = "seed" in raw and isinstance(noise_spec, dict) and "seed" in noise_spec
    _expect(not both, "config.seed", "also set as noise.seed; set the seed in one place")

    # ExperimentConfig reads None as unset, but a JSON null is a value.
    keys = ("filter_gains", "observer_gain", "gamma", "theta_init", "observer_init")
    fields = {key: raw[key] for key in keys if key in raw}
    for key, value in fields.items():
        _expect(value is not None, f"config.{key}", "expected a list, got null")
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
        step = StepConfig(
            step_size=raw.get("step_size", DEFAULT_STEP),
            end_time=raw.get("end_time", DEFAULT_END),
            start_time=raw.get("start_time", 0.0),
        )
        return ExperimentConfig(model=model, step=step, noise=noise, **fields)


def read_config(path):
    """The JSON value of a configuration file, not yet checked."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {p}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{p}: not UTF-8 text ({exc})") from exc
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError is a ValueError
        raise ConfigurationError(f"{p}: invalid JSON ({exc})") from exc


def load_config(path) -> ExperimentConfig:
    """Load and validate a JSON experiment configuration."""
    return config_from_dict(read_config(path))

