"""Command-line front end: simulate / verify / plot.

Exit codes: 0 success, 1 a requested check failed, 2 configuration or
output error, 3 runtime abort inside the integrator.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .config import ExperimentConfig, config_from_dict, read_config, run_experiment
from .errors import ConfigurationError, SimulationAbort, TraceFormatError
from .plots import render_trace_plots
from .trace import read_trace, write_trace
from .verification import oracle_checks, summarize

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_ABORT = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dremobs",
        description=(
            "Simulate an adaptive observer for plants with switched unknown "
            "parameters and verify its algebraic invariants."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one experiment and write artifacts")
    src = sim.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", help="path to a JSON experiment configuration")
    src.add_argument("--preset", help="built-in plant preset (chua)")
    sim.add_argument(
        "--mode", choices=("ideal", "robust"), default=None,
        help="preset mode (default ideal); with --config it must match the file, "
        "which is robust exactly when it has noise",
    )
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument(
        "--seed", type=int, default=None, help="the config's seed (no effect without noise)"
    )
    sim.add_argument("--h", type=float, default=None, help="the config's step_size")
    sim.add_argument("--T", type=float, default=None, help="the config's end_time")
    sim.add_argument("--no-plots", action="store_true", help="skip SVG rendering")

    ver = sub.add_parser("verify", help="run the oracle suite on an ideal run")
    ver.add_argument("--preset", default="chua", help="built-in plant preset")
    ver.add_argument("--h", type=float, default=None, help="the config's step_size")
    ver.add_argument("--T", type=float, default=None, help="the config's end_time")
    ver.add_argument("--out", default=None, help="optional directory for the report")
    ver.set_defaults(config=None, mode="verify", seed=None)

    plt = sub.add_parser("plot", help="render SVG panels from a saved trace")
    plt.add_argument("--trace", required=True, help="path to a trace CSV")
    plt.add_argument("--out", required=True, help="output directory")
    return parser


def _resolve_config(args) -> ExperimentConfig:
    """The run's JSON object, the preset's or the file's, with ``--seed``,
    ``--h`` and ``--T`` written into it as ``seed``, ``step_size`` and
    ``end_time``, parsed once, so a flag is checked as its key in a file.
    A file's ``noise`` object that sets its own ``seed`` takes ``--seed``
    there, since the seed may be set in one place only.  A preset's mode is
    ``--mode``; a file's must match it when it is given."""
    raw = read_config(args.config) if args.config else {"plant": args.preset, "mode": args.mode or "ideal"}
    if isinstance(raw, dict):
        noise = raw.get("noise")
        seeded = noise if isinstance(noise, dict) and "seed" in noise else raw
        flags = ((seeded, "seed", args.seed), (raw, "step_size", args.h), (raw, "end_time", args.T))
        for target, key, value in flags:
            if value is not None:
                target[key] = value
    cfg = config_from_dict(raw)
    mode = "ideal" if cfg.noise is None else "robust"
    if args.config and args.mode not in (None, mode):
        raise ConfigurationError(
            f"config.mode: the file's run is '{mode}' but --mode asks for '{args.mode}'; "
            "set the mode in the file"
        )
    return cfg


def _output_dir(path) -> Path | None:
    """Create the output directory, or print why it cannot be and return
    None."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"output error: cannot create directory {out}: {exc}", file=sys.stderr)
        return None
    return out


def _output_error(exc: OSError, out: Path) -> int:
    """Print which artifact in ``out`` could not be written, and return the
    exit code."""
    path = exc.filename if exc.filename is not None else out
    print(f"output error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
    return EXIT_CONFIG


def _write_json(path: Path, value) -> None:
    """Write a JSON artifact: indented, keys sorted, one final newline."""
    path.write_text(json.dumps(value, indent=2, sort_keys=True) + "\n", encoding="ascii")


def _run(args, out_arg, report, collect_diagnostics: bool = False) -> int:
    """The path ``simulate`` and ``verify`` share: build the run's config
    from ``args`` (``_resolve_config``), create the output directory
    ``out_arg`` unless it is None, run, and return the exit code of
    ``report(result, out)``, which writes the artifacts and prints.  A
    config error, an output directory that cannot be created, a runtime
    abort and an artifact that cannot be written are each printed and end
    the command with their exit code."""
    try:
        cfg = _resolve_config(args)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out = None if out_arg is None else _output_dir(out_arg)
    if out_arg is not None and out is None:
        return EXIT_CONFIG
    try:
        result = run_experiment(cfg, collect_diagnostics=collect_diagnostics)
    except SimulationAbort as exc:
        print(f"runtime abort: {exc}", file=sys.stderr)
        return EXIT_ABORT
    try:
        return report(result, out)
    except OSError as exc:
        return _output_error(exc, out)


def _cmd_simulate(args) -> int:
    def report(result, out):
        trace_path = out / "trace.csv"
        summary = summarize(result)
        write_trace(result.trace, trace_path)
        _write_json(out / "summary.json", summary)
        if not args.no_plots:
            render_trace_plots(result.trace, out)
        print(f"trace: {trace_path}")
        print(f"mode: {summary['mode']}  seed: {summary['seed']}  switches: {summary['switch_count']}")
        print(f"final parameter error norms: {summary['final_theta_error']}")
        print(f"final state error norm: {summary['final_x_error']:.6g}")
        print(f"determinant range: [{summary['delta_min']:.6g}, {summary['delta_max']:.6g}]")
        print(f"excitation integrals: {summary['excitation_integrals']}")
        if "pe_min_window_means" in summary:
            print(
                f"min excitation window means (window {summary['pe_window']:g} s): "
                f"{summary['pe_min_window_means']}"
            )
        return EXIT_OK

    return _run(args, args.out, report)


def _cmd_verify(args) -> int:
    def report(result, out):
        checks = oracle_checks(result)
        for check in checks:
            print(check.line())
        all_passed = all(c.passed for c in checks)
        if out is not None:
            checked = [asdict(c) for c in checks]
            _write_json(
                out / "verify_report.json",
                {"all_passed": all_passed, "checks": checked, "summary": summarize(result)},
            )
        print("all checks passed" if all_passed else "some checks FAILED")
        return EXIT_OK if all_passed else EXIT_CHECK_FAILED

    return _run(args, args.out or None, report, collect_diagnostics=True)


def _cmd_plot(args) -> int:
    try:
        trace = read_trace(args.trace)
    except (OSError, TraceFormatError) as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out = _output_dir(args.out)
    if out is None:
        return EXIT_CONFIG
    try:
        written = render_trace_plots(trace, out)
    except OSError as exc:
        return _output_error(exc, out)
    for path in written:
        print(path)
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "verify":
        return _cmd_verify(args)
    return _cmd_plot(args)


if __name__ == "__main__":
    sys.exit(main())
