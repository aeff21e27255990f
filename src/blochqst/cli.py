"""Command-line front end.

Subcommands: evolve, transfer, sweep, route, polarized.  Parameters come
from an optional JSON config file (--config) mirroring the manifest layout,
with explicit flags taking precedence; every run writes manifest.json plus
the data files for the chosen format.  validate types the parameters and
runs the subcommand's planner once: it lays out and checks the run and
returns it, closed over what it built, so run() computes and writes without
planning again.  Exit codes: 0 success, 1 config error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .analytic import tilt_parameters
from .chain import MAX_PROFILE, MAX_SITES, ChainSpec, build_tilted_hamiltonian
from .evolution import (
    Trajectory,
    check_times,
    evolve,
    trajectory,
    write_json,
    write_mean_position_csv,
    write_trajectory_csv,
)
from .polarization import (
    PolarizationQubit,
    attach_polarization,
    bloch_vector,
    extract_qubit,
)
from .transfer import (
    TransferPlan,
    TruncatedGaussianSpec,
    _arrive,
    check_sweep,
    gaussian_state,
    plan_route,
    plan_transfer,
    plan_transfer_for_force,
    route,
    sharp_state,
    sweep_beta_delta,
    sweep_chain,
    truncated_gaussian,
    write_output_profile_csv,
    write_route_json,
    write_route_mean_csv,
    write_sweep_csv,
    write_sweep_json,
)

_FLOAT_KEYS = {"beta", "force", "ratio", "coupling", "spacing", "t_start", "t_stop"}
_INT_KEYS = {"delta", "p", "margin", "window", "left", "right", "center", "t_steps"}

@dataclass
class RunConfig:
    command: str
    parameters: dict = field(default_factory=dict)
    out_dir: str = "out"
    out_format: str = "csv"
    # the run validate planned and checked; no flag, config key or argument sets it
    job: Callable | None = field(default=None, init=False, repr=False, compare=False)


def _number(value) -> float:
    """float(value) for a number or numeric string; refuses bools and non-finite values."""
    if isinstance(value, bool):
        raise ValueError("expected a number, not a boolean")
    number = float(value)  # an int past the float range raises OverflowError
    if not math.isfinite(number):
        raise ValueError("not a finite number")
    return number


def _integer(value) -> int:
    """int(value) for an integral _number; ints and integer strings are read exactly."""
    number = _number(value)
    if not number.is_integer():
        raise ValueError("not an integer")
    try:
        return int(value)
    except ValueError:  # an integral float string such as "16.0"
        return int(number)


def _bound_grid(entries: int) -> None:
    """Refuse a flag or config-file grid of more than MAX_SITES entries."""
    if entries > MAX_SITES:
        raise ValueError(f"grid has more than {MAX_SITES} entries")


def _parse_linspace_grid(spec) -> np.ndarray:
    """Grid given as "start:stop:count" or an explicit list of values."""
    if isinstance(spec, str):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"expected start:stop:count, got {spec!r}")
        start, stop, count = _number(parts[0]), _number(parts[1]), _integer(parts[2])
        _bound_grid(count)
        spec = np.linspace(start, stop, count).tolist()  # stop - start may overflow to NaN
    _bound_grid(len(spec))
    return np.asarray([_number(v) for v in spec], dtype=np.float64)


def _parse_int_grid(spec) -> np.ndarray:
    """Grid given as "lo:hi" (inclusive, step 1), "lo:hi:step", or a list."""
    if isinstance(spec, str):
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"expected lo:hi[:step], got {spec!r}")
        lo, hi = _integer(parts[0]), _integer(parts[1])
        step = _integer(parts[2]) if len(parts) == 3 else 1
        if step < 1:
            raise ValueError("grid step must be positive")
        if hi < lo:
            raise ValueError("grid upper bound below lower bound")
        _bound_grid((hi - lo) // step + 1)
        return np.arange(lo, hi + 1, step)
    _bound_grid(len(spec))
    return np.asarray([_integer(v) for v in spec], dtype=np.int64)


def _parse_forces(spec) -> list[float]:
    """Forces given as comma-separated text or a list of numbers."""
    if isinstance(spec, str):
        spec = [tok for tok in spec.split(",") if tok.strip()]
    _bound_grid(len(spec))
    return [_number(v) for v in spec]


def _parse_qubit(pairs) -> PolarizationQubit:
    """The payload from [[re, im], [re, im]] for (down, up)."""
    return PolarizationQubit.from_json_pairs([[_number(re), _number(im)] for re, im in pairs])


def _coerce(key: str, value):
    """Typed parameter value: a _number, an _integer, or the qubit's JSON text parsed."""
    if key in _FLOAT_KEYS:
        return _number(value)
    if key in _INT_KEYS:
        return _integer(value)
    if key == "qubit" and isinstance(value, str):
        return json.loads(value)
    return value


def validate(config: RunConfig) -> list[str]:
    """Collect human-readable violations; an empty list means config.job holds the run."""
    if config.command not in _COMMANDS:
        return [f"unknown command {config.command!r}"]
    problems: list[str] = []
    params = dict(_COMMANDS[config.command].defaults)
    for key, value in config.parameters.items():
        if key not in params:
            problems.append(f"unknown parameter {key!r} for {config.command}")
            continue
        if value is None:  # a manifest writes an unset parameter as null: keep the default
            continue
        try:
            params[key] = _coerce(key, value)
        except (ArithmeticError, TypeError, ValueError) as exc:
            problems.append(f"parameter {key!r} has malformed value {value!r}: {exc}")
    config.parameters = params
    if config.out_dir == "":
        problems.append("output directory must not be empty")
    if config.out_format not in ("csv", "json"):
        problems.append(f"format must be csv or json, not {config.out_format!r}")
    if not problems:
        try:
            config.job = _COMMANDS[config.command].plan(params)
        except (ArithmeticError, ValueError) as exc:
            problems.append(str(exc))
    return problems


def _require(params: dict, *keys: str) -> None:
    """Refuse a missing required parameter and fewer than two time samples."""
    for key in keys:
        if params[key] is None:
            raise ValueError(f"missing required parameter {key!r}")
    if params.get("t_steps", 2) < 2:
        raise ValueError("t_steps must be at least 2")


def _parsed(key: str, parse, params: dict):
    """parse(params[key]), naming the key in any error it raises."""
    try:
        return parse(params[key])
    except (ArithmeticError, TypeError, ValueError) as exc:
        raise ValueError(f"{key}: {exc}") from exc


def _bound_profile(samples: int, sites: int) -> None:
    """Refuse profiles of more than MAX_PROFILE values, samples x sites, before they are made."""
    if samples * sites > MAX_PROFILE:
        raise ValueError(f"{samples} x {sites} profile exceeds MAX_PROFILE = {MAX_PROFILE}")


def _plan_evolve(params: dict):
    """The evolve run of its initial state on its chain's Hamiltonian over its time grid."""
    _require(params, "t_stop")
    if params["initial"] not in ("sharp", "gaussian"):
        raise ValueError("initial must be sharp or gaussian")
    chain = ChainSpec(
        coupling=params["coupling"],
        force=params["force"],
        left=params["left"],
        right=params["right"],
        target=0,
        spacing=params["spacing"],
    )
    _bound_profile(params["t_steps"], chain.n_sites)
    hamiltonian = build_tilted_hamiltonian(chain)
    # the time rule on the grid's ends first, so linspace never meets a span that overflows
    _parsed("t_stop", lambda t: check_times(hamiltonian, [params["t_start"], t]), params)
    times = np.linspace(params["t_start"], params["t_stop"], params["t_steps"])
    if params["initial"] == "sharp":
        state = sharp_state(chain)
    else:
        _require(params, "beta", "delta")
        spec = TruncatedGaussianSpec(params["beta"], params["delta"], params["center"])
        state = gaussian_state(spec, chain)

    def job():
        traj = trajectory(state, hamiltonian, times)
        derived = {"chain": asdict(chain), "n_sites": chain.n_sites}
        results = {"final_mean_position": float(traj.mean_positions[-1])}
        return derived, results, _trajectory_files(traj)

    return job


def _transfer_layout(params: dict):
    """The transfer plan, its packet, collection half-width, Hamiltonian and half-period grid."""
    _require(params, "beta", "delta")
    if (params["p"] is None) == (params["force"] is None):
        raise ValueError("exactly one of p and force is required")
    rest = (params["beta"], params["delta"], params["coupling"], params["spacing"], params["margin"])
    if params["p"] is not None:
        plan = plan_transfer(params["p"], *rest)
    else:
        plan = plan_transfer_for_force(params["force"], *rest)
    window = params["window"] if params["window"] is not None else plan.gauss.delta
    if not 0 <= window <= plan.margin:
        raise ValueError("window must lie between 0 and the chain margin")
    _bound_profile(params["t_steps"], plan.chain.n_sites)
    psi0, h = truncated_gaussian(plan.gauss, plan.chain), build_tilted_hamiltonian(plan.chain)
    return plan, psi0, window, h, np.linspace(0.0, plan.transfer_time, params["t_steps"])


def _plan_transfer(params: dict):
    """The transfer run: the packet over its half Bloch period, scored in the window."""
    plan, psi0, window, h, times = _transfer_layout(params)

    def job():
        traj = trajectory(psi0, h, times)
        _, (success,) = _arrive(plan.chain, h, psi0.amplitudes[:, None], times[-1], window)
        results = {"success_probability": float(success), "window": int(window)}
        return _plan_derived(plan), results, _trajectory_files(traj)

    return job


def _plan_polarized(params: dict):
    """The transfer run with the qubit: one state in two columns, evolved, read in the window."""
    plan, psi0, window, h, times = _transfer_layout(params)
    qubit_in = _parsed("qubit", _parse_qubit, params)

    def job():
        state = attach_polarization(psi0, qubit_in)
        traj, final = trajectory(state, h, times), evolve(state, h, times[-1])
        target = plan.chain.target
        qubit_out, capture = extract_qubit(final, target - window, target + window)
        results = {
            "capture_probability": float(capture),
            "window": int(window),
            "qubit_in": qubit_in.to_json_pairs(),
            "qubit_out": qubit_out.to_json_pairs(),
            # + 0.0 turns a roundoff-level -0.0 into 0.0
            "bloch_in": [float(v) + 0.0 for v in bloch_vector(qubit_in)],
            "bloch_out": [float(v) + 0.0 for v in bloch_vector(qubit_out)],
        }
        return _plan_derived(plan), results, _trajectory_files(traj)

    return job


def _plan_sweep(params: dict):
    """The sweep run, once each delta's chain (target p, by sweep_chain's rule) and column fit."""
    _require(params, "ratio", "p", "beta_grid", "delta_grid")
    ratio, medium = params["ratio"], (params["coupling"], params["spacing"])
    betas, deltas, p = check_sweep(
        _parsed("beta_grid", _parse_linspace_grid, params),
        _parsed("delta_grid", _parse_int_grid, params),
        ratio,
        params["p"],
    )
    if np.any(betas <= 0):
        raise ValueError("beta_grid values must be positive")
    for delta in deltas:
        chain = sweep_chain(ratio, p, delta, *medium)
        _bound_profile(betas.size, chain.n_sites)  # one packet per beta on the column's chain

    def job():
        result = sweep_beta_delta(betas, deltas, ratio, p, *medium)
        derived = {
            "force": float(params["coupling"] / ratio),
            "cells": int(result.success.size),
        }
        best = int(np.nanargmax(result.success)) if not np.all(np.isnan(result.success)) else None
        results = {"failed_cells": len(result.errors)}
        if best is not None:
            i, j = divmod(best, len(deltas))
            results["best"] = {
                "beta": float(betas[i]),
                "delta": int(deltas[j]),
                "success_probability": float(result.success[i, j]),
            }
        return derived, results, {
            "csv": [("sweep.csv", write_sweep_csv, result)],
            "json": [("sweep.json", write_sweep_json, result)],
        }

    return job


def _plan_route(params: dict):
    """The route run, once every leg is laid out and all legs' trajectories bounded."""
    _require(params, "forces", "beta", "delta")
    forces = _parsed("forces", _parse_forces, params)
    plans = plan_route(
        params["beta"], params["delta"], forces, params["coupling"], params["spacing"]
    )
    # a route holds every leg's profiles at once
    _bound_profile(params["t_steps"], sum(plan.chain.n_sites for plan in plans))
    lengths = None
    if params["t_stop"] is not None:  # legs run to it, not to their own arrival times
        for leg in (build_tilted_hamiltonian(plan.chain) for plan in plans):
            _parsed("t_stop", lambda t: check_times(leg, [0.0, t]), params)
        lengths = np.linspace(0.0, params["t_stop"], params["t_steps"])

    def job():
        result = route(plans, lengths, samples=params["t_steps"])
        legs = [(k, leg.trajectory, leg.force) for k, leg in enumerate(result.legs, start=1)]
        files = {
            "csv": [
                ("output_profile.csv", write_output_profile_csv, result),
                ("route_mean_position.csv", write_route_mean_csv, result),
                *((f"trajectory_{k}.csv", write_trajectory_csv, traj) for k, traj, _ in legs),
            ],
            "json": [
                ("route.json", write_route_json, result),
                *(
                    (f"trajectory_{k}.json", partial(_write_trajectory_json, force=f), traj)
                    for k, traj, f in legs
                ),
            ],
        }
        derived = {
            "legs": [
                {"force": float(leg.force), "target": int(leg.target)} for leg in result.legs
            ]
        }
        results = {
            "success_probabilities": [float(leg.success) for leg in result.legs],
        }
        return derived, results, files

    return job


def _write_trajectory_json(traj: Trajectory, path, **extra) -> None:
    """The trajectory's arrays as JSON lists, with any extra fields (a route leg's force)."""
    payload = {f.name: getattr(traj, f.name).tolist() for f in fields(Trajectory)}
    write_json({**payload, **extra}, path)


def _trajectory_files(traj: Trajectory) -> dict:
    return {
        "csv": [
            ("trajectory.csv", write_trajectory_csv, traj),
            ("mean_position.csv", write_mean_position_csv, traj),
        ],
        "json": [("trajectory.json", _write_trajectory_json, traj)],
    }


def _plan_derived(plan: TransferPlan) -> dict:
    tilt = tilt_parameters(plan.chain)
    return {
        "chain": asdict(plan.chain),
        "gamma": float(tilt.gamma),
        "bloch_period": float(tilt.bloch_period),
        "transfer_time": float(plan.transfer_time),
    }


_MEDIUM = {"coupling": 1.0, "spacing": 1.0}
_TRANSFER = {
    "p": None,
    "force": None,
    "beta": None,
    "delta": None,
    "margin": None,
    "window": None,
    "t_steps": 101,
    **_MEDIUM,
}

class _Command(NamedTuple):
    help: str  # the subcommand's --help line
    defaults: dict  # every parameter the subcommand takes, in --help order; None: unset
    plan: Callable  # typed params -> the run it laid out and checked, the only layout check;
    # the run takes no arguments and returns (derived, results, {format: [(file, writer, record)]})


_COMMANDS = {
    "evolve": _Command(
        "propagate an initial state on a fixed chain",
        {
            "initial": "sharp",
            "beta": None,
            "delta": None,
            "center": 0,
            "force": 0.0,
            "left": -40,
            "right": 40,
            "t_start": 0.0,
            "t_stop": None,
            "t_steps": 101,
            **_MEDIUM,
        },
        _plan_evolve,
    ),
    "transfer": _Command("half-period transfer of a truncated Gaussian", _TRANSFER, _plan_transfer),
    "sweep": _Command(
        "success probability over a (beta, delta) grid",
        {
            "ratio": None,
            "p": None,
            "beta_grid": None,
            "delta_grid": None,
            **_MEDIUM,
        },
        _plan_sweep,
    ),
    "route": _Command(
        "send one packet shape to several targets",
        {
            "forces": None,
            "beta": None,
            "delta": None,
            "t_stop": None,
            "t_steps": 129,
            **_MEDIUM,
        },
        _plan_route,
    ),
    "polarized": _Command(
        "transfer with a polarization payload",
        {**_TRANSFER, "qubit": [[1.0, 0.0], [0.0, 0.0]]},
        _plan_polarized,
    ),
}


def run(config: RunConfig) -> Path:
    """Execute the run validate planned, then write its files; returns the manifest path."""
    derived, results, files = config.job()
    outdir = Path(config.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    outputs = files[config.out_format]
    for name, write, record in outputs:
        write(record, outdir / name)
    manifest = {
        "command": config.command,
        "parameters": config.parameters,
        "output": {"directory": str(config.out_dir), "format": config.out_format},
        "derived": derived,
        "results": results,
        "outputs": [name for name, _, _ in outputs],
        "version": __version__,
    }
    path = outdir / "manifest.json"
    write_json(manifest, path)
    return path


_PARAMETER_HELP = {
    "initial": "sharp or gaussian",
    "p": "target site; transfer/polarized derive the force from it",
    "force": "tilt; transfer/polarized derive the target from it",
    "ratio": "coupling/force",
    "beta_grid": "start:stop:count",
    "delta_grid": "lo:hi[:step]",
    "forces": "comma-separated tilt values",
    "qubit": "JSON [[re,im],[re,im]], (down, up)",
}


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per _COMMANDS entry, one untyped flag per parameter.

    Flags carry strings; validate types and refuses them exactly as it does
    config-file values.
    """
    parser = argparse.ArgumentParser(
        prog="blochqst",
        description="Wave-packet transfer on tilted tight-binding chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, spec in _COMMANDS.items():
        p = sub.add_parser(command, help=spec.help)
        for key in spec.defaults:
            flag = "--" + key.replace("_", "-")
            p.add_argument(flag, default=argparse.SUPPRESS, help=_PARAMETER_HELP.get(key))
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--out", default=argparse.SUPPRESS, help="output directory (default: out)")
        p.add_argument("--format", default=argparse.SUPPRESS, help="csv (default) or json")
    return parser


def _first_set(*values):
    """The first value that is not None: an empty or false setting is kept, and refused later."""
    return next(value for value in values if value is not None)


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge config-file values with command-line flags (flags win)."""
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    out_dir = flags.pop("out", None)
    out_format = flags.pop("format", None)
    params: dict = {}
    file_dir = None
    file_format = None
    if args.config:
        with open(args.config) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        file_command = raw.get("command")
        if file_command is not None and file_command != args.command:
            raise ValueError(
                f"config file is for {file_command!r} but {args.command!r} was invoked"
            )
        file_params, out_block = raw.get("parameters", {}), raw.get("output", {})
        for key, block in (("parameters", file_params), ("output", out_block)):
            if not isinstance(block, dict):
                raise ValueError(f"{key} must be a JSON object")
        params.update(file_params)
        file_dir = out_block.get("directory")
        if file_dir is not None and not isinstance(file_dir, str):
            raise ValueError("output.directory must be a string")
        file_format = out_block.get("format")
    params.update(flags)
    return RunConfig(
        command=args.command,
        parameters=params,
        out_dir=_first_set(out_dir, file_dir, "out"),
        out_format=_first_set(out_format, file_format, "csv"),
    )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        config = build_config(args)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    problems = validate(config)
    if problems:
        for item in problems:
            print(f"config error: {item}", file=sys.stderr)
        return 1
    try:
        manifest = run(config)
    except Exception as exc:  # noqa: BLE001 - surface as exit code 2
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    print(manifest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
