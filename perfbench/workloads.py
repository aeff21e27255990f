"""The benchmark's three workloads, each a fixed list of checked operations.

A workload turns a seed into inputs (`inputs`), then a pass runs the
operation list once.  Seeds only draw parameters from fixed ranges; chain
sizes, sample counts and grid shapes are fixed, so every seed does the same
amount of work.  Seed 0 is the nominal case: for `paper_cli` it replays the
README's example commands.  Each operation returns a value that its check
inspects after the timed part of the pass; a check raises `CheckFailed`.

- `paper_cli`: in-process `blochqst.cli.main` runs at the paper's scale,
  written into a fresh directory.  CSV/JSON writers and ~600 small
  eigendecompositions dominate.
- `large_chain`: API calls on chains of 481-2001 sites, no file output.
  `eigh` and O(n^2) propagation dominate; it contrasts one chain sampled
  at many times (trajectory) with many chains evaluated once (sweep).
- `kernel_check`: verification traffic.  Bessel-kernel rows of the free
  propagator against the spectral route, the Taylor oracle against
  `evolve`, and the half-period model against the arrived packet.  `bessel`
  does most of the work; no writer runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import blochqst
from blochqst import cli

# success of the reference transfer (p=40, beta=0.01, delta=16), pinned by
# tests/test_acceptance.py from the series-integrator route
REFERENCE_SUCCESS = 0.9994259062979233
REFERENCE_SUCCESS_TOL = 1e-10
ROW_SUM_TOL = 1e-10  # trajectory rows are probabilities of a unit-norm state
NORM_TOL = 1e-12  # unit norm and Bloch-vector drift, as the acceptance tests pin
KERNEL_TOL = 1e-8  # free-propagator cross-check, acceptance criterion 04
ORACLE_TOL = 1e-9  # spectral vs Taylor route, acceptance criterion 05
PROFILE_TOL = 0.02  # arrived packet vs half-period model, criterion 03
REVIVAL_MIN = 0.999  # full-period revival fidelity, criterion 06


class CheckFailed(Exception):
    """An operation ran but its output is wrong."""


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _uniform(rng, lo: float, hi: float) -> float:
    return float(rng.uniform(lo, hi))


# ------------------------------------------------------------------ paper_cli


def paper_cli_inputs(seed: int) -> dict:
    """CLI argument values; seed 0 gives the README commands."""
    params = {
        "evolve_force": -0.025,
        "beta_lo": 0.001,
        "beta_hi": 0.1,
        "route_forces": [-0.0125, -0.016667, -0.02, -0.025],
        "route_beta": 0.01,
        "polarized_beta": 0.01,
        "qubit": [[0.6, 0.0], [0.0, 0.8]],
    }
    if seed != 0:
        rng = np.random.default_rng(seed)
        theta = _uniform(rng, 0.3, 1.2)
        phi = _uniform(rng, 0.0, 2.0 * math.pi)
        params.update(
            evolve_force=_uniform(rng, -0.03, -0.02),
            beta_lo=_uniform(rng, 0.001, 0.003),
            beta_hi=_uniform(rng, 0.08, 0.12),
            # route targets stay 80, 60, 50, 40 sites, so chain sizes are fixed
            route_forces=[-1.0 / (m + _uniform(rng, -0.3, 0.3)) for m in (80, 60, 50, 40)],
            route_beta=_uniform(rng, 0.005, 0.02),
            polarized_beta=_uniform(rng, 0.005, 0.02),
            qubit=[
                [math.cos(theta), 0.0],
                [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi)],
            ],
        )
    forces = ",".join(repr(f) for f in params["route_forces"])
    route = ["route", f"--forces={forces}", "--beta", repr(params["route_beta"]), "--delta", "10"]
    return {
        "qubit": params["qubit"],
        "commands": {
            # the reference transfer is seed-independent: its success is pinned
            "transfer": ["transfer", "--p", "40", "--beta", "0.01", "--delta", "16"],
            "evolve": [
                "evolve", "--initial", "sharp", f"--force={params['evolve_force']!r}",
                "--left=-60", "--right", "60", "--t-stop", "250", "--t-steps", "257",
            ],
            "sweep": [
                "sweep", "--ratio=-40", "--p", "40",
                "--beta-grid", f"{params['beta_lo']!r}:{params['beta_hi']!r}:20",
                "--delta-grid", "1:20",
            ],
            "route_csv": route,
            "route_json": route + ["--format", "json"],
            "polarized": [
                "polarized", "--p", "40", "--beta", repr(params["polarized_beta"]),
                "--delta", "16", "--qubit", json.dumps(params["qubit"]),
            ],
        },
    }


def _cli(argv: list[str], out: Path) -> dict:
    """Run one CLI invocation in-process; return its manifest."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv + ["--out", str(out)])
    _require(code == 0, f"exit code {code}")
    return json.loads((out / "manifest.json").read_text())


def _check_rows(profiles: np.ndarray, shape: tuple[int, int]) -> None:
    _require(profiles.shape == shape, f"profile shape {profiles.shape} != {shape}")
    err = float(np.max(np.abs(profiles.sum(axis=1) - 1.0)))
    _require(err < ROW_SUM_TOL, f"trajectory row sum off by {err:.2e}")


def _csv_profiles(path: Path, n_sites: int) -> np.ndarray:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 2].reshape(-1, n_sites)


def _json_profiles(path: Path) -> np.ndarray:
    return np.asarray(json.loads(path.read_text())["profiles"], dtype=np.float64)


def _n_sites(manifest: dict) -> int:
    chain = manifest["derived"]["chain"]
    return chain["right"] - chain["left"] + 1


def paper_cli_ops(inputs: dict, workdir: Path) -> list[Op]:
    cmds = inputs["commands"]
    qubit_in = blochqst.PolarizationQubit.from_json_pairs(inputs["qubit"])
    bloch_in = np.asarray(blochqst.bloch_vector(qubit_in))

    def check_transfer(m):
        success = m["results"]["success_probability"]
        _require(
            abs(success - REFERENCE_SUCCESS) < REFERENCE_SUCCESS_TOL,
            f"reference success {success!r} != {REFERENCE_SUCCESS!r}",
        )
        _check_rows(_csv_profiles(workdir / "transfer" / "trajectory.csv", _n_sites(m)), (101, _n_sites(m)))

    def check_evolve(m):
        _check_rows(_csv_profiles(workdir / "evolve" / "trajectory.csv", 121), (257, 121))

    def check_sweep(m):
        _require(m["results"]["failed_cells"] == 0, f"{m['results']['failed_cells']} failed cells")
        data = np.loadtxt(workdir / "sweep" / "sweep.csv", delimiter=",", skiprows=1, ndmin=2)
        _require(data.shape == (400, 3), f"sweep.csv shape {data.shape}")
        succ = data[:, 2]
        _require(bool(np.all((succ >= 0) & (succ <= 1 + NORM_TOL))), "success outside [0, 1]")

    def check_route(fmt):
        def check(m):
            outdir = workdir / f"route_{fmt}"
            legs = m["derived"]["legs"]
            _require(len(legs) == 4, f"{len(legs)} route legs")
            for k, leg in enumerate(legs, start=1):
                n = max(0, leg["target"]) - min(0, leg["target"]) + 41
                path = outdir / f"trajectory_{k}.{fmt}"
                profiles = _csv_profiles(path, n) if fmt == "csv" else _json_profiles(path)
                _check_rows(profiles, (129, n))
            probs = np.asarray(m["results"]["success_probabilities"])
            _require(bool(np.all((probs > 0) & (probs <= 1 + NORM_TOL))), "success outside (0, 1]")

        return check

    def check_polarized(m):
        drift = float(np.max(np.abs(np.asarray(m["results"]["bloch_out"]) - bloch_in)))
        _require(drift < NORM_TOL, f"Bloch vector drift {drift:.2e}")
        _check_rows(_csv_profiles(workdir / "polarized" / "trajectory.csv", _n_sites(m)), (101, _n_sites(m)))

    def check_replay(m):
        for name in m["outputs"]:
            original = (workdir / "transfer" / name).read_bytes()
            _require((workdir / "replay" / name).read_bytes() == original, f"replayed {name} differs")

    replay = ["transfer", "--config", str(workdir / "transfer" / "manifest.json")]
    return [
        Op("transfer", lambda: _cli(cmds["transfer"], workdir / "transfer"), check_transfer),
        Op("evolve", lambda: _cli(cmds["evolve"], workdir / "evolve"), check_evolve),
        Op("sweep", lambda: _cli(cmds["sweep"], workdir / "sweep"), check_sweep),
        Op("route_csv", lambda: _cli(cmds["route_csv"], workdir / "route_csv"), check_route("csv")),
        Op("route_json", lambda: _cli(cmds["route_json"], workdir / "route_json"), check_route("json")),
        Op("polarized", lambda: _cli(cmds["polarized"], workdir / "polarized"), check_polarized),
        Op("replay", lambda: _cli(replay, workdir / "replay"), check_replay),
    ]


# ---------------------------------------------------------------- large_chain

TRAJECTORY_SITES = 1000  # sharp state on [-1000, 1000]: 2001 sites
TRAJECTORY_SAMPLES = 33
SWEEP_DELTAS = (20, 40, 60, 80)  # p = 400: chains of 481 to 721 sites


def large_chain_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed) if seed != 0 else None

    def draw(nominal, lo, hi):
        return nominal if rng is None else _uniform(rng, lo, hi)

    # breathing radius 1/|force| stays well inside the 2001-site chain
    return {
        "force": draw(-1.0 / 250.0, -1.0 / 200.0, -1.0 / 300.0),
        "beta_500": draw(0.005, 0.003, 0.008),
        "beta_1000": draw(0.005, 0.003, 0.008),
        "sweep_betas": sorted(draw(b, 0.5 * b, 1.5 * b) for b in (0.002, 0.004, 0.006, 0.008)),
    }


def _check_unit_norm(state) -> None:
    err = abs(float(np.linalg.norm(state.amplitudes)) - 1.0)
    _require(err < NORM_TOL, f"final norm off by {err:.2e}")


def large_chain_ops(inputs: dict, workdir: Path) -> list[Op]:
    chain = blochqst.ChainSpec(
        coupling=1.0, force=inputs["force"], left=-TRAJECTORY_SITES, right=TRAJECTORY_SITES, target=0
    )

    def run_trajectory():
        period = blochqst.tilt_parameters(chain).bloch_period
        times = np.linspace(0.0, period, TRAJECTORY_SAMPLES)
        state = blochqst.sharp_state(chain)
        return blochqst.trajectory(state, blochqst.build_tilted_hamiltonian(chain), times)

    def check_trajectory(traj):
        _check_rows(traj.profiles, (TRAJECTORY_SAMPLES, chain.n_sites))
        revival = float(traj.profiles[-1, TRAJECTORY_SITES])
        _require(revival >= REVIVAL_MIN, f"full-period revival {revival:.6f} < {REVIVAL_MIN}")

    def run_transfer(p, beta):
        return lambda: blochqst.run_transfer(blochqst.plan_transfer(p, beta, 40))

    def check_transfer(result):
        final, success = result
        _check_unit_norm(final)
        _require(0.0 < success <= 1.0 + NORM_TOL, f"success {success!r} outside (0, 1]")

    def run_sweep():
        return blochqst.sweep_beta_delta(inputs["sweep_betas"], SWEEP_DELTAS, ratio=-400.0, p=400)

    def check_sweep(sweep):
        _require(not sweep.errors, f"failed cells: {sweep.errors}")
        _require(sweep.success.shape == (4, 4), f"sweep shape {sweep.success.shape}")
        ok = np.all((sweep.success > 0) & (sweep.success <= 1 + NORM_TOL))
        _require(bool(ok), "success outside (0, 1]")

    return [
        Op("trajectory_2001", run_trajectory, check_trajectory),
        Op("transfer_500", run_transfer(500, inputs["beta_500"]), check_transfer),
        Op("transfer_1000", run_transfer(1000, inputs["beta_1000"]), check_transfer),
        Op("sweep_4x4", run_sweep, check_sweep),
    ]


# --------------------------------------------------------------- kernel_check

KERNEL_ORDER = 100  # rows hold <m|U(t)|0> for |m| <= 100
KERNEL_TIMES = 256
KERNEL_T_MAX = 190.0  # Bessel argument t/2 stays inside bessel_jn's window
FREE_SITES = 200  # spectral reference chain [-200, 200]: 401 sites


def kernel_check_inputs(seed: int) -> dict:
    if seed == 0:
        times = np.linspace(0.0, KERNEL_T_MAX, KERNEL_TIMES + 1)[1:]
        beta = 0.01
    else:
        rng = np.random.default_rng(seed)
        times = np.sort(rng.uniform(1.0, KERNEL_T_MAX, KERNEL_TIMES))
        # the half-period model is held to PROFILE_TOL near the paper's beta
        beta = _uniform(rng, 0.008, 0.012)
    return {"times": times, "beta": beta}


def kernel_check_ops(inputs: dict, workdir: Path) -> list[Op]:
    times = inputs["times"]
    orders = range(-KERNEL_ORDER, KERNEL_ORDER + 1)
    free = blochqst.ChainSpec(coupling=1.0, force=0.0, left=-FREE_SITES, right=FREE_SITES, target=0)
    window = slice(FREE_SITES - KERNEL_ORDER, FREE_SITES + KERNEL_ORDER + 1)
    plan = blochqst.plan_transfer(40, inputs["beta"], 16)
    results = {}

    def run_kernel():
        rows = [[blochqst.free_propagator_element(m, 0, float(t), 1.0) for m in orders] for t in times]
        return np.asarray(rows)

    def check_kernel(kernel):
        traj, final = results["spectral"]
        prob_err = float(np.max(np.abs(np.abs(kernel) ** 2 - traj.profiles[:, window])))
        amp_err = float(np.max(np.abs(kernel[-1] - final.amplitudes[window])))
        err = max(prob_err, amp_err)
        _require(err < KERNEL_TOL, f"Bessel kernel vs spectral evolution {err:.2e}")

    def run_spectral():
        state = blochqst.sharp_state(free)
        h = blochqst.build_free_hamiltonian(free)
        traj = blochqst.trajectory(state, h, times)
        final = blochqst.evolve(state, h, float(times[-1]))
        results["spectral"] = traj, final
        return traj, final

    def check_spectral(result):
        traj, final = result
        _check_rows(traj.profiles, (KERNEL_TIMES, free.n_sites))
        _check_unit_norm(final)

    def run_oracle():
        psi0 = blochqst.truncated_gaussian(plan.gauss, plan.chain)
        h = blochqst.build_tilted_hamiltonian(plan.chain)
        spectral = blochqst.evolve(psi0, h, plan.transfer_time)
        oracle = blochqst.evolve_oracle(psi0, h, plan.transfer_time)
        results["arrived"] = spectral
        return spectral, oracle

    def check_oracle(result):
        spectral, oracle = result
        diff = float(np.max(np.abs(spectral.amplitudes - oracle.amplitudes)))
        _require(diff < ORACLE_TOL, f"evolve vs evolve_oracle {diff:.2e}")

    def run_profile():
        model = blochqst.half_period_profile(plan.gauss, blochqst.tilt_parameters(plan.chain))
        arrived = results["arrived"]
        return model, arrived, blochqst.overlap(model, arrived)

    def check_profile(result):
        # compare up to the global phase the overlap fixes; a pivot-based
        # alignment is ambiguous when two sites tie for the largest amplitude
        model, arrived, amp = result
        embedded = np.zeros_like(arrived.amplitudes)
        lo = model.site_offset - arrived.site_offset
        embedded[lo : lo + model.n_sites] = model.amplitudes * (amp / abs(amp))
        err = float(np.max(np.abs(arrived.amplitudes - embedded)))
        _require(err < PROFILE_TOL, f"arrived packet vs model: site error {err:.4f}")

    return [
        Op("kernel", run_kernel, check_kernel),
        Op("spectral", run_spectral, check_spectral),
        Op("oracle", run_oracle, check_oracle),
        Op("profile", run_profile, check_profile),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int], dict]
    ops: Callable[[dict, Path], list[Op]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper_cli", paper_cli_inputs, paper_cli_ops),
        Workload("large_chain", large_chain_inputs, large_chain_ops),
        Workload("kernel_check", kernel_check_inputs, kernel_check_ops),
    )
}
