"""Packet engineering: truncated Gaussians, half-period transfer, sweeps, routing.

A packet A exp(-beta n^2) truncated to |n| <= delta at site 0 of a chain
tilted by force F reaches site p = round(-coupling / (spacing F)), on either
side of 0, after half a Bloch period (arrival_time, refused if E t overflows).
transfer_chain lays out every transfer, sweep column and route leg;
TransferPlan checks a packet on it and sweep_chain a column, each computing
the arrival time once; only _check_target_outside refuses a target in the
support.  chain.as_integer reads every integral argument.  A success is
_arrive's sum of |amplitude|^2 within delta of p on an arrived state (a route
leg's final one), read by chain.site_rows.  Sweeps vary (beta, delta), routes F.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .analytic import tilt_parameters
from .chain import (
    MAX_SITES,
    ChainSpec,
    LatticeState,
    _check_phases,
    as_integer,
    build_tilted_hamiltonian,
    check_medium,
    check_unit_norms,
    freeze,
    site_rows,
    store_integers,
)
# evolve is unused: perfbench's test_tracer_restores_every_patched_reference reads transfer.evolve
from .evolution import Trajectory, evolve, propagate, trajectory, write_csv, write_json


@dataclass(frozen=True)
class TruncatedGaussianSpec:
    """Gaussian amplitude profile cut off at |n - center| > delta.

    beta    width parameter of exp(-beta n^2); must be positive and finite
    delta   truncation half-width in sites; delta = 0 is the sharp limit
    center  site the profile is centred on
    """

    beta: float
    delta: int
    center: int = 0

    def __post_init__(self) -> None:
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if self.beta == math.inf:
            raise ValueError("beta must be finite")
        store_integers(self, "delta", "center")
        if self.delta < 0:
            raise ValueError("delta must be non-negative")

    @property
    def support_lo(self) -> int:
        return self.center - self.delta

    @property
    def support_hi(self) -> int:
        return self.center + self.delta

    @property
    def normalization(self) -> float:
        """A with sum_{|n|<=delta} |A exp(-beta n^2)|^2 = 1."""
        return float(_normalizations(np.array([self.beta]), self.delta)[0])


def _normalizations(betas: np.ndarray, delta: int) -> np.ndarray:
    """TruncatedGaussianSpec.normalization per beta, each sum taken over one contiguous row."""
    squares = np.arange(-delta, delta + 1) ** 2
    return 1.0 / np.sqrt(np.exp((-2.0 * betas)[:, None] * squares).sum(axis=1))


def _gaussians(betas: np.ndarray, delta: int, center: int, chain: ChainSpec) -> np.ndarray:
    """The packet rule: one normalized truncated Gaussian per beta, as an (n_sites, k) block.

    Column j holds betas[j]'s packet, supported on [center - delta, center +
    delta], which must lie on the chain.
    """
    rows = site_rows(center - delta, center + delta, chain.left, chain.n_sites, "truncated support")
    shapes = np.exp(-betas[:, None] * np.arange(-delta, delta + 1) ** 2)
    block = np.zeros((chain.n_sites, betas.size))
    block[rows] = (_normalizations(betas, delta)[:, None] * shapes).T
    return block


def _check_target_outside(spec: TruncatedGaussianSpec, chain: ChainSpec) -> None:
    """Refuse a packet whose support holds the chain's target: it would count as arrived."""
    if spec.support_lo <= chain.target <= spec.support_hi:
        raise ValueError("delta must be smaller than p: the target lies inside the initial support")


def sharp_state(chain: ChainSpec) -> LatticeState:
    """All probability on site 0."""
    amps = np.zeros(chain.n_sites, dtype=np.complex128)
    amps[-chain.left] = 1.0
    return LatticeState(amps, chain.left)


def gaussian_state(spec: TruncatedGaussianSpec, chain: ChainSpec) -> LatticeState:
    """Truncated Gaussian on the chain window, no target bookkeeping: the packet rule's k = 1."""
    packet = _gaussians(np.array([spec.beta]), spec.delta, spec.center, chain)[:, 0]
    return LatticeState(packet, chain.left)


def truncated_gaussian(spec: TruncatedGaussianSpec, chain: ChainSpec) -> LatticeState:
    """gaussian_state for a packet no TransferPlan checked: its support must not hold the target."""
    _check_target_outside(spec, chain)
    return gaussian_state(spec, chain)


def success_probability(state: LatticeState, target: int, delta: int) -> float:
    """Probability collected in the window [target - delta, target + delta] of the state's sites."""
    target, delta = as_integer(target, "target"), as_integer(delta, "delta")
    if delta < 0:
        raise ValueError("delta must be non-negative")
    window = site_rows(target - delta, target + delta, state.site_offset, state.n_sites)
    return float(np.sum((np.abs(state.amplitudes) ** 2)[window]))


def _arrive(chain: ChainSpec, arrived: np.ndarray, half_width: int) -> np.ndarray:
    """The arrival rule: each arrived (n, k) column's probability within half_width of target."""
    # one contiguous row per packet: a packet scores the same bits alone or in any block
    probabilities = np.abs(np.ascontiguousarray(arrived.T)) ** 2
    check_unit_norms(np.sqrt(probabilities.sum(axis=1)))
    target = chain.target
    window = site_rows(target - half_width, target + half_width, chain.left, chain.n_sites)
    return probabilities[:, window].sum(axis=1)


def arrival_time(chain: ChainSpec) -> float:
    """Half the chain's Bloch period, when a packet from site 0 arrives; refused if E t overflow."""
    t = 0.5 * tilt_parameters(chain).bloch_period
    # check_times' phase rule on build_tilted_hamiltonian(chain), whose tilt peaks at the ends
    ends = chain.force * chain.spacing * np.array([chain.left, chain.right], dtype=np.float64)
    _check_phases(t, ends, [chain.coupling / 4.0])
    return t


@dataclass(frozen=True)
class TransferPlan:
    """A transfer-ready packet and tilted chain; tilt and arrival time follow from the chain.

    Invariants, for a target on either side of site 0: a tilted chain; a
    packet centred on site 0, where the target and arrival time assume it
    starts; equal margins beyond [min(0, target), max(0, target)]; the
    target sits outside the initial support (so it is not site 0); the
    truncation half-width fits strictly inside the margin (except in the
    sharp margin-free limit), so the support lies on the chain.
    """

    gauss: TruncatedGaussianSpec
    chain: ChainSpec

    def __post_init__(self) -> None:
        self.transfer_time  # refuses an untilted chain, and phases that overflow on arrival
        if self.gauss.center != 0:
            raise ValueError("packet must be centred on site 0, where a transfer starts")
        if self.chain.right - max(0, self.chain.target) != self.margin:
            raise ValueError("chain margins must be symmetric")
        _check_target_outside(self.gauss, self.chain)
        if not (self.gauss.delta < self.margin or (self.gauss.delta == 0 and self.margin == 0)):
            raise ValueError("margin must exceed the truncation half-width")

    @property
    def margin(self) -> int:
        """Sites of the chain beyond the packet's path [min(0, target), max(0, target)]."""
        return min(0, self.chain.target) - self.chain.left

    @functools.cached_property
    def transfer_time(self) -> float:
        return arrival_time(self.chain)


def transfer_chain(
    force: float, delta: int, coupling: float = 1.0, spacing: float = 1.0, margin: int | None = None
) -> ChainSpec:
    """The chain [min(0, p) - margin, max(0, p) + margin] of a transfer under force.

    Its target p is the rounded half-period displacement, negative for a
    tilt that pushes left; the margin defaults to 2 delta.
    """
    check_medium(coupling, spacing)
    delta = as_integer(delta, "delta")
    if delta < 0:
        raise ValueError("delta must be non-negative")
    margin = 2 * delta if margin is None else as_integer(margin, "margin")
    if margin < 0:
        raise ValueError("margin must be non-negative")
    p = _target(force, coupling, spacing)
    left, right = min(0, p) - margin, max(0, p) + margin
    return ChainSpec(coupling, force, left, right, target=p, spacing=spacing)


def _target(force: float, coupling: float, spacing: float) -> int:
    """The rounded half-period displacement -coupling / (spacing * force)."""
    step = spacing * force  # underflows to 0 for a tilt too weak to resolve
    displacement = -coupling / step if step else math.inf
    if not math.isfinite(displacement):
        raise ValueError(f"force {force!r} too weak: derived target is not finite")
    return round(displacement)


def plan_transfer(
    p: int,
    beta: float,
    delta: int,
    coupling: float = 1.0,
    spacing: float = 1.0,
    margin: int | None = None,
) -> TransferPlan:
    """Plan a transfer from site 0 to site p > delta.

    Chooses force = -coupling / (spacing * p), so the half-period displacement
    -2 gamma equals p; see plan_transfer_for_force for the chain.
    """
    check_medium(coupling, spacing)
    if not as_integer(p, "p") >= 1:
        raise ValueError("p must be a positive site index")
    force = -coupling / (spacing * p)
    return plan_transfer_for_force(force, beta, delta, coupling, spacing, margin)


def plan_transfer_for_force(
    force: float,
    beta: float,
    delta: int,
    coupling: float = 1.0,
    spacing: float = 1.0,
    margin: int | None = None,
) -> TransferPlan:
    """Plan a transfer under the given force, of either sign, on transfer_chain's chain.

    TransferPlan refuses delta >= |p|; a margin of 0 is allowed only for delta = 0.
    """
    chain = transfer_chain(force, delta, coupling, spacing, margin)
    return TransferPlan(gauss=TruncatedGaussianSpec(beta=beta, delta=delta, center=0), chain=chain)


def run_transfer(plan: TransferPlan) -> tuple[LatticeState, float]:
    """The planned packet through the arrival rule: (final state, success within its delta).

    success_probability scores the final state in another window.
    """
    packet = gaussian_state(plan.gauss, plan.chain).amplitudes[:, None]
    arrived = propagate(build_tilted_hamiltonian(plan.chain), packet, plan.transfer_time)
    (success,) = _arrive(plan.chain, arrived, plan.gauss.delta)
    return LatticeState(arrived[:, 0], plan.chain.left), float(success)


@dataclass(frozen=True)
class SweepResult:
    """Success probabilities over a (beta, delta) grid at fixed tilt ratio.

    success[i, j] belongs to beta_grid[i], delta_grid[j]; cells whose setup
    or evolution failed hold NaN, with the reason in errors as
    (i, j, message).
    """

    ratio: float
    p: int
    coupling: float
    spacing: float
    beta_grid: np.ndarray
    delta_grid: np.ndarray
    success: np.ndarray
    errors: tuple

    def __post_init__(self) -> None:
        freeze(self, beta_grid=np.float64, delta_grid=np.int64, success=np.float64)
        if self.success.shape != (self.beta_grid.size, self.delta_grid.size):
            raise ValueError("success must have shape (len(beta_grid), len(delta_grid))")


def sweep_chain(ratio: float, p: int, delta: int, coupling: float, spacing: float) -> tuple:
    """(chain, arrival_time(chain)) of a sweep column under force coupling / ratio, target p."""
    chain = transfer_chain(coupling / ratio, delta, coupling, spacing)
    if chain.target != p:
        raise ValueError(f"ratio {ratio!r} moves the packet to site {chain.target}, not p = {p}")
    return chain, arrival_time(chain)


def _sweep_column(
    betas: np.ndarray, delta: int, ratio: float, p: int, coupling: float, spacing: float
) -> tuple[np.ndarray, list]:
    """Success for every beta at one delta: one chain, one block of packets, one arrival.

    A beta TruncatedGaussianSpec refuses fails its cell; a refused chain, a
    packet shape the chain cannot take or packets off unit norm fail every
    cell left.  Returns the column (NaN where setup failed) and (i, message)
    per failed cell; an arrived column off unit norm raises.
    """
    column = np.full(betas.size, math.nan)
    try:
        chain, t = sweep_chain(ratio, p, delta, coupling, spacing)
    except ValueError as exc:
        return column, [(i, str(exc)) for i in range(betas.size)]
    rows, specs, errors = [], [], []
    for i, beta in enumerate(betas.tolist()):
        try:
            specs.append(TruncatedGaussianSpec(beta=beta, delta=delta, center=0))
            rows.append(i)
        except ValueError as exc:
            errors.append((i, str(exc)))
    if not rows:
        return column, errors
    try:
        _check_target_outside(specs[0], chain)  # the same support for every beta
        packets = _gaussians(betas[rows], delta, 0, chain)
        check_unit_norms(np.linalg.norm(packets, axis=0))
    except ValueError as exc:
        return column, errors + [(i, str(exc)) for i in rows]
    arrived = propagate(build_tilted_hamiltonian(chain), packets, t)
    column[rows] = _arrive(chain, arrived, delta)
    return column, errors


def check_sweep(beta_grid, delta_grid, ratio: float, p: int) -> tuple[np.ndarray, list, int]:
    """sweep_beta_delta's up-front rules: the typed (betas, deltas, p), or a ValueError.

    The grids must be non-empty and 1d; a p or a delta that is not integral
    (3.0 runs as 3), a delta larger in size than MAX_SITES, which no chain
    could hold, and a zero ratio are refused.
    """
    betas = np.asarray(beta_grid, dtype=np.float64)
    deltas = np.asarray(delta_grid)
    if betas.ndim != 1 or betas.size == 0 or deltas.ndim != 1 or deltas.size == 0:
        raise ValueError("beta_grid and delta_grid must be non-empty 1d")
    deltas = [as_integer(d, f"delta {d!r}") for d in deltas.tolist()]
    wide = next((d for d in deltas if abs(d) > MAX_SITES), None)
    if wide is not None:
        raise ValueError(f"delta {wide} is out of range: no chain of {MAX_SITES} sites holds it")
    p = as_integer(p, "p")  # a negative p stays: a positive ratio moves the packet left
    if ratio == 0:
        raise ValueError("ratio must be nonzero")
    return betas, deltas, p


def sweep_beta_delta(
    beta_grid,
    delta_grid,
    ratio: float,
    p: int,
    coupling: float = 1.0,
    spacing: float = 1.0,
) -> SweepResult:
    """Success probability for every (beta, delta) pair at fixed coupling/force.

    ratio is coupling/force and p its target, round(-ratio / spacing); the
    cells of one delta share sweep_chain's chain and are propagated together.
    Setup failures (ValueError), a mismatched p among them, are recorded
    per cell, not raised.  check_sweep's rules refuse the grids, p and
    ratio before any column runs.
    """
    betas, deltas, p = check_sweep(beta_grid, delta_grid, ratio, p)
    columns = [_sweep_column(betas, delta, ratio, p, coupling, spacing) for delta in deltas]
    success = np.column_stack([column for column, _ in columns])
    errors = sorted(
        (i, j, message) for j, (_, failed) in enumerate(columns) for i, message in failed
    )
    return SweepResult(
        ratio=ratio,
        p=p,
        coupling=coupling,
        spacing=spacing,
        beta_grid=betas,
        delta_grid=deltas,
        success=success,
        errors=tuple(errors),
    )


@dataclass(frozen=True)
class RouteLeg:
    """One force setting: the leg's plan, the packet's trajectory along it and what arrived.

    success is the arrival rule's probability within the packet's delta of
    the plan's target at the trajectory's final time.
    """

    plan: TransferPlan
    trajectory: Trajectory
    success: float

    @property
    def force(self) -> float:
        return self.plan.chain.force

    @property
    def target(self) -> int:
        """The rounded half-period displacement, negative for a tilt that pushes left."""
        return self.plan.chain.target

    @property
    def output_profile(self) -> np.ndarray:
        """Site probabilities at the final time."""
        return self.trajectory.profiles[-1]


@dataclass(frozen=True)
class RouteResult:
    """One packet shape routed to several destinations by the force alone.

    The packet and the medium are the legs' plans' own, shared by every leg.
    """

    legs: tuple


def plan_route(
    beta: float, delta: int, forces, coupling: float = 1.0, spacing: float = 1.0
) -> list[TransferPlan]:
    """One plan_transfer_for_force plan per force, in order: the legs of a route."""
    plans = [plan_transfer_for_force(float(f), beta, delta, coupling, spacing) for f in forces]
    if not plans:
        raise ValueError("forces must be non-empty")
    return plans


def route(plans, lengths=None, samples: int = 129) -> RouteResult:
    """Run the legs plan_route laid out: one packet sent to a different site per force.

    The plans, at least one, must share one packet and one medium (coupling,
    spacing).  Each leg is scored by the arrival rule at its final time.  With
    lengths = None every leg is sampled on its own half Bloch period (samples
    points); an explicit lengths grid is shared by all legs.
    """
    plans = tuple(plans)  # an iterator would be spent by the refusal
    if len({(plan.gauss, plan.chain.coupling, plan.chain.spacing) for plan in plans}) != 1:
        raise ValueError("plans must be non-empty and share one packet, coupling and spacing")
    samples = as_integer(samples, "samples")
    if samples < 2:
        raise ValueError("samples must be at least 2")
    legs = []
    for plan in plans:
        chain, gauss = plan.chain, plan.gauss
        times = np.linspace(0.0, plan.transfer_time, samples) if lengths is None else lengths
        psi0, h = gaussian_state(gauss, chain), build_tilted_hamiltonian(chain)
        traj = trajectory(psi0, h, times)
        (success,) = _arrive(chain, traj.final[:, None], gauss.delta)
        legs.append(RouteLeg(plan, traj, float(success)))
    return RouteResult(tuple(legs))


def write_sweep_csv(sweep: SweepResult, path) -> None:
    """Rows beta,delta,success_probability in beta-major order; NaN for failed cells."""
    deltas = sweep.delta_grid.tolist()
    rows = zip(sweep.beta_grid.tolist(), sweep.success.tolist())
    blocks = ((repr(beta), deltas, row) for beta, row in rows)
    write_csv(path, "beta,delta,success_probability", "%r", blocks)


def write_sweep_json(sweep: SweepResult, path) -> None:
    cells = [
        [None if math.isnan(v) else v for v in row] for row in sweep.success.tolist()
    ]
    payload = {
        "ratio": sweep.ratio,
        "p": sweep.p,
        "coupling": sweep.coupling,
        "spacing": sweep.spacing,
        "beta_grid": sweep.beta_grid.tolist(),
        "delta_grid": sweep.delta_grid.tolist(),
        "success_probability": cells,
        "errors": [list(e) for e in sweep.errors],
    }
    write_json(payload, path)


def write_output_profile_csv(result: RouteResult, path) -> None:
    """Rows force,n,P_out: arrival-time site probabilities for every leg."""
    blocks = (
        (repr(leg.force), leg.trajectory.sites.tolist(), leg.output_profile.tolist())
        for leg in result.legs
    )
    write_csv(path, "force,n,P_out", "%r", blocks)


def write_route_mean_csv(result: RouteResult, path) -> None:
    """Rows force,L,mean_position per leg; time is labelled L, the length of a waveguide array."""
    blocks = (
        (repr(leg.force), leg.trajectory.times.tolist(), leg.trajectory.mean_positions.tolist())
        for leg in result.legs
    )
    write_csv(path, "force,L,mean_position", "%r", blocks)


def write_route_json(result: RouteResult, path) -> None:
    gauss, chain = result.legs[0].plan.gauss, result.legs[0].plan.chain
    payload = {
        "beta": gauss.beta,
        "delta": gauss.delta,
        "coupling": chain.coupling,
        "spacing": chain.spacing,
        "legs": [
            {
                "force": leg.force,
                "target": leg.target,
                "success": leg.success,
                "times": leg.trajectory.times.tolist(),
                "sites": leg.trajectory.sites.tolist(),
                "mean_positions": leg.trajectory.mean_positions.tolist(),
                "output_profile": leg.output_profile.tolist(),
            }
            for leg in result.legs
        ],
    }
    write_json(payload, path)
