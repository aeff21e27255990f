"""Packet engineering: truncated Gaussians, half-period transfer, sweeps, routing.

A packet A exp(-beta n^2) truncated to |n| <= delta at site 0 of a chain
tilted by force F reaches site p = round(-coupling / (spacing F)), on either
side of 0, after half a Bloch period.  transfer_chain lays out every
transfer, sweep column and route leg, plan_transfer_for_force checks the
packet against it, and each is scored by the probability within delta of p.
Sweeps vary (beta, delta) at fixed tilt; routes vary the force alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import TiltParameters, tilt_parameters
from .chain import ChainSpec, LatticeState, build_tilted_hamiltonian, check_medium, freeze
from .evolution import Trajectory, evolve, propagate, trajectory, write_csv, write_json


@dataclass(frozen=True)
class TruncatedGaussianSpec:
    """Gaussian amplitude profile cut off at |n - center| > delta.

    beta    width parameter of exp(-beta n^2); must be positive
    delta   truncation half-width in sites; delta = 0 is the sharp limit
    center  site the profile is centred on
    """

    beta: float
    delta: int
    center: int = 0

    def __post_init__(self) -> None:
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if self.delta < 0:
            raise ValueError("delta must be non-negative")
        for name in ("delta", "center"):
            if not float(getattr(self, name)).is_integer():
                raise ValueError(f"{name} must be an integer")

    @property
    def support_lo(self) -> int:
        return self.center - self.delta

    @property
    def support_hi(self) -> int:
        return self.center + self.delta

    @property
    def normalization(self) -> float:
        """A with sum_{|n|<=delta} |A exp(-beta n^2)|^2 = 1."""
        offsets = np.arange(-self.delta, self.delta + 1)
        return 1.0 / math.sqrt(np.sum(np.exp(-2.0 * self.beta * offsets**2)))


def sharp_state(chain: ChainSpec) -> LatticeState:
    """All probability on site 0."""
    amps = np.zeros(chain.n_sites, dtype=np.complex128)
    amps[-chain.left] = 1.0
    return LatticeState(amps, chain.left)


def gaussian_state(spec: TruncatedGaussianSpec, chain: ChainSpec) -> LatticeState:
    """Truncated Gaussian on the chain window, no target bookkeeping."""
    if spec.support_lo < chain.left or spec.support_hi > chain.right:
        raise ValueError("truncated support extends beyond the chain")
    sites = chain.sites
    amps = np.zeros(chain.n_sites)
    inside = np.abs(sites - spec.center) <= spec.delta
    amps[inside] = np.exp(-spec.beta * (sites[inside] - spec.center) ** 2)
    amps = spec.normalization * amps
    return LatticeState(amps.astype(np.complex128), chain.left)


def truncated_gaussian(spec: TruncatedGaussianSpec, chain: ChainSpec) -> LatticeState:
    """Normalized truncated Gaussian on the full chain window.

    The support must fit on the chain, and the chain's target site must lie
    strictly outside it (otherwise "arrival" would be meaningless).
    """
    if spec.support_lo <= chain.target <= spec.support_hi:
        raise ValueError("target lies inside the initial support")
    return gaussian_state(spec, chain)


def _collected(probabilities: np.ndarray, site_offset: int, target: int, delta: int) -> float:
    """Sum of the site probabilities (the first from site_offset) within delta of target.

    The window must lie within those sites.
    """
    if delta < 0:
        raise ValueError("delta must be non-negative")
    lo = target - delta - site_offset
    hi = target + delta - site_offset
    if lo < 0 or hi >= len(probabilities):
        raise ValueError("collection window outside the state's sites")
    return float(np.sum(probabilities[lo : hi + 1]))


def success_probability(state: LatticeState, target: int, delta: int) -> float:
    """Probability collected in the window [target - delta, target + delta] of the state's sites."""
    return _collected(np.abs(state.amplitudes) ** 2, state.site_offset, target, delta)


def arrival_time(chain: ChainSpec) -> float:
    """Half the chain's Bloch period: when a packet from site 0 arrives at its displacement."""
    return 0.5 * tilt_parameters(chain).bloch_period


@dataclass(frozen=True)
class TransferPlan:
    """A transfer-ready packet and tilted chain; tilt and arrival time follow from the chain.

    Invariants, for a target on either side of site 0: a tilted chain; a
    packet centred on site 0, where the target and arrival time assume it
    starts; equal margins beyond [min(0, target), max(0, target)]; the
    truncation half-width fits strictly inside the margin (except in the
    sharp margin-free limit), so the support lies on the chain; the target
    sits outside the initial support.
    """

    gauss: TruncatedGaussianSpec
    chain: ChainSpec

    def __post_init__(self) -> None:
        tilt_parameters(self.chain)  # refuses an untilted chain
        if self.gauss.center != 0:
            raise ValueError("packet must be centred on site 0, where a transfer starts")
        if self.chain.right - max(0, self.chain.target) != self.margin:
            raise ValueError("chain margins must be symmetric")
        if not (self.gauss.delta < self.margin or (self.gauss.delta == 0 and self.margin == 0)):
            raise ValueError("margin must exceed the truncation half-width")
        if self.gauss.support_lo <= self.chain.target <= self.gauss.support_hi:
            raise ValueError("target lies inside the initial support")

    @property
    def margin(self) -> int:
        """Sites of the chain beyond the packet's path [min(0, target), max(0, target)]."""
        return min(0, self.chain.target) - self.chain.left

    @property
    def tilt(self) -> TiltParameters:
        return tilt_parameters(self.chain)

    @property
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
    if delta < 0:
        raise ValueError("delta must be non-negative")
    if margin is None:
        margin = 2 * delta
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
    if not (p >= 1 and float(p).is_integer()):
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

    delta must be smaller than |p|; a margin of 0 is allowed only for delta = 0.
    """
    chain = transfer_chain(force, delta, coupling, spacing, margin)
    if chain.target == 0:
        raise ValueError("force too strong: derived target is site 0")
    if delta >= abs(chain.target):
        raise ValueError("delta must be smaller than p")
    return TransferPlan(gauss=TruncatedGaussianSpec(beta=beta, delta=delta, center=0), chain=chain)


def run_transfer(plan: TransferPlan, window: int | None = None) -> tuple[LatticeState, float]:
    """Evolve the planned packet to the arrival time and score it.

    Returns (final state, probability within window of the target); the
    window defaults to the packet's own truncation half-width.
    """
    w = plan.gauss.delta if window is None else window
    psi0 = truncated_gaussian(plan.gauss, plan.chain)
    h = build_tilted_hamiltonian(plan.chain)
    final = evolve(psi0, h, plan.transfer_time)
    return final, success_probability(final, plan.chain.target, w)


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


def sweep_chain(ratio: float, p: int, delta: int, coupling: float, spacing: float) -> ChainSpec:
    """The transfer chain of a sweep column under force coupling / ratio, whose target must be p."""
    chain = transfer_chain(coupling / ratio, delta, coupling, spacing)
    if chain.target != p:
        raise ValueError(f"ratio {ratio!r} moves the packet to site {chain.target}, not p = {p}")
    tilt_parameters(chain)  # refuses a Bloch period that overflows
    return chain


def _sweep_column(
    betas: np.ndarray, delta: int, ratio: float, p: int, coupling: float, spacing: float
) -> tuple[np.ndarray, list]:
    """Success for every beta at one delta: the cells share one chain and one propagation.

    Returns the column (NaN where setup failed) and (i, message) per failed cell.
    """
    column = np.full(betas.size, math.nan)
    try:
        chain = sweep_chain(ratio, p, delta, coupling, spacing)
        t_arrive = arrival_time(chain)
    except ValueError as exc:
        return column, [(i, str(exc)) for i in range(betas.size)]
    rows, packets, errors = [], [], []
    for i, beta in enumerate(betas):
        try:
            gauss = TruncatedGaussianSpec(beta=float(beta), delta=delta, center=0)
            packets.append(truncated_gaussian(gauss, chain).amplitudes)
            rows.append(i)
        except ValueError as exc:
            errors.append((i, str(exc)))
    if rows:
        finals = propagate(build_tilted_hamiltonian(chain), np.stack(packets, axis=1), t_arrive)
        for i, amplitudes in zip(rows, finals.T):
            column[i] = success_probability(LatticeState(amplitudes, chain.left), p, delta)
    return column, errors


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
    per cell, not raised.
    """
    betas = np.asarray(beta_grid, dtype=np.float64)
    deltas = np.asarray(delta_grid, dtype=np.int64)
    if betas.ndim != 1 or betas.size == 0 or deltas.ndim != 1 or deltas.size == 0:
        raise ValueError("beta_grid and delta_grid must be non-empty 1d")
    if ratio == 0:
        raise ValueError("ratio must be nonzero")
    columns = [_sweep_column(betas, int(delta), ratio, p, coupling, spacing) for delta in deltas]
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
class RouteLeg(Trajectory):
    """One force setting: the leg's trajectory, where the packet went and what arrived.

    target is the rounded half-period displacement (negative for a tilt that
    pushes left); success is the probability within delta of it at the
    final time.
    """

    force: float
    target: int
    success: float

    @property
    def output_profile(self) -> np.ndarray:
        """Site probabilities at the final time."""
        return self.profiles[-1]


@dataclass(frozen=True)
class RouteResult:
    """One packet shape routed to several destinations by the force alone."""

    beta: float
    delta: int
    coupling: float
    spacing: float
    legs: tuple


def plan_route(
    beta: float, delta: int, forces, coupling: float = 1.0, spacing: float = 1.0
) -> list[TransferPlan]:
    """One plan_transfer_for_force plan per force, in order: the legs of a route."""
    plans = [plan_transfer_for_force(float(f), beta, delta, coupling, spacing) for f in forces]
    if not plans:
        raise ValueError("forces must be non-empty")
    return plans


def route(
    beta: float,
    delta: int,
    forces,
    lengths=None,
    coupling: float = 1.0,
    spacing: float = 1.0,
    samples: int = 129,
) -> RouteResult:
    """Send the same truncated Gaussian to a different site per force value.

    Each leg runs its plan_route plan, scored at the final time.  With
    lengths = None every leg is sampled on its own half Bloch period
    (samples points); an explicit lengths grid is shared by all legs.
    """
    plans = plan_route(beta, delta, forces, coupling, spacing)
    if samples < 2:
        raise ValueError("samples must be at least 2")
    legs = []
    for plan in plans:
        chain = plan.chain
        if lengths is None:
            times = np.linspace(0.0, plan.transfer_time, samples)
        else:
            times = np.asarray(lengths, dtype=np.float64)
        psi0 = truncated_gaussian(plan.gauss, chain)
        traj = trajectory(psi0, build_tilted_hamiltonian(chain), times)
        success = _collected(traj.profiles[-1], chain.left, chain.target, delta)
        legs.append(RouteLeg(**vars(traj), force=chain.force, target=chain.target, success=success))
    return RouteResult(
        beta=beta, delta=delta, coupling=coupling, spacing=spacing, legs=tuple(legs)
    )


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
        (repr(leg.force), leg.sites.tolist(), leg.output_profile.tolist()) for leg in result.legs
    )
    write_csv(path, "force,n,P_out", "%r", blocks)


def write_route_mean_csv(result: RouteResult, path) -> None:
    """Rows force,L,mean_position per leg; time is labelled L, the length of a waveguide array."""
    blocks = (
        (repr(leg.force), leg.times.tolist(), leg.mean_positions.tolist()) for leg in result.legs
    )
    write_csv(path, "force,L,mean_position", "%r", blocks)


def write_route_json(result: RouteResult, path) -> None:
    payload = {
        "beta": result.beta,
        "delta": result.delta,
        "coupling": result.coupling,
        "spacing": result.spacing,
        "legs": [
            {
                "force": leg.force,
                "target": leg.target,
                "success": leg.success,
                "times": leg.times.tolist(),
                "sites": leg.sites.tolist(),
                "mean_positions": leg.mean_positions.tolist(),
                "output_profile": leg.output_profile.tolist(),
            }
            for leg in result.legs
        ],
    }
    write_json(payload, path)
