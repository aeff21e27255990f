"""Packet engineering: truncated Gaussians, half-period transfer, sweeps, routing.

A packet A exp(-beta (n - center)^2) truncated to |n - center| <= delta and
placed on a chain tilted with force = -coupling / (spacing * p) reaches site
p after half a Bloch period, pi p / coupling.  This module builds such plans,
scores them by the probability collected in a window around the target,
sweeps (beta, delta) at fixed tilt, and routes one packet shape to different
distances by varying the force alone.
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


def success_probability(state: LatticeState, target: int, delta: int) -> float:
    """Probability collected in the window [target - delta, target + delta].

    The window must lie within the state's site range.
    """
    if delta < 0:
        raise ValueError("delta must be non-negative")
    lo = target - delta - state.site_offset
    hi = target + delta - state.site_offset
    if lo < 0 or hi >= state.n_sites:
        raise ValueError("collection window outside the state's sites")
    return float(np.sum(np.abs(state.amplitudes[lo : hi + 1]) ** 2))


def arrival_time(chain: ChainSpec) -> float:
    """Half the chain's Bloch period: when a packet from site 0 arrives at its displacement."""
    return 0.5 * tilt_parameters(chain).bloch_period


@dataclass(frozen=True)
class TransferPlan:
    """A transfer-ready packet and tilted chain; tilt and arrival time follow from the chain.

    Invariants: a tilted chain; symmetric chain margins around [0, target];
    the truncation half-width fits strictly inside the left margin (except in
    the sharp margin-free limit); the target sits beyond the initial support.
    """

    gauss: TruncatedGaussianSpec
    chain: ChainSpec

    def __post_init__(self) -> None:
        tilt_parameters(self.chain)  # refuses an untilted chain
        eta_left = -self.chain.left
        eta_right = self.chain.right - self.chain.target
        if eta_left != eta_right:
            raise ValueError("chain margins must be symmetric")
        if not (self.gauss.delta < eta_left or (self.gauss.delta == 0 and eta_left == 0)):
            raise ValueError("margin must exceed the truncation half-width")
        if self.gauss.support_lo < self.chain.left or self.gauss.support_hi > self.chain.right:
            raise ValueError("truncated support extends beyond the chain")
        if self.gauss.support_hi >= self.chain.target:
            raise ValueError("target lies inside the initial support")

    @property
    def tilt(self) -> TiltParameters:
        return tilt_parameters(self.chain)

    @property
    def transfer_time(self) -> float:
        return arrival_time(self.chain)


def transfer_chain(
    force: float, target: int, margin: int, coupling: float, spacing: float
) -> ChainSpec:
    """The chain [min(0, target) - margin, max(0, target) + margin] around a move 0 -> target.

    A negative target (a tilt pushing left) is kept as the chain's extent
    only; the chain's own target is then site 0.
    """
    return ChainSpec(
        coupling=coupling,
        force=force,
        left=min(0, target) - margin,
        right=max(0, target) + margin,
        target=max(target, 0),
        spacing=spacing,
    )


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
    if p < 1:
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
    """Plan a transfer under the given negative force, kept exactly in the chain.

    The target is the rounded half-period displacement
    p = round(-coupling / (spacing * force)), which must exceed delta, and the
    chain is [-margin, p + margin] with margin defaulting to 2 delta.  A
    margin of 0 is allowed only for delta = 0.
    """
    check_medium(coupling, spacing)
    if not force < 0:
        raise ValueError("force must be negative (tilt toward positive sites)")
    p = _target(force, coupling, spacing)
    if p < 1:
        raise ValueError("force too strong: derived target below site 1")
    if delta < 0:
        raise ValueError("delta must be non-negative")
    if delta >= p:
        raise ValueError("delta must be smaller than p")
    if margin is None:
        margin = 2 * delta
    if margin < 0:
        raise ValueError("margin must be non-negative")
    return TransferPlan(
        gauss=TruncatedGaussianSpec(beta=beta, delta=delta, center=0),
        chain=transfer_chain(force, p, margin, coupling, spacing),
    )


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


def _sweep_column(
    betas: np.ndarray, delta: int, ratio: float, p: int, coupling: float, spacing: float
) -> tuple[np.ndarray, list]:
    """Success for every beta at one delta: the cells share one chain and one propagation.

    Returns the column (NaN where setup failed) and (i, message) per failed cell.
    """
    column = np.full(betas.size, math.nan)
    try:
        chain = transfer_chain(coupling / ratio, p, 2 * delta, coupling, spacing)
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

    ratio is coupling/force (negative for transfer toward positive sites);
    each cell uses its own margins 2 delta and collection half-width delta,
    so the cells of one delta share a chain and are propagated together.
    Setup failures (ValueError) are recorded per cell, not raised.
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
) -> list[tuple[float, int, ChainSpec, LatticeState]]:
    """(force, target, chain, initial packet) per leg, in the order of forces.

    target is the rounded half-period displacement -coupling / (spacing * force);
    the leg's chain is [min(0, target) - 2 delta, max(0, target) + 2 delta].
    """
    check_medium(coupling, spacing)
    force_list = [float(f) for f in forces]
    if not force_list:
        raise ValueError("forces must be non-empty")
    if any(f == 0 for f in force_list):
        raise ValueError("forces must be nonzero")
    gauss = TruncatedGaussianSpec(beta=beta, delta=delta, center=0)
    legs = []
    for force in force_list:
        target = _target(force, coupling, spacing)
        chain = transfer_chain(force, target, 2 * delta, coupling, spacing)
        legs.append((force, target, chain, gaussian_state(gauss, chain)))
    return legs


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

    Each leg is laid out by plan_route.  With lengths = None every leg is
    sampled on its own half Bloch period (samples points); an explicit
    lengths grid is shared by all legs.
    """
    planned = plan_route(beta, delta, forces, coupling, spacing)
    if samples < 2:
        raise ValueError("samples must be at least 2")
    legs = []
    for force, target, chain, psi0 in planned:
        if lengths is None:
            times = np.linspace(0.0, arrival_time(chain), samples)
        else:
            times = np.asarray(lengths, dtype=np.float64)
        traj = trajectory(psi0, build_tilted_hamiltonian(chain), times)
        lo = target - delta - chain.left
        success = float(np.sum(traj.profiles[-1, lo : lo + 2 * delta + 1]))
        legs.append(RouteLeg(**vars(traj), force=force, target=target, success=success))
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
