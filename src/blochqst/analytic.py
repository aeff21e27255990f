"""Closed-form results for free and tilted chains.

Covers the band dispersion E(kappa) = -(Delta/2) cos(kappa d) and its group
velocity, the exact free propagator written with Bessel functions,

    <n|U(t)|n'> = i^(n-n') J_(n-n')(t Delta / 2),

the Wannier-Stark ladder of a tilted chain (quasimomentum representation
exp(-i[m kappa d + gamma sin(kappa d)]) with equispaced energies m d F), and
the alternating-sign Gaussian profile a truncated Gaussian packet reaches
after half a Bloch period.  The single dimensionless knob is
gamma = coupling / (2 spacing force).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .bessel import MAX_ORDER, bessel_row, row_index
from .chain import ChainSpec, LatticeState, freeze

if TYPE_CHECKING:
    from .transfer import TruncatedGaussianSpec

_I_POWER = (1.0 + 0.0j, 0.0 + 1.0j, -1.0 + 0.0j, 0.0 - 1.0j)
_BZ_TOL = 1e-9


def dispersion(kappa, coupling: float, spacing: float = 1.0):
    """Band energy -(coupling/2) cos(kappa * spacing).

    kappa may be a scalar or array; values must lie in the first Brillouin
    zone |kappa * spacing| <= pi (small numerical slack allowed).
    """
    kd = np.asarray(kappa, dtype=np.float64) * spacing
    if np.any(np.abs(kd) > math.pi + _BZ_TOL):
        raise ValueError("kappa outside the first Brillouin zone")
    out = -(0.5 * coupling) * np.cos(kd)
    return float(out) if out.ndim == 0 else out


def group_velocity(kappa, coupling: float, spacing: float = 1.0):
    """dE/dkappa = (spacing * coupling / 2) sin(kappa * spacing), max at the zone edge midpoint."""
    kd = np.asarray(kappa, dtype=np.float64) * spacing
    if np.any(np.abs(kd) > math.pi + _BZ_TOL):
        raise ValueError("kappa outside the first Brillouin zone")
    out = (0.5 * spacing * coupling) * np.sin(kd)
    return float(out) if out.ndim == 0 else out


def free_propagator_element(n: int, n_prime: int, t: float, coupling: float) -> complex:
    """Exact amplitude <n|U(t)|n'> on the infinite untilted chain.

    Equals i^(n-n') J_(n-n')(t coupling / 2); depends on the labels only
    through n - n', and holds for negative t as well (U(-t) = U(t)^dagger).
    The order is checked before the argument, as bessel_jn checks it, and
    the value is read from bessel's cached row of x = t coupling / 2, so a
    loop over labels at one time runs one recurrence.
    """
    m = n - n_prime
    if not (type(m) is int and -MAX_ORDER <= m <= MAX_ORDER):
        m = row_index(m) - MAX_ORDER  # refuses, or makes a plain int
    return _I_POWER[m % 4] * bessel_row(0.5 * t * coupling)[m + MAX_ORDER]


@dataclass(frozen=True)
class TiltParameters:
    """Constants of a tilted chain, all following from gamma and the Bloch frequency.

    gamma            coupling / (2 spacing force), dimensionless
    bloch_frequency  |force| * spacing  (hbar = 1)
    bloch_period     2 pi / bloch_frequency
    displacement     net shift after half a period, -2 gamma (in sites)
    """

    gamma: float
    bloch_frequency: float

    def __post_init__(self) -> None:
        if not self.bloch_frequency > 0:
            raise ValueError("bloch_frequency must be positive")
        if not math.isfinite(self.bloch_period):
            raise ValueError("tilt too weak: the Bloch period is not finite")

    @property
    def bloch_period(self) -> float:
        return 2.0 * math.pi / self.bloch_frequency

    @property
    def displacement(self) -> float:
        return -2.0 * self.gamma


def tilt_parameters(chain: ChainSpec) -> TiltParameters:
    """Tilt constants for a chain; refuses an untilted one (force = 0)."""
    if chain.force == 0:
        raise ValueError("chain has no tilt (force = 0)")
    gamma = chain.coupling / (2.0 * chain.spacing * chain.force)
    return TiltParameters(gamma, abs(chain.force) * chain.spacing)


@dataclass(frozen=True)
class WannierStarkState:
    """Ladder eigenstate in quasimomentum representation on a uniform kappa grid."""

    index: int
    kappa_grid: np.ndarray
    amplitudes: np.ndarray
    energy: float

    def __post_init__(self) -> None:
        freeze(self, kappa_grid=np.float64, amplitudes=np.complex128)
        if self.kappa_grid.ndim != 1 or self.kappa_grid.size < 2:
            raise ValueError("kappa_grid must hold at least 2 points")
        if self.amplitudes.shape != self.kappa_grid.shape:
            raise ValueError("amplitudes must match kappa_grid in shape")


def wannier_stark_state(
    index: int,
    tilt: TiltParameters,
    spacing: float = 1.0,
    grid_size: int = 1024,
) -> WannierStarkState:
    """Ladder state m = index: sqrt(d/2pi) exp(-i[m kappa d + gamma sin(kappa d)]).

    The kappa grid covers [-pi/d, pi/d) uniformly; the energy is m d F with
    the force sign recovered from gamma.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    d = spacing
    kappa = -math.pi / d + (2.0 * math.pi / d) * np.arange(grid_size) / grid_size
    phase = index * kappa * d + tilt.gamma * np.sin(kappa * d)
    amps = math.sqrt(d / (2.0 * math.pi)) * np.exp(-1j * phase)
    force = math.copysign(tilt.bloch_frequency / d, tilt.gamma)
    return WannierStarkState(
        index=index,
        kappa_grid=kappa,
        amplitudes=amps,
        energy=index * d * force,
    )


def half_period_profile(gauss: "TruncatedGaussianSpec", tilt: TiltParameters) -> LatticeState:
    """Model state after half a Bloch period: displaced alternating-sign Gaussian.

    A packet prepared as exp(-beta (n - center)^2) turns into
    (-1)^n exp(-beta (n - center + 2 gamma)^2); the window keeps the packet's
    truncation half-width around the displaced centre (rounded to a site).
    """
    center = gauss.center + tilt.displacement
    lo = round(center) - gauss.delta
    sites = np.arange(lo, lo + 2 * gauss.delta + 1)
    signs = np.where(sites % 2 == 0, 1.0, -1.0)
    amps = signs * np.exp(-gauss.beta * (sites - center) ** 2)
    amps = amps / np.linalg.norm(amps)
    return LatticeState(amps.astype(np.complex128), int(lo))
