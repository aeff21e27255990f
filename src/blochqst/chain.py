"""Finite tight-binding chain: geometry, site states, tridiagonal Hamiltonians.

Sites carry absolute integer labels: the chain [left, right] holds site 0
and its target, so a linear tilt F*d*n keeps its meaning regardless of
where the chain is cut; site_rows alone maps a range of labels to rows.
Hamiltonians are kept in tridiagonal-compact storage (diagonal + one
off-diagonal); the hopping part is the uniform off-diagonal -coupling/4
and the tilt enters only on the diagonal.  hbar = 1 throughout.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .evolution import SpectralDecomposition

NORM_TOL = 1e-12
# Largest chain any run may build: its eigenvectors take about 800 MB, and its
# diagonalization peaks at about twice that, 1.6 GB (dstevd's n^2 workspace).
MAX_SITES = 10_001
# Largest trajectory any run may record, samples x sites: 128 MiB of float64 profiles.
MAX_PROFILE = 2**24


def freeze(record, **dtypes) -> None:
    """Store each named field of a frozen dataclass as a read-only copy in its dtype.

    The copy keeps the input's memory order.  Every input is copied, a
    read-only one too (its owner may make it writable again), so no later
    change to the value the record was built from shows.
    """
    for name, dtype in dtypes.items():
        arr = np.array(getattr(record, name), dtype=dtype, order="K")
        arr.flags.writeable = False
        object.__setattr__(record, name, arr)


def as_integer(value, name: str) -> int:
    """value as an int, an integral float included; refuse one that is not integral."""
    real = isinstance(value, numbers.Real)  # float() alone would also read text such as "3"
    if not (isinstance(value, numbers.Integral) or real and float(value).is_integer()):
        raise ValueError(f"{name} must be an integer")
    return int(value)


def site_rows(lo, hi, site_offset: int, n_sites: int, name: str = "window") -> slice:
    """Rows of sites lo..hi among n_sites from site site_offset: integral, lo <= hi, all on them."""
    lo, hi = as_integer(lo, f"{name} start"), as_integer(hi, f"{name} end")
    if lo > hi:
        raise ValueError(f"{name} {lo}..{hi} ends before it starts")
    if lo < site_offset or hi - site_offset >= n_sites:
        raise ValueError(f"{name} {lo}..{hi} extends beyond the {n_sites} sites from {site_offset}")
    return slice(lo - site_offset, hi - site_offset + 1)


def store_integers(record, *names) -> None:
    """Store each named field of a frozen dataclass as an int; refuse one that is not integral."""
    for name in names:
        object.__setattr__(record, name, as_integer(getattr(record, name), name))


def check_medium(coupling: float, spacing: float) -> None:
    """Refuse a coupling or lattice constant that is not positive and finite, before any division."""
    if not 0 < coupling < np.inf:
        raise ValueError("coupling must be positive and finite")
    if not 0 < spacing < np.inf:
        raise ValueError("spacing must be positive and finite")


def check_unit_norms(norms) -> None:
    """Refuse a state norm, or any of an array of them, off 1 by more than NORM_TOL (NaN too)."""
    norms = np.atleast_1d(norms)
    off = np.flatnonzero(~(np.abs(norms - 1.0) <= NORM_TOL))
    if off.size:
        raise ValueError(f"state norm {norms[off[0]]!r} deviates from 1 beyond {NORM_TOL}")


def _check_phases(t: float, diagonal, off_diagonal) -> None:
    """Refuse a time t >= 0 at which some E t overflows; Gershgorin bounds E from the arrays."""
    bound = float(np.abs(diagonal).max()) + 2 * float(np.abs(off_diagonal).max())
    if not t * bound < np.inf:  # Python floats: an overflow is inf, not a warning
        raise ValueError(f"time {t!r} too long: phases E * t overflow on this Hamiltonian")


@dataclass(frozen=True)
class ChainSpec:
    """Geometry and physics of a finite chain with right - left + 1 <= MAX_SITES sites.

    coupling  nearest-neighbour coupling Delta > 0 (energy units, hbar = 1)
    force     linear tilt per unit length; 0 means an untilted (free) chain
    left      label of the first site, left <= 0
    right     label of the last site, right >= 0
    target    intended transfer destination, left <= target <= right
    spacing   lattice constant d > 0

    The site labels are stored as ints: an integral float is taken, a fractional one refused.
    """

    coupling: float
    force: float
    left: int
    right: int
    target: int
    spacing: float = 1.0

    def __post_init__(self) -> None:
        check_medium(self.coupling, self.spacing)
        store_integers(self, "left", "right", "target")
        if self.left > 0:
            raise ValueError("left must be <= 0")
        if self.right < 0:
            raise ValueError("right must be >= 0")
        if not self.left <= self.target <= self.right:
            raise ValueError("target must satisfy left <= target <= right")
        if self.n_sites > MAX_SITES:
            raise ValueError(f"chain of {self.n_sites} sites exceeds MAX_SITES = {MAX_SITES}")
        if not np.isfinite(self.force * self.spacing * max(-self.left, self.right)):
            raise ValueError("tilt force * spacing * n must be finite on every site")

    @property
    def n_sites(self) -> int:
        return self.right - self.left + 1

    @property
    def sites(self) -> np.ndarray:
        """Absolute site labels left..right as an int array."""
        return np.arange(self.left, self.right + 1)


@dataclass(frozen=True)
class LatticeState:
    """Normalized state on a contiguous window of sites.

    amplitudes[i] is the amplitude on absolute site site_offset + i; an
    (n, k) array is a payload whose k components, such as a qubit's (down,
    up), are its columns.  The whole array's norm must be 1 within NORM_TOL;
    amplitudes are stored read-only.
    """

    amplitudes: np.ndarray
    site_offset: int

    def __post_init__(self) -> None:
        freeze(self, amplitudes=np.complex128)
        if self.amplitudes.ndim not in (1, 2) or self.amplitudes.size == 0:
            raise ValueError("amplitudes must be a non-empty array of shape (n,) or (n, k)")
        check_unit_norms(np.linalg.norm(self.amplitudes))

    @property
    def n_sites(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def sites(self) -> np.ndarray:
        return np.arange(self.site_offset, self.site_offset + self.n_sites)


def overlap(a: LatticeState, b: LatticeState) -> complex:
    """<a|b>, matching amplitudes by absolute site label.

    Sites covered by only one of the two windows contribute nothing; both
    must have the same columns.
    """
    if a.amplitudes.shape[1:] != b.amplitudes.shape[1:]:
        raise ValueError(f"overlap of shapes {a.amplitudes.shape} and {b.amplitudes.shape}")
    lo = max(a.site_offset, b.site_offset)
    hi = min(a.site_offset + a.n_sites, b.site_offset + b.n_sites)
    if hi <= lo:
        return 0j
    seg_a = a.amplitudes[lo - a.site_offset : hi - a.site_offset]
    seg_b = b.amplitudes[lo - b.site_offset : hi - b.site_offset]
    return complex(np.vdot(seg_a, seg_b))


def align_global_phase(state: LatticeState) -> LatticeState:
    """Rotate the global phase so the largest-magnitude amplitude is real positive.

    Ties in magnitude are broken by the lowest site label (then the first
    column), making the representative unique.
    """
    k = int(np.argmax(np.abs(state.amplitudes)))
    pivot = state.amplitudes.flat[k]
    phase = pivot / abs(pivot)
    return LatticeState(state.amplitudes * np.conj(phase), state.site_offset)


@dataclass(frozen=True)
class HamiltonianMatrix:
    """Real symmetric tridiagonal Hamiltonian in compact storage, with finite entries."""

    diagonal: np.ndarray
    off_diagonal: np.ndarray

    def __post_init__(self) -> None:
        freeze(self, diagonal=np.float64, off_diagonal=np.float64)
        if self.diagonal.ndim != 1:
            raise ValueError("diagonal must be 1d")
        if self.dimension < 2:
            raise ValueError("chain must have at least 2 sites")
        if self.off_diagonal.shape != (self.dimension - 1,):
            raise ValueError("off_diagonal length must equal dimension - 1")
        if not (np.isfinite(self.diagonal).all() and np.isfinite(self.off_diagonal).all()):
            raise ValueError("Hamiltonian entries must be finite")

    @property
    def dimension(self) -> int:
        return self.diagonal.size

    @functools.cached_property
    def spectrum(self) -> SpectralDecomposition:
        """This Hamiltonian's eigendecomposition, computed on its first propagation and kept.

        The n x n eigenvectors are freed with this record;
        dataclasses.replace builds a new record without them.
        """
        from . import evolution  # evolution imports this module

        return evolution.eigendecompose(self)


def build_free_hamiltonian(chain: ChainSpec) -> HamiltonianMatrix:
    """Hopping-only Hamiltonian: the tilted one at force 0 (its diagonal -0.0 on negative sites)."""
    return build_tilted_hamiltonian(replace(chain, force=0.0))


def build_tilted_hamiltonian(chain: ChainSpec) -> HamiltonianMatrix:
    """Hopping -coupling/4 between neighbours plus linear tilt force * spacing * n on sites n."""
    diagonal = chain.force * chain.spacing * chain.sites.astype(np.float64)
    return HamiltonianMatrix(diagonal, np.full(chain.n_sites - 1, -chain.coupling / 4.0))
