"""Time evolution under tridiagonal Hamiltonians, two independent routes.

propagate() and trajectory() apply V diag(exp(-i E t)) V^T with the eigenpairs
(E, V) of h.spectrum, which a HamiltonianMatrix computes with eigendecompose()
(scipy.linalg.eigh_tridiagonal) on its first propagation and keeps: one chain
evolved at many times is diagonalized once.  Both run check_times, the one
time rule, and check the amplitudes' shape first: a refused call never
diagonalizes, and no phase E t overflows.  The spectrum costs n^2 floats
(32 MB at 2,001 sites, 800 MB at MAX_SITES) and is freed with the
Hamiltonian.  scipy is imported by the first diagonalization in a process,
not before: importing the package, the CLI's --help and refused runs, and
the Bessel and closed-form code load numpy only.  The eigenbasis products
run on scipy's BLAS (dgemm), the library that diagonalized the chain, not
through numpy's @: numpy and scipy each load their own OpenBLAS with its own
worker threads, and numpy's workers, once woken by a large product, spin on
the core the eigensolver needs next.  evolve_oracle() integrates the same
dynamics by scaled-and-stepped Taylor summation of exp(-i H t) using only a
hand-rolled tridiagonal matvec.  The two share no code on purpose: their
agreement is a meaningful cross-check, and tests rely on it staying one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .chain import HamiltonianMatrix, LatticeState, freeze

_ORACLE_TERM_CUTOFF = 1e-16
_ORACLE_MAX_TERMS = 64
_ORACLE_STEP_BUDGET = 2.0  # max ||H||_1 * step per Taylor segment
_TIME_BLOCK = 16  # times per eigenbasis product: scratch stays (n, 2 * 16 * k)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a Hamiltonian."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        freeze(self, eigenvalues=np.float64, eigenvectors=np.float64)
        n = self.eigenvalues.size
        if self.eigenvalues.shape != (n,) or self.eigenvectors.shape != (n, n):
            raise ValueError("eigenvectors must be an n x n matrix for n eigenvalues")


def eigendecompose(h: HamiltonianMatrix) -> SpectralDecomposition:
    """Full spectrum of a tridiagonal Hamiltonian, each column signed as the solver returns it.

    Propagation reads V diag(exp(-i E t)) V^T, in which a column and its transpose
    flip together and IEEE negation is exact: no output can see the signs.
    """
    # imported on first use, so a process that never diagonalizes loads numpy only
    from scipy.linalg import eigh_tridiagonal

    return SpectralDecomposition(*eigh_tridiagonal(h.diagonal, h.off_diagonal))


def check_times(h: HamiltonianMatrix, times) -> np.ndarray:
    """The times as float64: 1-d, non-empty, finite, >= 0, non-decreasing, with finite phases."""
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1d array")
    if not np.all((times >= 0) & (times < math.inf)):
        raise ValueError("times must be finite and non-negative")
    if np.any(np.diff(times) < 0):
        raise ValueError("times must be non-decreasing")
    # Gershgorin bounds every |E| from h's arrays, so nothing is diagonalized
    t_max = float(times[-1])
    bound = float(np.abs(h.diagonal).max()) + 2 * float(np.abs(h.off_diagonal).max())
    if not math.isfinite(t_max * bound):  # Python floats: an overflow is inf, not a warning
        raise ValueError(f"time {t_max!r} too long: phases E * t overflow on this Hamiltonian")
    return times


def _product(v: np.ndarray, x: np.ndarray, transpose: bool = False) -> np.ndarray:
    """v @ x, or v.T @ x when transpose, for C-ordered float64 matrices, on scipy's BLAS.

    The transposed views are Fortran-ordered, so dgemm copies neither matrix,
    and the result is the C-ordered product numpy's @ would return.
    """
    from scipy.linalg.blas import dgemm  # scipy is loaded: v is a computed spectrum

    if transpose:
        return dgemm(1.0, x.T, v.T, trans_b=1).T
    return dgemm(1.0, x.T, v.T).T


def _coefficients(h: HamiltonianMatrix, amplitudes) -> tuple[np.ndarray, np.ndarray]:
    """Eigenbasis coefficients of the states as (n, k) real and imaginary parts."""
    amps = np.asarray(amplitudes, dtype=np.complex128)
    if amps.ndim not in (1, 2) or amps.shape[0] != h.dimension:
        raise ValueError("state and Hamiltonian dimensions differ")
    amps = amps.reshape(h.dimension, -1)
    k = amps.shape[1]
    # h.spectrum is read only after the shape check: a refused state never diagonalizes h
    parts = np.concatenate([amps.real, amps.imag], axis=1)
    coeffs = _product(h.spectrum.eigenvectors, parts, transpose=True)
    return coeffs[:, :k], coeffs[:, k:]


def _evolved(h: HamiltonianMatrix, c_re: np.ndarray, c_im: np.ndarray, times: np.ndarray):
    """Real and imaginary parts of the states at each time, each (n, T, k).

    The eigenvectors are real: both parts go through one real matrix product.
    """
    n, n_times, k = h.dimension, times.size, c_re.shape[1]
    phase = np.multiply.outer(h.spectrum.eigenvalues, times)[:, :, None]
    cos, sin = np.cos(phase), np.sin(phase)
    c_re, c_im = c_re[:, None, :], c_im[:, None, :]
    # exp(-i E t) (c_re + i c_im) = (cos c_re + sin c_im) + i (cos c_im - sin c_re)
    rotated = np.concatenate([cos * c_re + sin * c_im, cos * c_im - sin * c_re], axis=1)
    out = _product(h.spectrum.eigenvectors, rotated.reshape(n, 2 * n_times * k))
    out = out.reshape(n, 2 * n_times, k)
    return out[:, :n_times], out[:, n_times:]


def propagate(h: HamiltonianMatrix, amplitudes, t: float) -> np.ndarray:
    """exp(-i H t) applied to amplitudes of shape (n,) or (n, k) (k states as columns); t >= 0."""
    times = check_times(h, [t])
    re, im = _evolved(h, *_coefficients(h, amplitudes), times)
    return (re[:, 0] + 1j * im[:, 0]).reshape(np.shape(amplitudes))


def evolve(state: LatticeState, h: HamiltonianMatrix, t: float) -> LatticeState:
    """State at time t >= 0 under exp(-i H t), via h's cached spectrum."""
    return LatticeState(propagate(h, state.amplitudes, t), state.site_offset)


def _tridiagonal_matvec(diag: np.ndarray, off: np.ndarray, v: np.ndarray) -> np.ndarray:
    """H v for v of shape (n,) or (n, k); the 1-D path is the oracle's hot loop, kept as is."""
    if v.ndim == 2:
        diag, off = diag[:, None], off[:, None]
    out = diag * v
    out[:-1] += off * v[1:]
    out[1:] += off * v[:-1]
    return out


def evolve_oracle(state: LatticeState, h: HamiltonianMatrix, t: float) -> LatticeState:
    """Independent evolution: stepped Taylor series of exp(-i H t).

    The interval is split so s = ||H||_1 * step <= 2 per segment; each
    segment sums (-i step)^k H^k / k! with tridiagonal matvecs until the
    term's max-abs drops below 1e-16, and raises ArithmeticError if that
    takes more than 64 terms.  A segment's roundoff is bounded by about
    e^s times the unit roundoff, so the bound per unit time goes as e^s / s:
    nearly flat between s = 0.5 (3.30) and s = 2 (3.69), while s = 2 takes a
    quarter of the segments and a unit-norm state needs at most about 24
    terms each.  Shares no code path with evolve().
    """
    if not 0 <= t < math.inf:
        raise ValueError("t must be finite and non-negative")
    if state.n_sites != h.dimension:
        raise ValueError("state and Hamiltonian dimensions differ")
    diag = h.diagonal
    off = h.off_diagonal
    col_sums = np.abs(diag).copy()
    col_sums[:-1] += np.abs(off)
    col_sums[1:] += np.abs(off)
    norm1 = float(col_sums.max())
    steps = max(1, math.ceil(t * norm1 / _ORACLE_STEP_BUDGET))
    dt = t / steps
    psi = state.amplitudes.astype(np.complex128)
    for _ in range(steps):
        acc = psi.copy()
        term = psi.copy()
        for k in range(1, _ORACLE_MAX_TERMS + 1):
            term = (-1j * dt / k) * _tridiagonal_matvec(diag, off, term)
            acc += term
            if abs(term).max() < _ORACLE_TERM_CUTOFF:
                break
        else:
            raise ArithmeticError(f"Taylor segment did not converge in {_ORACLE_MAX_TERMS} terms")
        psi = acc
    return LatticeState(psi, state.site_offset)


def probability_profile(state: LatticeState) -> np.ndarray:
    """Site occupation probabilities |c_n|^2, in site order, summed over a payload's columns."""
    return (np.abs(state.amplitudes) ** 2).reshape(state.n_sites, -1).sum(axis=1)


def mean_position(state: LatticeState) -> float:
    """<n> over absolute site labels."""
    return float(probability_profile(state) @ state.sites)


def position_variance(state: LatticeState) -> float:
    """<n^2> - <n>^2 over absolute site labels."""
    p = probability_profile(state)
    mean = p @ state.sites
    return float(p @ (state.sites - mean) ** 2)


def energy_expectation(state: LatticeState, h: HamiltonianMatrix) -> float:
    """<H>; conserved under both evolution routes."""
    if state.n_sites != h.dimension:
        raise ValueError("state and Hamiltonian dimensions differ")
    hv = _tridiagonal_matvec(
        h.diagonal.astype(np.complex128), h.off_diagonal.astype(np.complex128), state.amplitudes
    )
    return float(np.real(np.vdot(state.amplitudes, hv)))


@dataclass(frozen=True)
class Trajectory:
    """Sampled evolution: times, absolute sites, per-time probability rows."""

    times: np.ndarray
    sites: np.ndarray
    profiles: np.ndarray
    mean_positions: np.ndarray

    def __post_init__(self) -> None:
        freeze(
            self, times=np.float64, sites=np.int64, profiles=np.float64, mean_positions=np.float64
        )
        if self.profiles.shape != (self.times.size, self.sites.size):
            raise ValueError("profiles must have shape (n_times, n_sites)")
        if self.mean_positions.shape != self.times.shape:
            raise ValueError("mean_positions must match times")


def trajectory(state: LatticeState, h: HamiltonianMatrix, times) -> Trajectory:
    """Site probabilities and mean positions on a non-decreasing time grid.

    state carries amplitudes of shape (n,) or (n, k) and their absolute
    sites; with k columns each profile row sums the columns' occupations.
    The eigenbasis coefficients are formed once and the times taken in
    fixed-size blocks, so scratch memory does not grow with the sample count.
    """
    times = check_times(h, times)
    c_re, c_im = _coefficients(h, state.amplitudes)
    profiles = np.empty((times.size, h.dimension))
    for start in range(0, times.size, _TIME_BLOCK):
        block = slice(start, start + _TIME_BLOCK)
        re, im = _evolved(h, c_re, c_im, times[block])
        profiles[block] = (np.square(re) + np.square(im)).sum(axis=2).T
    return Trajectory(times, state.sites, profiles, profiles @ state.sites)


def write_json(payload, path) -> None:
    """Indented JSON with sorted keys and a final newline.

    The text is serialized before the file is opened, so a NaN or infinite
    value raises ValueError and leaves no file behind.
    """
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", newline="") as fh:
        fh.write(text + "\n")


def write_csv(path, header: str, fmt: str, blocks) -> None:
    """Rows key,label,value from blocks (key_text, labels, values); values in %-format fmt.

    key_text and the labels (numbers) must hold no %.  A block is one % on a
    per-row template, rebuilt only for a new labels object, and written at once.
    """
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        labels_seen = None
        for key, labels, values in blocks:
            if labels is not labels_seen:
                labels_seen, rows = labels, ["", *(f",{label},{fmt}\n" for label in labels)]
            fh.write(key.join(rows) % tuple(values))


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Long-format rows t,n,P by time then site; %.17g round-trips float64 exactly."""
    sites, rows = traj.sites.tolist(), zip(traj.times.tolist(), traj.profiles)
    write_csv(path, "t,n,P", "%.17g", ((f"{t:.17g}", sites, row.tolist()) for t, row in rows))


def write_mean_position_csv(traj: Trajectory, path) -> None:
    rows = zip(traj.times.tolist(), traj.mean_positions.tolist())
    with open(path, "w", newline="") as fh:
        fh.write("t,mean_position\n" + "".join(f"{t:.17g},{m:.17g}\n" for t, m in rows))
