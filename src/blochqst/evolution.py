"""Time evolution under tridiagonal Hamiltonians, two independent routes.

propagate() and trajectory() apply V diag(exp(-i E t)) V^T with the
eigenpairs (E, V) of h.spectrum, which a HamiltonianMatrix computes with
eigendecompose() (LAPACK dstevd) on its first propagation and keeps: one
chain evolved at many times is diagonalized once; a trajectory keeps its
last state.  Both check times (check_times) and amplitudes (finite, of the
chain's size) first: a refused call never diagonalizes, no E t overflows.
The spectrum costs n^2 floats (32 MB at 2,001 sites, 800 MB at MAX_SITES),
held as dstevd returns them (Fortran order, never copied), and is freed with
the Hamiltonian; a diagonalization peaks at about twice that, dstevd's n^2
workspace plus its vectors (1.6 GB at MAX_SITES).  dstevd and the eigenbasis
products' dgemm are scipy's compiled LAPACK and BLAS wrappers, loaded by the
first diagonalization in a process as standalone extension modules:
scipy.linalg itself, and with it about half a process's start-up time and a
third of its memory, is never imported.  Only where those files cannot be
loaded do the same two routines come from scipy.linalg.lapack and
scipy.linalg.blas.  Importing the package, the CLI's --help and refused
runs, and the Bessel and closed-form code load numpy only.  The products run
on scipy's BLAS, the library that diagonalized the chain, not through
numpy's @: numpy and scipy each load their own OpenBLAS with its own worker
threads, and numpy's workers, once woken by a large product, spin on the
core the eigensolver needs next.  evolve_oracle() integrates the same
dynamics by scaled-and-stepped Taylor summation of exp(-i H t) using only a
hand-rolled tridiagonal matvec.  The two share no code on purpose: their
agreement is a meaningful cross-check, and tests rely on it staying one.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .chain import HamiltonianMatrix, LatticeState, _check_phases, freeze

_ORACLE_TERM_CUTOFF = 1e-16
_ORACLE_MAX_TERMS = 64
_ORACLE_STEP_BUDGET = 2.0  # max ||H||_1 * step per Taylor segment
_TIME_BLOCK = 16  # times per eigenbasis product: scratch stays (n, 2 * 16 * k)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvector columns, read-only and never copied."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        if self.eigenvalues.flags.writeable or self.eigenvectors.flags.writeable:
            raise ValueError("eigenvalues and eigenvectors must be read-only")
        n = self.eigenvalues.size
        if self.eigenvalues.shape != (n,) or self.eigenvectors.shape != (n, n):
            raise ValueError("eigenvectors must be an n x n matrix for n eigenvalues")


def _extension(name: str):
    """The compiled scipy/linalg/<name>, loaded under its bare name: no scipy code runs."""
    scipy = importlib.util.find_spec("scipy")
    roots = (scipy and scipy.submodule_search_locations) or ()
    spec = importlib.machinery.PathFinder.find_spec(name, [os.path.join(r, "linalg") for r in roots])
    if spec is None:
        raise ImportError(f"scipy/linalg/{name} not found")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.cache
def _lapack_blas():
    """(dstevd, dgemm) from scipy's compiled wrappers, loaded once per process.

    If either extension is missing or fails to load, both come from scipy's
    public scipy.linalg.lapack and scipy.linalg.blas: the same compiled
    routines, reached through an import of scipy.linalg.
    """
    try:
        return _extension("_flapack").dstevd, _extension("_fblas").dgemm
    except ImportError:
        from scipy.linalg.blas import dgemm
        from scipy.linalg.lapack import dstevd

        return dstevd, dgemm


def eigendecompose(h: HamiltonianMatrix) -> SpectralDecomposition:
    """Full spectrum of a tridiagonal Hamiltonian, each column signed as the solver returns it.

    Propagation reads V diag(exp(-i E t)) V^T, in which a column and its transpose
    flip together and IEEE negation is exact: no output can see the signs.
    dstevd does not check its input for NaN or inf; HamiltonianMatrix refuses them.
    """
    dstevd, _ = _lapack_blas()
    eigenvalues, eigenvectors, info = dstevd(h.diagonal, h.off_diagonal, compute_v=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dstevd failed with info = {info}")
    eigenvalues.flags.writeable = eigenvectors.flags.writeable = False  # kept, not copied
    return SpectralDecomposition(eigenvalues, eigenvectors)


def check_times(h: HamiltonianMatrix, times) -> np.ndarray:
    """The times as float64: 1-d, non-empty, finite, >= 0, non-decreasing, with finite phases."""
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1d array")
    if not np.all((times >= 0) & (times < math.inf)):
        raise ValueError("times must be finite and non-negative")
    if np.any(np.diff(times) < 0):
        raise ValueError("times must be non-decreasing")
    _check_phases(float(times[-1]), h.diagonal, h.off_diagonal)
    return times


def _product(v: np.ndarray, x: np.ndarray, transpose: bool = False) -> np.ndarray:
    """v @ x, or v.T @ x when transpose, for eigenvectors v and an (n, m) block x, on scipy's BLAS.

    v goes to dgemm in the spectrum's Fortran order with no transpose flag:
    as the A operand of v @ x, and as the B operand of (x.T @ v).T.  So only
    the small x is ever copied, never v.  v @ x comes back Fortran-ordered,
    v.T @ x C-ordered.
    """
    _, dgemm = _lapack_blas()
    if transpose:
        return dgemm(1.0, x.T, v).T
    return dgemm(1.0, v, x)


def _coefficients(h: HamiltonianMatrix, amplitudes) -> tuple[np.ndarray, np.ndarray]:
    """Eigenbasis coefficients of the states as (n, k) real and imaginary parts."""
    amps = np.asarray(amplitudes, dtype=np.complex128)
    if amps.ndim not in (1, 2) or amps.shape[0] != h.dimension:
        raise ValueError("state and Hamiltonian dimensions differ")
    amps = amps.reshape(h.dimension, -1)
    k = amps.shape[1]
    if k == 0:
        raise ValueError("amplitudes must hold at least one state")
    if not np.isfinite(amps).all():
        raise ValueError("amplitudes must be finite")
    # h.spectrum is read only after these checks: a refused state never diagonalizes h
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
    """Sampled evolution: times, absolute sites, a probability row per time and the final state."""

    times: np.ndarray
    sites: np.ndarray
    profiles: np.ndarray
    mean_positions: np.ndarray
    final: np.ndarray

    def __post_init__(self) -> None:
        freeze(self, times="f8", sites="i8", profiles="f8", mean_positions="f8", final="c16")
        if self.profiles.shape != (self.times.size, self.sites.size):
            raise ValueError("profiles must have shape (n_times, n_sites)")
        if self.mean_positions.shape != self.times.shape:
            raise ValueError("mean_positions must match times")
        if self.final.shape[:1] != self.sites.shape:
            raise ValueError("final must hold one amplitude row per site")


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
    if times.size % _TIME_BLOCK != 1:  # else the last block was times[-1:] alone: the same call
        re, im = _evolved(h, c_re, c_im, times[-1:])  # alone, as propagate takes it: the same bits
    final = (re[:, -1] + 1j * im[:, -1]).reshape(state.amplitudes.shape)
    return Trajectory(times, state.sites, profiles, profiles @ state.sites, final)


_JSON_SCALARS = frozenset({str, int, float, bool, type(None)})


def _json_text(value, indent: str) -> str:
    """value as JSON text in the stdlib's indented layout, nested at this indent.

    A list or tuple of scalars is one call of json's C encoder, its items
    separated by a newline and the next indent; the stdlib's indented
    encoder is pure Python and makes a call per value.
    """
    inner = indent + "  "
    separator = ",\n" + inner
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (f"{_json_key(k)}: {_json_text(v, inner)}" for k, v in sorted(value.items()))
        return "{\n" + inner + separator.join(items) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if set(map(type, value)) <= _JSON_SCALARS:
            items = json.dumps(value, allow_nan=False, separators=(separator, ": "))[1:-1]
        else:
            items = separator.join(_json_text(v, inner) for v in value)
        return "[\n" + inner + items + "\n" + indent + "]"
    return json.dumps(value, allow_nan=False)


def _json_key(key) -> str:
    """A dict key as the stdlib writes it: quoted, an int, float, bool or None as its JSON text."""
    return json.dumps({key: 0}, allow_nan=False)[1:-4]


def write_json(payload, path) -> None:
    """Indented JSON with sorted keys and a final newline, byte for byte the stdlib's layout.

    That layout is the json module's with indent 2, sorted keys and NaN
    refused: one value per line, floats as repr, non-ASCII escaped.  The
    text is serialized before the file is opened, so a NaN or infinite value
    raises ValueError and leaves no file behind.
    """
    text = _json_text(payload, "")
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
