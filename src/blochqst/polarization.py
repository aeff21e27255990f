"""A two-level payload riding on the lattice packet.

The chain Hamiltonian never couples to polarization, so a product state
(packet) x (qubit) stays a product under evolution: each polarization block
is propagated by the same site dynamics: evolution.propagate takes the two
blocks as two columns on the chain Hamiltonian's one cached spectrum.
Component order is (down, up) with sigma_z |up> = +|up>.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import NORM_TOL, HamiltonianMatrix, LatticeState, freeze
from .evolution import propagate


@dataclass(frozen=True)
class PolarizationQubit:
    """Normalized two-component polarization state (down, up)."""

    components: np.ndarray

    def __post_init__(self) -> None:
        freeze(self, components=np.complex128)
        if self.components.shape != (2,):
            raise ValueError("components must have shape (2,)")
        if not abs(np.linalg.norm(self.components) - 1.0) <= NORM_TOL:
            raise ValueError("qubit must be normalized")

    def to_json_pairs(self) -> list:
        """[[re, im], [re, im]] for the down and up components."""
        return [[float(c.real), float(c.imag)] for c in self.components]

    @classmethod
    def from_json_pairs(cls, pairs) -> "PolarizationQubit":
        if len(pairs) != 2:
            raise ValueError("expected two [re, im] pairs")
        comps = np.array([complex(re, im) for re, im in pairs])
        return cls(comps)


@dataclass(frozen=True)
class PolarizedLatticeState:
    """Site-by-polarization amplitudes, shape (n_sites, 2), unit total norm."""

    amplitudes: np.ndarray
    site_offset: int

    def __post_init__(self) -> None:
        freeze(self, amplitudes=np.complex128)
        amps = self.amplitudes
        if amps.ndim != 2 or amps.shape[0] == 0 or amps.shape[1] != 2:
            raise ValueError("amplitudes must have shape (n_sites, 2)")
        if not abs(np.linalg.norm(amps) - 1.0) <= NORM_TOL:
            raise ValueError("state must be normalized")

    @property
    def n_sites(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def sites(self) -> np.ndarray:
        return np.arange(self.site_offset, self.site_offset + self.n_sites)

    def site_probabilities(self) -> np.ndarray:
        """Occupation per site, polarization traced out."""
        return np.sum(np.abs(self.amplitudes) ** 2, axis=1)


def attach_polarization(state: LatticeState, qubit: PolarizationQubit) -> PolarizedLatticeState:
    """Product state packet x qubit."""
    amps = np.outer(state.amplitudes, qubit.components)
    return PolarizedLatticeState(amps, state.site_offset)


def evolve_polarized(
    state: PolarizedLatticeState, h: HamiltonianMatrix, t: float
) -> PolarizedLatticeState:
    """Evolve both polarization blocks under the same chain Hamiltonian.

    The blocks are the two columns of one propagation.  Polarization
    populations are conserved, and an identically zero block stays exactly
    zero.
    """
    return PolarizedLatticeState(propagate(h, state.amplitudes, t), state.site_offset)


def extract_qubit(
    state: PolarizedLatticeState, window_lo: int, window_hi: int
) -> tuple[PolarizationQubit, float]:
    """Read the payload back from a site window [window_lo, window_hi].

    Returns (qubit, capture probability).  The qubit is the principal
    eigenvector of the windowed reduced polarization density matrix, with
    its largest-magnitude component rotated real positive.  Zero capture
    probability is an error.
    """
    if window_lo > window_hi:
        raise ValueError("window_lo must not exceed window_hi")
    lo = window_lo - state.site_offset
    hi = window_hi - state.site_offset
    if lo < 0 or hi >= state.n_sites:
        raise ValueError("window outside the state's sites")
    block = state.amplitudes[lo : hi + 1]
    capture = float(np.sum(np.abs(block) ** 2))
    if capture == 0.0:
        raise ValueError("zero capture probability in the window")
    rho = (block.T @ block.conj()) / capture
    _, vecs = np.linalg.eigh(rho)
    principal = vecs[:, -1]
    pivot = principal[np.argmax(np.abs(principal))]
    principal = principal * np.conj(pivot / abs(pivot))
    return PolarizationQubit(principal), capture


def bloch_vector(qubit: PolarizationQubit) -> np.ndarray:
    """(x, y, z) Pauli expectation values; unit length for any pure qubit."""
    down, up = qubit.components
    cross = np.conj(down) * up
    return np.array(
        [2.0 * cross.real, -2.0 * cross.imag, abs(up) ** 2 - abs(down) ** 2]
    )
