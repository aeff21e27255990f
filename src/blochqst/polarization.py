"""A polarization qubit carried by the lattice packet.

The chain Hamiltonian never couples to polarization, so a product state
(packet) x (qubit) stays a product under evolution.  The payload is an
ordinary LatticeState whose amplitudes are two columns, one per
polarization component; evolution, trajectories and the observables treat
it like any other state, each column under the same site dynamics.  This
module builds such a state, reads the qubit back from a site window by
success_probability's range rule, chain.site_rows, and gives its Bloch
vector.  Component order is (down, up) with sigma_z |up> = +|up>.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import NORM_TOL, HamiltonianMatrix, LatticeState, freeze, site_rows
from .evolution import evolve


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
        """[[re, im], [re, im]] for the down and up components; + 0.0 writes a -0.0 as 0.0."""
        return [[float(c.real) + 0.0, float(c.imag) + 0.0] for c in self.components]

    @classmethod
    def from_json_pairs(cls, pairs) -> "PolarizationQubit":
        if len(pairs) != 2:
            raise ValueError("expected two [re, im] pairs")
        comps = np.array([complex(re, im) for re, im in pairs])
        return cls(comps)


def _check_payload(state: LatticeState) -> None:
    """Refuse a state whose amplitudes are not the two qubit columns (down, up)."""
    if state.amplitudes.shape[1:] != (2,):
        raise ValueError("amplitudes must have shape (n_sites, 2)")


def attach_polarization(state: LatticeState, qubit: PolarizationQubit) -> LatticeState:
    """Product state packet x qubit: column j is the packet times component j."""
    return LatticeState(np.multiply.outer(state.amplitudes, qubit.components), state.site_offset)


def evolve_polarized(state: LatticeState, h: HamiltonianMatrix, t: float) -> LatticeState:
    """evolution.evolve for a qubit payload: both columns under the same chain Hamiltonian.

    Polarization populations are conserved, and an identically zero column
    stays exactly zero.
    """
    _check_payload(state)
    return evolve(state, h, t)


def extract_qubit(
    state: LatticeState, window_lo: int, window_hi: int
) -> tuple[PolarizationQubit, float]:
    """Read the payload back from the site window [window_lo, window_hi], by chain.site_rows.

    Returns (qubit, capture probability).  The qubit is the principal
    eigenvector of the windowed reduced polarization density matrix, with
    its largest-magnitude component rotated real positive.  Zero capture
    probability is an error.
    """
    _check_payload(state)
    block = state.amplitudes[site_rows(window_lo, window_hi, state.site_offset, state.n_sites)]
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
