"""Carrying a polarization qubit through a transfer.

The chain Hamiltonian never touches the polarization, so a payload attached
to the packet rides along untouched: the Bloch vector read out at the target
equals the one written in, and the capture probability equals the spatial
success probability of the bare transfer.
"""

import numpy as np

from blochqst import (
    PolarizationQubit,
    attach_polarization,
    bloch_vector,
    build_tilted_hamiltonian,
    evolve,
    evolve_polarized,
    extract_qubit,
    plan_transfer,
    success_probability,
)
from blochqst.transfer import truncated_gaussian

plan = plan_transfer(p=40, beta=0.01, delta=16)
psi0 = truncated_gaussian(plan.gauss, plan.chain)
# one Hamiltonian for both runs, so the chain is diagonalized once
h = build_tilted_hamiltonian(plan.chain)
target = plan.chain.target
window = plan.gauss.delta
spatial_success = success_probability(evolve(psi0, h, plan.transfer_time), target, window)

# payload: an elliptic polarization state, components ordered (down, up)
qubit_in = PolarizationQubit(np.array([0.6, 0.8j]))
# np.round(x, 12) + 0.0 turns a rounded -0.0 into 0.0: no roundoff flips a printed sign
print(f"payload Bloch vector in:  {np.round(bloch_vector(qubit_in), 12) + 0.0}")

carried = attach_polarization(psi0, qubit_in)
arrived = evolve_polarized(carried, h, plan.transfer_time)
qubit_out, capture = extract_qubit(arrived, target - window, target + window)

print(f"payload Bloch vector out: {np.round(bloch_vector(qubit_out), 12) + 0.0}")
fidelity = abs(np.vdot(qubit_in.components, qubit_out.components)) ** 2
print()
print(f"readout fidelity:          {fidelity:.15f}")
print(f"capture probability:       {capture:.15f}")
print(f"bare spatial success:      {spatial_success:.15f}")
print(f"difference:                {abs(capture - spatial_success):.2e}")
