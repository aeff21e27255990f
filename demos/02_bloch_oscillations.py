"""Bloch oscillations: breathing of a sharp state vs swinging of a wide packet.

A linear tilt F turns the band into a Wannier-Stark ladder with level spacing
F d, so every observable is periodic with the Bloch period T_B = 2 pi / |F| d.
How the motion looks depends on the initial state:

* a single-site excitation has no mean momentum and breathes symmetrically,
  reaching half-width ~2|gamma| at T_B/2 and refocusing at T_B;
* a packet wide in position (narrow in quasimomentum) swings as a whole,
  its centre tracing -gamma C (1 - cos(2 pi t / T_B)).  The tilt shifts
  every quasimomentum k alike, so a plane wave k moves
  -gamma cos k (1 - cos(2 pi t / T_B)); C = Re sum conj(psi_n) psi_(n+1) is
  <cos k> over the initial packet, just below 1 for a wide one.
"""

import numpy as np

from blochqst import ChainSpec, build_tilted_hamiltonian, evolve, mean_position, position_variance, tilt_parameters
from blochqst.transfer import TruncatedGaussianSpec, gaussian_state, sharp_state

force = -1.0 / 20.0
chain = ChainSpec(coupling=1.0, force=force, left=-45, right=65, target=20)
h = build_tilted_hamiltonian(chain)
tilt = tilt_parameters(chain)

print(f"force {force}: gamma = {tilt.gamma}, Bloch period T_B = {tilt.bloch_period:.4f}")
print(f"half-period displacement -2 gamma = {tilt.displacement} sites")
print()

fractions = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
times = fractions * tilt.bloch_period

sharp = sharp_state(chain)
wide = gaussian_state(TruncatedGaussianSpec(beta=0.01, delta=8), chain)
spread = float(np.real(np.vdot(wide.amplitudes[:-1], wide.amplitudes[1:])))
print(f"wide packet: C = <cos k> = {spread:.6f}")
print()

print("          sharp state             wide packet (beta=0.01, delta=8)")
print("t/T_B     <n>      rms width      <n>       predicted <n>")
for f, t in zip(fractions, times):
    s = evolve(sharp, h, float(t))
    w = evolve(wide, h, float(t))
    predicted = -tilt.gamma * spread * (1.0 - np.cos(2.0 * np.pi * f))
    # round(x, 3) + 0.0 turns a rounded -0.0 into 0.0: no roundoff flips a printed sign
    means = (mean_position(s), mean_position(w), predicted)
    s_mean, w_mean, predicted = (round(x, 3) + 0.0 for x in means)
    print(f"{f:4.2f}   {s_mean:7.3f}   {np.sqrt(position_variance(s)):9.3f}"
          f"   {w_mean:8.3f}   {predicted:8.3f}")

print()
print("the sharp state spreads and refocuses without moving; the wide packet")
print("shuttles to -2 gamma C and returns, which is the transfer mechanism")
