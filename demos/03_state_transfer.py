"""One complete transfer: truncated Gaussian from site 0 to site 40.

Choosing force = -coupling / p parks the half-period displacement exactly on
the target site p.  The packet arrives after T_B / 2 = pi p / coupling as the
same envelope with an alternating sign per site.
"""

import numpy as np

from blochqst import align_global_phase, build_tilted_hamiltonian, evolve, plan_transfer, run_transfer, success_probability
from blochqst.transfer import truncated_gaussian

plan = plan_transfer(p=40, beta=0.01, delta=16)

print(f"chain [{plan.chain.left}, {plan.chain.right}], force {plan.chain.force}")
print(f"transfer time T_B / 2 = {plan.transfer_time:.6f}")
print()

final, success = run_transfer(plan)
print(f"success probability within +/-{plan.gauss.delta} of site 40: {success:.6f}")
for window in (5, 10, 16):
    print(f"  window +/-{window:2d}: {success_probability(final, 40, window):.6f}")
print()

# the arrival profile: envelope over sites 24..56, sign flipping site to site
aligned = align_global_phase(final)
print("site    amplitude (global phase aligned)")
for n in range(36, 45):
    a = aligned.amplitudes[n - plan.chain.left]
    # round(x, 6) + 0.0 turns a rounded -0.0 into 0.0: no roundoff flips a printed sign
    re, im = round(a.real, 6) + 0.0, round(a.imag, 6) + 0.0
    print(f"{n:4d}   {re:+.6f} {im:+.6f}j")
print()

# a crude bar chart of the arrival probabilities around the target
profile = np.abs(final.amplitudes) ** 2
peak = profile.max()
print("arrival probability profile (sites 20..60):")
for n in range(20, 61, 2):
    p = profile[n - plan.chain.left]
    bar = "#" * int(round(40 * p / peak))
    print(f"{n:4d} {p:8.5f} {bar}")
