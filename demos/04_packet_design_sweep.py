"""How packet shape decides transfer quality: a (beta, delta) sweep.

Fixing the tilt at coupling/force = -40 (so the displacement is 40 sites)
and sweeping the envelope width beta and truncation half-width delta shows
the design trade-off:

* delta too small clips the envelope and scatters probability;
* beta too large makes the packet narrow in position, wide in quasimomentum,
  so its components disperse instead of moving as one;
* beta small and delta generous approach unit success probability.

The same grid is what the `blochqst sweep` subcommand writes to CSV.
"""

import numpy as np

from blochqst import sweep_beta_delta, write_sweep_csv

betas = np.array([0.002, 0.005, 0.01, 0.05, 0.1])
deltas = np.array([2, 6, 10, 14, 18])

sweep = sweep_beta_delta(betas, deltas, ratio=-40.0, p=40)

header = "beta \\ delta" + "".join(f"{d:>9d}" for d in deltas)
print(header)
for i, beta in enumerate(betas):
    row = "".join(f"{sweep.success[i, j]:9.4f}" for j in range(len(deltas)))
    print(f"{beta:12.3f}{row}")
print()

best = np.unravel_index(np.argmax(sweep.success), sweep.success.shape)
print(f"best cell: beta = {betas[best[0]]}, delta = {deltas[best[1]]}, "
      f"success = {sweep.success[best]:.6f}")

write_sweep_csv(sweep, "sweep_demo.csv")
print("full grid written to sweep_demo.csv")
print()

# the arrival is tied to -coupling/force: a ratio of -60 moves the packet to
# site 60, so a sweep that collects at p = 40 records its cells as failed,
# with the reason, instead of scoring them
mismatched = sweep_beta_delta([0.01], [10], ratio=-60.0, p=40)
matched = sweep_beta_delta([0.01], [10], ratio=-60.0, p=60)
print(f"ratio -60 collected at p=40: {mismatched.errors[0][2]}")
print(f"ratio -60 collected at p=60: success = {matched.success[0, 0]:.6f}")
