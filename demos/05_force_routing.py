"""Routing by tilt: one packet shape, four destinations.

The destination is -coupling / force, so re-biasing the same chain steers
the same input packet to a different site; nothing about the packet changes.
Each leg runs for its own half Bloch period pi / |force|.
"""

import numpy as np

from blochqst import plan_route, route

forces = [-1.0 / 80.0, -1.0 / 60.0, -1.0 / 50.0, -1.0 / 40.0]
delta = 10
result = route(plan_route(beta=0.01, delta=delta, forces=forces), samples=65)

print("force        target   arrival time   success   window centroid")
for leg in result.legs:
    sites = leg.trajectory.sites
    lo = leg.target - delta - sites[0]
    window_sites = sites[lo : lo + 2 * delta + 1]
    window_probs = leg.output_profile[lo : lo + 2 * delta + 1]
    centroid = float(np.sum(window_sites * window_probs) / np.sum(window_probs))
    print(f"{leg.force:+.6f}   {leg.target:4d}   {leg.trajectory.times[-1]:12.4f}"
          f"   {leg.success:7.4f}   {centroid:11.3f}")

print()
print("packet centre along the way (every 16th sample), one column per leg:")
sample_rows = range(0, 65, 16)
print("fraction " + "".join(f"  to {leg.target:3d}" for leg in result.legs))
for i in sample_rows:
    # round(x, 2) + 0.0 turns a rounded -0.0 into 0.0: no roundoff flips a printed sign
    means = (leg.trajectory.mean_positions[i] for leg in result.legs)
    cells = "".join(f" {round(m, 2) + 0.0:7.2f}" for m in means)
    print(f"  {i / 64:5.2f}  {cells}")
