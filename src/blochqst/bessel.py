"""First-kind Bessel values J_n(x) for free-propagator matrix elements.

Evaluation uses Miller's downward recurrence J_{k-1} = (2k/x) J_k - J_{k+1}
started well above max(MAX_ORDER, x) from an arbitrary tiny seed, normalized
with J_0(x) + 2 sum_k J_{2k}(x) = 1.  One pass per argument fills the whole
row J_0(x) ... J_MAX_ORDER(x), and the last row is kept, so a loop over orders
at a fixed argument runs one recurrence.  Tiny arguments short-circuit to the
leading power-series terms.  The supported window is |order| <= 200,
|x| <= 100 (accuracy target 1e-12 there); inputs outside it are rejected
rather than silently degraded.
"""

from __future__ import annotations

import functools
import math

MAX_ORDER = 200
MAX_ARGUMENT = 100.0

_SERIES_CUTOFF = 1e-8
_RESCALE_LIMIT = 1e250


def bessel_jn(order: int, x: float) -> float:
    """J_order(x) for integer order, accurate to 1e-12 on the supported window."""
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    if abs(order) > MAX_ORDER:
        raise ValueError(f"|order| must not exceed {MAX_ORDER}")
    if abs(x) > MAX_ARGUMENT:
        raise ValueError(f"|x| must not exceed {MAX_ARGUMENT}")
    if not float(order).is_integer():
        raise ValueError("order must be an integer")

    n = abs(int(order))
    if x == 0.0:
        return 1.0 if n == 0 else 0.0
    value = _row(float(abs(x)))[n]
    # J_{-n}(x) = (-1)^n J_n(x),  J_n(-x) = (-1)^n J_n(x)
    return -value if n % 2 and (order < 0) != (x < 0.0) else value


@functools.lru_cache(maxsize=1)
def _row(x: float) -> tuple[float, ...]:
    """J_0(x) ... J_MAX_ORDER(x) for 0 < x <= MAX_ARGUMENT."""
    if x < _SERIES_CUTOFF:
        # leading series terms; next correction is O((x/2)^4) < 1e-33 relative
        half = 0.5 * x
        lead = 1.0  # (x/2)^n / n! without huge intermediates
        row = []
        for n in range(MAX_ORDER + 1):
            row.append(lead * (1.0 - half * half / (n + 1)))
            lead *= half / (n + 1)
        return tuple(row)

    # start above both the top order and the turning point (index ~ x), deep in
    # the regime where J decays, so the downward recurrence locks onto it
    top = max(MAX_ORDER, math.ceil(x))
    start = top + 20 + int(6.0 * math.sqrt(top))
    start += start % 2

    j_above = 0.0  # J at index k+1
    j_here = 1e-30  # J at index k
    row = []  # unnormalized J_{start-1} ... J_0, stored on the way down
    for k in range(start, 0, -1):
        j_above, j_here = j_here, (2.0 * k / x) * j_here - j_above  # now J at k-1
        row.append(j_here)
        if abs(j_here) > _RESCALE_LIMIT:
            j_here *= 1e-250
            j_above *= 1e-250
            row[:] = [value * 1e-250 for value in row]
    row.reverse()
    norm = row[0] + 2.0 * math.fsum(row[2::2])  # J_0 + 2 sum_k J_2k = 1
    return tuple([value / norm for value in row[: MAX_ORDER + 1]])
