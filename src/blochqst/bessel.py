"""First-kind Bessel values J_n(x) for free-propagator matrix elements.

Evaluation uses Miller's downward recurrence J_{k-1} = (2k/x) J_k - J_{k+1}
started well above max(MAX_ORDER, x) from an arbitrary tiny seed, normalized
with J_0(x) + 2 sum_k J_{2k}(x) = 1.  One pass per argument fills the whole
signed row J_{-MAX_ORDER}(x) ... J_MAX_ORDER(x), and the last row is kept, so
a loop over orders at a fixed argument runs one recurrence.  Tiny arguments
short-circuit to the leading power-series terms.  The supported window is
|order| <= 200, |x| <= 100 (accuracy target 1e-12 there); inputs outside it
are rejected rather than silently degraded.
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
    k = row_index(order)
    return bessel_row(x)[k]


def row_index(order) -> int:
    """Index of J_order in bessel_row's row; refuses an order out of the window or not integral."""
    if abs(order) > MAX_ORDER:
        raise ValueError(f"|order| must not exceed {MAX_ORDER}")
    if not float(order).is_integer():
        raise ValueError("order must be an integer")
    return int(order) + MAX_ORDER


@functools.lru_cache(maxsize=1)
def bessel_row(x: float) -> tuple[float, ...]:
    """J_m(x) for m = -MAX_ORDER ... MAX_ORDER, J_m at index m + MAX_ORDER.

    x is checked on a cache miss only: a refused x is never cached.
    """
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    if abs(x) > MAX_ARGUMENT:
        raise ValueError(f"|x| must not exceed {MAX_ARGUMENT}")
    if x == 0.0:
        return (0.0,) * MAX_ORDER + (1.0,) + (0.0,) * MAX_ORDER
    half = _unsigned_row(float(abs(x)))
    # J_{-n}(y) = (-1)^n J_n(y),  J_n(-y) = (-1)^n J_n(y)
    odd_negated = [-value if n % 2 else value for n, value in enumerate(half)]
    below, above = (odd_negated, half) if x > 0.0 else (half, odd_negated)
    return tuple(below[:0:-1] + above)


def _unsigned_row(x: float) -> list[float]:
    """J_0(x) ... J_MAX_ORDER(x) for 0 < x <= MAX_ARGUMENT."""
    if x < _SERIES_CUTOFF:
        # leading series terms; next correction is O((x/2)^4) < 1e-33 relative
        half = 0.5 * x
        lead = 1.0  # (x/2)^n / n! without huge intermediates
        row = []
        for n in range(MAX_ORDER + 1):
            row.append(lead * (1.0 - half * half / (n + 1)))
            lead *= half / (n + 1)
        return row

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
    return [value / norm for value in row[: MAX_ORDER + 1]]
