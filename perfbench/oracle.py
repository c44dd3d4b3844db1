"""Bessel-zero oracle for the unit disk well (the bundled `square-well`).

Channel m of the disk of radius 1 and depth alpha holds one bound state per
positive zero of J_m below sqrt(alpha), plus one more when the boundary
log-derivative sqrt(alpha) J_m'(sqrt(alpha)) / J_m(sqrt(alpha)) lies below
-m.  The formula never touches radcount's ODE or matrix code, so it checks
the whole counting pipeline at any coupling, not only at pinned ones.
"""
from __future__ import annotations

import functools

import numpy as np
from scipy.special import jn_zeros, jv, jvp


def disk_channel_oracle(alpha: float, m: int) -> int:
    s = np.sqrt(alpha)
    zeros = jn_zeros(m, max(8, int(s / np.pi) + 8))
    n = int(np.sum(zeros < s))
    if s * jvp(m, s) / jv(m, s) < -float(m):
        n += 1
    return n


@functools.lru_cache(maxsize=None)
def disk_total_oracle(alpha: float) -> tuple[dict[int, int], int]:
    """(per-channel counts up to the first empty m >= 1, plane total)."""
    per = {}
    m = 0
    while True:
        per[m] = disk_channel_oracle(alpha, m)
        if m > 0 and per[m] == 0:
            break
        m += 1
    total = per[0] + 2 * sum(v for k, v in per.items() if k > 0)
    return per, total
