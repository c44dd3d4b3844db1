"""Angular-momentum decomposition of the plane problem.

For radial V the plane operator splits over integer channels m. In log
coordinates every channel reduces to the same line operator
-d^2/dt^2 - alpha G(t); channel m contributes the eigenvalues below -m^2,
so the full bound-state count is

    N(alpha) = N_0 + 2 sum_{m >= 1} N_m,
    N_m = #{ eigenvalues of (-d^2/dt^2 - alpha G) below -m^2 }.

N_m is nonincreasing in m, so the scan stops at the first empty channel;
mu_1, the lowest eigenvalue's magnitude, is an opt-in diagnostic
(channel_cutoff). Two cross-checks are built in: the one-Dirichlet-condition
sandwich (imposing u(t=0) = 0 in the m = 0 channel removes at most one
state) and the coupling-constant duality against the quadratic-form
companion spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .potentials import LogPotential, RadialPotential, to_log
from .spectral1d import (
    BoundaryMode,
    CountResult,
    GridSpec,
    bs_spectrum,
    count_below,
    count_below_fd,
    counting_domain,
    threshold_eps,
)

__all__ = [
    "ChannelConsistencyError",
    "ChannelBreakdown",
    "channel_count",
    "channel_cutoff",
    "total_count",
    "sandwich_check",
    "bs_duality_check",
]


# flags that describe a count without putting it in doubt; any other flag
# (near-threshold, pivot-shift, lambda-near-threshold, ...) does
INFORMATIONAL_FLAGS = frozenset(
    {"domain-truncated", "below-spectrum", "zero-potential"})


class ChannelConsistencyError(RuntimeError):
    """An exact structural identity between counting routes failed without
    any doubt flag to excuse it: that is a numerical bug, not a borderline
    case."""


@dataclass
class ChannelBreakdown:
    alpha: float
    per_channel: dict[int, int]       # m >= 0; |m| and -|m| share the count
    m_max: int                        # largest m with a nonzero count
    total: int
    radial_dirichlet_count: int
    method: str
    uncertainty: int = 0
    flags: tuple[str, ...] = ()
    extras: dict = field(default_factory=dict)

    @property
    def nonradial(self) -> int:
        return 2 * sum(v for m, v in self.per_channel.items() if m > 0)


def _as_log(P) -> LogPotential:
    if isinstance(P, RadialPotential):
        return to_log(P, strict=False)
    return P  # anything satisfying the line-profile protocol


def channel_count(P, alpha: float, m: int, *, engine: str = "pruefer",
                  **kw) -> CountResult:
    """Bound states in angular channel m (same count for -m)."""
    if m != int(m) or m < 0:
        raise ValueError(f"channel index must be an integer >= 0, got {m}")
    G = _as_log(P)
    eps = threshold_eps(G, alpha)
    if eps <= 0.0:
        return CountResult(0, engine, -float(m * m), BoundaryMode.WHOLE_LINE.value,
                           (0.0, 0.0), flags=("zero-potential",))
    E = -(float(m) ** 2 + eps)
    return count_below(G, alpha, E, BoundaryMode.WHOLE_LINE, engine=engine, **kw)


def channel_cutoff(P, alpha: float, *, engine: str = "pruefer",
                   rel_tol: float = 1e-6) -> tuple[int, float]:
    """(m_scan, mu_1): mu_1 is the magnitude of the lowest line eigenvalue,
    located by bisecting the counting function; channels with m >= m_scan
    are empty. Returns (0, 0.0) when there are no bound states."""
    G = _as_log(P)
    eps = threshold_eps(G, alpha)
    if eps <= 0.0:
        return 0, 0.0

    def c(e: float) -> int:
        return count_below(G, alpha, e, BoundaryMode.WHOLE_LINE,
                           engine=engine).count

    hi = -eps
    if c(hi) == 0:
        return 0, 0.0
    lo = -alpha * G.g_max * (1.0 + 1e-12) - 1e-12
    while hi - lo > rel_tol * max(1.0, abs(lo)):
        mid = 0.5 * (lo + hi)
        if c(mid) >= 1:
            hi = mid
        else:
            lo = mid
    mu1 = -0.5 * (lo + hi)
    return int(math.ceil(math.sqrt(max(mu1, 0.0)))), mu1


def total_count(P, alpha: float, *, engine: str = "pruefer",
                with_dirichlet: bool = True, **kw) -> ChannelBreakdown:
    """Count all bound states of the plane problem at coupling alpha.

    Channels are counted m = 0, 1, 2, ... up to the first empty one, m = 0
    included (N_m is nonincreasing in m). The scan ends: a channel with
    m^2 >= alpha * g_max is below the spectrum and costs no integration.
    extras["m_scan"] is that first empty channel; channel_cutoff gives mu_1.
    """
    G = _as_log(P)
    eps = threshold_eps(G, alpha)
    if eps <= 0.0:
        return ChannelBreakdown(alpha, {0: 0}, 0, 0, 0, engine,
                                flags=("zero-potential",))
    flags: set[str] = set()
    uncertainty = 0
    total = 0
    per: dict[int, int] = {}
    m = 0
    while True:
        r = channel_count(G, alpha, m, engine=engine, **kw)
        per[m] = r.count
        weight = 1 if m == 0 else 2
        total += weight * r.count
        uncertainty += weight * r.uncertainty
        flags.update(r.flags)
        if r.count == 0:
            break
        m += 1
    dir_count = 0
    if with_dirichlet:
        rd = count_below(G, alpha, -eps, BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0,
                         engine=engine, **kw)
        dir_count = rd.count
        flags.update(rd.flags)
    return ChannelBreakdown(alpha, per, max(m - 1, 0), total, dir_count, engine,
                            uncertainty, tuple(sorted(flags)), {"m_scan": m})


def sandwich_check(P, alpha: float, *, engine: str = "pruefer",
                   breakdown: ChannelBreakdown | None = None) -> dict:
    """Verify n_D <= N <= n_D + 1, where n_D replaces the m = 0 channel by
    its Dirichlet-at-origin count.

    The two routes differ by a single boundary condition, a rank-one
    restriction, so any other difference is a bug: a violation raises
    unless a flag outside INFORMATIONAL_FLAGS puts the counts in doubt, and
    a doubt flag excuses it only as far as the stated uncertainty reaches.
    """
    b = breakdown if breakdown is not None else total_count(P, alpha, engine=engine)
    n_dir_route = b.radial_dirichlet_count + b.nonradial
    diff = b.total - n_dir_route
    ok = diff in (0, 1)
    report = {
        "alpha": alpha,
        "total": b.total,
        "dirichlet_route": n_dir_route,
        "difference": diff,
        "ok": ok,
        "uncertainty": b.uncertainty,
        "flags": list(b.flags),
    }
    miss = max(-diff, diff - 1, 0)   # distance of diff from {0, 1}
    in_doubt = not set(b.flags) <= INFORMATIONAL_FLAGS
    if miss > (b.uncertainty if in_doubt else 0):
        raise ChannelConsistencyError(
            f"sandwich violated at alpha={alpha}: total={b.total}, "
            f"dirichlet route={n_dir_route}, uncertainty={b.uncertainty}")
    return report


def bs_duality_check(P, alpha: float, *, n_max: int = 48,
                     grid: GridSpec | None = None,
                     spectra: dict | None = None) -> dict:
    """Compare #{lambda_n > 1/alpha} with the direct count on one shared
    grid, where the identity is exact by matrix inertia.

    The companion spectrum does not depend on alpha. spectra, when given,
    is a dict shared by the checks of one potential: the spectrum is kept
    there under (counting window, n_max, grid) and reused by a later check
    whose key matches. Every check runs its own direct count. A mismatch
    raises unless a flag outside INFORMATIONAL_FLAGS puts it in doubt."""
    G = _as_log(P)
    eps = threshold_eps(G, alpha)
    if eps <= 0.0:
        return {"alpha": alpha, "count_spectrum": 0, "count_direct": 0,
                "ok": True, "flags": ["zero-potential"]}
    mode = BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0
    dom = counting_domain(G, alpha, -eps, mode)
    grid = grid or GridSpec()
    key = (dom, n_max, grid)
    if spectra is not None and key in spectra:
        lam, meta = spectra[key]
    else:
        lam, meta = bs_spectrum(G, mode, domain=dom, grid=grid, n_max=n_max)
        if spectra is not None:
            spectra[key] = lam, meta
    thr = 1.0 / alpha
    if np.all(lam > thr):
        raise ValueError(
            f"n_max={n_max} too small: every computed companion eigenvalue "
            f"exceeds 1/alpha at alpha={alpha}")
    count_spec = int(np.sum(lam > thr))
    flags = []
    gap = np.min(np.abs(lam - thr)) if len(lam) else math.inf
    if gap < 1e-8 * thr:
        flags.append("lambda-near-threshold")
    fd = count_below_fd(G, alpha, -1e-12 * max(alpha * G.g_max, 1.0), mode,
                        domain=meta["domain"], grid=GridSpec(h=meta["h"]),
                        near_threshold_check=False)
    ok = count_spec == fd.count
    report = {
        "alpha": alpha,
        "count_spectrum": count_spec,
        "count_direct": fd.count,
        "ok": ok,
        "flags": flags + list(fd.flags),
        "n_nodes": meta["n_nodes"],
    }
    if not ok and set(report["flags"]) <= INFORMATIONAL_FLAGS:
        raise ChannelConsistencyError(
            f"coupling-duality mismatch at alpha={alpha}: spectrum route "
            f"{count_spec}, direct route {fd.count}")
    return report
