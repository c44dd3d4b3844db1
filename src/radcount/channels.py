"""Angular-momentum decomposition of the plane problem.

For radial V the plane operator splits over integer channels m. In log
coordinates every channel reduces to the same line operator
-d^2/dt^2 - alpha G(t); channel m contributes the eigenvalues below -m^2,
so the full bound-state count is

    N(alpha) = N_0 + 2 sum_{m >= 1} N_m,
    N_m = #{ eigenvalues of (-d^2/dt^2 - alpha G) below -m^2 }.

N_m is nonincreasing in m, so the scan stops at the first empty channel.
Two cross-checks are built in: the one-Dirichlet-condition sandwich
(imposing u(t=0) = 0 in the m = 0 channel removes at most one state) and
the coupling-constant duality against the quadratic-form companion
spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .potentials import LogPotential, RadialPotential, to_log
from .spectral1d import (
    BoundaryMode,
    CountResult,
    bs_spectrum,
    channel_energy,
    count_batch_pruefer,
    count_below,
    count_below_fd,
)

__all__ = [
    "ChannelConsistencyError",
    "ChannelBreakdown",
    "channel_count",
    "total_count",
    "excused",
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
    E = channel_energy(G, alpha, m)
    if E is None:
        return CountResult(0, engine, -float(m * m), BoundaryMode.WHOLE_LINE.value,
                           (0.0, 0.0), flags=("zero-potential",))
    return count_below(G, alpha, E, BoundaryMode.WHOLE_LINE, engine=engine, **kw)


# channels in the first pass batch of a phase-engine plane count; each
# later batch holds 4 times as many, so that a narrow spike in G, with many
# channels below alpha g_max and few that hold a state, sweeps few empty ones
_FIRST_CHANNELS = 16


def _channel_counts(G, alpha: float, engine: str, **kw
                    ) -> tuple[list[CountResult], CountResult]:
    """The counts of channels m = 0, 1, ... up to the first empty one, and
    the Dirichlet-at-0 count, at their channel energies.

    The phase engine counts the channels in batches of passes
    (count_batch_pruefer), the Dirichlet pair with the first: batch k holds
    _FIRST_CHANNELS * 4^k channels, none past the first with
    m^2 + threshold_eps >= alpha g_max, which is below the spectrum and
    costs no pass. Counts past the first empty channel are dropped, so the
    result is that of counting one channel at a time. The FD engine counts
    one channel at a time."""
    E0 = channel_energy(G, alpha)
    per: list[CountResult] = []
    if engine != "pruefer":
        while not per or per[-1].count:
            per.append(channel_count(G, alpha, len(per), engine=engine, **kw))
        return per, count_below(G, alpha, E0,
                                BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0,
                                engine=engine, **kw)
    queries = [(alpha, E0, BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0)]
    size, rd = _FIRST_CHANNELS, None
    while not per or per[-1].count:
        for m in range(len(per), len(per) + size):
            E = channel_energy(G, alpha, m)
            queries.append((alpha, E, BoundaryMode.WHOLE_LINE))
            if alpha * G.g_max + E <= 0.0:
                break
        got = count_batch_pruefer(G, queries, **kw)
        if rd is None:
            rd, *got = got
        for r in got:
            per.append(r)
            if not r.count:
                break
        queries, size = [], 4 * size
    return per, rd


def total_count(P, alpha: float, *, engine: str = "pruefer",
                **kw) -> ChannelBreakdown:
    """Count all bound states of the plane problem at coupling alpha.

    Channels are counted m = 0, 1, 2, ... up to the first empty one, m = 0
    included (N_m is nonincreasing in m). The scan ends: a channel with
    m^2 >= alpha * g_max is below the spectrum and costs no integration.
    The phase engine counts the channels, and the Dirichlet-at-0 route, in
    batches of passes on the shared mesh (_channel_counts).
    extras["m_scan"] is that first empty channel; extras["left"], ["right"]
    are the Dirichlet-at-0 route's sides, the right one the half-line count.
    """
    G = _as_log(P)
    if channel_energy(G, alpha) is None:
        return ChannelBreakdown(alpha, {0: 0}, 0, 0, 0, engine,
                                flags=("zero-potential",),
                                extras={"m_scan": 0, "left": 0, "right": 0})
    per, rd = _channel_counts(G, alpha, engine, **kw)
    flags: set[str] = set(rd.flags)
    uncertainty = 0
    total = 0
    for m, r in enumerate(per):
        weight = 1 if m == 0 else 2
        total += weight * r.count
        uncertainty += weight * r.uncertainty
        flags.update(r.flags)
    m_scan = len(per) - 1
    return ChannelBreakdown(alpha, {m: r.count for m, r in enumerate(per)},
                            max(m_scan - 1, 0), total, rd.count, engine,
                            uncertainty, tuple(sorted(flags)),
                            {"m_scan": m_scan, "left": rd.extras.get("left"),
                             "right": rd.extras.get("right")})


def excused(miss: int, flags, uncertainty: int) -> bool:
    """Whether a miss of `miss` between two counting routes is excused:
    only a flag outside INFORMATIONAL_FLAGS puts the counts in doubt, and
    doubt excuses a miss only as far as the stated uncertainty reaches."""
    in_doubt = not set(flags) <= INFORMATIONAL_FLAGS
    return miss <= (uncertainty if in_doubt else 0)


def sandwich_check(P, alpha: float, *, engine: str = "pruefer",
                   breakdown: ChannelBreakdown | None = None) -> dict:
    """Verify n_D <= N <= n_D + 1, where n_D replaces the m = 0 channel by
    its Dirichlet-at-origin count.

    The two routes differ by a single boundary condition, a rank-one
    restriction, so any other difference is a bug: a violation raises
    unless it is `excused` by the breakdown's flags and uncertainty.
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
    if not excused(miss, b.flags, b.uncertainty):
        raise ChannelConsistencyError(
            f"sandwich violated at alpha={alpha}: total={b.total}, "
            f"dirichlet route={n_dir_route}, uncertainty={b.uncertainty}")
    return report


def bs_duality_check(P, alpha: float, *, n_max: int = 48,
                     spectra: dict | None = None) -> dict:
    """Compare #{lambda_n > 1/alpha} with the direct count on one shared
    grid, where the identity is exact by matrix inertia.

    The companion spectrum does not depend on alpha, and neither does
    bs_spectrum's default window, on which it is solved. spectra, when
    given, is a dict shared by the checks of one potential: the spectrum is
    kept there under n_max and reused by a later check with the same n_max.
    Every check runs its own direct count.

    The report's uncertainty is the direct count's plus the number of
    companion eigenvalues within the lambda-near-threshold gap of 1/alpha.
    A spectrum on a grid coarsened to the node cap flags `grid-coarsened`.
    A mismatch raises unless it is `excused` by the report's flags and that
    uncertainty."""
    G = _as_log(P)
    if channel_energy(G, alpha) is None:
        return {"alpha": alpha, "count_spectrum": 0, "count_direct": 0,
                "ok": True, "uncertainty": 0, "flags": ["zero-potential"]}
    mode = BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0
    spectra = {} if spectra is None else spectra
    if n_max not in spectra:
        spectra[n_max] = bs_spectrum(G, mode, n_max=n_max)
    lam, meta = spectra[n_max]
    thr = 1.0 / alpha
    if np.all(lam > thr):
        raise ValueError(
            f"n_max={n_max} too small: every computed companion eigenvalue "
            f"exceeds 1/alpha at alpha={alpha}")
    count_spec = int(np.sum(lam > thr))
    n_near = int(np.sum(np.abs(lam - thr) < 1e-8 * thr))
    flags = ["lambda-near-threshold"] if n_near else []
    if meta["capped"]:
        flags.append("grid-coarsened")
    fd = count_below_fd(G, alpha, -1e-12 * max(alpha * G.g_max, 1.0), mode,
                        domain=meta["domain"], h=meta["h"],
                        near_threshold_check=False)
    diff = count_spec - fd.count
    uncertainty = fd.uncertainty + n_near
    report = {
        "alpha": alpha,
        "count_spectrum": count_spec,
        "count_direct": fd.count,
        "ok": diff == 0,
        "uncertainty": uncertainty,
        "flags": flags + list(fd.flags),
        "n_nodes": meta["n_nodes"],
    }
    if not excused(abs(diff), report["flags"], uncertainty):
        raise ChannelConsistencyError(
            f"coupling-duality mismatch at alpha={alpha}: spectrum route "
            f"{count_spec}, direct route {fd.count}, "
            f"uncertainty={uncertainty}")
    return report
