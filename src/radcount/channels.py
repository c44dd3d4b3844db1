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
    _counters,
    bs_spectrum,
    channel_energy,
    count_batch_fd,
    count_batch_pruefer,
    count_below,
)

__all__ = [
    "ChannelConsistencyError",
    "ChannelBreakdown",
    "channel_count",
    "total_count",
    "total_counts",
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


def channel_count(P, alpha: float, m: int, *, engine: str = "pruefer"
                  ) -> CountResult:
    """Bound states in angular channel m (same count for -m)."""
    if m != int(m) or m < 0:
        raise ValueError(f"channel index must be an integer >= 0, got {m}")
    G = _as_log(P)
    E = channel_energy(G, alpha, m)
    if E is None:
        return CountResult(0, engine, -float(m * m), BoundaryMode.WHOLE_LINE.value,
                           (0.0, 0.0), flags=("zero-potential",))
    return count_below(G, alpha, E, BoundaryMode.WHOLE_LINE, engine=engine)


# channels in the first round of a plane count; each later round holds 4
# times as many, so that a narrow spike in G, with many channels below
# alpha g_max and few that hold a state, counts few empty ones
_FIRST_CHANNELS = 16
# the widest ratio of couplings that one batch of plane counts spans
_BATCH_SPAN = 10.0


def _decades(alphas) -> list[list[float]]:
    """Ascending `alphas` cut into batches, each within a factor
    _BATCH_SPAN of its first coupling. A batch sweeps the phase mesh (or
    lays out the elements) of its largest coupling, and the mesh rule
    grows as sqrt(alpha), so no coupling of a batch is swept more than
    sqrt(_BATCH_SPAN) times finer than on its own mesh."""
    out: list[list[float]] = []
    for a in alphas:
        if out and a <= _BATCH_SPAN * out[-1][0]:
            out[-1].append(a)
        else:
            out.append([a])
    return out


def _channel_counts(G, alphas, engine: str
                    ) -> list[tuple[list[CountResult], CountResult]]:
    """For each coupling of `alphas`, the counts of channels m = 0, 1, ...
    up to the first empty one, and the Dirichlet-at-0 count, at their
    channel energies.

    Either engine counts the channels of every coupling in rounds, each
    round one batch (count_batch_pruefer, count_batch_fd), the Dirichlet-
    at-0 counts with the first: round k holds _FIRST_CHANNELS * 4^k
    channels of each coupling that has not met an empty one, none past the
    first with m^2 + threshold_eps >= alpha g_max, which is below the
    spectrum and costs nothing. Counts past a coupling's first empty
    channel are dropped, so each coupling's result is that of counting
    its channels one at a time."""
    batch = {"pruefer": count_batch_pruefer, "fd": count_batch_fd}.get(engine)
    if batch is None:
        raise ValueError(f"unknown engine {engine!r}; use 'pruefer' or 'fd'")
    per: list[list[CountResult]] = [[] for _ in alphas]
    queries = [(a, channel_energy(G, a),
                BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0) for a in alphas]
    rd = None
    live, size = range(len(alphas)), _FIRST_CHANNELS
    while live:
        owner = []
        for i in live:
            a = alphas[i]
            for m in range(len(per[i]), len(per[i]) + size):
                E = channel_energy(G, a, m)
                queries.append((a, E, BoundaryMode.WHOLE_LINE))
                owner.append(i)
                if a * G.g_max + E <= 0.0:
                    break
        got = batch(G, queries)
        if rd is None:
            rd, got = got[:len(alphas)], got[len(alphas):]
        for i, r in zip(owner, got):
            if not per[i] or per[i][-1].count:
                per[i].append(r)
        live = [i for i in live if per[i][-1].count]
        queries, size = [], 4 * size
    return list(zip(per, rd))


def total_counts(P, alphas, *, engine: str = "pruefer"
                 ) -> list[ChannelBreakdown]:
    """total_count at each coupling of `alphas`, in their order. The
    distinct couplings are counted in batches within a factor _BATCH_SPAN
    (_decades), each batch's channels in rounds (_channel_counts); each
    breakdown is that of its coupling counted alone."""
    G = _as_log(P)
    zero = {a for a in alphas if channel_energy(G, a) is None}
    got = {a: ChannelBreakdown(a, {0: 0}, 0, 0, 0, engine,
                               flags=("zero-potential",),
                               extras={"m_scan": 0, "left": 0, "right": 0})
           for a in zero}
    for batch in _decades(sorted(set(alphas) - zero)):
        for a, (per, rd) in zip(batch, _channel_counts(G, batch, engine)):
            weight = [1] + [2] * (len(per) - 1)
            m_scan = len(per) - 1
            got[a] = ChannelBreakdown(
                a, {m: r.count for m, r in enumerate(per)},
                max(m_scan - 1, 0),
                sum(w * r.count for w, r in zip(weight, per)), rd.count,
                engine, sum(w * r.uncertainty for w, r in zip(weight, per)),
                tuple(sorted(set(rd.flags).union(*(r.flags for r in per)))),
                {"m_scan": m_scan, "left": rd.extras.get("left"),
                 "right": rd.extras.get("right")})
    return [got[a] for a in alphas]


def total_count(P, alpha: float, *, engine: str = "pruefer"
                ) -> ChannelBreakdown:
    """Count all bound states of the plane problem at coupling alpha.

    Channels are counted m = 0, 1, 2, ... up to the first empty one, m = 0
    included (N_m is nonincreasing in m). The scan ends: a channel with
    m^2 >= alpha * g_max is below the spectrum and costs no integration.
    The channels, and the Dirichlet-at-0 route, are counted in rounds
    (_channel_counts); the count is total_counts of one coupling.
    extras["m_scan"] is that first empty channel; extras["left"], ["right"]
    are the Dirichlet-at-0 route's sides, the right one the half-line count.
    """
    return total_counts(P, [alpha], engine=engine)[0]


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


def bs_duality_check(P, alpha: float) -> dict:
    """Compare #{lambda_n > 1/alpha} with the direct count, the negative
    inertia of K - alpha M on the pencil that bs_spectrum solved (_counters
    at E = 0), where the identity is exact (Sylvester).

    The spectrum is solved for the values above the floor
    (1 - 1e-8)/alpha, the lower edge of the lambda-near-threshold window.
    The report's uncertainty is the number of companion eigenvalues within
    that gap of 1/alpha; a cut tail flags `domain-truncated`. A mismatch
    raises unless it is `excused` by the report's flags and that
    uncertainty."""
    G = _as_log(P)
    if channel_energy(G, alpha) is None:
        return {"alpha": alpha, "count_spectrum": 0, "count_direct": 0,
                "ok": True, "uncertainty": 0, "flags": ["zero-potential"]}
    thr = 1.0 / alpha
    lam, meta = bs_spectrum(G, floor=(1.0 - 1e-8) * thr)
    count_spec = int(np.sum(lam > thr))
    counts_at, = _counters(meta["pencil"], [alpha])
    (sides,), _, _ = counts_at(BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0, [0.0])
    count_dir = sum(sides)
    n_near = int(np.sum(np.abs(lam - thr) < 1e-8 * thr))
    flags = [f for f, on in (("lambda-near-threshold", n_near),
                             ("domain-truncated", G.truncated)) if on]
    miss = abs(count_spec - count_dir)
    report = {
        "alpha": alpha,
        "count_spectrum": count_spec,
        "count_direct": count_dir,
        "ok": miss == 0,
        "uncertainty": n_near,
        "flags": flags,
        "n_nodes": meta["n_nodes"],
    }
    if not excused(miss, flags, n_near):
        raise ChannelConsistencyError(
            f"coupling-duality mismatch at alpha={alpha}: spectrum route "
            f"{count_spec}, direct route {count_dir}, "
            f"uncertainty={n_near}")
    return report
