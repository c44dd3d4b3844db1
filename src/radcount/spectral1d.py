"""Counting eigenvalues of -d^2/dt^2 - alpha G(t) below E < 0.

Two independent engines, which share only the mesh rule of G:

  * count_below_pruefer: phase-plane shooting. The phase solves
    theta' = cos^2 theta + (E + alpha G) sin^2 theta; solution zeros are the
    (monotone) crossings of multiples of pi, and on the whole line the
    decaying-solution boundary conditions are a left initial phase
    atan(1/kappa) plus an exact rule for one extra zero beyond the right
    endpoint. A pass carries (u, u') over a mesh by a fourth-order Magnus
    propagator, closed-form on each interval from w = E + alpha G at its
    two Gauss points, and counts the zeros of u on each interval in closed
    form; the phase is pi * zeros + (atan2(u, u') mod pi). The mesh is
    fitted to G at one alpha (every breakpoint of G and t = 0 are nodes,
    and a step is held to about half a radian of the deepest channel and
    to a bounded change of alpha G), so every channel m, whose
    w = alpha G - m^2 is below the m = 0 one, sweeps the same mesh. Every
    pass is redone on the bisected mesh, and the spread of the two final
    phases is its error statement; a pass that does not settle within
    1e-8 is bisected again, up to a fixed depth, and is flagged if it
    never does. A pass runs only where the count is decided. On the whole
    line it starts left of the first allowed point, where the decaying
    phase is pinned: a phase error there contracts by
    exp(-2 int sqrt(-w)); and never before the support of G, where that
    phase atan2(1, kappa) is a fixed point. Beyond the support of G, w = E
    is constant, and that stretch is mapped in closed form.

    Passes run in batches (count_batch_pruefer), since every channel is
    the same line operator at a shifted energy on the same mesh: at each
    bisection level G is read once, without alpha, at the Gauss points of
    every live pass, and the Magnus coefficients, the products of the
    maps of each bisected mesh interval and the zero counts of every pass
    come from numpy calls; the (u, u') recurrence, the one loop left in
    Python, steps once per mesh interval per level. A block holds at most
    _BATCH_INTERVALS intervals. Each pass keeps its own settle test. One
    scan of G finds the lead-in start of every whole-line pass of a batch.
    A count alone is a batch of one; a plane count (channels.total_counts)
    sends the channels with m^2 < alpha g_max of each of its couplings in
    rounds that grow 4x, one batch per round, with the Dirichlet-at-0
    passes in the first, and drops every count past a coupling's first
    empty channel.

    A query carries its own coupling, and each pass forms w = E + alpha G
    from the one read of G, so a batch may mix couplings: a plane count
    batches couplings within a factor 10 (a `sweep`'s rows, `verify`'s
    couplings), and cli `verify` sends its random engine-agreement
    instances as one. It sweeps the mesh of its largest coupling. The
    mesh rule, h sqrt(alpha max |G|) <= 1/2 and
    h^2 alpha (max G - min G) <= 1/4 on every interval, is monotone in
    alpha: an interval that meets it at the largest coupling meets it at
    every smaller one, so that mesh is only finer there. The
    mesh depends on the batch alone, so the same batch always gives the
    same phases; a batch at one coupling sweeps that coupling's mesh, as
    a count alone does.

  * count_below_fd: by Glazman's lemma, the negative inertia of the
    quadratic form of -d^2/dt^2 - alpha G - E on Gauss-Lobatto-Legendre
    spectral elements laid on the phase mesh at a fraction of the coupling
    (_elements), with the decaying tail's Robin term at an open end
    (_counters); fd is its historical name. A batch lays its elements out
    once, for its largest coupling, and counts the probes of all its
    queries at one (coupling, mode) in one call; a plane count sends the
    phase engine's batches, couplings and rounds.

A count whose lead-in scan, mesh or element layout would hold more than
_N_CAP points is refused with a ValueError before anything is allocated.

On top of the counters: eigenvalue location by bisection of the counting
function, in rounds, each round's midpoints counted in one call; and on
the same element layout the quadratic-form spectrum of the
Birman-Schwinger companion (G u, u) / (u', u') (bs_spectrum), whose
values above 1/alpha count the bound states with u(0) = 0 at coupling
alpha; the duality check counts that pencil at E = 0 directly.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .potentials import _unique_sorted

__all__ = [
    "BoundaryMode",
    "CountResult",
    "threshold_eps",
    "channel_energy",
    "counting_domain",
    "count_below_pruefer",
    "count_batch_pruefer",
    "count_below_fd",
    "count_batch_fd",
    "count_below",
    "eigenvalues_below",
    "bs_spectrum",
]


class BoundaryMode(str, Enum):
    WHOLE_LINE = "whole-line"
    HALF_LINE_DIRICHLET = "half-line-dirichlet"
    WHOLE_LINE_DIRICHLET_AT_0 = "whole-line-dirichlet-at-0"


@dataclass
class CountResult:
    count: int
    method: str
    energy: float
    mode: str
    domain: tuple[float, float]
    steps: int = 0
    uncertainty: int = 0
    flags: tuple[str, ...] = ()
    extras: dict = field(default_factory=dict)


# fraction of the energy scale alpha * max G that threshold_eps puts below 0
THRESHOLD_FRAC = 1e-9


def threshold_eps(G, alpha: float) -> float:
    """Offset below 0 used to stand in for 'strictly negative':
    THRESHOLD_FRAC of the natural energy scale alpha * max G."""
    return THRESHOLD_FRAC * alpha * G.g_max


def channel_energy(G, alpha: float, m: int = 0) -> float | None:
    """Energy at which channel m is counted: -(m^2 + threshold_eps), just
    below its threshold -m^2. None when G = 0: no channel holds a state.
    A non-positive or non-finite alpha raises the engines' ValueError."""
    _check_alpha(alpha)
    eps = threshold_eps(G, alpha)
    if eps <= 0.0:
        return None
    return -(float(m) ** 2 + eps)


def counting_domain(G, alpha: float, E: float,
                    mode: BoundaryMode = BoundaryMode.WHOLE_LINE
                    ) -> tuple[float, float]:
    """Window [A, B] for the counting problem: the mass window of G plus a
    decay pad ~ -ln(1e-8)/kappa for the evanescent tails, capped at 40."""
    T_minus, T_plus = G.domain_hint
    kappa = math.sqrt(max(-E, 1e-30))
    pad = min(-math.log(1e-8) / kappa, 40.0)
    if mode == BoundaryMode.HALF_LINE_DIRICHLET:
        return 0.0, max(T_plus, 0.0) + pad
    if mode == BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0:
        return min(T_minus, 0.0) - pad, max(T_plus, 0.0) + pad
    return T_minus - pad, T_plus + pad


def _check_alpha(alpha: float) -> None:
    if not alpha > 0.0:
        raise ValueError(f"need alpha > 0, got {alpha}")
    if alpha == math.inf:
        raise ValueError(f"need alpha > 0 and finite, got {alpha}")


def _validate(alpha: float, E: float) -> None:
    _check_alpha(alpha)
    if not (E < 0.0 and math.isfinite(E)):
        raise ValueError(f"need E < 0 (continuous spectrum starts at 0), got {E}")


# ---------------------------------------------------------------------------
# phase (shooting) engine

# an error in the phase entering the allowed region shrinks by
# exp(-2 _LEAD_IN) = 1e-12 over the lead-in where a whole-line pass starts
_LEAD_IN = 0.5 * math.log(1e12)
# cells in the first chunk of a lead-in that _lead_in sums back from the
# first allowed point (_sum_back)
_HEAD_CHUNK = 256

# the mesh rule, absolute in w = E + alpha G: on every interval,
# h sqrt(alpha max |G|) <= _MESH_TURN and
# h^2 alpha (max G - min G) <= _MESH_KICK
_MESH_TURN = 0.5
_MESH_KICK = 0.25
# a pass is redone on the bisected mesh until its final phase moves by at
# most _SPREAD_TOL, bisecting at most _MAX_LEVEL times
_SPREAD_TOL = 1e-8
_MAX_LEVEL = 8
# intervals that one block of a batch sweep holds (_magnus_sweep): the
# coefficients and the u history of that many intervals, over the passes
# or parts of passes in the block, are held at a time
_BATCH_INTERVALS = 4096
# Gauss points t + (1/2 -+ _GAUSS) h of an interval, and the weight of the
# commutator term of the fourth-order Magnus exponent
_GAUSS = math.sqrt(3.0) / 6.0
_MAGNUS_C = math.sqrt(3.0) / 12.0
# the most points of a lead-in scan, a phase mesh or an element layout,
# and the most entries of bs_spectrum's pencil: a count or a spectrum that
# needs more is refused with a ValueError
_N_CAP = 3_000_000


def _mesh_nodes(G, alpha: float, lo: float, hi: float, *,
                named: float | None = None) -> np.ndarray:
    """Nodes on [lo, hi] that meet the mesh rule. Every breakpoint of G in
    (lo, hi) and t = 0 are nodes. An interval that fails the rule at its
    Gauss points and its ends (one ulp inside) is split evenly into as many
    parts as the rule asks for, or in two where it asks for more than four,
    so that the mesh grades with G, until none fails. The rule bounds w,
    not the change of G relative to G, so a tail where alpha G is small
    gets long intervals. A mesh of more than _N_CAP nodes is refused before
    it is built, and so is one whose coupling scale alpha max G overflows,
    before the first round; the refusal names the coupling `named` (by
    default alpha), the one the count was asked for."""
    named = alpha if named is None else named
    if not math.isfinite(alpha * G.g_max):
        raise ValueError(f"alpha={named}: the phase mesh needs more than "
                         f"{_N_CAP} nodes, past {_N_CAP}")
    cuts = [lo, hi] + [p for p in (*G.breakpoints, 0.0) if lo < p < hi]
    t = _unique_sorted(np.array(cuts, dtype=float))
    while True:
        a, b = t[:-1], t[1:]
        h = b - a
        mid, d = 0.5 * (a + b), _GAUSS * h
        g = np.asarray(G.eval(np.concatenate(
            [np.nextafter(a, b), mid - d, mid + d, np.nextafter(b, a)])),
            dtype=float).reshape(4, -1)
        top = np.max(np.abs(g), axis=0)
        rise = np.max(g, axis=0) - np.min(g, axis=0)
        parts = np.ceil(np.maximum(h * np.sqrt(alpha * top) / _MESH_TURN,
                                   h * np.sqrt(alpha * rise / _MESH_KICK)))
        if not np.any(parts > 1.0):
            return t
        k = np.where(parts > 4.0, 2.0, np.maximum(parts, 1.0)).astype(np.int64)
        if k.sum() >= _N_CAP:
            raise ValueError(f"alpha={named}: the phase mesh needs more than "
                             f"{int(k.sum())} nodes, past {_N_CAP}")
        at = np.repeat(np.arange(k.size), k)
        j = np.arange(at.size) - np.repeat(np.cumsum(k) - k, k)
        t = np.append(a[at] + h[at] * (j / k[at]), t[-1])


def _span(G) -> tuple[float, float]:
    """The span where a pass on any counting window can run: the widest
    window, counting_domain's in the Dirichlet-at-0 mode at E = 0, cut to
    the support of G joined with t = 0."""
    A, B = counting_domain(G, 1.0, 0.0, BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0)
    t_lo, t_hi = G.t_support
    return max(A, min(t_lo, 0.0)), min(B, max(t_hi, 0.0))


def _mesh(G, alpha: float, p: float, q: float) -> np.ndarray:
    """The nodes of the mesh of G at alpha over _span joined with [p, q].
    The mesh lives on G, one entry for one (alpha, span), built when a
    pass first needs it."""
    lo, hi = _span(G)
    span = (min(lo, p), max(hi, q))
    if G.phase_mesh is None or G.phase_mesh[0] != (alpha, span):
        G.phase_mesh = ((alpha, span), _mesh_nodes(G, alpha, *span))
    return G.phase_mesh[1]


def _level_intervals(G, nodes: np.ndarray, passes, level: int
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """(h, w1, w2, cuts) of the passes (alpha, E, a, z, ...) on the mesh
    `nodes` at bisection level `level`, one after another: pass i meets
    intervals cuts[i]:cuts[i+1], in that order. The mesh nodes strictly
    between a and z cut [a, z] into [p, node k0], the mesh intervals
    between, and [node k1-1, q] (or [p, q] alone when no node lies
    inside), so a pass that starts or ends between two nodes enters or
    leaves through a partial interval, and every interval is bisected
    `level` times. w1 and w2 are w = E + alpha G at the first and the
    second Gauss point met; a Gauss point lies inside its interval, so G is
    read inside its pieces. With z < a a pass walks the mirrored
    intervals, right to left, and meets each right Gauss point first.

    G is read once for the batch, without alpha: at the Gauss points of the
    mesh intervals that some pass crosses whole, which every pass through
    them shares, and of each pass's partial end intervals. Each pass is
    gathered from slices of that read and forms E + alpha G at its own
    coupling. Each point is the one the pass alone would read on this mesh,
    and alpha (G[k]) equals (alpha G)[k] bit for bit, so its arrays do not
    depend on the batch."""
    ends = [sorted(ps[2:4]) for ps in passes]
    # the first node > p, and one past the last node < q
    k0s = np.searchsorted(nodes, [p for p, _ in ends], "right").tolist()
    k1s = np.searchsorted(nodes, [q for _, q in ends], "left").tolist()
    whole = [(k0, k1 - 1) for k0, k1 in zip(k0s, k1s) if k1 - 1 > k0]
    k_lo = min((k for k, _ in whole), default=0)
    k_hi = max((k for _, k in whole), default=0)
    # the intervals read: mesh intervals k_lo..k_hi-1, then the end pieces
    # of each pass; a pass is runs (start, stop) of them in the order of t
    lo: list = []
    hi: list = []
    plan = []
    for (p, q), k0, k1 in zip(ends, k0s, k1s):
        first = k_hi - k_lo + len(lo)
        if k1 > k0:
            lo += [p, nodes[k1 - 1]]
            hi += [nodes[k0], q]
            plan.append([(first, first + 1), (k0 - k_lo, k1 - 1 - k_lo),
                         (first + 1, first + 2)])
        else:
            lo.append(p)
            hi.append(q)
            plan.append([(first, first + 1)])
    lo = np.concatenate([nodes[k_lo:k_hi], lo])
    hi = np.concatenate([nodes[k_lo + 1:k_hi + 1], hi])
    n = 2 ** level
    m = n * lo.size
    h = np.repeat((hi - lo) / n, n)
    mid = np.repeat(lo, n) + h * (np.arange(m) % n + 0.5)
    d = _GAUSS * h
    g = np.asarray(G.eval(np.concatenate([mid - d, mid + d])), dtype=float)
    # rows h, G at the first Gauss point met, at the second; a mirrored
    # pass takes its runs in reverse from the reversed read, whose Gauss
    # points are swapped
    fwd = np.stack([h, g[:m], g[m:]])
    back = fwd[[0, 2, 1], ::-1]
    parts, cuts = [], [0]
    for (_, _, a, z, *_), runs in zip(passes, plan):
        cuts.append(cuts[-1] + n * sum(stop - start for start, stop in runs))
        if z < a:
            parts += [back[:, m - n * stop:m - n * start]
                      for start, stop in reversed(runs)]
        else:
            parts += [fwd[:, n * start:n * stop] for start, stop in runs]
    h, g1, g2 = np.concatenate(parts, axis=1)
    n_of = np.diff(cuts)
    alpha = np.repeat([ps[0] for ps in passes], n_of)
    E = np.repeat([ps[1] for ps in passes], n_of)
    return h, E + alpha * g1, E + alpha * g2, cuts


def _magnus_sweep(h: np.ndarray, w1: np.ndarray, w2: np.ndarray,
                  cuts: list[int], theta0s: list[float], g: int = 1
                  ) -> list[float]:
    """Phase of each pass after its intervals of (h, w1, w2): pass i sweeps
    intervals cuts[i]:cuts[i+1], from theta0s[i] in [0, pi). The intervals
    come in groups of g, a mesh interval bisected log2 g times, in walking
    order: g divides every cut and _BATCH_INTERVALS.

    Fourth-order Magnus: an interval maps (u, u') by exp(Omega),
    Omega = [[c, h], [-h wbar, -c]], with wbar = (w1 + w2)/2 and
    c = (sqrt(3)/12) h^2 (w2 - w1). Omega^2 = -mu^2 I, mu^2 = h^2 wbar - c^2,
    so exp(Omega) = cos(mu) I + (sin(mu)/mu) Omega; where mu^2 < 0 it is
    cosh and sinh of nu = sqrt(-mu^2), scaled by e^-nu so that nothing
    overflows. The maps of a group are multiplied together (_sweep_block),
    and (u, u') steps once per group, normalised after each: one step per
    mesh interval at every bisection level. u at each interval end inside
    a group is read from those products and the state entering the group.

    On an interval u(s) = u cos(mu s) + (B/mu) sin(mu s), s in [0, 1],
    B = c u + h u', holds exactly, so where mu < pi (the mesh keeps mu
    near 1/2) the phase turns through at most one multiple of pi, and a
    hyperbolic or mu = 0 interval holds at most one zero too. Each zero is
    counted where u changes sign or reaches 0 at an interval end; from
    u = 0 the next zero is at s = pi/mu > 1. An oscillatory interval with
    mu >= pi raises: a feature of G lies between mesh samples, and it must
    sit at a breakpoint. The phase is pi * zeros + (atan2(u, u') mod pi).
    The intervals are swept in blocks of _BATCH_INTERVALS, each holding
    whole passes or parts of them, so that a batch holds the states and
    matrices of one block at a time."""
    u = [math.sin(t) for t in theta0s]
    v = [math.cos(t) for t in theta0s]
    zeros = [0.0] * len(theta0s)
    i = 0   # the first pass not swept to its end
    for lo in range(0, cuts[-1], _BATCH_INTERVALS):
        hi = min(lo + _BATCH_INTERVALS, cuts[-1])
        j = bisect.bisect_left(cuts, hi, i + 1)   # passes i..j-1 reach hi
        local = [0, *(c - lo for c in cuts[i + 1:j]), hi - lo]
        block = slice(lo, hi)
        out = _sweep_block(h[block], w1[block], w2[block], local,
                           list(zip(u[i:j], v[i:j])), g)
        for k, (uk, vk, nk) in enumerate(out, i):
            u[k], v[k] = uk, vk
            zeros[k] += nk
        i = j if cuts[j] == hi else j - 1
    return [math.pi * n + math.atan2(uk, vk) % math.pi
            for uk, vk, n in zip(u, v, zeros)]


def _sweep_block(h: np.ndarray, w1: np.ndarray, w2: np.ndarray,
                 cuts: list[int], states: list[tuple[float, float]],
                 g: int = 1) -> list[tuple[float, float, float]]:
    """(u, u') of each pass after its intervals of a block of _magnus_sweep,
    normalised, and the zeros of u on them: pass i sweeps intervals
    cuts[i]:cuts[i+1], in groups of g, from states[i]. The coefficients,
    the products of each group's maps and the sign count of every pass
    come from numpy calls; only the recurrence runs in Python, one step
    per group. At g = 1 that is a step per interval."""
    wbar = 0.5 * (w1 + w2)
    c = _MAGNUS_C * h * h * (w2 - w1)
    mu2 = h * h * wbar - c * c
    osc = mu2 > 0.0
    mu = np.sqrt(np.abs(mu2))
    if np.any(osc & (mu >= math.pi)):
        raise RuntimeError(
            f"a mesh interval turns by {float(np.max(mu[osc])):.3g} >= pi "
            "rad: a feature of G lies between mesh samples; put it at a "
            "breakpoint of G")
    pos = mu > 0.0
    safe = np.where(pos, mu, 1.0)
    # e^-nu cosh(nu) = 1 + em/2 and e^-nu sinh(nu)/nu = -em/(2 nu)
    em = 0.5 * np.expm1(-2.0 * mu)
    cs = np.where(osc, np.cos(mu), 1.0 + em)
    sn = np.where(osc, np.sin(mu), np.where(pos, -em, 1.0)) / safe
    snc = sn * c
    snh = sn * h
    # the map [[P, Q], [R, S]] of each interval, a column per group, so that
    # row j holds interval j of every group; after the round of step d,
    # row j holds the product of the maps of intervals j - 2d + 1..j of
    # its group, the later on the left
    P, Q, R, S = (np.ascontiguousarray(x.reshape(-1, g).T)
                  for x in (cs + snc, snh, -snh * wbar, cs - snc))
    d = 1
    while d < g:
        P[d:], Q[d:], R[d:], S[d:] = (P[d:] * P[:-d] + Q[d:] * R[:-d],
                                      P[d:] * Q[:-d] + Q[d:] * S[:-d],
                                      R[d:] * P[:-d] + S[d:] * R[:-d],
                                      R[d:] * Q[:-d] + S[d:] * S[:-d])
        d *= 2
    # memoryviews hand the loop Python floats one at a time; the state
    # entering each group is kept for the sign count
    Pg, Qg, Rg, Sg = (memoryview(x[-1]) for x in (P, Q, R, S))
    groups = [k // g for k in cuts]
    us, vs = [], []
    ends = []
    for (u, v), lo, hi in zip(states, groups, groups[1:]):
        for p, q, r, s in zip(Pg[lo:hi], Qg[lo:hi], Rg[lo:hi], Sg[lo:hi]):
            us.append(u)
            vs.append(v)
            u, v = p * u + q * v, r * u + s * v
            n = abs(u) + abs(v)
            u /= n
            v /= n
        ends.append((u, v))
    # u at each interval end, by a positive factor: at a group's end the
    # recurrence's own u before it was normalised
    u_in = np.fromiter(us, float, len(us))
    u1 = P * u_in + Q * np.fromiter(vs, float, len(vs))
    u0 = np.concatenate([u_in[None], u1[:-1]])
    # from u = 0 an interval holds no zero: u(s) keeps the sign of u' up
    # to s = pi/mu > 1
    odd = (u1 == 0.0) | (((u0 < 0.0) != (u1 < 0.0)) & (u0 != 0.0))
    zeros = np.add.reduceat(np.count_nonzero(odd, axis=0),
                            groups[:-1]).tolist()
    return [(u, v, float(n)) for (u, v), n in zip(ends, zeros)]


def _pass_phases(G, passes) -> list[tuple[float, int, bool]]:
    """(theta, intervals swept, settled) of each pass (alpha, E, a, z,
    theta0, tail): from a to z on the mesh, from theta0, then over a
    stretch of length `tail` where G = 0, which is mapped exactly.

    A pass is swept on the mesh and on its bisection, and the spread of
    their final phases is its error statement: while the spread exceeds
    _SPREAD_TOL, 100 times inside the 1e-6 flag windows, the pass is
    bisected once more, at most _MAX_LEVEL times. The finest sweep's phase
    is returned; settled is False when its spread still exceeds
    _SPREAD_TOL. The passes are swept together, level by level, each
    until it settles (_level_intervals, _magnus_sweep), on one mesh that
    spans them all: the mesh of their largest coupling, which meets the
    mesh rule, monotone in alpha, at every smaller one."""
    def final(i, th):
        E, tail = passes[i][1], passes[i][5]
        return _zero_tail(th, math.sqrt(-E), tail) if tail > 0.0 else th

    out: list = [None] * len(passes)
    steps = [0] * len(passes)
    prev: dict[int, float] = {}
    live = []
    for i, (_, _, a, z, theta0, _) in enumerate(passes):
        if a == z:
            out[i] = final(i, theta0), 0, True
        else:
            live.append(i)
    if live:
        nodes = _mesh(G, max(passes[i][0] for i in live),
                      min(min(passes[i][2:4]) for i in live),
                      max(max(passes[i][2:4]) for i in live))
    for level in range(_MAX_LEVEL + 1):
        if not live:
            break
        batch = [passes[i] for i in live]
        h, w1, w2, cuts = _level_intervals(G, nodes, batch, level)
        thetas = _magnus_sweep(h, w1, w2, cuts, [ps[4] for ps in batch],
                               2 ** level)
        still = []
        for i, th, lo, hi in zip(live, thetas, cuts, cuts[1:]):
            fine = final(i, th)
            steps[i] += hi - lo
            if i in prev and abs(fine - prev[i]) <= _SPREAD_TOL:
                out[i] = fine, steps[i], True
            else:
                prev[i] = fine
                still.append(i)
        live = still
    for i in live:
        out[i] = prev[i], steps[i], False
    return out


def _sum_back(cells, bottom: int, top: int, size: int
              ) -> tuple[int, float] | None:
    """(j, cell j) for the largest j in [bottom, top) whose cells j..top-1,
    summed back from top, reach _LEAD_IN, or None: a whole-line pass's
    lead-in start. cells(j0, j1) gives cells j0..j1-1, asked for in chunks
    of `size`, then 4x longer each time, only as far as the sum needs."""
    run = 0.0
    while top > bottom:
        j0 = max(top - size, bottom)
        c = cells(j0, top)
        sums = np.cumsum(np.concatenate(([run], c[::-1])))[1:]
        k = int(sums.searchsorted(_LEAD_IN))
        if k < c.size:
            j = top - 1 - k
            return j, float(c[j - j0])
        top, run, size = j0, float(sums[-1]), 4 * size
    return None


def _lead_in(G, windows) -> list[tuple[float, float]]:
    """(t0, theta0) of each whole-line window (alpha, E, A, B): where its
    pass starts, and its phase.

    Left of the first allowed point t1 (w = E + alpha G >= 0), moving right
    multiplies a phase error by at most exp(-2 int sqrt(-w)). So the pass
    can start at the latest t0 with int_{t0}^{t1} sqrt(-w) >= _LEAD_IN,
    at the local WKB phase atan2(1, sqrt(-w(t0))) of the decaying
    solution. G is scanned from A to its argmax, every breakpoint
    included, at a spacing of at most 1/(4 S_top): a pocket missed between
    two scan points turns the scaled phase by at most 1/4 rad, and the
    decaying phase lies in (0, pi/2), so it cannot make a zero. Each cell
    counts at the smaller of its two end values. Without such a t0 (always
    when kappa (B - A) < _LEAD_IN) the pass starts at A at
    atan2(1, kappa).

    One scan serves every window that needs one: it runs from the leftmost
    A to the rightmost end, at the spacing of the largest
    S_top^2 = alpha max G + E, and each window reads the scan points inside
    it; a window alone is scanned on its own [A, end]. G is read once, and
    each distinct coupling scales it by one alpha G and one running
    maximum, from which t1 comes. The integral is summed back from t1
    (_sum_back) in chunks growing 4x, the first of about
    _LEAD_IN / (kappa spacing) points (at least _HEAD_CHUNK), only as far
    as it needs. A scan of more than _N_CAP points is refused before it
    is made."""
    out = []
    scan = []   # (window, alpha, E, A, end of the scan)
    for alpha, E, A, B in windows:
        kappa = math.sqrt(-E)
        out.append((A, math.atan2(1.0, kappa)))
        t_end = min(B, G.g_argmax)
        if kappa * (B - A) >= _LEAD_IN and t_end > A:
            scan.append((len(out) - 1, alpha, E, A, t_end))
    if not scan:
        return out
    lo, hi = min(s[3] for s in scan), max(s[4] for s in scan)
    S_top = math.sqrt(max(1.0, max(alpha * G.g_max + E
                                   for _, alpha, E, _, _ in scan)))
    n = 4.0 * S_top * (hi - lo)
    if not n <= _N_CAP - 1:
        raise ValueError(f"alpha={max(s[1] for s in scan)}: the lead-in scan "
                         f"needs {n + 1:.3g} points, past {_N_CAP}")
    n = math.ceil(n)
    ts = _unique_sorted(np.concatenate(
        (np.linspace(lo, hi, n + 1),
         [p for p in G.breakpoints if lo < p < hi])))
    g = np.asarray(G.eval(ts), dtype=float)
    dts = np.diff(ts)
    scaled: dict = {}   # alpha -> (alpha G, its running maximum)
    for i, alpha, E, A, end in scan:
        if alpha not in scaled:
            ag = alpha * g
            scaled[alpha] = ag, np.fmax.accumulate(ag)
        ag, top = scaled[alpha]
        s = int(ts.searchsorted(A, "left"))
        e = int(ts.searchsorted(end, "right"))
        # the first allowed point: E + alpha G >= 0 iff alpha G >= -E, which
        # the running maximum finds unless a point left of the window is
        if s and top[s - 1] >= -E:
            hit = np.flatnonzero(ag[s:e] >= -E)
            i1 = s + int(hit[0]) if hit.size else e
        else:
            i1 = int(top.searchsorted(-E, "left"))
        if not s < i1 < e:
            continue

        # int_{ts[j]}^{ts[j + 1]} sqrt(-w), at the smaller end value
        def cells(j0, j1):
            q = np.sqrt(np.maximum(-(E + ag[j0:j1 + 1]), 0.0))
            return np.minimum(q[:-1], q[1:]) * dts[j0:j1]

        start = _sum_back(cells, s, i1, max(
            _HEAD_CHUNK, int(_LEAD_IN * n / (math.sqrt(-E) * (hi - lo)))))
        if start is not None:
            # w < 0 left of t1, so sqrt(-w(ts[j])) is the q that cells read
            j = start[0]
            out[i] = float(ts[j]), math.atan2(
                1.0, math.sqrt(-(E + float(ag[j]))))
    return out


def _zero_tail(theta: float, kappa: float, d: float) -> float:
    """Phase after a stretch of length d on which G = 0, so w = -kappa^2.

    (u, u') maps exactly to (u + u' tanh(kappa d)/kappa,
    kappa u tanh(kappa d) + u') over cosh(kappa d). Zeros cross upward, so
    the phase stays in the branch [k pi - beta, k pi + pi - beta],
    beta = atan2(1, kappa), that it starts in; atan2 returns it there."""
    beta = math.atan2(1.0, kappa)
    k = math.floor((theta + beta) / math.pi)
    phi = theta - k * math.pi
    T = math.tanh(kappa * d)
    s, c = math.sin(phi), math.cos(phi)
    return k * math.pi + math.atan2(s + c * T / kappa, kappa * s * T + c)


def _zeros_from_phase(theta_end: float, kappa: float
                      ) -> tuple[int, int, list[str]]:
    """(count, uncertainty, flags) from a pass's final phase at its
    window's end: floor(theta_end / pi) zeros, and one more in the
    decaying tail when the phase mod pi exceeds pi - atan2(1, kappa).
    Within 1e-6 of a node, or of that limit, it flags `phase-near-node` or
    `phase-near-tail-rule`, with uncertainty 1."""
    flags: list[str] = []
    uncertainty = 0
    count = int(math.floor(theta_end / math.pi))
    defect = theta_end - math.pi * count
    if min(defect, math.pi - defect) < 1e-6:
        flags.append("phase-near-node")
        uncertainty = 1
    crit = math.pi - math.atan2(1.0, kappa)
    if defect > crit:
        count += 1
    if abs(defect - crit) < 1e-6:
        flags.append("phase-near-tail-rule")
        uncertainty = 1
    return count, uncertainty, flags


def count_below_pruefer(G, alpha: float, E: float,
                        mode: BoundaryMode = BoundaryMode.WHOLE_LINE
                        ) -> CountResult:
    """Count eigenvalues below E by phase shooting, on the whole line or
    the half line with a Dirichlet end: on the window [A, B] of
    counting_domain, which holds the potential, with decaying tails
    beyond it.

    A pass sweeps the mesh only where the count is decided. On the whole
    line it starts at the lead-in start of _lead_in: the latest point left
    of the first allowed point with int sqrt(-w) >= _LEAD_IN up to it, at
    the local WKB phase, or at A when there is none, at atan2(1, kappa).
    Left of the support of G that phase is the fixed point of
    theta' = cos^2 + E sin^2, so the start moves up to the support (the
    zero head). A Dirichlet pass starts at t = 0 at phase 0. In every mode
    a pass stops at the end of the support of G; the rest of it, where
    G = 0, is mapped exactly (_zero_tail), and the count is read at the
    window's end by the tail rule (_zeros_from_phase). A pass whose phase
    has not settled under bisection (_pass_phases) flags `phase-near-node`
    with uncertainty 1. `steps` counts the mesh intervals swept,
    bisections included.

    The count is a batch of one (count_batch_pruefer): one pass, two in the
    Dirichlet-at-0 mode.
    """
    return count_batch_pruefer(G, [(alpha, E, mode)])[0]


def count_batch_pruefer(G, queries) -> list[CountResult]:
    """count_below_pruefer at each (alpha, E, mode) of `queries`, one batch
    of passes for all: a query carries its own coupling. One lead-in scan
    serves every whole-line pass (_lead_in), and the passes are swept
    together (_pass_phases) on the mesh of the largest coupling of the
    batch. The mesh rule is monotone in alpha, so that mesh meets it at
    every smaller coupling too; it is only finer there. Each count, its
    flags and its steps are those of the query counted alone, except that
    a whole-line pass may start from another point of the shared scan, at
    a phase error contracted by 1e-12, and that a query below the largest
    coupling is swept on that finer mesh, whose final phase lies within
    the settle tolerance of its own. A batch at one coupling sweeps that
    coupling's mesh."""
    plans = []
    for alpha, E, mode in queries:
        _validate(alpha, E)
        mode = BoundaryMode(mode)
        A, B = counting_domain(G, alpha, E, mode)
        # the passes as (start, end, initial phase); None starts at the
        # lead-in
        if alpha * G.g_max + E <= 0.0:
            runs = None
        elif mode == BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0:
            runs = [(0.0, B, 0.0), (0.0, A, 0.0)]
        elif mode == BoundaryMode.HALF_LINE_DIRICHLET:
            runs = [(0.0, B, 0.0)]
        else:
            runs = [None]
        plans.append((alpha, E, mode, A, B, runs))
    lead = iter(_lead_in(G, [(alpha, E, A, B)
                             for alpha, E, _, A, B, runs in plans
                             if runs == [None]]))
    t_lo, t_hi = G.t_support
    passes = []
    for alpha, E, _, _, B, runs in plans:
        for run in runs or ():
            if run is None:
                t0, theta0 = next(lead)
                run = max(t0, t_lo), B, theta0
            a, b, theta0 = run
            # from a toward b; G = 0 past the support: the mesh up to its
            # end, the exact map beyond
            if b > a:
                z = min(max(a, t_hi), b)
            elif b < a:
                z = max(min(a, t_lo), b)
            else:
                z = a
            passes.append((alpha, E, a, z, theta0, abs(b - z)))
    phases = iter(_pass_phases(G, passes))
    out = []
    for _, E, mode, A, B, runs in plans:
        flags = ["domain-truncated"] if G.truncated else []
        if runs is None:
            out.append(CountResult(0, "pruefer", E, mode.value, (A, B),
                                   flags=tuple(flags + ["below-spectrum"])))
            continue
        counts, uncertainty, steps = [], 0, 0
        for _ in runs:
            th, n, settled = next(phases)
            c, u, fl = _zeros_from_phase(th, math.sqrt(-E))
            if not settled and "phase-near-node" not in fl:
                fl.insert(0, "phase-near-node")
                u = 1
            counts.append(c)
            uncertainty += u
            flags += fl
            steps += n
        extras = ({"left": counts[1], "right": counts[0]} if len(runs) == 2
                  else {"theta_end": th})
        out.append(CountResult(sum(counts), "pruefer", E, mode.value, (A, B),
                               steps, uncertainty, tuple(flags), extras))
    return out


# ---------------------------------------------------------------------------
# the element pencil: one layout for the inertia engine and the companion


# The layout reads the coupling, but at least _BS_ALPHA, so that a profile
# not analytic at its support ends (the bump) gets short elements there,
# and at least _BS_DEPTH / max G, so that a shallow narrow one (a narrow
# gaussian) gets elements inside its peak. On the mesh at _BS_FRAC of it,
# doubling the degree _BS_DEGREE moves no companion value above the floor
# by more than 1e-9 relative on the bundled specs, the bump's by 1e-7
_BS_FRAC = 1.0 / 64.0
_BS_DEGREE = 10
_BS_ALPHA = 192.0
_BS_DEPTH = 8.0
_BS_MERGE = 1e-9


_GLL_RULES: dict = {}


def _gll(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes x and weights w of the (p + 1)-point Gauss-Lobatto-Legendre
    rule on [-1, 1], and the stiffness matrix int l_i' l_j' of the Lagrange
    basis l_i on x, which the rule integrates exactly; built once per p.
    The interior nodes, the zeros of P_p', are the eigenvalues of the
    Jacobi matrix of the Jacobi(1, 1) polynomials; P_p(x) comes from the
    Legendre recurrence; and l_j'(x_i) = P_p(x_i) / (P_p(x_j) (x_i - x_j))
    off the diagonal, which is 0 but for -/+ p (p + 1)/4 at the two ends."""
    if p in _GLL_RULES:
        return _GLL_RULES[p]
    k = np.arange(1.0, p - 1)
    off = np.sqrt(k * (k + 2.0) / ((2.0 * k + 1.0) * (2.0 * k + 3.0)))
    x = np.concatenate(([-1.0], np.linalg.eigvalsh(
        np.diag(off, 1) + np.diag(off, -1)), [1.0]))
    P0, P = np.ones_like(x), x
    for n in range(1, p):
        P0, P = P, ((2 * n + 1) * x * P - n * P0) / (n + 1)
    w = 2.0 / (p * (p + 1) * P * P)
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    D = P[:, None] / (P[None, :] * dx)
    np.fill_diagonal(D, 0.0)
    D[0, 0], D[p, p] = -p * (p + 1) / 4.0, p * (p + 1) / 4.0
    D *= np.sqrt(w)[:, None]
    _GLL_RULES[p] = (x, w, D.T @ D)
    return _GLL_RULES[p]


def _elements(G, alpha: float) -> tuple[float, tuple, np.ndarray | None]:
    """(coupling a, pencil, companion values) of the element layout of G
    for alpha: the phase mesh (_mesh_nodes) over _span at _BS_FRAC of
    a = max(alpha, _BS_ALPHA, _BS_DEPTH / max G), monotone in alpha, with
    degree-_BS_DEGREE Lagrange elements on Gauss-Lobatto-Legendre nodes,
    less those without mass between the support and an outer end. The
    pencil is (Ke, w, g, z): per element the stiffness, the lumped unit
    mass and G at the nodes (one ulp inside at the ends), and z, the
    vertex at t = 0. G keeps the last layout, with the values bs_spectrum
    solved on it (None until then). A layout past _N_CAP nodes is refused
    in the words of _mesh_nodes, naming alpha."""
    a = max(alpha, _BS_ALPHA)
    if G.g_max > 0.0:
        a = max(a, _BS_DEPTH / G.g_max)
    if G.elements is not None and G.elements[0] == a:
        return G.elements
    t = _mesh_nodes(G, _BS_FRAC * a, *_span(G), named=alpha)
    # nodes closer than _BS_MERGE / sqrt(a max G), around a sliver of G,
    # are one vertex (t = 0 if it is one of them): so short an element
    # would stiffen the pencil past double precision, and in the limit it
    # ties its ends together. Its neighbours read G just past the sliver
    gap = np.diff(t) >= _BS_MERGE / math.sqrt(a * max(G.g_max, 1e-300))
    first, last = t[np.r_[True, gap]], t[np.r_[gap, True]]
    t = np.where((first <= 0.0) & (last >= 0.0), 0.0, first)
    x, w, Kr = _gll(_BS_DEGREE)
    lo, hi = t[:-1, None], t[1:, None]
    pts = lo + 0.5 * (hi - lo) * (x + 1.0)
    pts[:, 0] = np.nextafter(last[:-1], first[1:])
    pts[:, -1] = np.nextafter(first[1:], last[:-1])
    g = np.asarray(G.eval(pts.ravel()), dtype=float).reshape(pts.shape)
    if np.any(g < 0.0):
        raise ValueError("the element pencil needs G >= 0; "
                         f"min G = {float(np.min(g))!r}")
    mass = np.any(g > 0.0, axis=1)
    run = (((np.cumsum(mass) > 0) | (lo[:, 0] >= 0.0))
           & ((np.cumsum(mass[::-1])[::-1] > 0) | (hi[:, 0] <= 0.0)))
    L = (hi - lo)[run]
    G.elements = (a, ((2.0 / L)[:, :, None] * Kr, 0.5 * L * w, g[run],
                      int(np.searchsorted(lo[run, 0], 0.0))), None)
    return G.elements


def _blocks(pencil, mode: BoundaryMode) -> list[tuple[int, int, bool, bool]]:
    """(e0, e1, open0, open1) of each block counted in `mode`: elements
    e0..e1-1 and their vertices, an open end's kept, a Dirichlet end's (at
    t = 0) deleted. The whole line spans the elements with mass."""
    _, _, g, z = pencil
    mass = np.flatnonzero(np.any(g > 0.0, axis=1))
    f, l = (int(mass[0]), int(mass[-1]) + 1) if mass.size else (z, z)
    if mode == BoundaryMode.WHOLE_LINE:
        return [(f, l, True, True)]
    right = (z, max(l, z), False, True)
    if mode == BoundaryMode.HALF_LINE_DIRICHLET:
        return [right]
    return [(min(f, z), z, True, False), right]


def _counters(pencil, alphas):
    """counts_at(mode, energies) for each coupling of `alphas`: per energy
    E <= 0, the negative inertia of each block (_blocks) of
    K - alpha M_G - E M_1, with the decaying tail's Robin term sqrt(-E) at
    an open end. Each element's interior is condensed once per coupling:
    with D its unit mass, D^-1/2 (K_ii - alpha D_G) D^-1/2 = Q Lambda Q^T
    (one batched eigh over every element and coupling), and by
    Haynsworth's inertia additivity a block counts #{lambda_i < E} and the
    negative LDL^T pivots of the vertex tridiagonal
    S(E) = A_vv(E) - b^T (Lambda - E)^-1 b, b = Q^T D^-1/2 K_iv.
    The vertex rows of every energy of a call are formed together in
    numpy; only the pivot recurrence runs per energy. counts_at returns
    (per-block counts at each energy, whether each met a zero pivot, the
    vertex pivots taken). A zero pivot is not retried: an interior one is
    taken an ulp above E, a vertex one as +0."""
    Ke, w, g, _ = pencil
    p = w.shape[1] - 1
    s = 1.0 / np.sqrt(w[:, 1:p])
    A = Ke - np.asarray(alphas, dtype=float)[:, None, None, None] * (
        (w * g)[:, :, None] * np.eye(p + 1))
    lam, Q = np.linalg.eigh(s[:, :, None] * A[..., 1:p, 1:p] * s[:, None, :])
    b = np.einsum("...ji,...jc->...ic", Q, s[:, :, None] * A[..., 1:p, ::p])
    # per element (S_00, S_pp, S_0p): at E = 0 before the interior's share,
    # the interior's share per lambda_i, and the slope in -E
    vv = A[..., [0, p, 0], [0, p, p]]
    bb = b[..., [0, 1, 0]] * b[..., [0, 1, 1]]
    slope = w[:, [0, p, 0]] * [1.0, 1.0, 0.0]
    by_mode = {m: _blocks(pencil, m) for m in BoundaryMode}

    def counter(lam, vv, bb):
        def counts_at(mode, energies):
            E = np.asarray(energies, dtype=float)
            gap = lam - E[:, None, None]
            hit = gap == 0.0
            zero = [False] * E.size
            if hit.any():
                zero = np.any(hit, axis=(1, 2)).tolist()
                gap[hit] = np.spacing(np.maximum(np.abs(E), 1.0)).repeat(
                    np.sum(hit, axis=(1, 2)))
            S = (vv - E[:, None, None] * slope
                 - np.einsum("kei,eic->kec", 1.0 / gap, bb))
            counts = [[] for _ in zero]
            pivots = 0
            kappa = np.sqrt(np.maximum(-E, 0.0))[:, None]
            lead = np.zeros_like(kappa)
            for e0, e1, open0, open1 in by_mode[mode]:
                below = (gap[:, e0:e1] < 0.0).sum(axis=(1, 2)).tolist()
                s0, s1, s01 = (S[:, e0:e1, c] for c in range(3))
                # each energy's vertex rows: vertex j joins elements j-1
                # and j, and an open end adds its Robin term
                diag = np.concatenate([s0[:, :1] + kappa,
                                       s1[:, :-1] + s0[:, 1:],
                                       s1[:, -1:] + kappa], axis=1)
                diag = diag[:, 1 - open0:e1 - e0 + open1]
                off = np.concatenate([lead, s01 * s01], axis=1)[:, 1 - open0:]
                for k, (row, sq) in enumerate(zip(diag.tolist(),
                                                  off.tolist())):
                    neg, z, piv = below[k], False, math.inf
                    for a, o in zip(row, sq):
                        piv = a - (o / piv if piv else math.inf)
                        neg += piv < 0.0
                        z |= piv == 0.0
                    counts[k].append(neg)
                    zero[k] |= z
                pivots += diag.size
            return counts, zero, pivots
        return counts_at

    return [counter(*x) for x in zip(lam, vv, bb)]


def count_below_fd(G, alpha: float, E: float,
                   mode: BoundaryMode = BoundaryMode.WHOLE_LINE
                   ) -> CountResult:
    """Count eigenvalues below E by the inertia of the element pencil, a
    batch of one (count_batch_fd); fd is the engine's historical name."""
    return count_batch_fd(G, [(alpha, E, mode)])[0]


def count_batch_fd(G, queries) -> list[CountResult]:
    """count_below_fd at each (alpha, E, mode) of `queries`, on the layout
    of the largest coupling (_elements), each coupling condensed once
    (_counters). E -/+ delta (delta = threshold_eps, the upper at most 0)
    are counted first, those of every query at one (coupling, mode) in one
    call: the count is nondecreasing in E, so where they agree block by
    block and met no zero pivot, theirs is the count at E; the queries
    whose probes do not are counted at E in a second call, probes that
    disagree raise `near-threshold` and a zero pivot at E `pivot-shift`.
    `steps` counts a query's vertex pivots; extras hold the nodes counted
    and, in the Dirichlet-at-0 mode, each side's count."""
    plans = [(alpha, E, BoundaryMode(mode)) for alpha, E, mode in queries]
    truncated = ["domain-truncated"] if G.truncated else []
    out: list = [None] * len(plans)
    groups: dict = {}   # (alpha, mode) -> indices of its live queries
    for i, (alpha, E, mode) in enumerate(plans):
        _validate(alpha, E)
        if alpha * G.g_max + E > 0.0:
            groups.setdefault((alpha, mode), []).append(i)
        else:
            out[i] = CountResult(0, "fd", E, mode.value,
                                 counting_domain(G, alpha, E, mode),
                                 flags=tuple(truncated + ["below-spectrum"]))
    if groups:
        live = sorted({alpha for alpha, _ in groups})
        _, pencil, _ = _elements(G, live[-1])
        counters = dict(zip(live, _counters(pencil, live)))
        p = pencil[1].shape[1] - 1
        nodes = {mode: sum(p * (e1 - e0) - 1 + o0 + o1
                           for e0, e1, o0, o1 in _blocks(pencil, mode)
                           if e1 > e0)
                 for mode in {mode for _, mode in groups}}
    for (alpha, mode), idx in groups.items():
        delta = threshold_eps(G, alpha)
        energies = [plans[i][1] for i in idx]
        counts, zeros, pivots = counters[alpha](mode, [
            e for E in energies for e in (E - delta, min(E + delta, 0.0))])
        lo, hi = counts[::2], counts[1::2]
        piv = pivots // len(counts)   # the same at every energy
        redo = [k for k, z in enumerate(zip(zeros[::2], zeros[1::2]))
                if lo[k] != hi[k] or any(z)]
        at = {}
        if redo:
            c, z, _ = counters[alpha](mode, [energies[k] for k in redo])
            at = dict(zip(redo, zip(c, z)))
        for k, (i, E) in enumerate(zip(idx, energies)):
            per_block, zero_hit = at.get(k, (lo[k], False))
            flags = (truncated + ["pivot-shift"] * zero_hit
                     + ["near-threshold"] * (sum(lo[k]) != sum(hi[k])))
            sides = (dict(zip(("left", "right"), per_block))
                     if mode == BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0 else {})
            out[i] = CountResult(
                sum(per_block), "fd", E, mode.value,
                counting_domain(G, alpha, E, mode), piv * (2 + (k in at)),
                max(int(zero_hit), sum(hi[k]) - sum(lo[k])), tuple(flags),
                {"n_nodes": nodes[mode], **sides})
    return out


def count_below(G, alpha: float, E: float,
                mode: BoundaryMode = BoundaryMode.WHOLE_LINE, *,
                engine: str = "pruefer") -> CountResult:
    if engine == "pruefer":
        return count_below_pruefer(G, alpha, E, mode)
    if engine == "fd":
        return count_below_fd(G, alpha, E, mode)
    raise ValueError(f"unknown engine {engine!r}; use 'pruefer' or 'fd'")


# ---------------------------------------------------------------------------
# eigenvalue location


def eigenvalues_below(G, alpha: float, *, E: float | None = None,
                      mode: BoundaryMode = BoundaryMode.WHOLE_LINE,
                      engine: str = "pruefer", tol_eig: float = 1e-9
                      ) -> np.ndarray:
    """Every eigenvalue below E (by default the channel energy of m = 0),
    ascending, located by bisecting a counting function over [floor, E],
    floor just below -alpha max G.

    The bisection runs in rounds: every open interval of a round is split
    at its midpoint, and the midpoints of a round are counted in one call.
    engine="pruefer" counts them as one batch (count_batch_pruefer);
    engine="fd" as the energies of one call of the inertia of the one
    pencil of count_below_fd, condensed once (_counters).

    Bisection drives intervals below tol_eig * max(1, |floor|), or to
    adjacent floats, whichever is wider; clustered eigenvalues within that
    width come out as one midpoint with multiplicity. 0 < tol_eig < inf,
    or ValueError.
    """
    if not 0.0 < tol_eig < math.inf:
        raise ValueError(f"need finite tol_eig > 0, got {tol_eig}")
    E = channel_energy(G, alpha) if E is None else E
    if E is None:
        return np.empty(0)
    _validate(alpha, E)
    # nothing below E <= -alpha max G, where floor lies too
    if alpha * G.g_max + E <= 0.0:
        return np.empty(0)
    floor = -alpha * G.g_max * (1.0 + 1e-12) - 1e-12
    mode = BoundaryMode(mode)
    if engine == "fd":
        counts_at, = _counters(_elements(G, alpha)[1], [alpha])

        def C(es: list[float]) -> list[int]:
            return [sum(c) for c in counts_at(mode, es)[0]]
    elif engine == "pruefer":
        def C(es: list[float]) -> list[int]:
            return [r.count for r in count_batch_pruefer(
                G, [(alpha, e, mode) for e in es])]
    else:
        raise ValueError(f"unknown engine {engine!r}; use 'pruefer' or 'fd'")

    total, = C([E])
    width_tol = tol_eig * max(1.0, abs(floor))
    out: list[float] = []
    live = [(floor, E, 0, total)]
    while live:
        split = []
        for lo, hi, c_lo, c_hi in live:
            if c_hi <= c_lo:
                continue
            mid = 0.5 * (lo + hi)
            # adjacent floats have no midpoint strictly between them
            if hi - lo < width_tol or not lo < mid < hi:
                out.extend([mid] * (c_hi - c_lo))
            else:
                split.append((lo, mid, hi, c_lo, c_hi))
        c_mids = C([mid for _, mid, _, _, _ in split]) if split else []
        live = [x for (lo, mid, hi, c_lo, c_hi), c_mid in zip(split, c_mids)
                for x in ((lo, mid, c_lo, c_mid), (mid, hi, c_mid, c_hi))]
    return np.sort(out)


# ---------------------------------------------------------------------------
# quadratic-form companion spectrum


def _assemble(pencil) -> tuple[np.ndarray, np.ndarray]:
    """(K, diag M) of the element pencil (Ke, w, g, z): the stiffness
    matrices and lumped masses w g summed over shared vertices, vertex z
    (t = 0) deleted."""
    Ke, w, g, z = pencil
    n_el, q = w.shape
    idx = (q - 1) * np.arange(n_el)[:, None] + np.arange(q)
    m = np.zeros(n_el * (q - 1) + 1)
    np.add.at(m, idx, w * g)
    K = np.zeros((m.size, m.size))
    np.add.at(K, (idx[:, :, None], idx[:, None, :]), Ke)
    keep = np.arange(m.size) != (q - 1) * z
    return K[np.ix_(keep, keep)], m[keep]


def bs_spectrum(G, *, floor: float | None = None
                ) -> tuple[np.ndarray, dict]:
    """Eigenvalues, descending, of (G u, u) / (u', u') on the whole line
    with u(0) = 0: the Birman-Schwinger companion at E = 0, whose values
    above 1/alpha are as many as the bound states of the coupling-alpha
    problem with a Dirichlet condition at t = 0.

    On the element layout of G for the coupling 1/floor (_elements), with
    natural outer ends (a finite (u', u') leaves u constant past the
    support, where the dropped elements add nothing), the values are those
    of S K^-1 S, S = M^(1/2), on the nodes with mass (_assemble): the
    nonzero spectrum of M u = lambda K u. A pencil of more than _N_CAP
    entries is refused before it is solved. The values are kept on G with
    the layout, read-only. Returns (values, meta); meta holds n_nodes, the
    span as domain, and the element pencil, on which #{lambda > 1/alpha}
    is the negative inertia of K - alpha M (Sylvester): the inertia
    engine's count at E = 0 in the Dirichlet-at-0 mode."""
    alpha, pencil, lam = _elements(G, 0.0 if floor is None else 1.0 / floor)
    n = (pencil[1].shape[1] - 1) * len(pencil[1])   # the nodes but t = 0
    if n * n > _N_CAP:
        raise ValueError(f"alpha={alpha:.6g}: the companion pencil needs {n} "
                         f"nodes, {n * n} entries, past {_N_CAP}")
    if lam is None:
        K, m = _assemble(pencil)
        on = np.flatnonzero(m > 0.0)
        s = np.sqrt(m[on])
        C = s[:, None] * np.linalg.inv(K)[np.ix_(on, on)] * s
        lam = np.linalg.eigvalsh(0.5 * (C + C.T))[::-1]
        lam.flags.writeable = False
        G.elements = (alpha, pencil, lam)
    return lam, {"n_nodes": n, "domain": _span(G), "pencil": pencil}
