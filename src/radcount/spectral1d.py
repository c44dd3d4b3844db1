"""Counting eigenvalues of -d^2/dt^2 - alpha G(t) below E < 0.

Two independent engines with no shared discretization machinery:

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
    every live pass, the Magnus coefficients and the zero counts of every
    pass come from one set of numpy calls, and only the (u, u') recurrence
    runs per pass; a block holds at most _BATCH_INTERVALS intervals. Each
    pass keeps its own settle test. One scan of G finds the lead-in start
    of every whole-line pass of a batch. A count alone is a batch of one;
    a plane count (channels.total_count) sends the channels with
    m^2 < alpha g_max in batches that grow 4x, with the Dirichlet-at-0
    passes in the first, and drops every count past the first empty
    channel.

    A query carries its own coupling, and each pass forms w = E + alpha G
    from the one read of G, so a batch may mix couplings (cli `verify`
    sends its random engine-agreement instances as one). It sweeps the
    mesh of its largest coupling. The mesh rule, h sqrt(alpha max |G|)
    <= 1/2 and h^2 alpha (max G - min G) <= 1/4 on every interval, is
    monotone in alpha: an interval that meets it at the largest coupling
    meets it at every smaller one, so that mesh is only finer there. The
    mesh depends on the batch alone, so the same batch always gives the
    same phases; a batch at one coupling sweeps that coupling's mesh, as
    a count alone does.

  * count_below_fd: three-point finite differences on a uniform grid and a
    Sturm (LDL pivot) pass over the shifted tridiagonal matrix. Counts
    negative pivots; never forms eigenvalues. The count is nondecreasing in
    E: where the passes at E -/+ delta of the near-threshold flag agree, E
    is not swept. The pass, too, runs only where the count is decided.
    Where G = 0 the diagonal is the constant 2 - h^2 E > 2, and its pivots
    have closed forms: a leading run from the Dirichlet end holds none that
    is negative, a trailing run at most one; so G is read only on its
    support and a node either side. While the diagonal is >= 2, every
    pivot is >= 1, so the pass starts at a lead-in node left of the first
    allowed one, from which an error in the entering pivot shrinks by
    1e-12, and past the last allowed node it stops at the first pivot >= 1.
    The sweeps read the numpy diagonal through memoryviews.

Both count the same thing up to discretization windows, and on an identical
finite interval with Dirichlet ends (`truncated=True` for the phase engine)
they count the *same* operator, so they must agree exactly; that property is
tested, hard.

On top of the counters: eigenvalue location by bisection of the counting
function, and the quadratic-form spectrum of the Birman-Schwinger companion
(u', u') vs (G u, u), whose eigenvalues above 1/alpha are in bijection with
the bound states. That spectrum is solved on the support of G only: the
nodes with G = 0 carry no mass and are eliminated exactly, which leaves a
Laplacian on the gaps between the kept nodes and the walls. A support of
at most n_max + 1 nodes is solved dense with numpy; a wider one by Lanczos.
"""

from __future__ import annotations

import array
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
    h: float | None = None
    steps: int = 0
    uncertainty: int = 0
    flags: tuple[str, ...] = ()
    extras: dict = field(default_factory=dict)


# fraction of the energy scale alpha * max G that threshold_eps puts below 0
THRESHOLD_FRAC = 1e-9
# the largest decay pad of a counting window
_PAD_MAX = 40.0


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
    pad = min(-math.log(1e-8) / kappa, _PAD_MAX)
    if mode == BoundaryMode.HALF_LINE_DIRICHLET:
        return 0.0, max(T_plus, 0.0) + pad
    if mode == BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0:
        return min(T_minus, 0.0) - pad, max(T_plus, 0.0) + pad
    return T_minus - pad, T_plus + pad


def _check_alpha(alpha: float) -> None:
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise ValueError(f"need alpha > 0, got {alpha}")


def _validate(alpha: float, E: float) -> None:
    _check_alpha(alpha)
    if not (E < 0.0 and math.isfinite(E)):
        raise ValueError(f"need E < 0 (continuous spectrum starts at 0), got {E}")


def _check_window(domain, h: float | None = None) -> None:
    if domain is not None and not -math.inf < domain[0] < domain[1] < math.inf:
        raise ValueError(f"need a finite domain (A, B) with A < B, got {domain}")
    if h is not None and not 0.0 < h < math.inf:
        raise ValueError(f"need a finite grid step h > 0, got {h}")


# ---------------------------------------------------------------------------
# phase (shooting) engine

# an error in the phase or pivot entering the allowed region shrinks by
# exp(-2 _LEAD_IN) = 1e-12 over the lead-in where either engine starts
_LEAD_IN = 0.5 * math.log(1e12)
# points in the first chunk of a lead-in that either engine sums back from
# the first allowed point (_lead_in, and _block_count's head)
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


def _mesh_nodes(G, alpha: float, lo: float, hi: float) -> np.ndarray:
    """Nodes on [lo, hi] that meet the mesh rule. Every breakpoint of G in
    (lo, hi) and t = 0 are nodes. An interval that fails the rule at its
    Gauss points and its ends (one ulp inside) is split evenly into as many
    parts as the rule asks for, or in two where it asks for more than four,
    so that the mesh grades with G, until none fails. The rule bounds w,
    not the change of G relative to G, so a tail where alpha G is small
    gets long intervals."""
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
        at = np.repeat(np.arange(k.size), k)
        j = np.arange(at.size) - np.repeat(np.cumsum(k) - k, k)
        t = np.append(a[at] + h[at] * (j / k[at]), t[-1])


def _mesh(G, alpha: float, p: float, q: float) -> np.ndarray:
    """The nodes of the mesh of G at alpha over the span where a pass on
    any default window can run, joined with [p, q]: the widest counting
    window, [min(T-, 0), max(T+, 0)] padded by _PAD_MAX, cut to the
    support of G joined with t = 0. The mesh lives on G, one entry for one
    (alpha, span), built when a pass first needs it."""
    (T_minus, T_plus), (t_lo, t_hi) = G.domain_hint, G.t_support
    span = (min(max(min(T_minus, 0.0) - _PAD_MAX, min(t_lo, 0.0)), p),
            max(min(max(T_plus, 0.0) + _PAD_MAX, max(t_hi, 0.0)), q))
    if G.phase_mesh is None or G.phase_mesh[0] != (alpha, span):
        G.phase_mesh = ((alpha, span), _mesh_nodes(G, alpha, *span))
    return G.phase_mesh[1]


def _level_intervals(G, nodes: np.ndarray, passes, level: int
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """(h, w1, w2, cuts) of the passes (alpha, E, a, z, ...) on the mesh
    `nodes` at bisection level `level`, one after another: pass i meets
    intervals cuts[i]:cuts[i+1], in that order. The mesh nodes strictly
    between a and z cut [a, z], so a pass that starts or ends between two
    nodes enters or leaves through a partial interval, and every interval
    is bisected `level` times. w1 and w2 are w = E + alpha G at the first
    and the second Gauss point met; a Gauss point lies inside its interval,
    so G is read inside its pieces. With z < a a pass walks the mirrored
    intervals, right to left.

    G is read once for the batch, without alpha: at the Gauss points of the
    mesh intervals that some pass crosses whole, which every pass through
    them shares, and of each pass's partial end intervals; each pass forms
    E + alpha G from them at its own coupling. Each point is the one the
    pass alone would read on this mesh, and alpha (G[k]) equals (alpha G)[k]
    bit for bit, so its arrays do not depend on the batch."""
    ends = [sorted(ps[2:4]) for ps in passes]
    # the first node > p, and one past the last node < q
    k0s = np.searchsorted(nodes, [p for p, _ in ends], "right").tolist()
    k1s = np.searchsorted(nodes, [q for _, q in ends], "left").tolist()
    whole = [(k0, k1 - 1) for k0, k1 in zip(k0s, k1s) if k1 - 1 > k0]
    k_lo = min((k for k, _ in whole), default=0)
    k_hi = max((k for _, k in whole), default=0)
    n = 2 ** level
    m = n * (k_hi - k_lo + sum(1 + (k1 > k0) for k0, k1 in zip(k0s, k1s)))
    # G is read at the m intervals, bisected, of: mesh intervals
    # k_lo..k_hi-1, which passes cross whole (a pass crosses k0..k1-2),
    # then the ends of each pass, [p, q] when no node cuts it, else
    # [p, node k0] and [node k1-1, q]; ag[:m] at their left Gauss points,
    # ag[m:] at their right ones. A pass is runs (first, length) of them in
    # the order of t; a mirrored pass takes the runs in reverse, each right
    # to left, from the right points. src, which indexes ag at the point
    # each interval meets first, is a cumsum of steps of +-1 with a jump to
    # the start of each run
    lo: list = []
    hi: list = []
    steps, sizes, jump_at, jump, cuts = [], [], [], [], [0]
    prev = 0
    for (_, _, a, z, *_), (p, q), k0, k1 in zip(passes, ends, k0s, k1s):
        cuts.append(cuts[-1])
        first = n * (k_hi - k_lo + len(lo))
        if k1 > k0:
            lo += [p, nodes[k1 - 1]]
            hi += [nodes[k0], q]
            runs = [(first, n), (n * (k0 - k_lo), n * (k1 - 1 - k0)),
                    (first + n, n)]
        else:
            lo.append(p)
            hi.append(q)
            runs = [(first, n)]
        if z < a:
            runs = [(s + L - 1 + m, L, -1) for s, L in reversed(runs)]
        else:
            runs = [(s, L, 1) for s, L in runs]
        for start, L, step in runs:
            if L:
                steps.append(step)
                sizes.append(L)
                jump_at.append(cuts[-1])
                jump.append(start - prev)
                prev = start + step * (L - 1)
                cuts[-1] += L
    lo = np.concatenate([nodes[k_lo:k_hi], lo])
    hi = np.concatenate([nodes[k_lo + 1:k_hi + 1], hi])
    h = np.repeat((hi - lo) / n, n)
    mid = np.repeat(lo, n) + h * (np.arange(m) % n + 0.5)
    d = _GAUSS * h
    g = np.asarray(G.eval(np.concatenate([mid - d, mid + d])), dtype=float)
    src = np.repeat(steps, sizes)
    src[jump_at] = jump
    src = np.cumsum(src)
    n_of = np.diff(cuts)
    alpha = np.repeat([ps[0] for ps in passes], n_of)
    E = np.repeat([ps[1] for ps in passes], n_of)
    return (np.concatenate([h, h])[src], E + alpha * g[src],
            E + alpha * np.roll(g, m)[src], cuts)


def _magnus_sweep(h: np.ndarray, w1: np.ndarray, w2: np.ndarray,
                  cuts: list[int], theta0s: list[float]) -> list[float]:
    """Phase of each pass after its intervals of (h, w1, w2): pass i sweeps
    intervals cuts[i]:cuts[i+1], from theta0s[i] in [0, pi).

    Fourth-order Magnus: an interval maps (u, u') by exp(Omega),
    Omega = [[c, h], [-h wbar, -c]], with wbar = (w1 + w2)/2 and
    c = (sqrt(3)/12) h^2 (w2 - w1). Omega^2 = -mu^2 I, mu^2 = h^2 wbar - c^2,
    so exp(Omega) = cos(mu) I + (sin(mu)/mu) Omega; where mu^2 < 0 it is
    cosh and sinh of nu = sqrt(-mu^2), scaled by e^-nu so that nothing
    overflows. (u, u') is normalised after each interval.

    On an interval u(s) = u cos(mu s) + (B/mu) sin(mu s), s in [0, 1],
    B = c u + h u', holds exactly, so where mu < pi (the mesh keeps mu
    near 1/2) the phase turns through at most one multiple of pi, and a
    hyperbolic or mu = 0 interval holds at most one zero too. Each zero is
    counted where u changes sign or reaches 0; from u = 0 the next zero is
    at s = pi/mu > 1. An oscillatory interval with mu >= pi raises: a
    feature of G lies between mesh samples, and it must sit at a
    breakpoint. The phase is pi * zeros + (atan2(u, u') mod pi). The
    intervals are swept in blocks of _BATCH_INTERVALS, each holding whole
    passes or parts of them, so that a batch holds the states and matrices
    of one block at a time."""
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
                           list(zip(u[i:j], v[i:j])))
        for k, (uk, vk, nk) in enumerate(out, i):
            u[k], v[k] = uk, vk
            zeros[k] += nk
        i = j if cuts[j] == hi else j - 1
    return [math.pi * n + math.atan2(uk, vk) % math.pi
            for uk, vk, n in zip(u, v, zeros)]


def _sweep_block(h: np.ndarray, w1: np.ndarray, w2: np.ndarray,
                 cuts: list[int], states: list[tuple[float, float]]
                 ) -> list[tuple[float, float, float]]:
    """(u, u') of each pass after its intervals of a block of _magnus_sweep,
    normalised, and the zeros of u on them: pass i sweeps intervals
    cuts[i]:cuts[i+1] from states[i]. The coefficients and the sign count
    of every pass come from one set of numpy calls; only the recurrence
    runs per pass."""
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
    # memoryviews hand the loop Python floats one at a time, and the u
    # history is kept as raw doubles: no list of floats per coefficient
    P, Q = memoryview(cs + snc), memoryview(snh)
    R, S = memoryview(-snh * wbar), memoryview(cs - snc)
    us = array.array("d")
    ends = []
    for (u, v), lo, hi in zip(states, cuts, cuts[1:]):
        us.append(u)
        for p, q, r, s in zip(P[lo:hi], Q[lo:hi], R[lo:hi], S[lo:hi]):
            u, v = p * u + q * v, r * u + s * v
            n = abs(u) + abs(v)
            u /= n
            v /= n
            us.append(u)
        ends.append((u, v))
    U = np.frombuffer(us)
    u0, u1 = U[:-1], U[1:]
    # from u = 0 an interval holds no zero: u(s) keeps the sign of u' up
    # to s = pi/mu > 1
    odd = (u1 == 0.0) | (((u0 < 0.0) != (u1 < 0.0)) & (u0 != 0.0))
    # pass i's u history starts at U[cuts[i] + i]; the pair before that
    # joins two passes
    first = np.array(cuts[:-1]) + np.arange(len(states))
    odd[first[1:] - 1] = False
    zeros = np.add.reduceat(odd.astype(np.int64), first).tolist()
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
        thetas = _magnus_sweep(h, w1, w2, cuts, [ps[4] for ps in batch])
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
    maximum, from which t1 comes. The integral is summed back from t1 in
    chunks growing 4x, the first of about _LEAD_IN / (kappa spacing) points
    (at least _HEAD_CHUNK), only as far as it needs."""
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
    n = int(math.ceil(4.0 * S_top * (hi - lo)))
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
        # int_{ts[j]}^{t1}, j < i1, summed back from t1
        run, size = 0.0, max(_HEAD_CHUNK,
                             int(_LEAD_IN * n / (math.sqrt(-E) * (hi - lo))))
        while i1 > s:
            j0 = max(i1 - size, s)
            q = np.sqrt(np.maximum(-(E + ag[j0:i1 + 1]), 0.0))
            cells = np.minimum(q[:-1], q[1:]) * dts[j0:i1]
            sums = np.cumsum(np.concatenate(([run], cells[::-1])))[1:]
            k = int(sums.searchsorted(_LEAD_IN))
            if k < cells.size:
                j = i1 - 1 - k
                out[i] = float(ts[j]), math.atan2(1.0, float(q[j - j0]))
                break
            i1, run, size = j0, float(sums[-1]), 4 * size
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


def _zeros_from_phase(theta_end: float, kappa: float, tail: bool
                      ) -> tuple[int, int, list[str]]:
    """Zero count from the final phase; tail=True applies the decaying-tail
    rule for one extra zero beyond the right endpoint."""
    flags: list[str] = []
    uncertainty = 0
    n_interior = int(math.floor(theta_end / math.pi))
    defect = theta_end - math.pi * n_interior
    if min(defect, math.pi - defect) < 1e-6:
        flags.append("phase-near-node")
        uncertainty = 1
    count = n_interior
    if tail:
        crit = math.pi - math.atan2(1.0, kappa)
        if defect > crit:
            count += 1
        if abs(defect - crit) < 1e-6:
            flags.append("phase-near-tail-rule")
            uncertainty = max(uncertainty, 1)
    return count, uncertainty, flags


def count_below_pruefer(G, alpha: float, E: float,
                        mode: BoundaryMode = BoundaryMode.WHOLE_LINE, *,
                        domain: tuple[float, float] | None = None,
                        truncated: bool = False) -> CountResult:
    """Count eigenvalues below E by phase shooting.

    truncated=True counts the Dirichlet problem on [A, B] itself (phase
    starts at 0, no tail rule); the default counts the problem on the full
    line/half-line, treating [A, B] as a window that contains the potential.

    A pass sweeps the mesh only where the count is decided. On the whole
    line (truncated=False) it starts at the lead-in start of _lead_in: the
    latest point left of the first allowed point with
    int sqrt(-w) >= _LEAD_IN up to it, at the local WKB phase, or at A when
    there is none, at atan2(1, kappa). Left of the support of G that phase
    is the fixed point of theta' = cos^2 + E sin^2, so the start moves up to
    the support (the zero head). In every mode and pass it stops at the end
    of the support of G; the rest of the pass, where G = 0, is mapped
    exactly (_zero_tail), and the count is read at B as before. A pass
    whose phase has not settled under bisection (_pass_phases) flags
    `phase-near-node` with uncertainty 1. `steps` counts the mesh intervals
    swept, bisections included.

    The count is a batch of one (count_batch_pruefer): one pass, two in the
    Dirichlet-at-0 mode.
    """
    return count_batch_pruefer(G, [(alpha, E, mode)], domain=domain,
                               truncated=truncated)[0]


def count_batch_pruefer(G, queries, *,
                        domain: tuple[float, float] | None = None,
                        truncated: bool = False) -> list[CountResult]:
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
    coupling's mesh. domain and truncated apply to every query."""
    _check_window(domain)
    plans = []
    for alpha, E, mode in queries:
        _validate(alpha, E)
        mode = BoundaryMode(mode)
        A, B = (domain if domain is not None
                else counting_domain(G, alpha, E, mode))
        # the passes as (start, end, initial phase); None starts at the
        # lead-in
        if alpha * G.g_max + E <= 0.0:
            runs = None
        elif mode == BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0:
            runs = [(0.0, B, 0.0), (0.0, A, 0.0)]
        elif mode == BoundaryMode.HALF_LINE_DIRICHLET:
            runs = [(0.0, B, 0.0)]
        elif truncated:
            runs = [(A, B, 0.0)]
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
            c, u, fl = _zeros_from_phase(th, math.sqrt(-E), tail=not truncated)
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
                               None, steps, uncertainty, tuple(flags),
                               extras))
    return out


# ---------------------------------------------------------------------------
# finite-difference (Sturm pivot) engine

# most intervals of a uniform grid (fd counts and bs_spectrum)
_N_CAP = 3_000_000


def _sturm_pass(a, d: float = math.inf
                ) -> tuple[int, bool, float]:
    """Negative-pivot count for the scaled tridiagonal with unit off-diagonal
    and diagonal `a` (floats: a list or memoryview); by Sylvester inertia
    this is the eigenvalue count below the shift baked into `a`. d is the
    pivot entering a[0] (inf at a Dirichlet end, where a[0] - 1/inf ==
    a[0]). Returns (count,
    hit_zero_pivot, last pivot)."""
    neg = 0
    hit_zero = False
    for ai in a:
        d = ai - 1.0 / d
        if d == 0.0:
            hit_zero = True
            d = 1e-300
        if d < 0.0:
            neg += 1
    return neg, hit_zero, d


def _settle_pass(a, d: float) -> tuple[int, bool, float, int]:
    """_sturm_pass over nodes where every a_i >= 2, stopped at the first
    pivot >= 1: each later pivot a_i - 1/d is >= 1 too, so none is negative
    or zero. A loop of its own, so that _sturm_pass, the hot one, tests
    nothing more per pivot. Returns (count, hit_zero_pivot, last pivot,
    pivots swept)."""
    neg = 0
    hit_zero = False
    for k, ai in enumerate(a):
        if d >= 1.0:
            return neg, hit_zero, d, k
        d = ai - 1.0 / d
        if d == 0.0:
            hit_zero = True
            d = 1e-300
        if d < 0.0:
            neg += 1
    return neg, hit_zero, d, len(a)


def _run_pivot(theta: float, k: int) -> float:
    """Pivot k (0-based) of a run of constant diagonal a = 2 cosh(theta)
    from a Dirichlet end: sinh((k+2) theta)/sinh((k+1) theta), written as
    r+ expm1(-2(k+2) theta)/expm1(-2(k+1) theta), r+ = e^theta."""
    if theta == 0.0:
        return (k + 2) / (k + 1)
    return (math.exp(theta) * math.expm1(-2.0 * (k + 2) * theta)
            / math.expm1(-2.0 * (k + 1) * theta))


def _block_count(core: np.ndarray, first: int, n_tail: int, a_c: float
                 ) -> tuple[int, bool, int]:
    """Negative pivots of one Dirichlet block: a head of `first` nodes, the
    varying `core`, and a tail of n_tail nodes, head and tail at
    a_c = 2 - h^2 E >= 2. Returns (count, hit_zero_pivot, pivots swept), by
    the four rules of count_below_fd.

    In the tail the pivot products p_k = d d_1 ... d_k are
    (d sinh((k+1) theta_c) - sinh(k theta_c))/sinh(theta_c), which change
    sign at most once: a tail pivot is negative iff 0 < d and
    p_(n_tail) < 0, i.e. (1 - d r+) r+^(2 n_tail) > 1 - d r-, i.e.
    d < 1/_run_pivot(theta_c, n_tail - 1).

    The rules need a_c >= 2 (theta_c = 0 at a_c = 2); at E > 0 (the
    E + delta probe of an E just below 0) the whole block is swept from
    its Dirichlet end."""
    if a_c < 2.0:
        arr = np.concatenate((np.full(first, a_c), core, np.full(n_tail, a_c)))
        neg, hit_zero, _ = _sturm_pass(memoryview(arr))
        return neg, hit_zero, arr.size
    allowed = np.flatnonzero(core < 2.0)
    if allowed.size == 0:
        return 0, False, 0
    # acosh(a/2) = 2 asinh(sqrt(a - 2)/2); a - 2 is exact for a in [2, 4].
    # Summed back from the first allowed node in chunks growing 4x, until
    # _LEAD_IN: the whole head's running sums, in its order. G >= 0, so a
    # node adds at most theta_c: fewer than `need` nodes, _LEAD_IN/theta_c
    # less a rounding margin, never reach it
    theta_c = 2.0 * math.asinh(0.5 * math.sqrt(a_c - 2.0))
    need = 0.999999 * _LEAD_IN / max(theta_c, 1e-300)
    top = int(allowed[0]) if allowed[0] >= need else 0
    run, size = 0.0, max(_HEAD_CHUNK, int(need))
    while top > 0:
        lo = max(top - size, 0)
        th = 2.0 * np.arcsinh(0.5 * np.sqrt(core[lo:top] - 2.0))
        sums = np.cumsum(np.concatenate(([run], th[::-1])))[1:]
        i = int(np.searchsorted(sums, _LEAD_IN))
        if i < th.size:
            j = top - 1 - i
            d = math.exp(float(th[j - lo]))
            break
        top, run, size = lo, float(sums[-1]), 4 * size
    else:
        j = 0
        d = _run_pivot(theta_c, first - 1) if first else math.inf
    last = int(allowed[-1]) + 1
    neg, hit_zero, d = _sturm_pass(memoryview(core[j:last]), d)
    n_set, hz_set, d, k = _settle_pass(memoryview(core[last:]), d)
    if n_tail and 0.0 < d < 1.0 / _run_pivot(theta_c, n_tail - 1):
        neg += 1
    return neg + n_set, hit_zero or hz_set, last - j + k


def _line_grid(A: float, B: float, h: float, mode: BoundaryMode
               ) -> tuple[float, float, float, int, int | None, bool]:
    """Uniform grid of n <= _N_CAP intervals on [A, B], h near the target.

    In the Dirichlet-at-0 mode with 0 inside, [A, B] is shifted so t = 0 is
    node k0 of 0..n; k0 is None when there is no interior node at 0.
    Returns (A, B, h, n, k0, capped)."""
    n = max(int(math.ceil((B - A) / h)), 8)
    capped = n > _N_CAP
    if capped:
        n = _N_CAP
    h = (B - A) / n
    k0 = None
    if mode == BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0 and A < 0.0 < B:
        k = round(-A / h)
        A = -k * h
        B = A + n * h
        if 0 < k < n:
            k0 = k
    return A, B, h, n, k0, capped


def _support_read(G, A: float, h: float, n: int) -> tuple[int, np.ndarray]:
    """(k_lo, G at the interior nodes A + h*k, k = k_lo, k_lo + 1, ...) of
    a grid of n intervals, read only in G.t_support and one margin node
    either side: G = 0 at every other node."""
    t_lo, t_hi = G.t_support
    k_lo = max(math.ceil(max((t_lo - A) / h, 0.0)) - 1, 1)
    k_hi = min(math.floor(min((t_hi - A) / h, n)) + 1, n - 1)
    return k_lo, np.asarray(G.eval(A + h * np.arange(k_lo, k_hi + 1)),
                            dtype=float)


def count_below_fd(G, alpha: float, E: float,
                   mode: BoundaryMode = BoundaryMode.WHOLE_LINE, *,
                   domain: tuple[float, float] | None = None,
                   h: float | None = None,
                   near_threshold_check: bool = True) -> CountResult:
    """Count eigenvalues below E of the Dirichlet problem on [A, B] via a
    Sturm pivot pass; no eigenvalues are formed.

    The count refers to the finite window (A < B) with Dirichlet ends and
    a grid step near h > 0 (by default from the window, alpha * max G and
    E); any other raises ValueError. With
    near_threshold_check, E -/+ delta (delta = threshold_eps) are swept
    first: the count is nondecreasing in E, so where they agree block by
    block and met no zero pivot, theirs is the count at E. Otherwise E is
    swept too, and probes that disagree raise `near-threshold`. A zero
    pivot triggers an ulp-scale retry, flagged `pivot-shift` when the count
    is read from that sweep. `steps` counts the pivots of every sweep run.

    G is read only at the grid nodes in G.t_support and one node either
    side: G = 0 elsewhere, so the diagonal is exactly 2 there. Each
    Dirichlet block is swept, per energy, only from a start node up to its
    last node where G moves the diagonal, or less (the settled sweep
    below), through a memoryview of the shifted core. The rest has closed
    forms:
      * constant tail: past that node the diagonal is a = 2 - h^2 E >= 2,
        and at most one pivot is negative: one is iff 0 < d and
        (1 - d r+) r+^(2L) > 1 - d r-, with r+- = e^(+-theta),
        theta = acosh(a/2) = 2 asinh(sqrt(a - 2)/2), d the last swept
        pivot and L the number of tail nodes;
      * constant head: pivot k (0-based) of a leading run of a is
        r+ expm1(-2(k+2) theta)/expm1(-2(k+1) theta), never negative; the
        sweep enters the rest with the last one;
      * contracted lead-in: while a_i >= 2 every pivot is >= 1, so none is
        negative, and an error in the entering pivot shrinks by about
        exp(-2 sum acosh(a_k/2)). If that factor, from a node j past the
        head to the first allowed node (a_i < 2), is 1e-12 or less, the
        sweep starts at the latest such j instead, entering with the
        decaying ratio r+(a_j); the head is read back only that far;
      * settled sweep: past the last allowed node every a_i >= 2, so after
        a pivot >= 1 every pivot is >= 1, and the tail adds nothing
        (d >= 1 > 1/_run_pivot); the sweep stops at the first such pivot.
    The rules need a = 2 - h^2 E >= 2; a block probed at an energy > 0 is
    swept whole. The head and the lead-in are exact up to the rounding of
    the entering pivot, and the lead-in up to its 1e-12 contraction, so the
    count is the full sweep's unless a pivot or a bisection probe lies
    within that distance of zero; a zero pivot in a closed-form run is not
    seen, so it raises no `pivot-shift`.
    """
    _validate(alpha, E)
    _check_window(domain, h)
    mode = BoundaryMode(mode)
    A, B = domain if domain is not None else counting_domain(G, alpha, E, mode)
    flags: list[str] = ["domain-truncated"] if G.truncated else []
    if alpha * G.g_max + E <= 0.0:
        return CountResult(0, "fd", E, mode.value, (A, B),
                           flags=tuple(flags + ["below-spectrum"]))
    if h is None:
        h = min(1e-3 * (B - A),
                1.0 / (8.0 * math.sqrt(alpha * G.g_max + abs(E) + 1.0)))
    A, B, h, n, k0, capped = _line_grid(A, B, h, mode)
    if capped:
        flags.append("grid-coarsened")
    # diagonals h^2*(2/h^2 - alpha G(t_i)); a block is a core between runs
    # of `first` and n_tail nodes where the diagonal is 2 (G = 0, or too
    # small to move it), which are 2 - h^2 E at every energy
    k_lo, gv = _support_read(G, A, h, n)
    base = 2.0 - (h * h) * (alpha * gv)
    vary = np.flatnonzero(base != 2.0) + k_lo
    blocks = []
    for b0, b1 in ((1, n),) if k0 is None else ((1, k0), (k0 + 1, n)):
        v = vary[(vary >= b0) & (vary < b1)]
        f, t = (int(v[0]), int(v[-1]) + 1) if v.size else (b0, b0)
        blocks.append((base[f - k_lo:t - k_lo], f - b0, b1 - t))

    def counts_at(energy: float) -> tuple[list[int], bool, int]:
        counts = []
        zero_hit = False
        swept = 0
        a_c = 2.0 - (h * h) * energy
        for core, first, n_tail in blocks:
            arr = core - (h * h) * energy
            cnt, hz, k = _block_count(arr, first, n_tail, a_c)
            swept += k
            if hz:
                # retry once with an ulp-scale shift of the block's pivots
                shift = 4.0 * np.finfo(float).eps * float(np.max(
                    np.abs(arr), initial=abs(a_c) if first or n_tail else 0.0))
                cnt, _, k = _block_count(arr + shift, first, n_tail,
                                         a_c + shift)
                swept += k
                zero_hit = True
            counts.append(cnt)
        return counts, zero_hit, swept

    delta = threshold_eps(G, alpha) if near_threshold_check else 0.0
    per_block, zero_hit, steps, lo, hi = None, False, 0, 0, 0
    if delta > 0.0:
        c_lo, z_lo, k_lo = counts_at(E - delta)
        c_hi, z_hi, k_hi = counts_at(E + delta)
        lo, hi, steps = sum(c_lo), sum(c_hi), k_lo + k_hi
        if c_lo == c_hi and not (z_lo or z_hi):
            per_block = c_lo
    if per_block is None:
        per_block, zero_hit, k = counts_at(E)
        steps += k
    count = sum(per_block)
    uncertainty = 0
    if zero_hit:
        flags.append("pivot-shift")
        uncertainty = 1
    if lo != hi:
        flags.append("near-threshold")
        uncertainty = max(uncertainty, abs(hi - lo))
    sides = dict(zip(("left", "right"), per_block)) if k0 is not None else {}
    return CountResult(count, "fd", E, mode.value, (A, B), h, steps,
                       uncertainty, tuple(flags),
                       {"n_nodes": n - 1 - (k0 is not None), **sides})


def count_below(G, alpha: float, E: float,
                mode: BoundaryMode = BoundaryMode.WHOLE_LINE, *,
                engine: str = "pruefer", **kw) -> CountResult:
    if engine == "pruefer":
        return count_below_pruefer(G, alpha, E, mode, **kw)
    if engine == "fd":
        return count_below_fd(G, alpha, E, mode, **kw)
    raise ValueError(f"unknown engine {engine!r}; use 'pruefer' or 'fd'")


# ---------------------------------------------------------------------------
# eigenvalue location


def eigenvalues_below(G, alpha: float, *, E: float | None = None,
                      n_max: int = 128,
                      mode: BoundaryMode = BoundaryMode.WHOLE_LINE,
                      engine: str = "pruefer", tol_eig: float = 1e-9
                      ) -> tuple[np.ndarray, bool]:
    """Locate the eigenvalues below E (by default the channel energy of
    m = 0) by bisecting the counting function.

    Returns (energies ascending, truncated): if more than n_max eigenvalues
    lie below E only the n_max lowest are returned and truncated=True.
    Bisection drives intervals below tol_eig * max(1, |E_low|), or to
    adjacent floats, whichever is wider; clustered eigenvalues within that
    width come out as one midpoint with multiplicity. 0 < tol_eig < inf,
    or ValueError.
    """
    if not 0.0 < tol_eig < math.inf:
        raise ValueError(f"need finite tol_eig > 0, got {tol_eig}")
    E = channel_energy(G, alpha) if E is None else E
    if E is None:
        return np.empty(0), False
    _validate(alpha, E)

    fd_kw = {"near_threshold_check": False} if engine == "fd" else {}

    def C(e: float) -> int:
        return count_below(G, alpha, e, mode, engine=engine, **fd_kw).count

    floor = -alpha * G.g_max * (1.0 + 1e-12) - 1e-12
    if floor >= E:
        return np.empty(0), False
    total = C(E)
    if total == 0:
        return np.empty(0), False
    width_tol = tol_eig * max(1.0, abs(floor))
    out: list[float] = []
    stack = [(floor, E, 0, total)]
    while stack:
        lo, hi, c_lo, c_hi = stack.pop()
        k = c_hi - c_lo
        if k <= 0:
            continue
        mid = 0.5 * (lo + hi)
        # adjacent floats have no midpoint strictly between them
        if hi - lo < width_tol or not lo < mid < hi:
            out.extend([mid] * k)
            continue
        c_mid = C(mid)
        stack.append((lo, mid, c_lo, c_mid))
        stack.append((mid, hi, c_mid, c_hi))
    out.sort()
    truncated = len(out) > n_max
    return np.array(out[:n_max]), truncated


# ---------------------------------------------------------------------------
# quadratic-form companion spectrum


def bs_spectrum(G, mode: BoundaryMode = BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0,
                *, domain: tuple[float, float] | None = None,
                h: float | None = None, n_max: int = 32
                ) -> tuple[np.ndarray, dict]:
    """Largest n_max eigenvalues of (G u, u) / (u', u') with Dirichlet ends.

    These are alpha-independent; the bound-state count of the coupling-alpha
    problem equals #{lambda_n > 1/alpha}. Discretized as the pencil
    M u = lambda K u (M = h diag G, K = (1/h) tridiag(-1, 2, -1)) on a
    grid of step near h (by default max(4000, 40 n_max) intervals). G must
    be >= 0 on the grid. The default window, counting_domain's at the m = 0
    channel energy of alpha = 1, is that of any alpha with alpha max G < 2.1e8.

    Only the m_s nodes with G > 0 (the support; no threshold) carry mass;
    as in count_below_fd, G is read only at the nodes in G.t_support and one
    margin node either side, since G = 0 at the others. The rest are
    eliminated exactly: their Schur complement leaves K_s, the 1-d
    Laplacian on the gaps between kept nodes and the Dirichlet walls (0, n,
    and t = 0 in the split mode): diagonal (1/left + 1/right)/h,
    off-diagonal -1/(gap h), 0 across a wall, gaps counted in nodes. The
    nonzero eigenvalues are those of M_s^(1/2) K_s^(-1) M_s^(1/2). When
    m_s <= n_max + 1 every one is wanted, and all come from a dense numpy
    eigvalsh; otherwise Lanczos runs on that operator, with K_s factored
    once (LAPACK dpttrf), one tridiagonal solve per product and a fixed
    start vector, so results are deterministic. Returns (descending
    eigenvalues, zero-padded to n_max, meta); meta holds the grid's node
    count n_nodes, n_support = m_s, and capped, True when the grid was
    coarsened to _N_CAP intervals.
    """
    _check_window(domain, h)
    mode = BoundaryMode(mode)
    if domain is None:
        domain = counting_domain(G, 1.0, -threshold_eps(G, 1.0), mode)
    A, B = domain
    if h is None:
        h = (B - A) / max(4000, 40 * n_max)
    A, B, h, n, k0, capped = _line_grid(A, B, h, mode)
    k_lo, gv = _support_read(G, A, h, n)
    if np.any(gv < 0.0):
        raise ValueError("bs_spectrum needs G >= 0 on the grid; "
                         f"min G = {float(np.min(gv))!r}")
    keep = gv > 0.0
    if k0 is not None and 0 <= k0 - k_lo < len(keep):
        keep[k0 - k_lo] = False  # Dirichlet node at t = 0
    pos = np.flatnonzero(keep) + k_lo
    m_s = len(pos)
    meta = {"domain": (A, B), "h": h, "n_nodes": n - 1 - (k0 is not None),
            "n_support": m_s, "capped": capped}
    lam = np.zeros(n_max)
    if m_s == 0:
        return lam, meta
    # K_s on the kept nodes: each couples to its nearest kept node or wall
    # on either side; kept nodes adjacent in pts have no wall between them
    pts = _unique_sorted(np.concatenate(
        (pos, [0, n] if k0 is None else [0, k0, n])))
    gap = np.diff(pts)
    at = np.searchsorted(pts, pos)
    diag = (1.0 / gap[at - 1] + 1.0 / gap[at]) / h
    off = np.where(np.diff(at) == 1, -1.0 / (gap[at[:-1]] * h), 0.0)
    sq = np.sqrt(h * gv[pos - k_lo])
    k_eff = min(n_max, m_s)
    if m_s <= n_max + 1:
        K = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        S = sq[:, None] * np.linalg.solve(K, np.diag(sq))
        vals = np.linalg.eigvalsh(S)[::-1]
    else:
        # scipy loads here, so importing radcount needs numpy alone
        from scipy.linalg.lapack import dpttrf, dpttrs
        from scipy.sparse.linalg import LinearOperator, eigsh

        d, e, _ = dpttrf(diag, off)

        def matvec(v):
            return sq * dpttrs(d, e, sq * v)[0]

        op = LinearOperator((m_s, m_s), matvec=matvec, dtype=float)
        v0 = np.full(m_s, 1.0 / math.sqrt(m_s))
        vals = eigsh(op, k=k_eff, which="LA", v0=v0, maxiter=10000,
                     return_eigenvectors=False)
        vals = np.sort(vals)[::-1]
    lam[:k_eff] = np.clip(vals[:k_eff], 0.0, None)
    return lam, meta
