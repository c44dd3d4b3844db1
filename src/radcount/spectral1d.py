"""Counting eigenvalues of -d^2/dt^2 - alpha G(t) below E < 0.

Two independent engines with no shared discretization machinery:

  * count_below_pruefer: phase-plane shooting. The phase solves
    theta' = cos^2 theta + (E + alpha G) sin^2 theta; solution zeros are the
    (monotone) crossings of multiples of pi, and on the whole line the
    decaying-solution boundary conditions are a left initial phase
    atan(1/kappa) plus an exact rule for one extra zero beyond the right
    endpoint. Integration is an adaptive Cash-Karp RK45 on the scaled
    (Pryce) phase, theta' = S cos^2 theta + ((E + alpha G)/S) sin^2 theta
    with S = sqrt(max(1, |E + alpha G|)) reset at every step: it has the
    same zeros and turns at an even rate over an oscillation, so a step can
    cover about one radian. The plain phase goes in and comes out. The
    kernel runs only where the count is decided. On the whole line it starts
    left of the first allowed point, where the decaying phase is pinned: a
    phase error there contracts by exp(-2 int sqrt(-w)). Beyond the support
    of G, w = E is constant, and that stretch is mapped in closed form.

  * count_below_fd: three-point finite differences on a uniform grid and a
    Sturm (LDL pivot) pass over the shifted tridiagonal matrix. Counts
    negative pivots; never forms eigenvalues. The pass, too, runs only where
    the count is decided. Where G = 0 the diagonal is the constant
    2 - h^2 E > 2, and its pivots have closed forms: a leading run from the
    Dirichlet end holds none that is negative, a trailing run at most one.
    While the diagonal is >= 2, every pivot is >= 1, so the pass starts at a
    lead-in node left of the first allowed one, from which an error in the
    entering pivot shrinks by 1e-12, and past the last allowed node it
    stops at the first pivot >= 1.

Both count the same thing up to discretization windows, and on an identical
finite interval with Dirichlet ends (`truncated=True` for the phase engine)
they count the *same* operator, so they must agree exactly; that property is
tested, hard.

On top of the counters: eigenvalue location by bisection of the counting
function, and the quadratic-form spectrum of the Birman-Schwinger companion
(u', u') vs (G u, u), whose eigenvalues above 1/alpha are in bijection with
the bound states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "BoundaryMode",
    "StepControl",
    "GridSpec",
    "CountResult",
    "threshold_eps",
    "counting_domain",
    "count_below_pruefer",
    "count_below_fd",
    "count_below",
    "eigenvalues_below",
    "bs_spectrum",
]


class BoundaryMode(str, Enum):
    WHOLE_LINE = "whole-line"
    HALF_LINE_DIRICHLET = "half-line-dirichlet"
    WHOLE_LINE_DIRICHLET_AT_0 = "whole-line-dirichlet-at-0"


@dataclass(frozen=True)
class StepControl:
    """Adaptive step knobs for the phase integrator."""

    phase_tol: float = 1e-10      # absolute per-step phase error
    h_max: float = 0.5
    h_min: float = 1e-12
    max_steps: int = 2_000_000


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid knobs for the finite-difference engine."""

    h: float | None = None
    n_cap: int = 3_000_000


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


def threshold_eps(G, alpha: float) -> float:
    """Offset below 0 used to stand in for 'strictly negative':
    THRESHOLD_FRAC of the natural energy scale alpha * max G."""
    return THRESHOLD_FRAC * alpha * G.g_max


def counting_domain(G, alpha: float, E: float,
                    mode: BoundaryMode = BoundaryMode.WHOLE_LINE,
                    *, pad_cap: float = 40.0) -> tuple[float, float]:
    """Window [A, B] for the counting problem: the mass window of G plus a
    decay pad ~ -ln(1e-8)/kappa for the evanescent tails, capped."""
    T_minus, T_plus = G.domain_hint
    kappa = math.sqrt(max(-E, 1e-30))
    pad = min(-math.log(1e-8) / kappa, pad_cap)
    if mode == BoundaryMode.HALF_LINE_DIRICHLET:
        return 0.0, max(T_plus, 0.0) + pad
    if mode == BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0:
        return min(T_minus, 0.0) - pad, max(T_plus, 0.0) + pad
    return T_minus - pad, T_plus + pad


def _validate(alpha: float, E: float) -> None:
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise ValueError(f"need alpha > 0, got {alpha}")
    if not (E < 0.0 and math.isfinite(E)):
        raise ValueError(f"need E < 0 (continuous spectrum starts at 0), got {E}")


# ---------------------------------------------------------------------------
# phase (shooting) engine

# Cash-Karp tableau, one name per entry so the unrolled step reads no tuples
_C2, _C3, _C4, _C5, _C6 = 1 / 5, 3 / 10, 3 / 5, 1.0, 7 / 8
_A21, _A31, _A32 = 1 / 5, 3 / 40, 9 / 40
_A41, _A42, _A43 = 3 / 10, -9 / 10, 6 / 5
_A51, _A52, _A53, _A54 = -11 / 54, 5 / 2, -70 / 27, 35 / 27
_A61, _A62, _A63, _A64, _A65 = (1631 / 55296, 175 / 512, 575 / 13824,
                                44275 / 110592, 253 / 4096)
# fifth- and fourth-order weights, zero weights (b2; b5 in the fifth) dropped
_B51, _B53, _B54, _B56 = 37 / 378, 250 / 621, 125 / 594, 512 / 1771
_B41, _B43, _B44, _B45, _B46 = (2825 / 27648, 18575 / 48384, 13525 / 55296,
                                277 / 14336, 1 / 4)


def _rescale_phase(th: float, r: float) -> float:
    """Phase after the scale is multiplied by r: tan theta -> r tan theta in
    the same branch [k pi - pi/2, k pi + pi/2), so multiples of pi stay."""
    k = math.floor(th / math.pi + 0.5)
    phi = th - k * math.pi
    return k * math.pi + math.atan2(r * math.sin(phi), math.cos(phi))


def _integrate_phase(g_scalar, alpha: float, E: float, a: float, b: float,
                     theta0: float, breaks, ctrl: StepControl
                     ) -> tuple[float, int, list[str]]:
    """Advance the phase from a to b; returns (theta(b), steps, flags).

    theta0 and theta(b) are unscaled (u = rho sin theta, u' = rho cos theta).
    Inside, the phase is scaled: u = rho sin(theta)/sqrt(S) and
    u' = rho sqrt(S) cos(theta) with S = sqrt(max(1, |w|)), w = E + alpha g,
    held constant over a step, so theta' = S cos^2 + (w/S) sin^2 turns at
    about sqrt(w) on both halves of an oscillation. S is reset from g(t) at
    each step start, which rescales theta (_rescale_phase), and the step is
    capped at 1/S, about one radian of phase. The stages are written out
    with every sum in tableau order; g(t) is evaluated once per step, for
    the scale and the first stage. The last step of a piece lands exactly on
    the piece end and is never counted as floored."""
    flags: list[str] = []
    pieces = [a] + sorted(p for p in breaks if a < p < b) + [b]
    tol, h_min, h_max = ctrl.phase_tol, ctrl.h_min, ctrl.h_max
    sin, cos, sqrt = math.sin, math.cos, math.sqrt
    th = theta0
    S = iS = 1.0
    steps = 0
    for lo, hi in zip(pieces, pieces[1:]):
        t = lo
        w_mid = E + alpha * g_scalar(0.5 * (lo + hi))
        h = min(h_max, hi - lo, 1.0 / sqrt(max(1.0, abs(w_mid))))
        while t < hi:
            if steps >= ctrl.max_steps:
                raise RuntimeError(
                    f"phase integration exceeded {ctrl.max_steps} steps "
                    f"(alpha={alpha}, E={E})")
            w = E + alpha * g_scalar(t)
            aw = abs(w)
            S_new = sqrt(aw) if aw > 1.0 else 1.0
            if S_new != S:
                th = _rescale_phase(th, S_new / S)
                S = S_new
                iS = 1.0 / S
            h = min(h, iS, h_max)
            last = h >= hi - t   # this step ends the piece, exactly on hi
            if last:
                h = hi - t
            elif h < h_min:
                h = h_min
                flags.append("step-floor")
            s, c = sin(th), cos(th)
            k1 = S * c * c + w * iS * s * s
            y = th + h * (_A21 * k1)
            s, c = sin(y), cos(y)
            k2 = S * c * c + (E + alpha * g_scalar(t + _C2 * h)) * iS * s * s
            y = th + h * (_A31 * k1 + _A32 * k2)
            s, c = sin(y), cos(y)
            k3 = S * c * c + (E + alpha * g_scalar(t + _C3 * h)) * iS * s * s
            y = th + h * (_A41 * k1 + _A42 * k2 + _A43 * k3)
            s, c = sin(y), cos(y)
            k4 = S * c * c + (E + alpha * g_scalar(t + _C4 * h)) * iS * s * s
            y = th + h * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4)
            s, c = sin(y), cos(y)
            k5 = S * c * c + (E + alpha * g_scalar(t + _C5 * h)) * iS * s * s
            y = th + h * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4
                          + _A65 * k5)
            s, c = sin(y), cos(y)
            k6 = S * c * c + (E + alpha * g_scalar(t + _C6 * h)) * iS * s * s
            th5 = th + h * (_B51 * k1 + _B53 * k3 + _B54 * k4 + _B56 * k6)
            th4 = th + h * (_B41 * k1 + _B43 * k3 + _B44 * k4 + _B45 * k5
                            + _B46 * k6)
            err = abs(th5 - th4)
            steps += 1
            if err <= tol or h <= h_min:
                t = hi if last else t + h
                th = th5
            fac = 0.9 * (tol / (err + 1e-300)) ** 0.2
            h *= min(5.0, max(0.2, fac))
    if S != 1.0:
        th = _rescale_phase(th, 1.0 / S)
    return th, steps, flags


def _lead_in(G, alpha: float, E: float, A: float, B: float,
             ctrl: StepControl) -> tuple[float, float]:
    """(t0, theta0): where the whole-line pass starts, and its phase.

    Left of the first allowed point t1 (w = E + alpha G >= 0), moving right
    multiplies a phase error by at most exp(-2 int sqrt(-w)). So the pass
    can start at the latest t0 with int_{t0}^{t1} sqrt(-w) >= L, where
    exp(-2L) = phase_tol/100, at the local WKB phase atan2(1, sqrt(-w(t0)))
    of the decaying solution. G is scanned once from A to its argmax, every
    breakpoint included, at a spacing of at most 1/(4 S_top): a pocket
    missed between two scan points turns the scaled phase by at most 1/4
    rad, and the decaying phase lies in (0, pi/2), so it cannot make a
    zero. Each cell counts at the smaller of its two end values. Without
    such a t0 (always when kappa (B - A) < L) the pass starts at A at
    atan2(1, kappa)."""
    kappa = math.sqrt(-E)
    start = A, math.atan2(1.0, kappa)
    L = 0.5 * math.log(100.0 / ctrl.phase_tol)
    t_end = min(B, G.g_argmax)
    if kappa * (B - A) < L or not t_end > A:
        return start
    S_top = math.sqrt(max(1.0, alpha * G.g_max + E))
    ts = np.linspace(A, t_end, int(math.ceil(4.0 * S_top * (t_end - A))) + 1)
    ts = np.union1d(ts, [p for p in G.breakpoints if A < p < t_end])
    w = E + alpha * np.asarray(G.eval(ts), dtype=float)
    allowed = np.flatnonzero(w >= 0.0)
    if allowed.size == 0 or allowed[0] == 0:
        return start
    i1 = allowed[0]
    q = np.sqrt(np.maximum(-w[: i1 + 1], 0.0))
    cells = np.minimum(q[:-1], q[1:]) * np.diff(ts[: i1 + 1])
    to_t1 = np.cumsum(cells[::-1])[::-1]   # int_{ts[j]}^{t1}, j < i1
    far = np.flatnonzero(to_t1 >= L)
    if far.size == 0:
        return start
    j = far[-1]
    return float(ts[j]), math.atan2(1.0, float(q[j]))


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
                        step: StepControl = StepControl(),
                        truncated: bool = False) -> CountResult:
    """Count eigenvalues below E by phase shooting.

    truncated=True counts the Dirichlet problem on [A, B] itself (phase
    starts at 0, no tail rule); the default counts the problem on the full
    line/half-line, treating [A, B] as a window that contains the potential.

    The RK kernel integrates only where the count is decided. On the whole
    line (truncated=False) it starts at the lead-in start of _lead_in: the
    latest point left of the first allowed point with
    int sqrt(-w) >= L = ln(100/phase_tol)/2 up to it, at the local WKB phase,
    or at A when there is none. In every mode and pass it stops at the end
    of the support of G; the rest of the pass, where G = 0, is mapped
    exactly (_zero_tail), and the count is read at B as before.
    """
    _validate(alpha, E)
    mode = BoundaryMode(mode)
    A, B = domain if domain is not None else counting_domain(G, alpha, E, mode)
    kappa = math.sqrt(-E)
    flags: list[str] = ["domain-truncated"] if G.truncated else []
    if alpha * G.g_max + E <= 0.0:
        return CountResult(0, "pruefer", E, mode.value, (A, B),
                           flags=tuple(flags + ["below-spectrum"]))

    def one_pass(g_scalar, a, b, theta0, breaks, t_zero):
        # G = 0 from t_zero on: RK up to there, the exact map over the rest
        z = min(max(a, t_zero), b)
        th, n, fl = _integrate_phase(g_scalar, alpha, E, a, z, theta0,
                                     breaks, step)
        if z < b:
            th = _zero_tail(th, kappa, b - z)
        c, u, fl2 = _zeros_from_phase(th, kappa, tail=not truncated)
        return c, u, fl + fl2, th, n

    steps = 0
    extras: dict = {}
    t_lo, t_hi = G.t_support
    if mode == BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0:
        gs = G.eval_scalar
        right, u1, f1, th_r, n1 = one_pass(gs, 0.0, B, 0.0, G.breakpoints,
                                           t_hi)
        left_breaks = [-b for b in G.breakpoints]
        left, u2, f2, th_l, n2 = one_pass(lambda s: gs(-s), 0.0, -A, 0.0,
                                          left_breaks, -t_lo)
        count = left + right
        uncertainty = u1 + u2
        flags += f1 + f2
        steps = n1 + n2
        extras = {"left": left, "right": right}
    else:
        if mode == BoundaryMode.HALF_LINE_DIRICHLET:
            a, theta0 = 0.0, 0.0
        elif truncated:
            a, theta0 = A, 0.0
        else:
            a, theta0 = _lead_in(G, alpha, E, A, B, step)
        count, uncertainty, fl, th, steps = one_pass(
            G.eval_scalar, a, B, theta0, G.breakpoints, t_hi)
        flags += fl
        extras = {"theta_end": th}
    return CountResult(count, "pruefer", E, mode.value, (A, B), None, steps,
                       uncertainty, tuple(flags), extras)


# ---------------------------------------------------------------------------
# finite-difference (Sturm pivot) engine

# a pivot error entering the allowed region shrinks by exp(-2 sum theta_k)
# over the lead-in, theta_k = acosh(a_k/2); start where that reaches 1e-12
_FD_LEAD_IN = 0.5 * math.log(1e12)


def _sturm_pass(a: list[float], d: float = math.inf
                ) -> tuple[int, bool, float]:
    """Negative-pivot count for the scaled tridiagonal with unit off-diagonal
    and diagonal `a`; by Sylvester inertia this is the eigenvalue count below
    the shift baked into `a`. d is the pivot entering a[0] (inf at a
    Dirichlet end, where a[0] - 1/inf == a[0]). Returns (count,
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


def _settle_pass(a: list[float], d: float) -> tuple[int, bool, float, int]:
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


def _block_count(arr: np.ndarray, first: int, stop: int, a_c: float
                 ) -> tuple[int, bool, int]:
    """Negative pivots of one Dirichlet block with diagonal `arr`, whose
    nodes before `first` (the head) and the n_tail = len(arr) - stop nodes
    from `stop` on (the tail) hold a_c = 2 - h^2 E >= 2. Returns (count,
    hit_zero_pivot, pivots swept), by the four rules of count_below_fd.

    In the tail the pivot products p_k = d d_1 ... d_k are
    (d sinh((k+1) theta_c) - sinh(k theta_c))/sinh(theta_c), which change
    sign at most once: a tail pivot is negative iff 0 < d and
    p_(n_tail) < 0, i.e. (1 - d r+) r+^(2 n_tail) > 1 - d r-, i.e.
    d < 1/_run_pivot(theta_c, n_tail - 1).

    The rules need a_c >= 2 (theta_c = 0 at a_c = 2); at E > 0 (the
    E + delta probe of an E just below 0) the whole block is swept from
    its Dirichlet end."""
    if a_c < 2.0:
        neg, hit_zero, _ = _sturm_pass(arr.tolist())
        return neg, hit_zero, arr.size
    core = arr[first:stop]
    n_tail = len(arr) - stop
    allowed = np.flatnonzero(core < 2.0)
    if allowed.size == 0:
        return 0, False, 0
    # acosh(a/2) = 2 asinh(sqrt(a - 2)/2); a - 2 is exact for a in [2, 4]
    theta_c = 2.0 * math.asinh(0.5 * math.sqrt(a_c - 2.0))
    th = 2.0 * np.arcsinh(0.5 * np.sqrt(core[: allowed[0]] - 2.0))
    i = int(np.searchsorted(np.cumsum(th[::-1]), _FD_LEAD_IN))
    if i < th.size:
        j = th.size - 1 - i
        d = math.exp(float(th[j]))
    else:
        j = 0
        d = _run_pivot(theta_c, first - 1) if first else math.inf
    last = int(allowed[-1]) + 1
    neg, hit_zero, d = _sturm_pass(core[j:last].tolist(), d)
    n_set, hz_set, d, k = _settle_pass(core[last:].tolist(), d)
    if n_tail and 0.0 < d < 1.0 / _run_pivot(theta_c, n_tail - 1):
        neg += 1
    return neg + n_set, hit_zero or hz_set, last - j + k


def _line_grid(A: float, B: float, h: float, n_cap: int, mode: BoundaryMode
               ) -> tuple[float, float, float, int, int | None, bool]:
    """Uniform grid of n intervals on [A, B], h near the target, n capped.

    In the Dirichlet-at-0 mode with 0 inside, [A, B] is shifted so t = 0 is
    node k0 of 0..n; k0 is None when there is no interior node at 0.
    Returns (A, B, h, n, k0, capped)."""
    n = max(int(math.ceil((B - A) / h)), 8)
    capped = n > n_cap
    if capped:
        n = n_cap
    h = (B - A) / n
    k0 = None
    if mode == BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0 and A < 0.0 < B:
        k = round(-A / h)
        A = -k * h
        B = A + n * h
        if 0 < k < n:
            k0 = k
    return A, B, h, n, k0, capped


def count_below_fd(G, alpha: float, E: float,
                   mode: BoundaryMode = BoundaryMode.WHOLE_LINE, *,
                   domain: tuple[float, float] | None = None,
                   grid: GridSpec = GridSpec(),
                   near_threshold_check: bool = True) -> CountResult:
    """Count eigenvalues below E of the Dirichlet problem on [A, B] via a
    Sturm pivot pass; no eigenvalues are formed.

    The count refers to the finite window with Dirichlet ends. A near-
    threshold flag is raised when counting at E -/+ the threshold offset
    disagrees, and a zero pivot triggers an ulp-scale shift (flagged).

    Each Dirichlet block is swept, per energy, only from a start node up
    to its last node where G moves the diagonal, or less (the settled
    sweep below). The rest has closed forms:
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
        decaying ratio r+(a_j);
      * settled sweep: past the last allowed node every a_i >= 2, so after
        a pivot >= 1 every pivot is >= 1, and the tail adds nothing
        (d >= 1 > 1/_run_pivot); the sweep stops at the first such pivot.
    The rules need a = 2 - h^2 E >= 2; a block probed at an energy > 0 is
    swept whole. The head and the lead-in are exact up to the rounding of
    the entering pivot, and the lead-in up to its 1e-12 contraction, so the
    count is the full sweep's unless a pivot or a bisection probe lies
    within that distance of zero; a zero pivot in a closed-form run is not
    seen, so it raises no `pivot-shift`. `steps` counts the pivots swept,
    at E and E -/+ delta and in any retry.
    """
    _validate(alpha, E)
    mode = BoundaryMode(mode)
    A, B = domain if domain is not None else counting_domain(G, alpha, E, mode)
    flags: list[str] = ["domain-truncated"] if G.truncated else []
    if alpha * G.g_max + E <= 0.0:
        return CountResult(0, "fd", E, mode.value, (A, B),
                           flags=tuple(flags + ["below-spectrum"]))
    h = grid.h
    if h is None:
        h = min(1e-3 * (B - A),
                1.0 / (8.0 * math.sqrt(alpha * G.g_max + abs(E) + 1.0)))
    A, B, h, n, k0, capped = _line_grid(A, B, h, grid.n_cap, mode)
    if capped:
        flags.append("grid-coarsened")
    gv = np.asarray(G.eval(A + h * np.arange(1, n)), dtype=float)
    # diagonals h^2*(2/h^2 - alpha G(t_i)), one per Dirichlet block; its
    # core lies between the runs where the diagonal is 2 (G = 0, or too
    # small to move it), which are 2 - h^2 E at every energy
    base = 2.0 - (h * h) * (alpha * gv)
    blocks = [base] if k0 is None else [base[: k0 - 1], base[k0:]]
    cores = []
    for blk in blocks:
        vary = np.flatnonzero(blk != 2.0)
        cores.append((int(vary[0]), int(vary[-1]) + 1) if vary.size
                     else (0, 0))

    def counts_at(energy: float) -> tuple[list[int], bool, int]:
        counts = []
        zero_hit = False
        swept = 0
        a_c = 2.0 - (h * h) * energy
        for blk, (first, stop) in zip(blocks, cores):
            arr = blk - (h * h) * energy
            cnt, hz, k = _block_count(arr, first, stop, a_c)
            swept += k
            if hz:
                # retry once with an ulp-scale shift of the pivots
                shift = 4.0 * np.finfo(float).eps * float(np.max(np.abs(arr)))
                cnt, _, k = _block_count(arr + shift, first, stop,
                                         a_c + shift)
                swept += k
                zero_hit = True
            counts.append(cnt)
        return counts, zero_hit, swept

    per_block, zero_hit, steps = counts_at(E)
    count = sum(per_block)
    uncertainty = 0
    if zero_hit:
        flags.append("pivot-shift")
        uncertainty = 1
    if near_threshold_check:
        delta = threshold_eps(G, alpha)
        if delta > 0.0:
            c_lo, _, k_lo = counts_at(E - delta)
            c_hi, _, k_hi = counts_at(E + delta)
            steps += k_lo + k_hi
            lo, hi = sum(c_lo), sum(c_hi)
            if lo != hi:
                flags.append("near-threshold")
                uncertainty = max(uncertainty, abs(hi - lo))
    sides = dict(zip(("left", "right"), per_block)) if k0 is not None else {}
    return CountResult(count, "fd", E, mode.value, (A, B), h, steps,
                       uncertainty, tuple(flags),
                       {"n_nodes": sum(len(b) for b in blocks), **sides})


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
                      engine: str = "pruefer", tol_eig: float = 1e-9,
                      **kw) -> tuple[np.ndarray, bool]:
    """Locate the eigenvalues below E by bisecting the counting function.

    Returns (energies ascending, truncated): if more than n_max eigenvalues
    lie below E only the n_max lowest are returned and truncated=True.
    Bisection drives intervals below tol_eig * max(1, |E_low|); clustered
    eigenvalues within that width come out as one midpoint with multiplicity.
    """
    if E is None:
        eps = threshold_eps(G, alpha)
        if eps <= 0.0:
            return np.empty(0), False
        E = -eps
    _validate(alpha, E)

    def C(e: float) -> int:
        return count_below(G, alpha, e, mode, engine=engine,
                           **({"near_threshold_check": False} if engine == "fd" else {}),
                           **kw).count

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
        if hi - lo < width_tol:
            out.extend([0.5 * (lo + hi)] * k)
            continue
        mid = 0.5 * (lo + hi)
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
                grid: GridSpec = GridSpec(), n_max: int = 32
                ) -> tuple[np.ndarray, dict]:
    """Largest n_max eigenvalues of (G u, u) / (u', u') with Dirichlet ends.

    These are alpha-independent; the bound-state count of the coupling-alpha
    problem equals #{lambda_n > 1/alpha}. Discretized as the pencil
    M u = lambda K u (M = h diag G, K = (1/h) tridiag(-1, 2, -1)). K is
    factored once (LDL^T, LAPACK dpttrf). Lanczos runs on the symmetric
    M^(1/2) K^(-1) M^(1/2), which has the pencil's spectrum, so each
    product is one tridiagonal solve; its start vector is fixed, so results
    are deterministic. G must be >= 0 on the grid. Returns (descending
    eigenvalues, meta).
    """
    # scipy loads here, so importing radcount needs numpy alone
    from scipy.linalg.lapack import dpttrf, dpttrs
    from scipy.sparse.linalg import LinearOperator, eigsh

    mode = BoundaryMode(mode)
    if domain is None:
        e_probe = -max(1e-9 * G.g_max, 1e-12)
        domain = counting_domain(G, 1.0, e_probe, mode)
    A, B = domain
    h = grid.h
    if h is None:
        h = (B - A) / min(max(4000, 40 * n_max), grid.n_cap)
    A, B, h, n, k0, _ = _line_grid(A, B, h, grid.n_cap, mode)
    gv = np.asarray(G.eval(A + h * np.arange(1, n)), dtype=float)
    if np.any(gv < 0.0):
        raise ValueError("bs_spectrum needs G >= 0 on the grid; "
                         f"min G = {float(np.min(gv))!r}")
    if k0 is not None:
        gv = np.delete(gv, k0 - 1)  # Dirichlet node at t = 0
    m = len(gv)
    meta = {"domain": (A, B), "h": h, "n_nodes": m}
    lam = np.zeros(n_max)
    k_eff = min(n_max, m - 2, int(np.count_nonzero(gv > 0.0)))
    if k_eff < 1:
        return lam, meta
    # K: constant tridiagonal, with the one coupling across the dropped
    # node zeroed so the two sides are Dirichlet blocks
    off = np.full(m - 1, -1.0 / h)
    if k0 is not None and k0 >= 2:
        off[k0 - 2] = 0.0
    d, e, _ = dpttrf(np.full(m, 2.0 / h), off)
    sq = np.sqrt(h * gv)

    def matvec(v):
        return sq * dpttrs(d, e, sq * v)[0]

    op = LinearOperator((m, m), matvec=matvec, dtype=float)
    v0 = np.full(m, 1.0 / math.sqrt(m))
    vals = eigsh(op, k=k_eff, which="LA", v0=v0, maxiter=10000,
                 return_eigenvectors=False)
    vals = np.sort(vals)[::-1]
    vals = np.clip(vals, 0.0, None)
    lam[: len(vals)] = vals
    return lam, meta
