"""Counting eigenvalues of -d^2/dt^2 - alpha G(t) below E < 0.

Two independent engines with no shared discretization machinery:

  * count_below_pruefer: phase-plane shooting. The phase solves
    theta' = cos^2 theta + (E + alpha G) sin^2 theta; solution zeros are the
    (monotone) crossings of multiples of pi, and on the whole line the
    decaying-solution boundary conditions are a left initial phase
    atan(1/kappa) plus an exact rule for one extra zero beyond the right
    endpoint. Integration is an adaptive Cash-Karp RK45 on the scalar phase.

  * count_below_fd: three-point finite differences on a uniform grid and a
    Sturm (LDL pivot) pass over the shifted tridiagonal matrix. Counts
    negative pivots; never forms eigenvalues.

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
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np
from scipy.linalg import cholesky_banded, solve_banded
from scipy.sparse.linalg import LinearOperator, eigsh

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


def threshold_eps(G, alpha: float) -> float:
    """Offset below 0 used to stand in for 'strictly negative': 1e-9 of the
    natural energy scale alpha * max G."""
    return 1e-9 * alpha * G.g_max


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


def _integrate_phase(g_scalar, alpha: float, E: float, a: float, b: float,
                     theta0: float, breaks, ctrl: StepControl
                     ) -> tuple[float, int, list[str]]:
    """Advance the phase from a to b; returns (theta(b), steps, flags).

    The stages are written out with every sum in tableau order; g(t) is
    evaluated once per step, for the step cap and the first stage."""
    flags: list[str] = []
    pieces = [a] + sorted(p for p in breaks if a < p < b) + [b]
    tol, h_min, h_max = ctrl.phase_tol, ctrl.h_min, ctrl.h_max
    sin, cos, sqrt = math.sin, math.cos, math.sqrt
    cap_base = 1.0 + abs(E)
    th = theta0
    steps = 0
    for lo, hi in zip(pieces, pieces[1:]):
        t = lo
        w_mid = E + alpha * g_scalar(0.5 * (lo + hi))
        h = min(h_max, hi - lo, 0.25 / sqrt(1.0 + abs(w_mid)))
        while t < hi:
            if steps >= ctrl.max_steps:
                raise RuntimeError(
                    f"phase integration exceeded {ctrl.max_steps} steps "
                    f"(alpha={alpha}, E={E})")
            ag = alpha * g_scalar(t)
            h = min(h, 0.25 / sqrt(cap_base + ag), hi - t, h_max)
            if h < h_min:
                h = h_min
                flags.append("step-floor")
            s, c = sin(th), cos(th)
            k1 = c * c + (E + ag) * s * s
            y = th + h * (_A21 * k1)
            s, c = sin(y), cos(y)
            k2 = c * c + (E + alpha * g_scalar(t + _C2 * h)) * s * s
            y = th + h * (_A31 * k1 + _A32 * k2)
            s, c = sin(y), cos(y)
            k3 = c * c + (E + alpha * g_scalar(t + _C3 * h)) * s * s
            y = th + h * (_A41 * k1 + _A42 * k2 + _A43 * k3)
            s, c = sin(y), cos(y)
            k4 = c * c + (E + alpha * g_scalar(t + _C4 * h)) * s * s
            y = th + h * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4)
            s, c = sin(y), cos(y)
            k5 = c * c + (E + alpha * g_scalar(t + _C5 * h)) * s * s
            y = th + h * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4
                          + _A65 * k5)
            s, c = sin(y), cos(y)
            k6 = c * c + (E + alpha * g_scalar(t + _C6 * h)) * s * s
            th5 = th + h * (_B51 * k1 + _B53 * k3 + _B54 * k4 + _B56 * k6)
            th4 = th + h * (_B41 * k1 + _B43 * k3 + _B44 * k4 + _B45 * k5
                            + _B46 * k6)
            err = abs(th5 - th4)
            steps += 1
            if err <= tol or h <= h_min:
                t += h
                th = th5
            fac = 0.9 * (tol / (err + 1e-300)) ** 0.2
            h *= min(5.0, max(0.2, fac))
    return th, steps, flags


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
    """
    _validate(alpha, E)
    mode = BoundaryMode(mode)
    A, B = domain if domain is not None else counting_domain(G, alpha, E, mode)
    kappa = math.sqrt(-E)
    flags: list[str] = ["domain-truncated"] if G.truncated else []
    if alpha * G.g_max + E <= 0.0:
        return CountResult(0, "pruefer", E, mode.value, (A, B),
                           flags=tuple(flags + ["below-spectrum"]))

    def one_pass(g_scalar, a, b, theta0, breaks):
        th, n, fl = _integrate_phase(g_scalar, alpha, E, a, b, theta0,
                                     breaks, step)
        c, u, fl2 = _zeros_from_phase(th, kappa, tail=not truncated)
        return c, u, fl + fl2, th, n

    steps = 0
    extras: dict = {}
    if mode == BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0:
        gs = G.eval_scalar
        right, u1, f1, th_r, n1 = one_pass(gs, 0.0, B, 0.0, G.breakpoints)
        left_breaks = [-b for b in G.breakpoints]
        left, u2, f2, th_l, n2 = one_pass(lambda s: gs(-s), 0.0, -A, 0.0,
                                          left_breaks)
        count = left + right
        uncertainty = u1 + u2
        flags += f1 + f2
        steps = n1 + n2
        extras = {"left": left, "right": right}
    else:
        if mode == BoundaryMode.HALF_LINE_DIRICHLET:
            a, theta0 = 0.0, 0.0
        else:
            a = A
            theta0 = 0.0 if truncated else math.atan2(1.0, kappa)
        count, uncertainty, fl, th, steps = one_pass(
            G.eval_scalar, a, B, theta0, G.breakpoints)
        flags += fl
        extras = {"theta_end": th}
    return CountResult(count, "pruefer", E, mode.value, (A, B), None, steps,
                       uncertainty, tuple(flags), extras)


# ---------------------------------------------------------------------------
# finite-difference (Sturm pivot) engine


def _sturm_pass(a: list[float]) -> tuple[int, bool]:
    """Negative-pivot count for the scaled tridiagonal with unit off-diagonal
    and diagonal `a`; by Sylvester inertia this is the eigenvalue count below
    the shift baked into `a`. Returns (count, hit_zero_pivot)."""
    neg = 0
    hit_zero = False
    d = math.inf
    for ai in a:
        d = ai - (0.0 if d == math.inf else 1.0 / d)
        if d == 0.0:
            hit_zero = True
            d = 1e-300
        if d < 0.0:
            neg += 1
    return neg, hit_zero


def _fd_blocks(G, alpha: float, A: float, B: float, h: float,
               mode: BoundaryMode) -> list[np.ndarray]:
    """Diagonals h^2*(2/h^2 - alpha G(t_i)) for each Dirichlet block."""
    n = int(round((B - A) / h))
    ts = A + h * np.arange(1, n)
    gv = np.asarray(G.eval(ts), dtype=float)
    base = 2.0 - (h * h) * (alpha * gv)
    if mode == BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0:
        k0 = int(round(-A / h))  # node index of t = 0 in 0..n
        if not 0 < k0 < n:
            return [base]
        return [base[: k0 - 1], base[k0:]]
    return [base]


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
    n = max(int(math.ceil((B - A) / h)), 8)
    if n > grid.n_cap:
        n = grid.n_cap
        flags.append("grid-coarsened")
    if mode == BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0 and A < 0.0 < B:
        # snap so t = 0 lands on a node
        h = (B - A) / n
        k0 = round(-A / h)
        A = -k0 * h
        B = A + n * h
    else:
        h = (B - A) / n
    blocks = _fd_blocks(G, alpha, A, B, h, mode)

    def total_at(energy: float) -> tuple[int, bool]:
        c = 0
        zero_hit = False
        for blk in blocks:
            arr = (blk - (h * h) * energy)
            cnt, hz = _sturm_pass(arr.tolist())
            if hz:
                # retry once with an ulp-scale shift of the pivots
                shift = 4.0 * np.finfo(float).eps * float(np.max(np.abs(arr)))
                cnt, hz2 = _sturm_pass((arr + shift).tolist())
                zero_hit = True
            c += cnt
        return c, zero_hit

    count, zero_hit = total_at(E)
    uncertainty = 0
    if zero_hit:
        flags.append("pivot-shift")
        uncertainty = 1
    if near_threshold_check:
        delta = threshold_eps(G, alpha)
        if delta > 0.0:
            lo, _ = total_at(E - delta)
            hi, _ = total_at(E + delta)
            if lo != hi:
                flags.append("near-threshold")
                uncertainty = max(uncertainty, abs(hi - lo))
    sides = {}
    if mode == BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0 and len(blocks) == 2:
        sides = {"left": _sturm_pass((blocks[0] - h * h * E).tolist())[0],
                 "right": _sturm_pass((blocks[1] - h * h * E).tolist())[0]}
    return CountResult(count, "fd", E, mode.value, (A, B), h, len(blocks),
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
    M u = lambda K u (M = h diag G, K = (1/h) tridiag(-1, 2, -1)), reduced by
    a banded Cholesky of K, and solved by Lanczos with a fixed start vector
    so results are deterministic. Returns (descending eigenvalues, meta).
    """
    mode = BoundaryMode(mode)
    if domain is None:
        e_probe = -max(1e-9 * G.g_max, 1e-12)
        domain = counting_domain(G, 1.0, e_probe, mode)
    A, B = domain
    h = grid.h
    if h is None:
        h = (B - A) / min(max(4000, 40 * n_max), grid.n_cap)
    n = max(int(math.ceil((B - A) / h)), 8)
    if n > grid.n_cap:
        n = grid.n_cap
    if mode == BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0 and A < 0.0 < B:
        h = (B - A) / n
        k0 = round(-A / h)
        A = -k0 * h
        B = A + n * h
    else:
        h = (B - A) / n
    ts = A + h * np.arange(1, n)
    gv = np.asarray(G.eval(ts), dtype=float)
    keep = np.ones(len(ts), dtype=bool)
    if mode == BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0:
        k0 = int(round(-A / h))
        if 0 < k0 < n:
            keep[k0 - 1] = False  # Dirichlet node at t = 0
    gv = gv[keep]
    m = len(gv)
    meta = {"domain": (A, B), "h": h, "n_nodes": m}
    lam = np.zeros(n_max)
    if not np.any(gv > 0.0) or m < 3:
        return lam, meta
    # K in lower banded form; constant tridiagonal, Dirichlet blocks appear
    # automatically because the dropped node decouples the two sides only
    # through entries we never formed.
    ab = np.zeros((2, m))
    ab[0, :] = 2.0 / h
    ab[1, :-1] = -1.0 / h
    if mode == BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0:
        k0 = int(round(-A / h))
        if 0 < k0 < n:
            # couplings into the removed node vanish
            if k0 - 2 >= 0:
                ab[1, k0 - 2] = 0.0
    L = cholesky_banded(ab, lower=True)
    diag_m = h * gv

    def matvec(v):
        w = solve_banded((0, 1), np.vstack([np.roll(L[1], 1), L[0]]), v)
        y = diag_m * w
        return solve_banded((1, 0), L, y)

    k_eff = min(n_max, m - 2, int(np.count_nonzero(gv > 0.0)))
    if k_eff < 1:
        return lam, meta
    op = LinearOperator((m, m), matvec=matvec, dtype=float)
    v0 = np.full(m, 1.0 / math.sqrt(m))
    vals = eigsh(op, k=k_eff, which="LA", v0=v0, maxiter=10000,
                 return_eigenvectors=False)
    vals = np.sort(vals)[::-1]
    vals = np.clip(vals, 0.0, None)
    lam[: len(vals)] = vals
    return lam, meta
