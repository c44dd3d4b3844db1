"""Adaptive Gauss-Kronrod quadrature on numpy arrays, and half-line
integrals that converge geometrically.

`integrate_batch` is the one kernel: QUADPACK's 21-point Gauss-Kronrod rule
and local error formula (Piessens et al., QUADPACK, 1983) applied to many
independent integrals per call. Each round halves, in every integral whose
summed error estimate exceeds max(epsabs, epsrel |I|), its subinterval with
the largest error, up to 200 subintervals per integral. All nodes of a
round go to the integrand in one array call, so integrands are vector
evaluators: f(x), or f(x, k) with k the index of each row's integral.

A half-line integral is read from windows doubling in t, all integrated in
one batch and read in order. Two windows below a quarter of the tolerance
end it; contributions that decay geometrically end it with the remainder
extrapolated into the error. Any other tail, a divergent one among them,
raises QuadratureBudgetError: the shape of finitely many windows cannot
tell a slowly convergent tail from a divergent one. The tails that decay
slower than any power, the catalog's power-log laws, are integrated from
their law instead, which decides convergence exactly
(`potentials._law_tails`).
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "QuadratureBudgetError",
    "integrate_batch",
    "integrate_interval",
    "integrate_tails",
    "integrate_to_infinity",
    "integrate_line",
]

GEOMETRIC_RATIO = 0.75   # max per-doubling decay still treated as geometric
MAX_DOUBLINGS = 48
_QUAD_LIMIT = 200        # subintervals per integral

# QUADPACK qk21 on [-1, 1]: the Kronrod nodes x >= 0, decreasing to the
# centre, their weights, and the 10-point Gauss weights of the odd-indexed
# nodes
_XK = np.array([
    0.9956571630258081, 0.9739065285171717, 0.9301574913557082,
    0.8650633666889845, 0.7808177265864169, 0.6794095682990244,
    0.5627571346686047, 0.4333953941292472, 0.2943928627014602,
    0.14887433898163122, 0.0])
_WK = np.array([
    0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
    0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
    0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
    0.14773910490133849, 0.1494455540029169])
_WG = np.zeros(11)
_WG[1::2] = [0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
             0.26926671930999635, 0.29552422471475287]
_X21 = np.concatenate([-_XK, _XK[-2::-1]])
_WK21 = np.concatenate([_WK, _WK[-2::-1]])
_WG21 = np.concatenate([_WG, _WG[-2::-1]])
_EPMACH = np.finfo(float).eps
_UFLOW = np.finfo(float).tiny


class QuadratureBudgetError(RuntimeError):
    """Raised when a half-line integral does not converge, geometrically
    or to tolerance, within the window budget; a divergent one raises it
    too."""


def _gk21(f, lo: np.ndarray, hi: np.ndarray, k: np.ndarray
          ) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod value and QUADPACK's error estimate on each [lo_i, hi_i]."""
    h = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + h[:, None] * _X21
    fx = np.broadcast_to(np.asarray(f(x, k[:, None]), dtype=float), x.shape)
    resk = fx @ _WK21
    err = np.abs((resk - fx @ _WG21) * h)
    resabs = (np.abs(fx) @ _WK21) * np.abs(h)
    resasc = (np.abs(fx - 0.5 * resk[:, None]) @ _WK21) * np.abs(h)
    nz = resasc > 0.0
    err[nz] = resasc[nz] * np.minimum(200.0 * err[nz] / resasc[nz], 1.0) ** 1.5
    floor = resabs > _UFLOW / (50.0 * _EPMACH)
    err[floor] = np.maximum(50.0 * _EPMACH * resabs[floor], err[floor])
    return resk * h, err


def integrate_batch(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    edges: Sequence[Sequence[float]],
    *,
    epsabs: float = 1e-10,
    epsrel: float = 1e-8,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate f(., k) over the partition edges[k] for every k at once.

    edges[k] is increasing, a = p_0 < ... < p_n = b, with every kink or
    jump of the k-th integrand among its points. f(x, k) evaluates the
    k-th integrand at x; k is an integer array that broadcasts against x.
    Returns (values, error estimates), one entry per integral; an integral
    that spends its 200 subintervals keeps the value and error it reached.
    """
    sizes = np.array([len(e) for e in edges], dtype=int)
    flat = np.fromiter(itertools.chain.from_iterable(edges), dtype=float,
                       count=int(sizes.sum()))
    last = np.cumsum(sizes) - 1
    return _refine(f, np.delete(flat, last), np.delete(flat, last - sizes + 1),
                   np.repeat(np.arange(len(sizes)), sizes - 1), len(sizes),
                   epsabs, epsrel)


def _check_tols(epsabs: float, epsrel: float) -> None:
    """Each tolerance must be finite and >= 0: a NaN one reads as
    converged after the first pass."""
    for name, tol in (("epsabs", epsabs), ("epsrel", epsrel)):
        if not 0.0 <= tol < math.inf:
            raise ValueError(f"need a finite {name} >= 0, got {tol}")


def _refine(f, lo: np.ndarray, hi: np.ndarray, k: np.ndarray, n: int,
            epsabs: float, epsrel: float) -> tuple[np.ndarray, np.ndarray]:
    """The kernel of integrate_batch on subintervals [lo_i, hi_i] of the
    integrals k_i in range(n). Every public integrator passes through
    here, so the tolerances are checked here."""
    _check_tols(epsabs, epsrel)
    val, err = _gk21(f, lo, hi, k)
    while True:
        total = np.bincount(k, val, n)
        err_sum = np.bincount(k, err, n)
        open_ = ((err_sum > np.maximum(epsabs, epsrel * np.abs(total)))
                 & (np.bincount(k, minlength=n) < _QUAD_LIMIT))
        if not open_.any():
            return total, err_sum
        # halve the subinterval with the largest error of each open integral
        order = np.lexsort((-err, k))
        worst = order[np.diff(k[order], prepend=-1) != 0]
        worst = worst[open_[k[worst]]]
        mid = 0.5 * (lo[worst] + hi[worst])
        halves = (np.concatenate([lo[worst], mid]),
                  np.concatenate([mid, hi[worst]]), np.tile(k[worst], 2))
        keep = np.ones(len(k), dtype=bool)
        keep[worst] = False
        lo, hi, k, val, err = (np.concatenate([old[keep], new]) for old, new
                               in zip((lo, hi, k, val, err),
                                      halves + _gk21(f, *halves)))


def integrate_interval(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    points: Sequence[float] | None = None,
    epsabs: float = 1e-10,
    epsrel: float = 1e-8,
) -> tuple[float, float]:
    """Integrate f over the finite interval [a, b].

    `points` lists known kinks/edges; they are clipped to (a, b) and start
    the partition.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integrate_interval needs finite endpoints")
    if b <= a:
        return 0.0, 0.0
    inner = sorted({p for p in points or () if a < p < b})
    val, err = integrate_batch(lambda x, k: f(x), [[a, *inner, b]],
                               epsabs=epsabs, epsrel=epsrel)
    return float(val[0]), float(err[0])


def _tail_verdict(vals: list[float], errs: list[float], epsabs: float,
                  epsrel: float, name: str) -> tuple[float, float]:
    """Read one tail's doubling windows in order."""
    total = 0.0
    err_total = 0.0
    contribs: list[float] = []
    for val, err in zip(vals, errs):
        total += val
        err_total += err
        contribs.append(abs(val))
        tol = max(epsabs, epsrel * abs(total))
        if (len(contribs) >= 2 and contribs[-1] <= 0.25 * tol
                and contribs[-2] <= 0.25 * tol):
            return total, err_total + contribs[-1]
    tail = [c for c in contribs[-7:] if c > 0.0]
    if len(tail) >= 2:
        r = max(tail[i + 1] / tail[i] for i in range(len(tail) - 1))
        if r < GEOMETRIC_RATIO:
            # geometric but slow; extrapolate the remainder into the error
            rest = tail[-1] * r / (1.0 - r)
            return total + rest, err_total + rest
    raise QuadratureBudgetError(
        f"{name}: no convergence after {MAX_DOUBLINGS} window doublings")


def integrate_tails(
    f: Callable[[np.ndarray], np.ndarray],
    starts: Sequence[float],
    *,
    epsabs: float = 1e-10,
    epsrel: float = 1e-8,
    name: str = "integral",
) -> list[tuple[float, float]]:
    """`integrate_to_infinity` from every start in `starts`, in order.

    The doubling windows [a + 2^j - 1, a + 2^{j+1} - 1] of every tail are
    integrated in one batch; each verdict then reads its own windows.
    """
    n = MAX_DOUBLINGS
    steps = np.empty((len(starts), n + 1))
    steps[:, 0] = starts
    steps[:, 1:] = 2.0 ** np.arange(n)
    ends = np.cumsum(steps, axis=1)
    vals, errs = _refine(lambda x, k: f(x), ends[:, :-1].ravel(),
                         ends[:, 1:].ravel(), np.arange(len(starts) * n),
                         len(starts) * n, epsabs, epsrel)
    vals, errs = vals.tolist(), errs.tolist()
    return [_tail_verdict(vals[i * n:(i + 1) * n], errs[i * n:(i + 1) * n],
                          epsabs, epsrel, name)
            for i in range(len(starts))]


def integrate_to_infinity(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    *,
    epsabs: float = 1e-10,
    epsrel: float = 1e-8,
    name: str = "integral",
) -> tuple[float, float]:
    """Integrate an eventually monotone f over [a, +inf), with no
    breakpoint past a.

    Returns (value, error_estimate) for a tail that converges to tolerance
    or geometrically over doubling windows, and raises
    QuadratureBudgetError for any other, divergent ones included: never a
    silently truncated number, and never a guessed verdict.
    """
    return integrate_tails(f, [a], epsabs=epsabs, epsrel=epsrel,
                           name=name)[0]


def integrate_line(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    points: Sequence[float] | None = None,
    epsabs: float = 1e-10,
    epsrel: float = 1e-8,
    name: str = "integral",
) -> tuple[float, float]:
    """Integrate f over [a, b] where either endpoint may be infinite; an
    infinite end is `integrate_to_infinity`'s, with its errors."""
    lo_inf = a == -math.inf
    hi_inf = b == math.inf
    if not lo_inf and not hi_inf:
        return integrate_interval(f, a, b, points=points, epsabs=epsabs,
                                  epsrel=epsrel)
    pts = [p for p in points or () if math.isfinite(p)]
    # a finite core, so each infinite tail starts past every breakpoint
    core_lo = a if not lo_inf else min(pts + ([b] if not hi_inf else []), default=-1.0) - 1.0
    core_hi = b if not hi_inf else max(pts + ([a] if not lo_inf else []), default=1.0) + 1.0
    if core_hi < core_lo:
        core_lo = core_hi
    total, err = integrate_interval(f, core_lo, core_hi, points=pts,
                                    epsabs=epsabs, epsrel=epsrel)
    if hi_inf:
        v, e = integrate_to_infinity(f, core_hi, epsabs=epsabs, epsrel=epsrel,
                                     name=name)
        total += v
        err += e
    if lo_inf:
        v, e = integrate_to_infinity(lambda s: f(-s), -core_lo,
                                     epsabs=epsabs, epsrel=epsrel, name=name)
        total += v
        err += e
    return total, err
