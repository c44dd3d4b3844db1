"""Radial potential catalog and the logarithmic change of variables.

A nonnegative radial potential on the plane, V(x) = F(|x|), is represented
by its profile F. The substitution r = e^t maps the weighted integral
int_0^inf r F(r) dr onto int_R G(t) dt with

    G(t) = e^{2t} F(e^t),

and it is G that the counting, sequence, and bound machinery downstream
consumes. Every catalog kind therefore states its profile once, as a
vectorised, numerically stable G (naive e^{2t} F(e^t) overflows or turns
into 0*inf for heavy tails; each kind simplifies the product analytically
where that matters), and the radial profile F is read back from it
(`RadialPotential.profile`).

Catalog kinds:

    square-well     F = h on [0, a]
    annulus-well    F = h on [r_inner, r_outer]
    gaussian        F = h exp(-(r/w)^2)
    power-log-tail  F = r^{-2} (ln r)^{-sigma} (ln ln r)^{-tau} for r > r0
    bump            F = h exp(1 - 1/(1 - x^2)), x = (r - center)/halfwidth
    tabulated       linear interpolation of nonnegative samples
    scaled-product  scale * psi(r) * F_base(r) with the slowly varying
                    damping psi(r) = min(1, (ln ln ln r)^{-damping})

The power-log-tail kind is the borderline family: the r^{-2} prefactor is
built in, so G(t) = t^{-sigma} (ln t)^{-tau} on t > ln r0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .quadrature import (integrate_batch, integrate_interval, integrate_line,
                         integrate_tails)

__all__ = [
    "PotentialSpecError",
    "NonIntegrableError",
    "RadialPotential",
    "LogPotential",
    "make_catalog_potential",
    "catalog_kinds",
    "to_log",
    "integral_J",
    "integral_logweight",
    "integral_logweight_grid",
    "save_spec",
    "load_spec",
    "bundled_spec_names",
    "load_bundled",
]

# Damping kink: psi is identically 1 up to r = e^{e^e} (t = e^e).
_EE = math.exp(math.e)
TRIPLE_EXP = math.exp(_EE)

# Hard cap on the log-variable domain; potentials whose tail mass cannot be
# localized inside |t| <= T_CAP are handled in a truncated window and flagged.
T_CAP = 2000.0

# to_log's tolerances: tail mass outside domain_hint, relative to max(J, 1),
# and the quadrature tolerances of J and the tail probes
_TAIL_TOL = 1e-10
_EPSABS = 1e-10
_EPSREL = 1e-8

CATALOG_BASE_ORDER = ("square-well", "annulus-well", "gaussian",
                      "power-log-tail", "bump")


class PotentialSpecError(ValueError):
    """Malformed potential specification (unknown kind, bad parameters)."""


class NonIntegrableError(RuntimeError):
    """int_0^inf r F(r) dr diverges; no finite window meets the tail
    tolerance."""


# ---------------------------------------------------------------------------
# kind implementations


@dataclass
class _Profile:
    support_r: tuple[float, float]
    t_breaks: tuple[float, ...]
    is_zero: bool
    g_vec: Callable[[np.ndarray], np.ndarray]


def _num(params: Mapping[str, float], kind: str, name: str, *,
         lo: float | None = None, lo_open: bool = False,
         hi: float | None = None) -> float:
    if name not in params:
        raise PotentialSpecError(f"{kind}: missing parameter '{name}'")
    try:
        v = float(params[name])
    except (TypeError, ValueError):
        raise PotentialSpecError(
            f"{kind}: parameter '{name}' is not a number: {params[name]!r}")
    if not math.isfinite(v):
        raise PotentialSpecError(f"{kind}: parameter '{name}' must be finite")
    if lo is not None and (v < lo or (lo_open and v == lo)):
        op = ">" if lo_open else ">="
        raise PotentialSpecError(f"{kind}: need {name} {op} {lo}, got {v}")
    if hi is not None and v > hi:
        raise PotentialSpecError(f"{kind}: need {name} <= {hi}, got {v}")
    return v


def _zero_profile() -> _Profile:
    return _Profile(
        support_r=(0.0, 0.0), t_breaks=(), is_zero=True,
        g_vec=lambda t: np.zeros_like(t))


def _build_square_well(p: Mapping[str, float]) -> _Profile:
    h = _num(p, "square-well", "height", lo=0.0)
    a = _num(p, "square-well", "radius", lo=0.0, lo_open=True)
    if h == 0.0:
        return _zero_profile()
    lna = math.log(a)

    def g_vec(t):
        return np.where(t <= lna, h * np.exp(2.0 * np.minimum(t, lna)), 0.0)

    return _Profile((0.0, a), (lna,), False, g_vec)


def _build_annulus_well(p: Mapping[str, float]) -> _Profile:
    h = _num(p, "annulus-well", "height", lo=0.0)
    ri = _num(p, "annulus-well", "r_inner", lo=0.0, lo_open=True)
    ro = _num(p, "annulus-well", "r_outer", lo=0.0, lo_open=True)
    if ro <= ri:
        raise PotentialSpecError(
            f"annulus-well: need r_inner < r_outer, got {ri} >= {ro}")
    if h == 0.0:
        return _zero_profile()
    li, lo_ = math.log(ri), math.log(ro)

    def g_vec(t):
        inside = (t >= li) & (t <= lo_)
        return np.where(inside, h * np.exp(2.0 * np.clip(t, li, lo_)), 0.0)

    return _Profile((ri, ro), (li, lo_), False, g_vec)


def _build_gaussian(p: Mapping[str, float]) -> _Profile:
    h = _num(p, "gaussian", "height", lo=0.0)
    w = _num(p, "gaussian", "width", lo=0.0, lo_open=True)
    if h == 0.0:
        return _zero_profile()
    lnw = math.log(w)

    def g_vec(t):
        # G = h exp(2t - e^{2(t - ln w)}); past u ~ 709 the inner exp
        # saturates and the outer one underflows to an exact 0.
        u = np.minimum(2.0 * (t - lnw), 709.0)
        return h * np.exp(2.0 * t - np.exp(u))

    return _Profile((0.0, math.inf), (lnw,), False, g_vec)


def _build_power_log_tail(p: Mapping[str, float]) -> _Profile:
    r0 = _num(p, "power-log-tail", "r0", lo=math.e, lo_open=True)
    sigma = _num(p, "power-log-tail", "sigma", lo=0.0, lo_open=True)
    tau = _num(p, "power-log-tail", "tau")
    t0 = math.log(r0)

    def g_vec(t):
        t = np.asarray(t, float)
        mask = t > t0
        tt = np.where(mask, t, t0 + 1.0)
        lt = np.log(tt)
        val = np.exp(-sigma * lt - tau * np.log(lt))
        return np.where(mask, val, 0.0)

    return _Profile((r0, math.inf), (t0,), False, g_vec)


def _build_bump(p: Mapping[str, float]) -> _Profile:
    h = _num(p, "bump", "height", lo=0.0)
    w = _num(p, "bump", "halfwidth", lo=0.0, lo_open=True)
    c = _num(p, "bump", "center", lo=0.0, lo_open=True)
    if c < w:
        raise PotentialSpecError(
            f"bump: support would cross r = 0 (center {c} < halfwidth {w})")
    if h == 0.0:
        return _zero_profile()
    lo, hi = c - w, c + w

    def g_vec(t):
        t = np.asarray(t, float)
        r = np.exp(np.minimum(t, 709.0))
        mask = (r > lo) & (r < hi)
        x2 = np.where(mask, np.square((r - c) / w), 0.0)
        tv = np.where(mask, t, 0.0)
        # x2 rounds to 1 an ulp inside an end: exp(-1e300) is 0 there
        val = h * np.exp(2.0 * tv + 1.0 - 1.0 / np.maximum(1.0 - x2, 1e-300))
        return np.where(mask, val, 0.0)

    breaks = [math.log(c), math.log(hi)]
    if lo > 0.0:
        breaks.insert(0, math.log(lo))
    return _Profile((max(lo, 0.0), hi), tuple(breaks), False, g_vec)


def _tabulated_arrays(p: Mapping[str, float]) -> tuple[np.ndarray, np.ndarray]:
    if "n" not in p:
        raise PotentialSpecError("tabulated: missing parameter 'n'")
    n = int(p["n"])
    if n < 2 or n != float(p["n"]):
        raise PotentialSpecError(f"tabulated: need integer n >= 2, got {p['n']}")
    try:
        rs = np.array([float(p[f"r{i}"]) for i in range(n)])
        fs = np.array([float(p[f"f{i}"]) for i in range(n)])
    except KeyError as ex:
        raise PotentialSpecError(f"tabulated: missing sample {ex}")
    if not np.all(np.isfinite(rs)) or not np.all(np.isfinite(fs)):
        raise PotentialSpecError("tabulated: samples must be finite")
    if rs[0] < 0.0 or np.any(np.diff(rs) <= 0.0):
        raise PotentialSpecError(
            "tabulated: radii must be strictly increasing and >= 0")
    if np.any(fs < 0.0):
        raise PotentialSpecError("tabulated: profile values must be >= 0")
    if rs[-1] > 1e150:
        raise PotentialSpecError("tabulated: last radius too large")
    return rs, fs


def _build_tabulated(p: Mapping[str, float]) -> _Profile:
    rs, fs = _tabulated_arrays(p)
    if not np.any(fs > 0.0):
        return _zero_profile()
    nz = np.nonzero(fs > 0.0)[0]
    lo = rs[max(nz[0] - 1, 0)]
    hi = rs[min(nz[-1] + 1, len(rs) - 1)]
    t_lo = math.log(lo) if lo > 0.0 else -math.inf
    t_hi = math.log(hi)

    def g_vec(t):
        t = np.asarray(t, float)
        r = np.exp(np.minimum(t, t_hi + 1.0))
        g = np.interp(r, rs, fs, left=0.0, right=0.0) * r * r
        # exp(t) rounds back to an end radius a few ulps outside the support
        return np.where((t >= t_lo) & (t <= t_hi), g, 0.0)

    pos = [math.log(r) for r in rs if lo <= r <= hi and r > 0.0]
    breaks = tuple(pos) if len(pos) <= 64 else (pos[0], pos[-1])
    return _Profile((lo, hi), breaks, False, g_vec)


def _build_scaled_product(p: Mapping[str, float]) -> _Profile:
    scale = _num(p, "scaled-product", "scale", lo=0.0)
    theta = _num(p, "scaled-product", "damping", lo=0.0)
    bidx = _num(p, "scaled-product", "base", lo=0.0,
                hi=len(CATALOG_BASE_ORDER) - 1)
    if bidx != int(bidx):
        raise PotentialSpecError(f"scaled-product: base must be an integer "
                                 f"index, got {bidx}")
    base_kind = CATALOG_BASE_ORDER[int(bidx)]
    base_params = {k: v for k, v in p.items()
                   if k not in ("scale", "damping", "base")}
    base = _KIND_BUILDERS[base_kind](base_params)
    if scale == 0.0 or base.is_zero:
        return _zero_profile()

    def psi_t_vec(t):
        if theta == 0.0:
            return np.ones_like(t)
        mask = t > _EE
        tt = np.where(mask, t, _EE + 1.0)
        ll = np.log(np.log(tt))
        return np.where(mask, np.exp(-theta * np.log(ll)), 1.0)

    def g_vec(t):
        t = np.asarray(t, float)
        return scale * psi_t_vec(t) * base.g_vec(t)

    r_lo, r_hi = base.support_r
    breaks = list(base.t_breaks)
    if theta > 0.0:
        t_hi = math.inf if math.isinf(r_hi) else math.log(r_hi)
        if _EE < t_hi:
            breaks.append(_EE)
    return _Profile((r_lo, r_hi), tuple(sorted(breaks)), False, g_vec)


_KIND_BUILDERS = {
    "square-well": _build_square_well,
    "annulus-well": _build_annulus_well,
    "gaussian": _build_gaussian,
    "power-log-tail": _build_power_log_tail,
    "bump": _build_bump,
    "tabulated": _build_tabulated,
    "scaled-product": _build_scaled_product,
}

_DEFAULTS: dict[str, dict[str, float]] = {
    "square-well": {"height": 1.0, "radius": 1.0},
    "annulus-well": {"height": 1.0, "r_inner": 1.0, "r_outer": 2.0},
    "gaussian": {"height": 1.0, "width": 1.0},
    "power-log-tail": {"r0": math.exp(math.exp(2.0)), "sigma": 2.0, "tau": 1.0},
    "bump": {"height": 1.0, "center": 2.0, "halfwidth": 1.0},
    "scaled-product": {"scale": 1.0, "damping": 0.0, "base": 0.0},
}


def catalog_kinds() -> tuple[str, ...]:
    return tuple(_KIND_BUILDERS)


def _normalize_params(kind: str, params: Mapping[str, object] | None) -> dict[str, float]:
    raw = dict(params or {})
    # tabulated convenience form: explicit sample arrays
    if kind == "tabulated" and "r" in raw:
        rs = list(raw.pop("r"))
        fs = list(raw.pop("f", []))
        if len(fs) != len(rs):
            raise PotentialSpecError("tabulated: 'r' and 'f' lengths differ")
        raw["n"] = len(rs)
        for i, (r, f) in enumerate(zip(rs, fs)):
            raw[f"r{i}"] = r
            raw[f"f{i}"] = f
    out = dict(_DEFAULTS.get(kind, {}))
    if kind == "scaled-product":
        bidx = raw.get("base", out["base"])
        try:
            base_kind = CATALOG_BASE_ORDER[int(float(bidx))]
        except (ValueError, TypeError, IndexError):
            raise PotentialSpecError(
                f"scaled-product: base index must be 0..{len(CATALOG_BASE_ORDER)-1}")
        out.update(_DEFAULTS[base_kind])
    # a kind with defaults takes exactly those parameters
    allowed = set(out) if kind in _DEFAULTS else None
    for k, v in raw.items():
        if allowed is not None and k not in allowed:
            raise PotentialSpecError(f"{kind}: unknown parameter '{k}'")
        try:
            out[k] = float(v)
        except (TypeError, ValueError):
            raise PotentialSpecError(f"{kind}: parameter '{k}' is not a number")
    return out


@dataclass
class RadialPotential:
    """A nonnegative radial profile F, restricted to a catalog kind."""

    kind: str
    params: dict[str, float]
    description: str = ""
    support: tuple[float, float] = field(init=False, compare=False)
    _prof: _Profile = field(init=False, compare=False, repr=False)
    _log_cache: dict = field(init=False, compare=False, repr=False,
                             default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _KIND_BUILDERS:
            raise PotentialSpecError(
                f"unknown potential kind {self.kind!r}; "
                f"known: {', '.join(_KIND_BUILDERS)}")
        self.params = _normalize_params(self.kind, self.params)
        self._prof = _KIND_BUILDERS[self.kind](self.params)
        self.support = self._prof.support_r

    def profile(self, r):
        """F(r) = G(t) e^{-t} e^{-t} at t = ln r; accepts scalars or arrays
        of finite r > 0 and raises ValueError for any other r.

        Nothing overflows and nothing is divided (e^{-t} is capped at e^709,
        which only a subnormal r reaches), and the rounding of ln r cancels
        between the e^{2t} inside G and the two e^{-t}, so F is exact to a
        few ulps wherever r^2 F(r) is a normal float (times the
        log-derivative of F, as at any rounded argument)."""
        arr = np.asarray(r, dtype=float)
        if not np.all(np.isfinite(arr) & (arr > 0.0)):
            raise ValueError(f"profile needs finite r > 0, got {r!r}")
        t = np.log(arr)
        e = np.exp(-np.maximum(t, -709.0))
        out = self._prof.g_vec(t) * e * e
        return float(out) if arr.ndim == 0 else out

    @property
    def is_zero(self) -> bool:
        return self._prof.is_zero


def make_catalog_potential(kind: str, params: Mapping[str, object] | None = None,
                           *, description: str = "") -> RadialPotential:
    """Build a catalog potential, filling kind defaults for missing params."""
    return RadialPotential(kind, dict(params or {}), description)


# ---------------------------------------------------------------------------
# logarithmic substitution


@dataclass
class LogPotential:
    """G(t) = e^{2t} F(e^t) together with everything the 1d solvers need.

    `domain_hint` is a window [T-, T+] outside of which the mass of G is
    below tail_tol (relative to max(J, 1)); `truncated` marks potentials
    whose tail could not be localized inside |t| <= T_CAP, in which case all
    counts downstream refer to the windowed operator and carry the flag.
    """

    source: RadialPotential | None
    tail_tol: float
    t_support: tuple[float, float]
    breakpoints: tuple[float, ...]
    domain_hint: tuple[float, float]
    truncated: bool
    g_max: float
    g_argmax: float
    j_value: float
    j_err: float
    _g_vec: Callable = field(compare=False, repr=False, default=None)
    # the phase engine's mesh for the alpha last counted (spectral1d._mesh),
    # built by the first pass that needs it
    phase_mesh: tuple | None = field(compare=False, repr=False, default=None)

    def eval(self, t) -> np.ndarray:
        return self._g_vec(np.asarray(t, dtype=float))


def _scan_max(g_vec, lo: float, hi: float,
              breaks: tuple[float, ...]) -> tuple[float, float]:
    if hi <= lo:
        return 0.0, 0.5 * (lo + hi)
    ts = np.linspace(lo, hi, 4097)
    extra = []
    for b in breaks:
        for d in (-1e-9, 0.0, 1e-9):
            x = b + d
            if lo <= x <= hi:
                extra.append(x)
    if extra:
        ts = np.concatenate([ts, np.array(extra)])
    vals = g_vec(ts)
    i = int(np.argmax(vals))
    best_t, best_v = float(ts[i]), float(vals[i])
    # local refinement around the winner; it moves only to a higher value
    span = (hi - lo) / 4096.0
    for _ in range(3):
        tt = np.linspace(max(lo, best_t - span), min(hi, best_t + span), 65)
        vv = g_vec(tt)
        j = int(np.argmax(vv))
        if vv[j] > best_v:
            best_t, best_v = float(tt[j]), float(vv[j])
        span /= 16.0
    return best_v, best_t


def to_log(P: RadialPotential, *, strict: bool = True,
           t_cap: float = T_CAP) -> LogPotential:
    """Change variables to the line. Results are cached on the potential,
    one per (strict, t_cap).

    strict=True raises NonIntegrableError when int rF dr diverges; with
    strict=False a capped window is returned instead (truncated=True), which
    is what the sequence classifier needs for non-L1 examples.
    """
    key = (strict, t_cap)
    hit = P._log_cache.get(key)
    if hit is not None:
        return hit
    prof = P._prof
    if prof.is_zero:
        lp = LogPotential(P, _TAIL_TOL, (0.0, 0.0), (), (-1.0, 1.0), False,
                          0.0, 0.0, 0.0, 0.0, prof.g_vec)
        P._log_cache[key] = lp
        return lp
    t_lo, t_hi = _t_support(prof)
    breaks = prof.t_breaks
    j_val, j_err = integral_J(P)
    if math.isinf(j_val) and strict:
        raise NonIntegrableError(
            f"{P.kind}: int_0^inf r F(r) dr diverges; no finite window "
            f"reaches tail tolerance {_TAIL_TOL}")
    target = _TAIL_TOL * max(j_val if math.isfinite(j_val) else 1.0, 1.0)

    def _locate(start: float, downward: bool) -> tuple[float, bool]:
        # probes start +- 1, 2, 4, ... inside the cap; the first whose tail
        # mass is within target ends the window
        sign = -1.0 if downward else 1.0
        probes, step = [], 1.0
        while abs(start + sign * step) < t_cap:
            probes.append(start + sign * step)
            step *= 2.0
        tails = integrate_tails(lambda s: prof.g_vec(sign * s),
                                [sign * T for T in probes],
                                epsabs=min(_EPSABS, 0.1 * target),
                                epsrel=_EPSREL)
        for T, (tail, _) in zip(probes, tails):
            if tail <= target:
                return T, False
        return sign * t_cap, True

    finite_breaks = [b for b in breaks if math.isfinite(b)]
    if math.isfinite(t_hi):
        T_plus, tr_hi = t_hi, False
    elif math.isinf(j_val):
        T_plus, tr_hi = t_cap, True
    else:
        T_plus, tr_hi = _locate(max(finite_breaks, default=0.0), False)
    if math.isfinite(t_lo):
        T_minus, tr_lo = t_lo, False
    elif math.isinf(j_val):
        T_minus, tr_lo = -t_cap, True
    else:
        T_minus, tr_lo = _locate(min(finite_breaks, default=0.0), True)
    truncated = tr_hi or tr_lo
    g_max, g_argmax = _scan_max(prof.g_vec, T_minus, T_plus, breaks)
    lp = LogPotential(P, _TAIL_TOL, (t_lo, t_hi), breaks, (T_minus, T_plus),
                      truncated, g_max, g_argmax, j_val, j_err, prof.g_vec)
    P._log_cache[key] = lp
    return lp


# ---------------------------------------------------------------------------
# weighted integrals


def _unique_sorted(x: np.ndarray) -> np.ndarray:
    """np.unique(x) for a 1-d array without NaN: a sort and a mask of
    equal neighbours, which loads no numpy.ma."""
    x = np.sort(x)
    first = np.empty(x.size, dtype=bool)
    first[:1] = True
    first[1:] = x[1:] != x[:-1]
    return x[first]


def _t_support(prof: _Profile) -> tuple[float, float]:
    r_lo, r_hi = prof.support_r
    return (-math.inf if r_lo <= 0.0 else math.log(r_lo),
            math.inf if math.isinf(r_hi) else math.log(r_hi))


def integral_J(P: RadialPotential, *, epsabs: float = _EPSABS,
               epsrel: float = _EPSREL) -> tuple[float, float]:
    """int_0^inf r F(r) dr, computed as int_R G dt. (inf, inf) if divergent.

    `to_log(P, ...).j_value` is this call at the default tolerances,
    cached on P.
    """
    prof = P._prof
    if prof.is_zero:
        return 0.0, 0.0
    t_lo, t_hi = _t_support(prof)
    return integrate_line(prof.g_vec, t_lo, t_hi, points=prof.t_breaks,
                          epsabs=epsabs, epsrel=epsrel, name=f"J[{P.kind}]")


def integral_logweight_grid(P: RadialPotential, R_grid, *,
                            epsabs: float = 1e-10, epsrel: float = 1e-8
                            ) -> tuple[np.ndarray, np.ndarray]:
    """W(R) = int_R G(t) |t - ln R| dt for every R in R_grid.

    Returns (values, errors) in grid order.  One split of the line at the
    log-span [a, b] of the grid serves every s = ln R.  Past b,
    |t - s| = (t - b) + (b - s), so that piece is R1 + (b - s) R0 with
    R1 = int_{t>b} G (t - b) and R0 = int_{t>b} G; before a it is
    L1 + (s - a) L0 in the same way.  Only [a, b] is integrated once per
    radius, with s as a breakpoint.  The outer integrals carry the
    divergence sentinel, so it runs once for the whole grid, and an
    infinite R1 or L1 makes every value infinite.

    [a, b] is clipped to the support, where W is affine in s: a radius off
    the support takes the middle integral at the nearest end s' plus
    |s - s'| times the middle's mass.  Equal radii share one integral.
    """
    R = np.asarray(R_grid, dtype=float)
    if R.ndim != 1 or R.size == 0 or not np.all(np.isfinite(R) & (R > 0.0)):
        raise ValueError(f"need finite R > 0 on a nonempty grid, got {R_grid!r}")
    prof = P._prof
    if prof.is_zero:
        return np.zeros(R.size), np.zeros(R.size)
    g, breaks = prof.g_vec, prof.t_breaks
    t_lo, t_hi = _t_support(prof)
    s = np.log(R)
    a, b = (min(max(float(x), t_lo), t_hi) for x in (s.min(), s.max()))

    def piece(f, lo: float, hi: float) -> tuple[float, float]:
        if not lo < hi:
            return 0.0, 0.0
        return integrate_line(f, lo, hi, points=[p for p in breaks
                                                 if lo < p < hi],
                              epsabs=epsabs, epsrel=epsrel,
                              name=f"logweight[{P.kind}]")

    vals, errs = np.zeros(R.size), np.zeros(R.size)
    for f, lo, hi, weight in ((lambda t: g(t) * (t - b), b, t_hi, 1.0),
                              (lambda t: g(t) * (a - t), t_lo, a, 1.0),
                              (g, b, t_hi, b - s), (g, t_lo, a, s - a)):
        if not np.any(weight):
            continue  # R0 and L0 only enter at radii away from the ends
        v, e = piece(f, lo, hi)
        if math.isinf(v):
            return np.full(R.size, math.inf), np.full(R.size, math.inf)
        vals += weight * v
        errs += weight * e
    if a < b:
        pts = [p for p in breaks if a < p < b]
        inner = np.clip(s, a, b)
        u = _unique_sorted(inner)
        where = np.searchsorted(u, inner)
        mid, mid_err = integrate_batch(
            lambda t, k: g(t) * np.abs(t - u[k]),
            [sorted({a, *pts, ui, b}) for ui in u.tolist()],
            epsabs=epsabs, epsrel=epsrel)
        vals += mid[where]
        errs += mid_err[where]
        off = np.abs(s - inner)
        if off.any():
            m0, m0_err = integrate_interval(g, a, b, points=pts,
                                            epsabs=epsabs, epsrel=epsrel)
            vals += off * m0
            errs += off * m0_err
    return vals, errs


def integral_logweight(P: RadialPotential, R: float = 1.0, *,
                       epsabs: float = 1e-10,
                       epsrel: float = 1e-8) -> tuple[float, float]:
    """int_0^inf r F(r) |ln(r/R)| dr = int_R G(t) |t - ln R| dt.

    The one-point case of `integral_logweight_grid`: the line is split at
    s = ln R into int_{t>s} G (t - s) and int_{t<s} G (s - t).  Divergent
    integrals come back as (inf, inf); the weight grows so slowly that this
    relies on the non-geometric-tail sentinel, not a magnitude cap.
    """
    vals, errs = integral_logweight_grid(P, [R], epsabs=epsabs, epsrel=epsrel)
    return float(vals[0]), float(errs[0])


# ---------------------------------------------------------------------------
# serialization


def save_spec(P: RadialPotential, path: str) -> None:
    """Write the potential as JSON: {kind, params, description}."""
    doc = {"kind": P.kind, "params": dict(P.params)}
    if P.description:
        doc["description"] = P.description
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_spec(path: str) -> RadialPotential:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as ex:
        raise PotentialSpecError(f"{path}: not valid JSON ({ex})")
    if not isinstance(doc, dict) or "kind" not in doc:
        raise PotentialSpecError(f"{path}: expected an object with a 'kind'")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise PotentialSpecError(f"{path}: 'params' must be an object")
    return make_catalog_potential(doc["kind"], params,
                                  description=doc.get("description", ""))


def bundled_spec_names() -> tuple[str, ...]:
    from importlib import resources
    names = []
    for entry in resources.files("radcount.specs").iterdir():
        if entry.name.endswith(".json"):
            names.append(entry.name[:-5])
    return tuple(sorted(names))


def load_bundled(name: str) -> RadialPotential:
    from importlib import resources
    ref = resources.files("radcount.specs") / f"{name}.json"
    if not ref.is_file():
        raise PotentialSpecError(
            f"no bundled spec {name!r}; available: "
            f"{', '.join(bundled_spec_names())}")
    with resources.as_file(ref) as p:
        return load_spec(str(p))
