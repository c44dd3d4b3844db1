"""The adaptive Cash-Karp phase kernel, kept as the accuracy oracle of the
phase engine.

`count_below_rk` is `count_below_pruefer` with the Magnus mesh pass replaced
by this kernel: the same lead-in start (`_lead_in`), zero head, closed-form
zero tail (`_zero_tail`) and count rule (`_zeros_from_phase`), and a step
control that resolves the oscillation itself.  `extras["thetas"]` holds the
final phase of every pass, after the tail, in the order the passes run.

The oracle itself answers to closed forms: the Bessel count of every disk
channel (`test_rk_oracle_matches_bessel_on_the_disk`), the whole-line box
formula and the half-line box's transcendental root (`test_spectral1d`),
and, over a long zero stretch, the exact map `_zero_tail`.

The kernel reads `G` at one float at a time, six times per step, so it takes
a scalar evaluator: `scalar_g(P)` writes `G` out per catalog kind in plain
`math`, apart from the vectorised `G.eval` of `radcount.potentials`, which
makes it a second, independent writing of every kind's `G`.

The kernel's module constants (`_PHASE_TOL`, `_H_MIN`, `_MAX_STEPS`) are
read once per call, so a test may monkeypatch them here.
"""
from __future__ import annotations

import math

import numpy as np

from radcount import spectral1d
from radcount.potentials import (_EE, CATALOG_BASE_ORDER, RadialPotential,
                                 _tabulated_arrays)
from radcount.spectral1d import (
    BoundaryMode,
    CountResult,
    _lead_in,
    _validate,
    counting_domain,
)

# step control of the phase kernel (see _integrate_phase)
_PHASE_TOL = 1e-10
_H_MIN = 1e-12
_MAX_STEPS = 2_000_000

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


def _square_well(p):
    h, lna = p["height"], math.log(p["radius"])

    def g_scalar(t):
        return h * math.exp(2.0 * t) if t <= lna else 0.0
    return g_scalar


def _annulus_well(p):
    h, li, lo_ = p["height"], math.log(p["r_inner"]), math.log(p["r_outer"])

    def g_scalar(t):
        return h * math.exp(2.0 * t) if li <= t <= lo_ else 0.0
    return g_scalar


def _gaussian(p):
    h, lnw = p["height"], math.log(p["width"])

    def g_scalar(t):
        u = 2.0 * (t - lnw)
        if u > 709.0:
            return 0.0
        arg = 2.0 * t - math.exp(u)
        return h * math.exp(arg) if arg > -745.0 else 0.0
    return g_scalar


def _power_log_tail(p):
    sigma, tau, t0 = p["sigma"], p["tau"], math.log(p["r0"])

    def g_scalar(t):
        if t <= t0:
            return 0.0
        lt = math.log(t)
        return math.exp(-sigma * lt - tau * math.log(lt))
    return g_scalar


def _bump(p):
    h, w, c = p["height"], p["halfwidth"], p["center"]
    lo, hi = c - w, c + w

    def g_scalar(t):
        if t > 709.0:
            return 0.0
        r = math.exp(t)
        if not lo < r < hi:
            return 0.0
        x2 = ((r - c) / w) ** 2
        if x2 >= 1.0:   # rounds to 1 within an ulp or so of an end
            return 0.0
        return h * math.exp(2.0 * t + 1.0 - 1.0 / (1.0 - x2))
    return g_scalar


def _tabulated(p):
    rs, fs = _tabulated_arrays(p)
    nz = np.nonzero(fs > 0.0)[0]
    t_hi = math.log(rs[min(nz[-1] + 1, len(rs) - 1)])

    def g_scalar(t):
        if t > t_hi:
            return 0.0
        r = math.exp(t)
        return float(np.interp(r, rs, fs, left=0.0, right=0.0)) * r * r
    return g_scalar


def _scaled_product(p):
    scale, theta = p["scale"], p["damping"]
    base = _SCALAR_G[CATALOG_BASE_ORDER[int(p["base"])]](
        {k: v for k, v in p.items() if k not in ("scale", "damping", "base")})

    def g_scalar(t):
        g = base(t)
        if g == 0.0:
            return 0.0
        if theta > 0.0 and t > _EE:
            g *= math.log(math.log(t)) ** (-theta)
        return scale * g
    return g_scalar


_SCALAR_G = {
    "square-well": _square_well,
    "annulus-well": _annulus_well,
    "gaussian": _gaussian,
    "power-log-tail": _power_log_tail,
    "bump": _bump,
    "tabulated": _tabulated,
    "scaled-product": _scaled_product,
}


def scalar_g(P: RadialPotential):
    """G(t) of the catalog potential P at one float t, from P.kind and
    P.params; a scaled-product composes its base kind's."""
    if P.is_zero:
        return lambda t: 0.0
    return _SCALAR_G[P.kind](P.params)


def _rescale_phase(th: float, r: float) -> float:
    """Phase after the scale is multiplied by r: tan theta -> r tan theta in
    the same branch [k pi - pi/2, k pi + pi/2), so multiples of pi stay."""
    k = math.floor(th / math.pi + 0.5)
    phi = th - k * math.pi
    return k * math.pi + math.atan2(r * math.sin(phi), math.cos(phi))


def _integrate_phase(g_scalar, alpha: float, E: float, a: float, b: float,
                     theta0: float, breaks) -> tuple[float, int, list[str]]:
    """Advance the phase from a to b; returns (theta(b), steps, flags).

    theta0 and theta(b) are unscaled (u = rho sin theta, u' = rho cos theta).
    Inside, the phase is scaled: u = rho sin(theta)/sqrt(S) and
    u' = rho sqrt(S) cos(theta) with S = sqrt(max(1, |w|)), w = E + alpha g,
    held constant over a step, so theta' = S cos^2 + (w/S) sin^2 turns at
    about sqrt(w) on both halves of an oscillation. S is reset from g(t) at
    each step start, which rescales theta (_rescale_phase). A step is capped
    at 1/sqrt(|w|), one radian of the local frequency (1/S where |w| > 1),
    and not at all where w = 0; the first step of a piece takes the cap at
    its midpoint. In a forbidden stretch the phase is attracted at the rate
    2 sqrt(|w|), so the cap keeps h times that rate <= 2, inside Cash-Karp's
    stability region. The stages are written out with every sum in tableau
    order; g(t) is evaluated once per step, for the scale and the first
    stage. g is read inside the piece only: at lo_in, one ulp above lo, at
    the piece's first step start, and at hi_in, one ulp below hi, at the end
    stage of its last step, so a jump at lo or hi counts on neither side.
    The last step of a piece lands exactly on the piece end and is never
    counted as floored. Steps are accepted at a phase error up to
    _PHASE_TOL and are at least _H_MIN; one raised to _H_MIN is accepted
    whatever its error and flags `step-floor`. A call takes at most
    _MAX_STEPS steps. The three are read once per call.

    A step never leaves its piece, and it is bounded only by the error
    control and the cap at its start, so a feature of g narrower than a step
    (a jump, a narrow pocket) must sit at a breakpoint to be seen: the
    breakpoints passed in are a contract, not a hint."""
    flags: list[str] = []
    pieces = [a] + sorted(p for p in breaks if a < p < b) + [b]
    tol, h_min, max_steps = _PHASE_TOL, _H_MIN, _MAX_STEPS
    sin, cos, sqrt = math.sin, math.cos, math.sqrt
    th = theta0
    S = iS = 1.0
    steps = 0
    for lo, hi in zip(pieces, pieces[1:]):
        t = lo
        lo_in, hi_in = math.nextafter(lo, hi), math.nextafter(hi, lo)
        rw = sqrt(abs(E + alpha * g_scalar(0.5 * (lo + hi))))
        h = min(hi - lo, 1.0 / rw) if rw > 0.0 else hi - lo
        while t < hi:
            if steps >= max_steps:
                raise RuntimeError(
                    f"phase integration exceeded {max_steps} steps "
                    f"(alpha={alpha}, E={E})")
            w = E + alpha * g_scalar(t if t > lo else lo_in)
            rw = sqrt(abs(w))
            S_new = rw if rw > 1.0 else 1.0
            if S_new != S:
                th = _rescale_phase(th, S_new / S)
                S = S_new
                iS = 1.0 / S
            h = min(h, 1.0 / rw) if rw > 0.0 else h
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
            t5 = hi_in if last else t + _C5 * h
            k5 = S * c * c + (E + alpha * g_scalar(t5)) * iS * s * s
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


def count_below_rk(G, alpha: float, E: float,
                   mode: BoundaryMode = BoundaryMode.WHOLE_LINE, *,
                   g_scalar=None) -> CountResult:
    """count_below_pruefer on the RK kernel: every pass runs
    `_integrate_phase` from its start to the end of the support of G and
    maps the rest in closed form. The kernel reads G through `g_scalar`, by
    default `scalar_g(G.source)`; a stub G with no source passes its own."""
    _validate(alpha, E)
    mode = BoundaryMode(mode)
    A, B = counting_domain(G, alpha, E, mode)
    kappa = math.sqrt(-E)
    flags: list[str] = ["domain-truncated"] if G.truncated else []
    if alpha * G.g_max + E <= 0.0:
        return CountResult(0, "pruefer", E, mode.value, (A, B),
                           flags=tuple(flags + ["below-spectrum"]),
                           extras={"thetas": []})
    gs = g_scalar or scalar_g(G.source)

    def one_pass(g_scalar, a, b, theta0, breaks, t_zero):
        # G = 0 from t_zero on: RK up to there, the exact map over the rest
        z = min(max(a, t_zero), b)
        th, n, fl = _integrate_phase(g_scalar, alpha, E, a, z, theta0,
                                     breaks)
        if z < b:
            th = spectral1d._zero_tail(th, kappa, b - z)
        c, u, fl2 = spectral1d._zeros_from_phase(th, kappa)
        return c, u, fl + fl2, th, n

    t_lo, t_hi = G.t_support
    if mode == BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0:
        right, u1, f1, th_r, n1 = one_pass(gs, 0.0, B, 0.0, G.breakpoints,
                                           t_hi)
        left_breaks = [-b for b in G.breakpoints]
        left, u2, f2, th_l, n2 = one_pass(lambda s: gs(-s), 0.0, -A, 0.0,
                                          left_breaks, -t_lo)
        count = left + right
        uncertainty = u1 + u2
        flags += f1 + f2
        steps = n1 + n2
        extras = {"left": left, "right": right, "thetas": [th_r, th_l]}
    else:
        if mode == BoundaryMode.HALF_LINE_DIRICHLET:
            a, theta0 = 0.0, 0.0
        else:
            (a, theta0), = _lead_in(G, [(alpha, E, A, B)])
            a = max(a, t_lo)
        count, uncertainty, fl, th, steps = one_pass(
            gs, a, B, theta0, G.breakpoints, t_hi)
        flags += fl
        extras = {"theta_end": th, "thetas": [th]}
    return CountResult(count, "pruefer", E, mode.value, (A, B), steps,
                       uncertainty, tuple(flags), extras)
