"""Quadrature layer: finite intervals, half-line tails, and the tail law.

A half-line integral is finite when its doubling windows converge, to
tolerance or geometrically; any other tail raises, since finitely many
windows cannot tell slow convergence from divergence.  The slow tails of
the catalog, the iterated-log family among them, are integrated from each
kind's tail law, which decides convergence exactly.  The oracles here are
hand-integrable: exp tails, power tails, and s^{-p} densities in
s = ln ln t whose exact integrals are (p-1)^{-1} s0^{1-p}.
"""
import math
import warnings

import mpmath
import numpy as np
import pytest

from radcount import (
    bundled_spec_names,
    classify,
    integral_J,
    integral_logweight,
    integral_logweight_grid,
    load_bundled,
    make_catalog_potential,
    quadrature,
    to_log,
    zeta_sequence,
)
from radcount.bounds import bound_chad_min_over_R, default_R_grid
from radcount.potentials import _moment
from radcount.quadrature import (
    QuadratureBudgetError,
    integrate_interval,
    integrate_line,
    integrate_to_infinity,
)


def test_interval_polynomial_exact():
    val, err = integrate_interval(lambda x: 3.0 * x * x, 0.0, 2.0)
    assert abs(val - 8.0) < 1e-12
    assert err < 1e-8


def test_interval_kink_with_breakpoint_hint():
    # |x| on [-1, 2]: the hint puts a panel edge at the kink
    val, _ = integrate_interval(abs, -1.0, 2.0, points=[0.0])
    assert abs(val - 2.5) < 1e-12


def test_interval_reversed_is_zero():
    assert integrate_interval(lambda x: 1.0, 1.0, 0.0) == (0.0, 0.0)


def test_interval_rejects_infinite_ends():
    with pytest.raises(ValueError):
        integrate_interval(lambda x: 0.0, 0.0, math.inf)


def test_halfline_exponential_tail():
    val, err = integrate_to_infinity(lambda t: np.exp(-t), 0.0)
    assert abs(val - 1.0) < 1e-9
    assert err < 1e-6


def test_halfline_gaussian_tail():
    val, _ = integrate_to_infinity(lambda t: np.exp(-t * t), 0.0)
    assert abs(val - math.sqrt(math.pi) / 2.0) < 1e-9


def test_halfline_power_tail():
    # 1/t^2 from 1: exact 1
    val, err = integrate_to_infinity(lambda t: t ** -2.0, 1.0)
    assert abs(val - 1.0) < max(1e-8, err)


def test_halfline_divergent_harmonic():
    # no verdict from the windows' shape: a tail that does not converge
    # over the doubling windows raises
    with pytest.raises(QuadratureBudgetError, match="no convergence"):
        integrate_to_infinity(lambda t: 1.0 / t, 1.0)


def test_halfline_divergent_log_density():
    # 1/(t ln t): diverges like ln ln t, too slowly for any magnitude cap
    with pytest.raises(QuadratureBudgetError, match="no convergence"):
        integrate_to_infinity(lambda t: 1.0 / (t * np.log(t)), 3.0)


# the iterated-log family: int_{e^e}^inf dt / (t ln t (ln ln t)^p) is
# 1/(p-1) for p > 1 and infinite for p <= 1.  It is the tail of
# W(1) = int t G dt for the scaled-product of the slow tail (sigma 2,
# tau 1) with damping p, whose stretch from t0 = e^2 to e^e adds
# int dt/(t ln t) = 1 - ln 2


def _loglog_tail(p):
    return make_catalog_potential(
        "scaled-product", {"base": 3, "sigma": 2, "tau": 1, "damping": p,
                           "r0": math.exp(math.exp(2.0))})


@pytest.mark.parametrize("p", [3.0, 2.0, 1.5, 1.1])
def test_halfline_loglog_convergent(p):
    exact = 1.0 - math.log(2.0) + 1.0 / (p - 1.0)
    val, err = integral_logweight(_loglog_tail(p), 1.0)
    assert abs(val - exact) <= err < 1e-12 * exact


@pytest.mark.parametrize("p", [1.0, 0.9, 0.0])
def test_halfline_loglog_divergent(p):
    assert integral_logweight(_loglog_tail(p), 1.0) == (math.inf, math.inf)


# off-catalog slow tails with closed forms, at r0 = e^{e^2} (the bundled
# slow tails' r0), so t0 = ln r0 = e^2 and ln ln t0 = ln 2.  J = int G dt
# and W(1) = int t G dt; past t0, G = t^-sigma (ln t)^-tau, times
# (ln ln t)^-damping past e^e for the scaled-product
_R0 = math.exp(math.exp(2.0))
_LN2 = math.log(2.0)


@pytest.mark.parametrize("kind, params, which, exact", [
    # (ln t0)^{1-tau} / (tau-1) = 2^-0.1 / 0.1 = 9.3303299153680741
    ("power-log-tail", {"sigma": 1.0, "tau": 1.1}, "J", 2.0 ** -0.1 / 0.1),
    # 2^-0.3 / 0.3 = 2.7075079878541186
    ("power-log-tail", {"sigma": 1.0, "tau": 1.3}, "J", 2.0 ** -0.3 / 0.3),
    # t0^{-0.05} / 0.05 = e^-0.1 / 0.05 = 18.096748360719191
    ("power-log-tail", {"sigma": 1.05, "tau": 0.0}, "J",
     math.exp(-0.1) / 0.05),
    ("power-log-tail", {"sigma": 1.0, "tau": 2.0}, "J", 0.5),
    # int_2^inf e^-u du / u = E1(2) = 0.048900510708061118
    ("power-log-tail", {"sigma": 2.0, "tau": 1.0}, "J", float(mpmath.e1(2))),
    ("power-log-tail", {"sigma": 2.0, "tau": 1.1}, "W", 2.0 ** -0.1 / 0.1),
    # 2^-0.5 / 0.5 = sqrt 2
    ("power-log-tail", {"sigma": 2.0, "tau": 1.5}, "W", math.sqrt(2.0)),
    ("power-log-tail", {"sigma": 2.05, "tau": 0.0}, "W",
     math.exp(-0.1) / 0.05),
    # int_{ln 2}^1 ds + int_1^inf s^-damping ds = 1 - ln 2 + 1/(damping-1)
    ("scaled-product", {"damping": 1.1}, "W", 1.0 - _LN2 + 10.0),
    ("scaled-product", {"damping": 1.2}, "W", 1.0 - _LN2 + 5.0),
    ("scaled-product", {"damping": 1.5}, "W", 1.0 - _LN2 + 2.0),
    ("scaled-product", {"damping": 3.0}, "W", 1.5 - _LN2),
    ("scaled-product", {"damping": 3.0, "scale": 2.5}, "W",
     2.5 * (1.5 - _LN2)),
    ("scaled-product", {"damping": 0.9}, "W", math.inf),
])
def test_off_catalog_tail_integrals_match_closed_forms(kind, params, which,
                                                       exact):
    if kind == "scaled-product":
        params = {"base": 3, "sigma": 2.0, "tau": 1.0, **params}
    P = make_catalog_potential(kind, {"r0": _R0, **params})
    val, err = integral_J(P) if which == "J" else integral_logweight(P, 1.0)
    if math.isinf(exact):
        assert (val, err) == (math.inf, math.inf)
    else:
        assert abs(val - exact) <= err < 1e-9 * exact
    if which == "J":
        # to_log reads J at the same tolerances, and refuses only an
        # infinite one
        assert to_log(P).j_value == val


# the law's finiteness rule for int_T^inf t^p G dt: finite iff the first
# nonzero of sigma-1-p, tau-1, theta-1 is positive
@pytest.mark.parametrize("sigma, tau, theta, p, finite", [
    (1.5, -5.0, 0.0, 0, True),
    (0.5, 5.0, 5.0, 0, False),
    (1.0, 1.01, 0.0, 0, True),
    (1.0, 0.99, 5.0, 0, False),
    (1.0, 1.0, 1.01, 0, True),
    (1.0, 1.0, 1.0, 0, False),
    (1.0, 1.0, 0.5, 0, False),
    (1.0, 1.0, 0.0, 0, False),
    (2.5, -5.0, 0.0, 1, True),
    (1.5, 5.0, 5.0, 1, False),
    (2.0, 1.01, 0.0, 1, True),
    (2.0, 0.99, 5.0, 1, False),
    (2.0, 1.0, 2.0, 1, True),
    (2.0, 1.0, 1.0, 1, False),
    (2.0, 1.0, 0.0, 1, False),
    (3.0, 0.0, 0.0, 0, True),
])
def test_tail_law_finiteness_rule(sigma, tau, theta, p, finite):
    P = make_catalog_potential("scaled-product", {
        "base": 3, "sigma": sigma, "tau": tau, "damping": theta, "r0": _R0})
    assert P.tail_law == (sigma, tau, theta)
    val, err = _moment(P._prof, p, math.log(_R0), math.inf)
    assert math.isfinite(val) == math.isfinite(err) == finite
    if finite:
        assert 0.0 < val and err <= 1e-8 * val


def test_halfline_zero_function():
    val, err = integrate_to_infinity(lambda t: 0.0, 0.0)
    assert val == 0.0 and err >= 0.0


def test_line_both_ends_infinite():
    val, _ = integrate_line(lambda t: np.exp(-np.abs(t)), -math.inf, math.inf)
    assert abs(val - 2.0) < 1e-8


def test_line_finite_matches_interval():
    f = lambda t: t * t
    a, b = integrate_line(f, -1.0, 2.0)
    c, d = integrate_interval(f, -1.0, 2.0)
    assert a == c and b == d


def test_line_left_infinite():
    val, _ = integrate_line(lambda t: np.exp(2.0 * t), -math.inf, 0.0)
    assert abs(val - 0.5) < 1e-9


def test_line_respects_breakpoints_far_out():
    # mass hiding past t = 300: the splitter must not stop short of the
    # last breakpoint
    def f(t):
        return np.where((300.0 <= t) & (t <= 301.0), 1.0, 0.0)

    val, _ = integrate_line(f, 0.0, math.inf, points=[300.0, 301.0])
    assert abs(val - 1.0) < 1e-9


@pytest.mark.parametrize("which", ["epsabs", "epsrel"])
@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-10])
def test_tolerances_that_are_not_finite_and_nonnegative_raise(which, tol):
    # a NaN tolerance reads as converged after the first Gauss-Kronrod
    # pass, which returned 7.868 +- 13.8 for an integral of 3.1016; every
    # public integrator refuses it, and an infinite or negative one, in the
    # kernel they all pass through
    P = load_bundled("counterexample")
    kw = {which: tol}
    for call in (
            lambda: integrate_line(lambda t: 1.0 / (1.0 + t * t), -50.0,
                                   50.0, **kw),
            lambda: integral_J(P, **kw),
            lambda: integral_logweight(P, 2.0, **kw),
            lambda: zeta_sequence(to_log(P), 20, **kw)):
        with pytest.raises(ValueError, match=f"need a finite {which} >= 0"):
            call()


def test_zero_tolerances_are_allowed():
    # zero asks for the subinterval limit, and gets it
    val, err = integrate_line(lambda t: 1.0 / (1.0 + t * t), -50.0, 50.0,
                              epsabs=0.0, epsrel=0.0)
    assert abs(val - 2.0 * math.atan(50.0)) <= max(err, 1e-13)


def test_random_exp_tails_match_closed_form():
    rng = np.random.default_rng(42)
    for _ in range(20):
        rate = float(rng.uniform(0.2, 3.0))
        a = float(rng.uniform(0.0, 5.0))
        val, err = integrate_to_infinity(lambda t, r=rate: np.exp(-r * t),
                                         a)
        exact = math.exp(-rate * a) / rate
        assert abs(val - exact) <= max(1e-9, 2.0 * err, 1e-10 * exact)


# ---------------------------------------------------------------------------
# the batched kernel against scipy's QUADPACK and against mpmath
#
# The kernel `quadrature._refine` is swapped for a loop of
# scipy.integrate.quad calls, one per integral, on the same partitions and
# tolerances, so the whole pipeline (tails, law tails in s, blocks,
# log-weight grid) runs once on each.  scipy.integrate is imported here only.


def _quad_refine(f, lo, hi, k, n, epsabs, epsrel):
    from scipy.integrate import IntegrationWarning, quad

    vals, errs = np.zeros(n), np.zeros(n)
    for j in range(n):
        edges = np.union1d(lo[k == j], hi[k == j])

        def scalar(x, j=np.array(j)):
            return float(f(np.array(x), j))

        with warnings.catch_warnings():
            # tail windows may be probed past underflow, as quad used to be
            warnings.simplefilter("ignore", IntegrationWarning)
            vals[j], errs[j] = quad(scalar, edges[0], edges[-1],
                                    points=list(edges[1:-1]) or None,
                                    epsabs=epsabs, epsrel=epsrel, limit=200)
    return vals, errs


def _pipeline(name):
    """J, W on the default R grid, zeta_0..zeta_200, the verdict and the
    chad_min argmin of a freshly loaded bundled spec (nothing cached)."""
    P = load_bundled(name)
    j = integral_J(P)
    w = integral_logweight_grid(P, default_R_grid())
    z = zeta_sequence(to_log(P, strict=False), 200)
    v = classify(z)
    arg = bound_chad_min_over_R(P, 1.0)[1]
    return j, w, z, v, arg


def _agree(a, ea, b, eb):
    a, ea, b, eb = (np.atleast_1d(np.asarray(x, dtype=float))
                    for x in (a, ea, b, eb))
    np.testing.assert_array_equal(np.isinf(a), np.isinf(b))
    fin = np.isfinite(a)
    assert np.all(np.abs(a[fin] - b[fin]) <= ea[fin] + eb[fin]), (
        np.max(np.abs(a[fin] - b[fin]) - ea[fin] - eb[fin]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", bundled_spec_names())
def test_kernel_matches_quadpack_on_bundled_specs(name, monkeypatch):
    ours = _pipeline(name)
    monkeypatch.setattr(quadrature, "_refine", _quad_refine)
    theirs = _pipeline(name)
    (j, w, z, v, arg), (qj, qw, qz, qv, qarg) = ours, theirs
    _agree(j[0], j[1], qj[0], qj[1])
    _agree(w[0], w[1], qw[0], qw[1])
    _agree(z.values, z.errors, qz.values, qz.errors)
    # quasinorm = sup_n n x*_n over K + 1 blocks
    spread = (z.K + 1) * (np.max(z.errors) + np.max(qz.errors))
    assert abs(v.quasinorm - qv.quasinorm) <= spread
    assert (v.in_weak, v.in_weak_circle, v.text()) == (
        qv.in_weak, qv.in_weak_circle, qv.text())
    assert arg == qarg or (math.isnan(arg) and math.isnan(qarg))


def _mp_gaussian(t):
    return mpmath.exp(2 * t - mpmath.exp(2 * t))


def _mp_bump(t):
    x = (mpmath.exp(t) - 2) / 1
    if abs(x) >= 1:
        return mpmath.mpf(0)
    return mpmath.exp(2 * t + 1 - 1 / (1 - x * x))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name, g, ends", [
    # G is below 1e-50 outside [-60, 4]
    ("gaussian", _mp_gaussian, [-60, 0, 4]),
    ("bump", _mp_bump, [0, math.log(2.0), math.log(3.0)]),
])
def test_stated_errors_cover_mpmath(name, g, ends):
    # smooth profiles: J, W(R) at three radii and the blocks zeta_0..zeta_3
    # against 30-digit mpmath quadrature
    P = load_bundled(name)
    with mpmath.workdps(30):
        val, err = integral_J(P)
        assert abs(val - float(mpmath.quad(g, ends))) <= err
        for R in (0.5, 1.0, 2.0):
            s = math.log(R)
            val, err = integral_logweight_grid(P, [R])
            cut = sorted(set(ends) | {mpmath.mpf(s)}, key=float)
            want = mpmath.quad(lambda t: g(t) * abs(t - s), cut)
            assert abs(val[0] - float(want)) <= err[0], R
        z = zeta_sequence(to_log(P), 3)
        for k in range(4):
            lo, hi = (-1, 1) if k == 0 else (math.exp(k - 1), math.exp(k))
            weight = (lambda t: 1) if k == 0 else abs
            want = sum(mpmath.quad(lambda t: weight(t) * g(t),
                                   sorted({a, b, *(e for e in ends
                                                   if a < e < b)}, key=float))
                       for a, b in ([(lo, hi)] if k == 0 else
                                    [(lo, hi), (-hi, -lo)]))
            assert abs(z.values[k] - float(want)) <= z.errors[k], k
