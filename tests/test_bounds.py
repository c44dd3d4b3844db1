"""Closed-form bound layer.

The disk well makes every ingredient computable by hand: J = 1/2,
int r |ln r| dr over (0,1) = 1/4, and with R = e the log weight becomes
3/4.  Those hand values pin the bound formulas; ordering and validity
against measured counts are checked across the catalog.
"""
import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radcount import (bound_report, empirical_constant, load_bundled,
                      make_catalog_potential, potentials, quadrature, to_log,
                      total_count)
from radcount.bounds import (
    CHAD_FACTOR,
    bound_chad,
    bound_chad_min_over_R,
    bound_chad_sharp,
    bound_lt_nonradial,
    bound_weak,
    default_R_grid,
)
from radcount.potentials import integral_logweight_grid
from radcount.quadrature import integrate_line

J_CEX = 0.048900510708061118   # plain integral of the slow tail: E1(2)
_R0 = math.exp(math.exp(2.0))   # the slow tails' r0

FINITE_W1 = ("square-well", "annulus", "gaussian", "bump",
             "counterexample-damped-strong")


def test_disk_well_hand_values(catalog):
    P = catalog["square-well"]
    want = 1.0 + 100.0 * 0.25 + CHAD_FACTOR * 100.0 * 0.5
    assert bound_chad(P, 100.0) == pytest.approx(want, rel=1e-12)
    assert bound_chad(P, 100.0) == pytest.approx(83.73502691896258, rel=1e-10)
    assert bound_chad_sharp(P, 100.0) == pytest.approx(76.0, rel=1e-10)
    assert bound_lt_nonradial(P, 100.0) == pytest.approx(50.0, rel=1e-12)
    # moving the reference radius to e swaps the 1/4 for 3/4
    want_e = 1.0 + 100.0 * 0.75 + CHAD_FACTOR * 100.0 * 0.5
    assert bound_chad(P, 100.0, R=math.e) == pytest.approx(want_e, rel=1e-8)


def test_zero_profile_degenerates_to_one(catalog):
    P = catalog["zero"]
    assert bound_chad(P, 10.0) == 1.0
    assert bound_chad_sharp(P, 10.0) == 1.0
    assert bound_lt_nonradial(P, 10.0) == 0.0
    assert bound_weak(P, 10.0) == 1.0


def test_sharp_never_weaker_than_chad_at_unit_radius(catalog):
    for name in FINITE_W1:
        P = catalog[name]
        for alpha in (2.0, 10.0, 100.0, 1000.0):
            sharp = bound_chad_sharp(P, alpha)
            plain = bound_chad(P, alpha, R=1.0)
            assert math.isfinite(sharp)
            assert sharp <= plain * (1.0 + 1e-12), (name, alpha)


def test_min_over_R_improves_or_matches(catalog):
    for name in ("square-well", "gaussian", "annulus"):
        P = catalog[name]
        val, arg = bound_chad_min_over_R(P, 50.0)
        assert val <= bound_chad(P, 50.0, R=1.0) * (1.0 + 1e-12)
        assert np.any(np.isclose(default_R_grid(), arg))
    # a one-point grid is just bound_chad at that radius
    P = catalog["square-well"]
    val, arg = bound_chad_min_over_R(P, 50.0, R_grid=[1.0])
    assert arg == 1.0
    assert val == pytest.approx(bound_chad(P, 50.0, R=1.0), rel=1e-12)


def test_bounds_affine_in_alpha(catalog):
    P = catalog["gaussian"]
    d1 = bound_chad(P, 20.0) - bound_chad(P, 10.0)
    d2 = bound_chad(P, 30.0) - bound_chad(P, 20.0)
    assert d1 == pytest.approx(d2, rel=1e-9)
    assert bound_lt_nonradial(P, 30.0) == pytest.approx(
        3.0 * bound_lt_nonradial(P, 10.0), rel=1e-12)


def test_slow_tail_breaks_log_bounds_but_not_weak(catalog):
    P = catalog["counterexample"]
    assert bound_chad(P, 50.0) == math.inf
    assert bound_chad_sharp(P, 50.0) == math.inf
    val, arg = bound_chad_min_over_R(P, 50.0)
    assert val == math.inf and math.isnan(arg)
    assert bound_lt_nonradial(P, 50.0) == pytest.approx(50.0 * J_CEX,
                                                        rel=1e-9)
    # the weak bound stays finite; its quasinorm comes from blocks that
    # equal ln(k/(k-1)), so the window value is max_n n ln((n+2)/(n+1))
    q = max(n * math.log((n + 2) / (n + 1)) for n in range(1, 199))
    want = 1.0 + 50.0 * (J_CEX + q)
    assert bound_weak(P, 50.0) == pytest.approx(want, rel=1e-4)
    assert bound_weak(P, 50.0) == pytest.approx(53.069, abs=5e-3)


def test_weak_bound_reduces_to_lt_as_C_vanishes(catalog):
    P = catalog["square-well"]
    tiny = bound_weak(P, 10.0, C=1e-12)
    assert tiny == pytest.approx(1.0 + 10.0 * 0.5, abs=1e-9)


def test_parameter_validation(catalog):
    P = catalog["square-well"]
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            bound_chad(P, bad)
    with pytest.raises(ValueError):
        bound_weak(P, 10.0, C=0.0)
    with pytest.raises(ValueError):
        bound_chad_min_over_R(P, 10.0, R_grid=[])
    with pytest.raises(ValueError):
        bound_chad_min_over_R(P, 10.0, R_grid=[1.0, -2.0])


def test_report_shape_and_notes(catalog):
    rep = bound_report(catalog["counterexample"], 50.0)
    d = rep.as_dict()
    assert set(d) == {"alpha", "R", "C", "chad", "chad_sharp", "chad_min",
                      "chad_min_arg", "lt_nonradial", "weak", "finite",
                      "notes"}
    assert d["finite"]["chad"] is False
    assert d["finite"]["lt_nonradial"] is True
    assert d["finite"]["weak"] is True
    assert any("divergent" in n for n in rep.notes)
    rep_ok = bound_report(catalog["square-well"], 50.0)
    assert all(rep_ok.finite_flags().values())


def test_bounds_dominate_measured_counts(catalog):
    for name in ("square-well", "gaussian"):
        P = catalog[name]
        for alpha in (10.0, 100.0):
            b = total_count(P, alpha)
            sharp = bound_chad_sharp(P, alpha)
            assert b.total <= sharp
            assert sharp <= bound_chad(P, alpha) * (1.0 + 1e-12)
            assert b.nonradial <= bound_lt_nonradial(P, alpha)


def test_empirical_constant_nothing_binds(catalog):
    c = empirical_constant([catalog["square-well"]], [10.0],
                           counts=[[4]])
    assert c == 0.0
    assert empirical_constant([catalog["zero"]], [50.0], counts=[[0]]) == 0.0


def test_empirical_constant_inverts_the_weak_bound(catalog):
    P = catalog["square-well"]
    details: list = []
    c = empirical_constant([P], [100.0], counts=[[60]], details=details)
    assert c > 0.0
    # at the returned constant the bound is exactly tight on that pair
    assert bound_weak(P, 100.0, C=c) == pytest.approx(60.0, rel=1e-12)
    assert details[0]["N"] == 60
    assert details[0]["C_required"] == pytest.approx(c)


def test_empirical_constant_monotone_in_the_set(catalog):
    P = catalog["square-well"]
    small = empirical_constant([P], [100.0], counts=[[60]])
    large = empirical_constant([P, P], [100.0], counts=[[60], [70]])
    assert large >= small


def test_empirical_constant_impossible_pair(catalog):
    # a profile with no block mass cannot absorb an excess count at any C
    c = empirical_constant([catalog["zero"]], [50.0], counts=[[5]])
    assert c == math.inf


# ---------------------------------------------------------------------------
# the log weight over a radius grid against the per-radius integral


def _logweight_reference(P, R):
    """int G(t) |t - ln R| dt as one integral over the whole support, the
    way each radius was computed before the grid split."""
    prof = P._prof
    if prof.is_zero:
        return 0.0, 0.0
    lnR = math.log(R)
    r_lo, r_hi = prof.support_r
    t_lo = -math.inf if r_lo <= 0.0 else math.log(r_lo)
    t_hi = math.inf if math.isinf(r_hi) else math.log(r_hi)
    return integrate_line(lambda t: prof.g_vec(t) * np.abs(t - lnR),
                          t_lo, t_hi, points=tuple(prof.t_breaks) + (lnR,))


@functools.lru_cache(maxsize=None)
def _slow_tail_mass(damping):
    """int e^{-e^v} psi(v) dv over v > ln 2 in 30-digit mpmath, with
    psi = v^-damping past v = 1 and 1 before; e^{-e^v} is below 1e-64
    past v = 5."""
    with mpmath.workdps(30):
        return mpmath.quad(lambda v: mpmath.exp(-mpmath.exp(v))
                           * (v ** -damping if v > 1 else 1),
                           [mpmath.log(2), 1, 5])


def _law_logweight_reference(P, R):
    """W(R) of the catalog's slow tails, independent of radcount's
    quadrature.  Past t0 = ln r0 = e^2, G = scale t^-2 (ln t)^-1 psi, with
    psi = (ln ln t)^-damping past e^e and 1 before it (no damping for the
    power-log-tail).  In v = ln ln t, t G dt = scale psi dv and
    G dt = scale e^{-e^v} psi dv exactly.  So int t G dt is
    scale (1 - ln 2 + 1/(damping - 1)) when the damping exceeds 1 and
    infinite otherwise, and int G dt is `_slow_tail_mass`.  Every radius
    here is below r0, where |t - ln R| = t - ln R on the support."""
    par = P.params
    assert (par["sigma"], par["tau"], par["r0"]) == (2.0, 1.0, _R0)
    assert R < _R0
    scale, damping = par.get("scale", 1.0), par.get("damping", 0.0)
    if damping <= 1.0:
        return math.inf, 0.0
    with mpmath.workdps(30):
        w = scale * (1 - mpmath.log(2) + mpmath.mpf(1) / (damping - 1)
                     - math.log(R) * _slow_tail_mass(damping))
    return float(w), 0.0


def _assert_grid_matches_reference(P, grid):
    w, err = integral_logweight_grid(P, grid)
    ref = [(_logweight_reference if P.tail_law is None
            else _law_logweight_reference)(P, float(R)) for R in grid]
    w_ref = np.array([v for v, _ in ref])
    err_ref = np.array([e for _, e in ref])
    assert w.shape == err.shape == (len(grid),)
    np.testing.assert_array_equal(np.isinf(w), np.isinf(w_ref))
    fin = np.isfinite(w_ref)
    # stated errors, a relative floor, and an absolute one for profiles
    # whose values are down in the subnormal range
    tol = np.maximum(1e-9 * np.abs(w_ref[fin]), err_ref[fin] + err[fin])
    tol += 1e-300
    assert np.all(np.abs(w[fin] - w_ref[fin]) <= tol), (
        P.kind, np.max(np.abs(w[fin] - w_ref[fin]) - tol))
    return w, w_ref


def test_logweight_grid_matches_per_radius_integral(catalog):
    for name, P in catalog.items():
        w, w_ref = _assert_grid_matches_reference(P, default_R_grid())
        assert np.argmin(w) == np.argmin(w_ref), name


@pytest.mark.parametrize("spec, grid", [
    ("gaussian", [1.0]),
    ("annulus", [0.5]),
    ("counterexample-damped-strong", [1.0]),
    ("gaussian", [5.0, 0.01, 1.0, 5.0, 0.3, 0.01]),
    ("square-well", [0.9, 0.05, 0.3, 0.05, 0.6]),
    ("square-well", list(np.geomspace(0.02, 0.95, 9))),
    ("annulus", list(np.geomspace(2.5, 400.0, 7))),
    ("counterexample", [3.0, 1e-2]),
])
def test_logweight_grid_shapes(catalog, spec, grid):
    """A one-point grid, an unsorted grid with duplicates, a grid inside
    the square-well support and one right of the annulus support."""
    w, _ = _assert_grid_matches_reference(catalog[spec], grid)
    for i, R in enumerate(grid):
        # equal radii get equal values, in grid order
        assert w[i] == w[grid.index(R)]


def test_logweight_grid_rejects_bad_radii(catalog):
    P = catalog["square-well"]
    for bad in ([], [1.0, 0.0], [1.0, -2.0], [math.inf], [math.nan]):
        with pytest.raises(ValueError):
            integral_logweight_grid(P, bad)


def test_min_over_R_pins_the_strong_damping_argmin(catalog):
    # W decreases in R beyond the support start ln r0 > ln 1000, so the
    # grid's last radius wins
    P = catalog["counterexample-damped-strong"]
    val, arg = bound_chad_min_over_R(P, 50.0)
    assert arg == 1000.0
    assert math.isfinite(val)
    assert bound_report(P, 100.0).chad_min_arg == 1000.0


def test_min_over_R_runs_no_tail_quadrature_on_a_divergent_law(monkeypatch):
    # the tail law decides that W diverges on the whole grid, and no tail
    # is integrated for it; a finite law tail that is not in closed form
    # is integrated once for the whole grid
    calls = []
    tails = quadrature.integrate_tails

    def counted(f, starts, **kwargs):
        calls.append(list(starts))
        return tails(f, starts, **kwargs)

    damped, strong = (load_bundled(name) for name in (
        "counterexample-damped", "counterexample-damped-strong"))
    for P in (damped, strong):
        to_log(P, strict=False)   # J, cached before the spy
    monkeypatch.setattr(quadrature, "integrate_tails", counted)
    monkeypatch.setattr(potentials, "integrate_tails", counted)
    val, arg = bound_chad_min_over_R(damped, 50.0)
    assert val == math.inf and math.isnan(arg)
    assert calls == []
    # strong damping: int t G is in closed form, and int G, past the last
    # breakpoint e^e, is one tail in s = ln ln t starting at s = 1
    assert math.isfinite(bound_chad_min_over_R(strong, 50.0)[0])
    assert calls == [[1.0]]


@st.composite
def _tabulated_profiles(draw):
    n = draw(st.integers(2, 7))
    steps = draw(st.lists(st.floats(0.05, 3.0), min_size=n, max_size=n))
    r0 = draw(st.sampled_from([0.0, 0.1, 0.7]))
    rs = list(r0 + np.cumsum(steps) - steps[0])
    fs = draw(st.lists(st.floats(0.0, 5.0), min_size=n, max_size=n))
    return make_catalog_potential("tabulated", {"r": rs, "f": fs})


@settings(max_examples=100, deadline=None)
@given(P=_tabulated_profiles(),
       logR=st.lists(st.floats(math.log(1e-3), math.log(1e3)),
                     min_size=1, max_size=6))
def test_logweight_grid_property_tabulated(P, logR):
    _assert_grid_matches_reference(P, [math.exp(x) for x in logR])
