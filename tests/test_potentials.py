"""Potential catalog: construction, the log-side profile, and the two
weighted integrals every bound is made of.

Each kind writes G once, vectorised; the RK oracle's scalar evaluators
(`rk_phase.scalar_g`) are a second writing of it, and the two are compared
here.

Frozen values marked as oracle regressions were computed from closed forms
where one exists (wells, gaussian, annulus) and from independent
high-precision quadrature runs otherwise.
"""
import json
import math
import warnings

import numpy as np
import pytest

from radcount import (
    NonIntegrableError,
    PotentialSpecError,
    bundled_spec_names,
    catalog_kinds,
    integral_J,
    integral_logweight,
    load_bundled,
    load_spec,
    make_catalog_potential,
    save_spec,
    to_log,
)
from radcount.potentials import T_CAP, TRIPLE_EXP

import rk_phase

# the slow tail's J = int_2^inf e^-u du / u = E1(2), and the strongly
# damped tail's W(1) = int_{ln 2}^1 dv + int_1^inf v^-3 dv = 1.5 - ln 2
# (v = ln ln t); the bump's J is an oracle regression
J_COUNTEREXAMPLE = 0.048900510708061118
J_BUMP = 2.4138006448758698
W1_DAMPED_STRONG = 1.5 - math.log(2.0)


def test_kind_list_stable():
    assert set(catalog_kinds()) == {
        "square-well", "annulus-well", "gaussian", "power-log-tail",
        "bump", "tabulated", "scaled-product"}


def test_square_well_profile_and_support():
    P = make_catalog_potential("square-well", {"height": 2.0, "radius": 3.0})
    assert P.profile(1.0) == 2.0
    assert P.profile(3.5) == 0.0
    assert P.support == (0.0, 3.0)


def test_param_validation():
    with pytest.raises(PotentialSpecError):
        make_catalog_potential("square-well", {"height": -1.0})
    with pytest.raises(PotentialSpecError):
        make_catalog_potential("annulus-well",
                               {"r_inner": 2.0, "r_outer": 1.0})
    with pytest.raises(PotentialSpecError):
        make_catalog_potential("no-such-kind")
    with pytest.raises(PotentialSpecError):
        make_catalog_potential("gaussian", {"width": 0.0})
    # a kind takes exactly the parameters it has defaults for; a
    # scaled-product also takes those of its base kind
    with pytest.raises(PotentialSpecError,
                       match="^square-well: unknown parameter 'width'$"):
        make_catalog_potential("square-well", {"width": 1.0})
    P = make_catalog_potential("scaled-product", {"base": 2, "width": 0.5})
    assert P.params["width"] == 0.5 and P.params["height"] == 1.0
    with pytest.raises(PotentialSpecError,
                       match="^scaled-product: unknown parameter 'width'$"):
        make_catalog_potential("scaled-product", {"base": 0, "width": 0.5})
    with pytest.raises(PotentialSpecError,
                       match="^scaled-product: base index must be 0..4$"):
        make_catalog_potential("scaled-product", {"base": 5})


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_integer_params_refused(bad):
    # int() of an infinite float raises OverflowError, of NaN a bare
    # ValueError; both parameters are refused as spec errors first
    with pytest.raises(PotentialSpecError,
                       match="^tabulated: need integer n >= 2, got"):
        make_catalog_potential("tabulated", {"n": bad})
    with pytest.raises(PotentialSpecError,
                       match="^scaled-product: base index must be 0..4$"):
        make_catalog_potential("scaled-product", {"base": bad})


def _every_kind(catalog):
    # the bundled instances, plus the kinds and bases they leave out
    out = dict(catalog)
    out["tabulated"] = make_catalog_potential("tabulated", {
        "r": [0.0, 0.3, 0.9, 1.6, 2.5], "f": [2.0, 1.0, 3.0, 0.5, 0.0]})
    out["tabulated-off-0"] = make_catalog_potential("tabulated", {
        "r": [0.2, 0.5, 1.0, 1.7], "f": [0.0, 1.5, 0.25, 0.0]})
    out["scaled-gaussian"] = make_catalog_potential("scaled-product", {
        "base": 2, "scale": 2.5, "damping": 1.0, "width": 0.7})
    out["scaled-bump"] = make_catalog_potential("scaled-product", {
        "base": 4, "scale": 0.5, "damping": 2.0})
    assert {P.kind for P in out.values()} == set(catalog_kinds())
    return out


def test_g_matches_the_scalar_oracle_evaluator(catalog):
    """G.eval and the RK oracle's scalar G, two writings of each kind's G,
    agree at random points and at the 8 floats either side of every
    breakpoint and support end."""
    rng = np.random.default_rng(7)
    for name, P in _every_kind(catalog).items():
        G = to_log(P, strict=False)
        g = rk_phase.scalar_g(P)
        lo, hi = G.domain_hint
        ends = [x for x in (*G.breakpoints, *G.t_support)
                if math.isfinite(x)]
        down = up = np.array(ends, dtype=float)
        t = [rng.uniform(max(lo, -30.0), min(hi, 60.0), size=64), down]
        for _ in range(8):
            down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
            t += [down, up]
        t = np.concatenate(t)
        want = np.array([g(x) for x in t.tolist()])
        assert np.allclose(G.eval(t), want, rtol=1e-12, atol=1e-300), name


def test_profile_is_read_from_G():
    P = make_catalog_potential("square-well", {"height": 2.0, "radius": 3.0})
    for r in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            P.profile(r)
        with pytest.raises(ValueError):
            P.profile(np.array([1.0, r]))
    # F = h from r = 1e-100, where G is about 1e-200, up to the edge
    r = np.concatenate([np.geomspace(1e-100, 3.0, 400), [3.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = P.profile(r)
    assert np.all(np.abs(f - 2.0) <= 1e-12 * 2.0)


def test_integral_J_closed_forms():
    sq = make_catalog_potential("square-well", {"height": 2.0, "radius": 3.0})
    assert abs(integral_J(sq)[0] - 9.0) < 1e-10
    an = make_catalog_potential(
        "annulus-well", {"height": 1.0, "r_inner": 1.0, "r_outer": 2.0})
    assert abs(integral_J(an)[0] - 1.5) < 1e-10
    ga = make_catalog_potential("gaussian", {"height": 3.0, "width": 2.0})
    assert abs(integral_J(ga)[0] - 6.0) < 1e-8   # h w^2 / 2


def test_integral_J_oracle_regressions(catalog):
    j, err = integral_J(catalog["counterexample"])
    assert abs(j - J_COUNTEREXAMPLE) <= err < 1e-11
    assert abs(integral_J(catalog["bump"])[0] - J_BUMP) < 1e-6


def test_bump_evaluators_at_the_support_ends():
    # within a few ulps inside an end ((r - c)/w)^2 rounds to 1, which
    # divided by zero; both evaluators read 0 there, with no warning
    c, w = 2.8246955442269743, 2.2153188863732978
    P = make_catalog_potential("bump", {
        "height": 0.11341865083372567, "center": c, "halfwidth": w})
    G = to_log(P, strict=False)
    def near(ends):
        # every end and the 8 floats either side of it
        down = up = np.asarray(ends, dtype=float)
        out = [down]
        for _ in range(8):
            down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
            out += [down, up]
        return np.concatenate(out)

    r = near([c - w, c + w])
    t = near([math.log(c - w), math.log(c + w)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f, g = P.profile(r), G.eval(t)
    for vals in (f, g):
        assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)
        assert np.all(vals < 1e-12)


def test_logweight_square_well():
    # int_0^1 r |ln r| dr = 1/4
    P = make_catalog_potential("square-well")
    val, _ = integral_logweight(P, 1.0)
    assert abs(val - 0.25) < 1e-10
    # shifting R moves the weight: at R = e the weight is |ln r - 1|
    val_e, _ = integral_logweight(P, math.e)
    exact = 0.75   # int_0^1 r (1 - ln r) dr
    assert abs(val_e - exact) < 1e-10


def test_logweight_divergences(catalog):
    assert math.isinf(integral_logweight(catalog["counterexample"])[0])
    assert math.isinf(integral_logweight(catalog["counterexample-damped"])[0])
    w, err = integral_logweight(catalog["counterexample-damped-strong"])
    assert math.isfinite(w)
    assert abs(w - W1_DAMPED_STRONG) <= err < 1e-12


def test_to_log_strict_raises_on_divergent_J():
    P = make_catalog_potential("power-log-tail",
                               {"sigma": 1.0, "tau": 0.0})
    with pytest.raises(NonIntegrableError):
        to_log(P)
    G = to_log(P, strict=False)
    assert math.isinf(G.j_value)


def test_to_log_cache_is_keyed_on_strict_and_t_cap():
    # to_log takes no tolerances, so no call can cache a loosely computed
    # J for later default calls; one object per (strict, t_cap)
    P = make_catalog_potential("gaussian")
    G = to_log(P, strict=False)
    assert G.j_value == 0.5
    assert to_log(P, strict=False) is G
    assert to_log(P, strict=False, t_cap=T_CAP) is G
    assert to_log(P) is to_log(P, strict=True) is not G
    assert to_log(P, strict=False, t_cap=100.0) is not G
    with pytest.raises(TypeError):
        to_log(P, strict=False, epsabs=1e-2, epsrel=1e-1)
    with pytest.raises(TypeError):
        to_log(P, 1e-10)


def test_to_log_window_covers_mass(catalog):
    for name, P in catalog.items():
        G = to_log(P, strict=False)
        lo, hi = G.domain_hint
        assert lo <= hi
        if not P.is_zero:
            assert G.g_max > 0.0
            assert lo <= G.g_argmax <= hi


def test_g_argmax_attains_g_max(catalog):
    # the refinement around the coarse winner moves only to a higher value;
    # on the slow tails the maximum sits on the jump at t = e^2, and a
    # lower window argmax once left g_argmax 4e-5 to its right
    for name, P in catalog.items():
        G = to_log(P, strict=False)
        assert float(G.eval(G.g_argmax)) == G.g_max, name


def test_counterexample_truncation_flag(catalog):
    G = to_log(catalog["counterexample"], strict=False)
    assert G.truncated
    assert G.domain_hint[1] <= T_CAP + 50.0
    # the tail is genuinely cut: J restricted to the window is short
    assert G.j_value == pytest.approx(J_COUNTEREXAMPLE, abs=1e-9)


def test_tabulated_interpolation():
    P = make_catalog_potential("tabulated", {
        "n": 3, "r0": 0.0, "f0": 1.0, "r1": 1.0, "f1": 1.0,
        "r2": 2.0, "f2": 0.0})
    assert P.profile(0.5) == 1.0
    assert abs(P.profile(1.5) - 0.5) < 1e-12
    assert P.profile(2.5) == 0.0
    # J = int r F dr = int_0^1 r + int_1^2 r(2 - r) = 1/2 + 2/3
    assert abs(integral_J(P)[0] - (0.5 + 2.0 / 3.0)) < 1e-9


def test_scaled_product_matches_base_below_onset(catalog):
    damped = catalog["counterexample-damped"]
    base = catalog["counterexample"]
    r = np.array([2000.0, 1e4, 1e5])
    assert np.all(r < TRIPLE_EXP)
    assert np.allclose(damped.profile(r), base.profile(r), rtol=1e-12)
    # beyond the onset the damping factor is (ln ln ln r)^(-theta) < 1
    r_far = TRIPLE_EXP * 50.0
    assert damped.profile(r_far) < base.profile(r_far)


@pytest.mark.parametrize("kind, params, law", [
    ("square-well", {}, None),
    ("annulus-well", {}, None),
    ("gaussian", {}, None),
    ("bump", {}, None),
    ("tabulated", {"r": [0.0, 1.0, 2.0], "f": [1.0, 1.0, 0.0]}, None),
    ("power-log-tail", {"sigma": 2.5, "tau": -0.5}, (2.5, -0.5, 0.0)),
    # scaled-product takes its base's (sigma, tau), with theta = damping
    ("scaled-product", {"base": 3, "sigma": 1.5, "tau": 2.0, "damping": 0.7},
     (1.5, 2.0, 0.7)),
    ("scaled-product", {"base": 3, "damping": 0.0}, (2.0, 1.0, 0.0)),
    # a finite base, a zero scale or a zero base leave the tail finite
    ("scaled-product", {"base": 2, "damping": 1.0}, None),
    ("scaled-product", {"base": 3, "damping": 1.0, "scale": 0.0}, None),
    ("scaled-product", {"base": 0, "damping": 1.0, "height": 0.0}, None),
])
def test_tail_law_per_kind(kind, params, law):
    assert make_catalog_potential(kind, params).tail_law == law


def test_spec_round_trip(tmp_path):
    P = make_catalog_potential("gaussian", {"height": 2.5, "width": 0.7},
                               description="round trip")
    path = tmp_path / "g.json"
    save_spec(P, str(path))
    Q = load_spec(str(path))
    assert Q.kind == P.kind and Q.params == P.params
    assert Q.description == "round trip"
    # the file is plain JSON with the three documented keys
    doc = json.loads(path.read_text())
    assert set(doc) == {"kind", "params", "description"}


def test_spec_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "square-well", "params": {"height": "x"}}')
    with pytest.raises(PotentialSpecError):
        load_spec(str(path))


def test_bundled_specs_all_load():
    names = bundled_spec_names()
    assert "square-well" in names and "counterexample" in names
    for n in names:
        P = load_bundled(n)
        assert P.kind in catalog_kinds()
    assert load_bundled("zero").is_zero


def test_zero_potential_trivials(catalog):
    P = catalog["zero"]
    assert integral_J(P) == (0.0, 0.0)
    assert integral_logweight(P, 2.0) == (0.0, 0.0)
    G = to_log(P, strict=False)
    assert G.g_max == 0.0 and G.j_value == 0.0
