"""Dyadic block sequence, rearrangement, quasinorm, and the verdict.

The heavy-tail instance has an exactly integrable block integrand, so its
blocks are a machine-precision oracle: zeta_k = ln(k/(k-1)) for every
fully supported block.  The verdicts off the catalog are written out from
zeta_k ≍ e^{(2-sigma)k} k^{-tau} (ln k)^{-theta}, row by row.  Everything
else leans on small hand sequences and seeded permutations.
"""
import math

import numpy as np
import pytest

from radcount import classify, make_catalog_potential, to_log, zeta_sequence
from radcount.weakseq import (
    ZetaSequence,
    ell1_norm,
    level_bounds,
    quasinorm_weak,
    rearrange,
    weak_level,
)


@pytest.fixture(scope="module")
def cex_seq(catalog):
    return zeta_sequence(to_log(catalog["counterexample"], strict=False), 200)


def test_counterexample_blocks_match_closed_form(cex_seq):
    z = cex_seq.values
    k = np.arange(4, 201)
    exact = np.log(k / (k - 1.0))
    rel = np.abs(z[4:201] - exact) / exact
    assert np.max(rel) < 1e-6
    # the first fully supported block is k = 3 (support opens at t = e^2)
    assert z[3] == pytest.approx(math.log(3.0 / 2.0), rel=1e-6)
    assert z[0] == 0.0 and z[1] == 0.0 and z[2] == 0.0


def test_counterexample_window_level(cex_seq):
    k = np.arange(100, 201)
    level = k * cex_seq.values[100:201]
    assert np.all(level >= 0.99) and np.all(level <= 1.01)


def test_counterexample_verdict(cex_seq, catalog):
    v = classify(cex_seq)
    assert v.in_weak == "yes"
    assert v.in_weak_circle == "no"
    assert v.text() == "O(alpha) holds, Weyl fails"
    s1, s2 = v.window_sups
    assert 0.97 <= s2 / s1 <= 1.05   # flat window level


def test_compactly_supported_instances_vanish(catalog):
    for name in ("square-well", "annulus", "gaussian", "bump"):
        z = zeta_sequence(to_log(catalog[name]), 200)
        v = classify(z)
        assert v.in_weak == "yes" and v.in_weak_circle == "yes", name
        # late blocks carry no weight at all
        assert v.window_sups[1] <= 1e-12 * max(v.quasinorm, 1.0), name


def test_damped_tails_vanish(catalog):
    for name in ("counterexample-damped", "counterexample-damped-strong"):
        z = zeta_sequence(to_log(catalog[name], strict=False), 200)
        v = classify(z)
        assert v.in_weak_circle == "yes", name
        assert v.sup_ratio < 0.92, name


def test_slow_log_tail_is_not_weak():
    # tau = 1/2 gives k * zeta_k ~ sqrt(k): not weak-l1
    P = make_catalog_potential("power-log-tail", {"sigma": 2.0, "tau": 0.5})
    v = classify(zeta_sequence(to_log(P, strict=False), 200))
    assert v.in_weak == "no"
    assert v.sup_ratio >= 1.25


# r0 of the bundled slow tails; damping 1 with tau 1 is
# counterexample-damped itself
R0 = 1618.1779919126539


@pytest.mark.parametrize("sigma, tau, damping, weak, circle", [
    (1.9, 1.0, None, "no", "no"),     # zeta_k grows like e^{0.1 k}
    (2.0, 0.8, None, "no", "no"),     # k zeta_k ~ k^{0.2}
    (2.0, 0.95, None, "no", "no"),    # k zeta_k ~ k^{0.05}
    (2.0, 1.05, None, "yes", "yes"),  # k zeta_k ~ k^{-0.05}
    (2.0, 1.2, None, "yes", "yes"),   # k zeta_k ~ k^{-0.2}
    (2.1, 1.0, None, "yes", "yes"),   # zeta_k decays like e^{-0.1 k}
    (3.0, 0.0, None, "yes", "yes"),   # zeta_k decays like e^{-k}
    (2.0, 0.9, 0.25, "no", "no"),     # k zeta_k ~ k^{0.1} (ln k)^{-0.25}
    (2.0, 1.0, 0.25, "yes", "yes"),   # k zeta_k ~ (ln k)^{-0.25}
    (2.0, 0.9, 0.5, "no", "no"),      # k zeta_k ~ k^{0.1} (ln k)^{-0.5}
    (2.0, 1.0, 0.5, "yes", "yes"),    # k zeta_k ~ (ln k)^{-0.5}
    (2.0, 0.9, 1.0, "no", "no"),      # k zeta_k ~ k^{0.1} (ln k)^{-1}
])
def test_off_catalog_tails_get_closed_form_verdicts(sigma, tau, damping,
                                                     weak, circle):
    params = {"r0": R0, "sigma": sigma, "tau": tau}
    if damping is None:
        P = make_catalog_potential("power-log-tail", params)
    else:
        P = make_catalog_potential("scaled-product",
                                   {**params, "base": 3, "damping": damping})
    v = classify(zeta_sequence(to_log(P, strict=False), 200))
    assert math.isfinite(v.j_value)
    assert (v.in_weak, v.in_weak_circle) == (weak, circle)


def test_sequence_without_source():
    def verdict(values):
        z = ZetaSequence(np.asarray(values, float), np.zeros(len(values)),
                         len(values) - 1)
        v = classify(z)
        assert math.isnan(v.j_value) and v.notes == ()
        return v

    # finitely supported in rank: the only sourceless 'yes'
    v = verdict([3.0, 1.0] + [0.0] * 99)
    assert (v.in_weak, v.in_weak_circle) == ("yes", "yes")
    assert v.window_sups == (0.0, 0.0) and math.isnan(v.sup_ratio)
    v = verdict([0.0] * 51)
    assert (v.in_weak, v.in_weak_circle) == ("yes", "yes")
    # without a law no prefix decides: decaying, flat and growing levels
    k = np.arange(1, 202, dtype=float)
    for values in (k ** -2.0, 1.0 / k, k ** -0.5):
        v = verdict(values)
        assert (v.in_weak, v.in_weak_circle) == ("inconclusive",
                                                 "inconclusive")
        assert v.text() == "inconclusive"
    # the window evidence is still reported: a flat level for 1/k
    s1, s2 = verdict(1.0 / k).window_sups
    assert s1 == s2 == pytest.approx(1.0)


def test_divergent_J_forces_no():
    P = make_catalog_potential("power-log-tail", {"sigma": 1.0, "tau": 0.0})
    v = classify(zeta_sequence(to_log(P, strict=False), 80))
    assert v.in_weak == "no" and v.in_weak_circle == "no"
    assert math.isinf(v.j_value)


def test_zero_potential_sequence(catalog):
    z = zeta_sequence(to_log(catalog["zero"]), 50)
    assert np.all(z.values == 0.0)
    v = classify(z)
    assert v.in_weak == "yes" and v.in_weak_circle == "yes"
    assert v.quasinorm == 0.0


def test_exact_zero_blocks_outside_support(catalog):
    # bump support is r in [1, 3] -> t in [0, ln 3]; block 2 onward is empty
    z = zeta_sequence(to_log(catalog["bump"]), 30)
    assert np.all(z.values[2:] == 0.0)
    assert np.all(z.errors[2:] == 0.0)


def test_rearrange_is_sorted_permutation():
    rng = np.random.default_rng(3)
    for _ in range(25):
        x = rng.exponential(size=rng.integers(1, 40))
        y = rearrange(x)
        assert np.all(np.diff(y) <= 0.0)
        assert sorted(y) == sorted(x)
    # permutation invariance
    x = rng.exponential(size=17)
    assert np.array_equal(rearrange(x), rearrange(x[rng.permutation(17)]))


def test_rearrange_rejects_negative_and_nan():
    with pytest.raises(ValueError):
        rearrange([1.0, -0.5])
    with pytest.raises(ValueError):
        rearrange([1.0, math.nan])


def test_quasinorm_hand_values():
    # x*_n = 1/n has sup n x*_n = 1
    n = np.arange(1, 400)
    assert quasinorm_weak(1.0 / n) == pytest.approx(1.0)
    # a single spike: quasinorm = spike height
    assert quasinorm_weak([0.0, 7.0, 0.0]) == 7.0
    # geometric decay: max of n q^n at n = 1 for q <= 1/2
    q = 0.5
    assert quasinorm_weak(q ** n) == pytest.approx(0.5)
    assert quasinorm_weak([]) == 0.0


def test_quasinorm_grows_with_prefix_length(catalog):
    # truncation can only lose mass: the K-window value is a lower bound
    G = to_log(catalog["counterexample"], strict=False)
    q100 = quasinorm_weak(zeta_sequence(G, 100).values)
    q200 = quasinorm_weak(zeta_sequence(G, 200).values)
    assert q100 <= q200 + 1e-12


def test_ell1_vs_quasinorm_ordering():
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.exponential(size=30)
        assert quasinorm_weak(x) <= ell1_norm(x) + 1e-12


def test_delta_estimates_harmonic_tail():
    n = np.arange(1, 301)
    d_lo, d_hi = level_bounds(weak_level(1.0 / n))
    assert d_lo <= 1.0 <= d_hi + 1e-9
    assert d_hi - d_lo < 0.05
    # finitely supported: the window level is 0
    assert level_bounds(weak_level([3.0, 1.0, 0.0, 0.0])) == (0.0, 0.0)
