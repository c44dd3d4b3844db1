"""Line counting engines: phase shooting vs matrix inertia.

Two independent oracles pin these down.  The box profile has a closed
counting function: with s = sqrt(D + E), the whole-line operator
-u'' - D 1_(0,L) has exactly floor((sL + 2 asin(s/sqrt(D)))/pi) eigenvalues
below E, and the half-line Dirichlet version flips its first count at the
root of k cot(k) = -kappa.  On top of that the two engines must agree with
each other on everything the catalog can produce.

The RK phase kernel (`rk_phase`), the accuracy oracle the Magnus mesh pass
is checked against on the catalog and on random profiles, answers to closed
forms too: the box formula, the half-line root and, over a long zero
stretch, the exact map `_zero_tail` here, and the Bessel count of every disk
channel in `test_channels`.
"""
import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import brentq
from scipy.special import jv, jvp
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from radcount import (
    BoundaryMode,
    bs_duality_check,
    count_below,
    delta_link_check,
    eigenvalues_below,
    make_catalog_potential,
    to_log,
    total_count,
)
from radcount import channels, spectral1d
from radcount.potentials import LogPotential
import rk_phase
from rk_phase import count_below_rk
from radcount.spectral1d import (
    bs_spectrum,
    channel_energy,
    count_batch_pruefer,
    count_below_fd,
    count_below_pruefer,
    counting_domain,
    threshold_eps,
)

E_HALF_BOX10 = -4.62419408632978   # root of k cot k = -kappa, depth 10


def boxes_G(*boxes):
    """A LogPotential stub: G = the sum of depth * indicator(lo, hi) over
    disjoint boxes (depth, lo, hi); the first deepest box holds the max.
    The RK oracle reads it through boxes_g_scalar(*boxes)."""
    def g_vec(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for depth, lo, hi in boxes:
            out += np.where((t >= lo) & (t < hi), depth, 0.0)
        return out

    top = max(boxes, key=lambda b: b[0])
    lo, hi = min(b[1] for b in boxes), max(b[2] for b in boxes)
    breaks = tuple(sorted({x for b in boxes for x in b[1:]}))
    return LogPotential(None, (lo, hi), breaks, (lo, hi), False,
                        top[0], 0.5 * (top[1] + top[2]),
                        sum(d * (b - a) for d, a, b in boxes), g_vec)


def boxes_g_scalar(*boxes):
    """G of boxes_G(*boxes) at one float t."""
    def g_scalar(t):
        return sum((d for d, lo, hi in boxes if lo <= t < hi), 0.0)
    return g_scalar


def box_G(depth: float = 10.0, lo: float = 0.0, hi: float = 1.0):
    """A LogPotential stub: G = depth * indicator(lo, hi)."""
    return boxes_G((depth, lo, hi))


def box_count_oracle(depth: float, length: float, E: float) -> int:
    """Whole-line count below E for G = depth * indicator of length."""
    if E <= -depth:
        return 0
    if E >= 0.0:
        raise ValueError("oracle only covers E < 0")
    s = math.sqrt(depth + E)
    phase = s * length + 2.0 * math.asin(s / math.sqrt(depth))
    return int(math.floor(phase / math.pi))


def test_halfline_count_flips_at_transcendental_root():
    G = box_G(10.0)
    # both engines resolve the flip to 1e-6: the phase engine integrates
    # the true ODE, and the element pencil converges spectrally
    for engine in ("pruefer", "fd"):
        below = count_below(G, 1.0, E_HALF_BOX10 - 1e-6,
                            BoundaryMode.HALF_LINE_DIRICHLET, engine=engine)
        above = count_below(G, 1.0, E_HALF_BOX10 + 1e-6,
                            BoundaryMode.HALF_LINE_DIRICHLET, engine=engine)
        assert below.count == 0, engine
        assert above.count == 1, engine
    # so does the RK oracle
    g_scalar = boxes_g_scalar((10.0, 0.0, 1.0))
    for margin, want in ((-1e-6, 0), (1e-6, 1)):
        got = count_below_rk(G, 1.0, E_HALF_BOX10 + margin,
                             BoundaryMode.HALF_LINE_DIRICHLET,
                             g_scalar=g_scalar)
        assert got.count == want, margin


def test_halfline_depth10_has_one_state_near_zero():
    G = box_G(10.0)
    c = count_below(G, 1.0, -1e-9, BoundaryMode.HALF_LINE_DIRICHLET)
    assert c.count == 1


def test_whole_line_box_matches_phase_oracle():
    rng = np.random.default_rng(19)
    checked = 0
    while checked < 30:
        depth = float(rng.uniform(2.0, 400.0))
        length = float(rng.uniform(0.3, 4.0))
        E = -float(rng.uniform(0.05, 0.95)) * depth
        s = math.sqrt(depth + E)
        phase = s * length + 2.0 * math.asin(s / math.sqrt(depth))
        if min(phase / math.pi % 1.0, 1.0 - phase / math.pi % 1.0) < 1e-4:
            continue   # eigenvalue too close to E for an exact-count claim
        G = box_G(depth, 0.0, length)
        want = box_count_oracle(depth, length, E)
        for engine in ("pruefer", "fd"):
            got = count_below(G, 1.0, E, BoundaryMode.WHOLE_LINE,
                              engine=engine)
            assert got.count == want, (engine, depth, length, E)
        rk = count_below_rk(G, 1.0, E, BoundaryMode.WHOLE_LINE,
                            g_scalar=boxes_g_scalar((depth, 0.0, length)))
        assert rk.count == want, ("rk", depth, length, E)
        checked += 1


def test_engines_agree_on_catalog(catalog):
    rng = np.random.default_rng(5)
    modes = list(BoundaryMode)
    for name, P in catalog.items():
        G = to_log(P, strict=False)
        for _ in range(4):
            alpha = float(np.exp(rng.uniform(np.log(3.0), np.log(60.0))))
            depth = alpha * G.g_max
            E = -float(rng.uniform(1e-4, 0.9)) * depth if depth > 0 else -1.0
            mode = modes[int(rng.integers(0, len(modes)))]
            cp = count_below(G, alpha, E, mode, engine="pruefer")
            cf = count_below(G, alpha, E, mode, engine="fd")
            tol = (max(cp.uncertainty, cf.uncertainty)
                   if (cp.flags or cf.flags) else 0)
            assert abs(cp.count - cf.count) <= tol, (name, alpha, E, mode)


def test_below_spectrum_short_circuit():
    G = box_G(4.0)
    c = count_below(G, 2.0, -9.0, BoundaryMode.WHOLE_LINE)
    assert c.count == 0
    assert c.steps == 0


def test_zero_potential_all_modes(catalog):
    G = to_log(catalog["zero"])
    for mode in BoundaryMode:
        for engine in ("pruefer", "fd"):
            assert count_below(G, 5.0, -1e-6, mode, engine=engine).count == 0


def test_dirichlet_at_origin_sandwich(catalog):
    # removing one boundary value is a rank-one restriction: counts differ
    # by at most one
    rng = np.random.default_rng(31)
    for name in ("square-well", "gaussian", "annulus"):
        G = to_log(catalog[name])
        for _ in range(3):
            alpha = float(rng.uniform(10.0, 120.0))
            E = -float(rng.uniform(1e-3, 0.5)) * alpha * G.g_max
            full = count_below(G, alpha, E, BoundaryMode.WHOLE_LINE).count
            split = count_below(G, alpha, E,
                                BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0).count
            assert split <= full <= split + 1, name


def test_counts_monotone_in_energy(catalog):
    G = to_log(catalog["annulus"])
    energies = -np.geomspace(20.0, 1e-4, 12)
    counts = [count_below(G, 25.0, float(e), BoundaryMode.WHOLE_LINE).count
              for e in energies]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_eigenvalues_below_locates_halfline_root():
    G = box_G(10.0)
    for engine in ("pruefer", "fd"):
        ev = eigenvalues_below(G, 1.0, E=-1e-9, engine=engine,
                               mode=BoundaryMode.HALF_LINE_DIRICHLET,
                               tol_eig=1e-10)
        assert len(ev) == 1, engine
        assert ev[0] == pytest.approx(E_HALF_BOX10, abs=5e-8), engine


def test_eigenvalues_below_stops_at_adjacent_floats(catalog, monkeypatch):
    # a tolerance below float resolution: an interval of adjacent floats has
    # no midpoint inside it and is not split again, so the bisection ends
    # (it looped forever), inside the brackets the default tolerance stops at
    G = to_log(catalog["square-well"])
    probes = []
    build = spectral1d._counters

    def capped_build(pencil, alphas):
        def cap(counts_at):
            def capped(mode, energies):
                probes.extend(energies)
                assert len(probes) <= 2000
                return counts_at(mode, energies)
            return capped
        return [cap(c) for c in build(pencil, alphas)]

    monkeypatch.setattr(spectral1d, "_counters", capped_build)
    coarse = eigenvalues_below(G, 10.0, engine="fd")
    n_coarse = len(probes)
    fine = eigenvalues_below(G, 10.0, engine="fd", tol_eig=1e-20)
    assert len(fine) == len(coarse) > 0
    width = 1e-9 * max(1.0, 10.0 * G.g_max)
    assert np.all(np.abs(fine - coarse) <= width)
    assert n_coarse < len(probes) - n_coarse
    for bad in (0.0, -1e-9, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol_eig"):
            eigenvalues_below(G, 10.0, tol_eig=bad)


@pytest.mark.parametrize("name", (
    "square-well", "annulus", "gaussian", "bump", "counterexample",
    "counterexample-damped", "counterexample-damped-strong"))
def test_fd_eigenvalues_are_one_operators_spectrum(catalog, name):
    # engine="fd" locates the levels of the one element pencil that the
    # count at E is read from: as many as it holds below E, and the dense
    # count of that pencil, assembled node by node, steps past the k-th
    # one within the bisection width of it
    G = to_log(catalog[name], strict=False)
    for alpha in (10.0, 50.0):
        width = 1e-9 * max(1.0, alpha * G.g_max * (1.0 + 1e-12) + 1e-12)
        E = channel_energy(G, alpha)
        for mode in BoundaryMode:
            got = eigenvalues_below(G, alpha, mode=mode, engine="fd")
            assert len(got) == sum(_dense_block_counts(G, alpha, mode, E))
            for k, level in enumerate(got):
                below, above = (sum(_dense_block_counts(G, alpha, mode, e))
                                for e in (level - width, level + width))
                assert below <= k < above, (alpha, mode, k)


def _disk_line_levels(alpha):
    """The m = 0 line eigenvalues -nu^2 of the unit disk well at coupling
    alpha: the roots nu in (0, s) of s J_nu'(s) + nu J_nu(s), s = sqrt(alpha),
    the match of J_nu(s e^t) inside to e^(-nu t) outside."""
    s = math.sqrt(alpha)

    def match(nu):
        return s * jvp(nu, s) + nu * jv(nu, s)

    nus = np.linspace(1e-9, s, 4000)
    v = match(nus)
    roots = [brentq(match, a, b, xtol=1e-15)
             for a, b, fa, fb in zip(nus, nus[1:], v, v[1:]) if fa * fb < 0]
    return np.sort(-np.square(roots))


@pytest.mark.parametrize("alpha", (10.0, 50.0, 200.0, 800.0))
def test_phase_eigenvalues_match_bessel_on_disk(catalog, alpha):
    # the default (phase) engine's line eigenvalues against the disk's
    # closed form. The worst is alpha 200's state at -0.2531, 1.6e-4 off
    # (the pass's error is read after the forbidden tail has contracted
    # it); the element pencil's are within 2.1e-6, and verify's moment of
    # them within 1e-6 of Bessel's (test_cli)
    G = to_log(catalog["square-well"])
    got = eigenvalues_below(G, alpha)
    want = _disk_line_levels(alpha)
    assert len(got) == len(want) > 0
    assert np.all(np.abs(got - want) <= 2e-4 * np.abs(want))


def test_fd_side_counts_split_at_origin(catalog):
    # the left/right counts of the Dirichlet-at-0 split add up to the
    # count and are the phase engine's; a side without G counts 0
    mode = BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0
    for name in ("square-well", "gaussian", "annulus"):
        G = to_log(catalog[name])
        for alpha in (20.0, 80.0, 300.0):
            E = -1e-3 * alpha * G.g_max
            c = count_below_fd(G, alpha, E, mode)
            want = count_below_pruefer(G, alpha, E, mode)
            assert c.count > 0, (name, alpha)
            assert c.extras["left"] + c.extras["right"] == c.count, (
                name, alpha)
            assert (c.extras["left"], c.extras["right"]) == (
                want.extras["left"], want.extras["right"]), (name, alpha)
    for G, side in ((box_G(400.0, 0.5, 1.5), "left"),
                    (box_G(400.0, -1.5, -0.5), "right")):
        c = count_below_fd(G, 1.0, -50.0, mode)
        assert c.extras[side] == 0 < c.count, side


def _pencil_inertia(pencil, alpha):
    """The duality check's direct count on `pencil` at alpha: the inertia
    engine's count at E = 0, natural ends, the vertex at t = 0 deleted."""
    counts_at, = spectral1d._counters(pencil, [alpha])
    (sides,), _, _ = counts_at(BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0, [0.0])
    return sum(sides)


def test_bs_duality_on_shared_grid(catalog):
    # inertia identity: #{lambda_n > 1/alpha} equals the negative inertia
    # of K - alpha M on the pencil that bs_spectrum solved, exactly, at
    # couplings apart and at the midpoint 2/(lambda_k + lambda_k+1) between
    # every two values above the floor, so a lost or spurious value fails
    # this without any other solver to compare with; the duality check's
    # condensed count (_pencil_inertia) is that of the assembled matrix;
    # the pencil is symmetric, K positive definite, the mass >= 0 and of
    # meta's n_nodes; and the duality check reads G only through
    # bs_spectrum, whose layout and values G keeps, so it reads nothing
    # that a solve on that layout has read
    for name, P in catalog.items():
        G = to_log(P, strict=False)
        if G.g_max <= 0.0:
            continue
        lam, meta = bs_spectrum(G, floor=1.0 / 800.0)
        K, m = spectral1d._assemble(meta["pencil"])
        assert K.shape == (len(m), len(m)) == (meta["n_nodes"],) * 2, name
        assert np.array_equal(K, K.T) and np.all(m >= 0.0), name
        np.linalg.cholesky(K)
        assert meta["domain"] == spectral1d._span(G), name
        above = lam[lam > 1.0 / 800.0]
        alphas = [7.0, 31.0, 90.0] + list(2.0 / (above[:-1] + above[1:]))
        for alpha in alphas:
            want = int(np.sum(lam > 1.0 / alpha))
            inertia = np.linalg.eigvalsh(K - alpha * np.diag(m)) < 0.0
            assert int(np.sum(inertia)) == want, (name, alpha)
            assert _pencil_inertia(meta["pencil"], alpha) == want, (
                name, alpha)
        reads = []
        spy = dataclasses.replace(
            G, _g_vec=lambda t, G=G: reads.append(t) or G.eval(t))
        bs_spectrum(spy, floor=(1.0 - 1e-8) / 31.0)
        alone = len(reads)
        bs_duality_check(spy, 31.0)
        assert len(reads) == alone, name


@pytest.mark.parametrize("name", (
    "square-well", "annulus", "gaussian", "bump", "counterexample",
    "counterexample-damped", "counterexample-damped-strong"))
def test_duality_direct_count_is_the_full_sweep(catalog, monkeypatch, name):
    # the duality check's direct count, condensed element by element, is
    # the negative inertia of the whole assembled K - alpha M, and equals
    # the spectrum's count with nothing in doubt: at 50 couplings
    # log-spaced over [1, 800], each on the pencil laid out for it
    solved = []
    solve = channels.bs_spectrum
    monkeypatch.setattr(channels, "bs_spectrum", lambda G, **kw: (
        solved.append(solve(G, **kw)) or solved[-1]))
    for alpha in map(float, np.geomspace(1.0, 800.0, 50)):
        rep = bs_duality_check(catalog[name], alpha)
        assert rep["count_spectrum"] == rep["count_direct"], alpha
        assert rep["ok"] and rep["uncertainty"] == 0, alpha
        K, m = spectral1d._assemble(solved[-1][1]["pencil"])
        full = np.linalg.eigvalsh(K - alpha * np.diag(m)) < 0.0
        assert int(np.sum(full)) == rep["count_direct"], alpha


@pytest.mark.parametrize("name", (
    "square-well", "annulus", "gaussian", "bump", "counterexample",
    "counterexample-damped", "counterexample-damped-strong"))
def test_companion_count_is_the_phase_dirichlet_count(catalog, name):
    # two independent engines on the paper's problem: at half the first
    # companion threshold 1/lambda_1 and at the geometric midpoints between
    # consecutive thresholds below 800, the spectrum count equals the phase
    # engine's Dirichlet-at-0 count at the channel energy (one batch)
    P = catalog[name]
    G = to_log(P, strict=False)
    lam, _ = bs_spectrum(G, floor=1.0 / 800.0)
    th = 1.0 / lam[lam > 1.0 / 800.0]
    alphas = [0.5 * th[0]] + list(np.sqrt(th[:-1] * th[1:]))
    split = BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0
    phase = count_batch_pruefer(
        G, [(float(a), channel_energy(G, float(a)), split) for a in alphas])
    assert len(alphas) >= 9
    for k, (alpha, r) in enumerate(zip(alphas, phase)):
        assert (r.count, r.uncertainty) == (k, 0), (alpha, r)
        assert bs_duality_check(P, float(alpha))["count_spectrum"] == k, alpha


def test_bs_spectrum_grid_stability(catalog, monkeypatch):
    # convergence: doubling the element degree moves no value above the
    # floor by more than 1e-8 relative, on every bundled spec at couplings
    # shallow and deep; the bump, whose profile is not analytic at its
    # support ends, by no more than 1e-6. The fine solve reads a copy of G,
    # which starts without the layout and values G keeps
    for name, P in catalog.items():
        G = to_log(P, strict=False)
        if G.g_max <= 0.0:
            continue
        for alpha in (10.0, 50.0, 800.0, 3200.0):
            lam, _ = bs_spectrum(G, floor=1.0 / alpha)
            with monkeypatch.context() as mp:
                mp.setattr(spectral1d, "_BS_DEGREE",
                           2 * spectral1d._BS_DEGREE)
                fine, meta = bs_spectrum(dataclasses.replace(G),
                                         floor=1.0 / alpha)
            assert len(meta["pencil"][0][0]) == 2 * spectral1d._BS_DEGREE + 1
            k = int(np.sum(lam > 1.0 / alpha))
            assert k == int(np.sum(fine > 1.0 / alpha)) > 0, (name, alpha)
            np.testing.assert_allclose(
                lam[:k], fine[:k], rtol=1e-6 if name == "bump" else 1e-8,
                atol=0.0, err_msg=f"{name} {alpha}")


# G = 0 between and beside the boxes, each case a layout where massless
# nodes sit apart from the support, beside it or at t = 0
ELIMINATION_CASES = {
    "gap": boxes_G((50.0, -0.51, -0.31), (30.0, 0.19, 0.39)),
    "ends-at-0": box_G(40.0, -0.31, 0.0),
    "straddles-0": box_G(40.0, -0.11, 0.13),
    "one-side-empty": boxes_G((40.0, 0.29, 0.51), (20.0, 0.89, 1.11)),
}


def test_bs_spectrum_matches_dense_pencil(catalog):
    # the values are the nonzero spectrum of the whole pencil
    # M u = lambda K u, massless nodes included, by scipy's dense
    # generalized solver: one value per node with mass, each within 1e-10
    # (eigenvalues far below the largest are roundoff in both solvers), on
    # every nonzero bundled spec and on boxes with G = 0 between, beside
    # and across t = 0; there the condensed count of K - alpha M is the
    # assembled matrix's at couplings 1, 10 and 100
    cases = {name: to_log(P, strict=False) for name, P in catalog.items()}
    cases.update(ELIMINATION_CASES)
    solved = 0
    for name, G in cases.items():
        if G.g_max <= 0.0:
            continue
        lam, meta = bs_spectrum(G)
        K, m = spectral1d._assemble(meta["pencil"])
        want = scipy.linalg.eigh(np.diag(m), K, eigvals_only=True)[::-1]
        k = int(np.count_nonzero(m))
        assert len(lam) == k, name
        np.testing.assert_allclose(lam, want[:k], rtol=1e-10,
                                   atol=1e-12 * want[0], err_msg=name)
        assert np.all(np.abs(want[k:]) <= 1e-12 * want[0]), name
        for alpha in (1.0, 10.0, 100.0):
            inertia = np.linalg.eigvalsh(K - alpha * np.diag(m)) < 0.0
            assert _pencil_inertia(meta["pencil"], alpha) == int(
                np.sum(inertia)), (name, alpha)
        solved += 1
    assert solved == 11


def test_bs_spectrum_support_at_verify_window(catalog):
    # verify's couplings 10 and 50 lie below _BS_ALPHA: both its duality
    # checks solve bs_spectrum's layout without a floor, a small pencil
    # (the annulus's 50 nodes with mass, the bump's 89)
    for name, n_mass in (("annulus", 50), ("bump", 89)):
        G = to_log(catalog[name])
        lam, meta = bs_spectrum(G)
        m = spectral1d._assemble(meta["pencil"])[1]
        assert np.count_nonzero(m) == len(lam) == n_mass
        for alpha in (10.0, 50.0):
            again, meta_a = bs_spectrum(G, floor=(1.0 - 1e-8) / alpha)
            assert np.array_equal(again, lam), (name, alpha)
            assert meta_a["n_nodes"] == meta["n_nodes"], (name, alpha)


def test_bs_spectrum_rejects_negative_G():
    # M^(1/2) needs G >= 0; a stub that dips below 0 is an error, not NaN
    # eigenvalues, in bs_spectrum and in the duality check that reads it
    G = boxes_G((10.0, -1.0, 1.0), (-1.0, 1.0, 2.0))
    with pytest.raises(ValueError, match="G >= 0"):
        bs_spectrum(G)
    with pytest.raises(ValueError, match="G >= 0"):
        bs_duality_check(G, 5.0)
    lam, _ = bs_spectrum(box_G(10.0, -1.0, 1.0))
    assert lam[0] > 0.0


def test_bs_spectrum_rejects_n_max_below_1(catalog):
    # bs_spectrum returns every value of its pencil, one per node with
    # mass: neither it nor either check that reads it takes an n_max, on a
    # narrow support (the annulus), a wide one and a zero potential alike,
    # so none can be asked for fewer than 1
    for name in ("zero", "annulus", "gaussian"):
        G = to_log(catalog[name], strict=False)
        for n_max in (0, -3, 48):
            with pytest.raises(TypeError, match="n_max"):
                bs_spectrum(G, n_max=n_max)
            with pytest.raises(TypeError, match="n_max"):
                bs_duality_check(catalog[name], 50.0, n_max=n_max)
            with pytest.raises(TypeError, match="n_max"):
                delta_link_check(catalog[name], n_max=n_max)
        lam, meta = bs_spectrum(G)
        m = spectral1d._assemble(meta["pencil"])[1]
        assert len(lam) == np.count_nonzero(m), name


def test_bs_spectrum_reads_G_on_its_support_only(catalog):
    # G = 0 off t_support, where u is constant: a solve over the whole
    # counting window lays the same elements on the support, and drops its
    # elements without mass between the support and a natural end, so the
    # pencil and the values are the support's, bit for bit
    wider = 0
    for name, P in catalog.items():
        G = to_log(P, strict=False)
        if G.g_max <= 0.0:
            continue
        whole = dataclasses.replace(G, t_support=(-math.inf, math.inf))
        for floor in (None, 1.0 / 800.0):
            lam, meta = bs_spectrum(G, floor=floor)
            lam_w, meta_w = bs_spectrum(whole, floor=floor)
            assert np.array_equal(lam, lam_w), name
            assert meta_w["n_nodes"] == meta["n_nodes"], name
            wider += meta_w["domain"] != meta["domain"]
    assert wider == 12


def test_phase_count_past_n_cap_is_refused(catalog, monkeypatch):
    # a lead-in scan or a phase mesh of more than _N_CAP points is refused
    # with a ValueError naming the coupling and the point count, before it
    # is built: on the disk at 3200 the whole-line scan needs 7,789 points
    # and the Dirichlet-at-0 passes, which have no lead-in, a mesh of 147
    # nodes
    G = to_log(catalog["square-well"])
    monkeypatch.setattr(spectral1d, "_N_CAP", 7789)
    assert count_below_pruefer(G, 3200.0, -1.0).count > 0
    monkeypatch.setattr(spectral1d, "_N_CAP", 7788)
    with pytest.raises(ValueError, match="alpha=3200.0: the lead-in scan "
                       "needs 7.79e[+]03 points, past 7788"):
        count_below_pruefer(G, 3200.0, -1.0)
    split = BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0
    monkeypatch.setattr(spectral1d, "_N_CAP", 147)
    G.phase_mesh = None
    assert count_below_pruefer(G, 3200.0, -1.0, split).count > 0
    monkeypatch.setattr(spectral1d, "_N_CAP", 146)
    G.phase_mesh = None
    with pytest.raises(ValueError, match="alpha=3200.0: the phase mesh "
                       "needs more than [0-9]+ nodes, past 146"):
        count_below_pruefer(G, 3200.0, -1.0, split)


def test_companion_pencil_past_n_cap_is_refused(catalog, monkeypatch):
    # a pencil of more than _N_CAP entries is refused, with the coupling
    # read and the node count, before it is built
    G = to_log(catalog["gaussian"])
    n = bs_spectrum(G, floor=1.0 / 800.0)[1]["n_nodes"]
    monkeypatch.setattr(spectral1d, "_N_CAP", n * n)
    bs_spectrum(G, floor=1.0 / 800.0)
    monkeypatch.setattr(spectral1d, "_N_CAP", n * n - 1)
    with pytest.raises(ValueError, match=f"alpha=800: .* {n} nodes"):
        bs_spectrum(G, floor=1.0 / 800.0)


@pytest.mark.parametrize("mode", list(BoundaryMode))
def test_grid_capped_at_n_cap(monkeypatch, mode):
    # the element layout is the phase mesh at a fraction of the coupling,
    # so it is capped at _N_CAP nodes as that mesh is: a count that needs
    # more is refused with the mesh's ValueError in every mode, not counted
    # on a coarser layout
    G = boxes_G((400.0, -0.5, 0.5), (100.0, 0.5, 1.5))
    nodes = spectral1d._mesh_nodes(
        G, spectral1d._BS_FRAC * spectral1d._BS_ALPHA, *spectral1d._span(G))
    monkeypatch.setattr(spectral1d, "_N_CAP", nodes.size)
    assert count_below_fd(G, 1.0, -50.0, mode).count > 0
    G.elements = None
    monkeypatch.setattr(spectral1d, "_N_CAP", nodes.size - 1)
    with pytest.raises(ValueError, match="alpha=3.0: the phase mesh needs "
                       f"more than [0-9]+ nodes, past {nodes.size - 1}"):
        count_below_fd(G, 1.0, -50.0, mode)


def test_threshold_eps_tracks_scale(catalog):
    G = to_log(catalog["square-well"])
    assert threshold_eps(G, 100.0) == pytest.approx(1e-7)
    assert threshold_eps(G, 200.0) == 2.0 * threshold_eps(G, 100.0)


def test_channel_energy_sits_threshold_eps_below_minus_m_squared(catalog):
    # the one owner of the channel energy: None on G = 0, otherwise
    # -(m^2 + threshold_eps) bit for bit
    for name, P in catalog.items():
        G = to_log(P, strict=False)
        for alpha in (3.0, 50.0, 3200.0):
            for m in (0, 1, 7):
                got = channel_energy(G, alpha, m)
                if name == "zero":
                    assert got is None
                else:
                    assert got == -(m * m + threshold_eps(G, alpha)), (
                        name, alpha, m)


def test_counting_domain_pads_with_energy():
    G = box_G(1.0)
    near = counting_domain(G, 1.0, -1e-8, BoundaryMode.WHOLE_LINE)
    deep = counting_domain(G, 1.0, -0.9, BoundaryMode.WHOLE_LINE)
    assert near[0] <= deep[0] and near[1] >= deep[1]
    half = counting_domain(G, 1.0, -0.5, BoundaryMode.HALF_LINE_DIRICHLET)
    assert half[0] == 0.0


def test_phase_kernel_flags_step_floor(catalog, monkeypatch):
    # a step the error control would shrink below _H_MIN is taken at
    # _H_MIN and flagged: the disk channel m = 0 at alpha 200 with the floor
    # raised to 0.05
    monkeypatch.setattr(rk_phase, "_H_MIN", 0.05)
    G = to_log(catalog["square-well"])
    got = count_below_rk(G, 200.0, channel_energy(G, 200.0))
    assert "step-floor" in got.flags


def test_last_step_lands_on_the_piece_end():
    # -0.2 + (0.15 + 0.2) falls short of 0.15 by an ulp; the one step that
    # covers the piece must end on 0.15 itself, with no second step for the
    # residue and no step-floor (pi/4 is the fixed phase of w = -1)
    a, b = -0.2, 0.15
    assert a + (b - a) < b
    th, steps, flags = rk_phase._integrate_phase(
        lambda t: 0.0, 1.0, -1.0, a, b, math.pi / 4, ())
    assert (steps, flags) == (1, [])
    assert th == pytest.approx(math.pi / 4, abs=1e-15)


def test_phase_kernel_step_budget(catalog, monkeypatch):
    monkeypatch.setattr(rk_phase, "_MAX_STEPS", 10)
    G = to_log(catalog["square-well"])
    with pytest.raises(RuntimeError, match="exceeded 10 steps"):
        rk_phase._integrate_phase(
            rk_phase.scalar_g(catalog["square-well"]), 200.0, -1.0, -20.0,
            10.0, 0.5, G.breakpoints)


def _final_phases(monkeypatch, G, alpha, E, mode):
    """count_below_pruefer (the Magnus mesh pass) with the final phase of
    each pass recorded, mapped over the zero-potential tail when the pass
    has one."""
    settle = spectral1d._pass_phases
    thetas = []

    def spy(*args):
        out = settle(*args)
        thetas.extend(th for th, _, _ in out)
        return out

    with monkeypatch.context() as mp:
        mp.setattr(spectral1d, "_pass_phases", spy)
        return count_below_pruefer(G, alpha, E, mode), thetas


def _assert_same_phase_count(got, th_got, want, th_want, case):
    # the same count, uncertainty, flags and side counts, and every final
    # phase within 1e-7, well inside the 1e-6 flag windows
    assert got.count == want.count, case
    assert got.uncertainty == want.uncertainty, case
    assert got.flags == want.flags, case
    assert got.extras.get("left") == want.extras.get("left"), case
    assert got.extras.get("right") == want.extras.get("right"), case
    assert len(th_got) == len(th_want), case
    for a, b in zip(th_got, th_want):
        assert abs(a - b) <= 1e-7, (case, a, b)


@pytest.mark.parametrize("name, cases", [
    ("zero", 12), ("square-well", 140), ("annulus", 430), ("gaussian", 141),
    ("bump", 510), ("counterexample", 36), ("counterexample-damped", 36),
    ("counterexample-damped-strong", 36),
])
def test_mesh_pass_matches_rk_oracle(catalog, monkeypatch, name, cases):
    # the Magnus mesh pass against the RK kernel it replaced, over 1,341
    # cases: every mode, alpha in {3, 25, 200, 3200}, every channel up to
    # the first empty one; the two are independent step controls, one
    # resolving the oscillation, one closed-form on each interval
    G = to_log(catalog[name], strict=False)
    n_cases = 0
    for mode in BoundaryMode:
        for alpha in (3.0, 25.0, 200.0, 3200.0):
            m = 0
            while True:
                E = channel_energy(G, alpha, m) or -1.0
                got, th_got = _final_phases(monkeypatch, G, alpha, E, mode)
                want = count_below_rk(G, alpha, E, mode)
                _assert_same_phase_count(got, th_got, want,
                                         want.extras["thetas"],
                                         (mode.value, alpha, m))
                n_cases += 1
                if not got.count:
                    break
                m += 1
    assert n_cases == cases


def test_phase_over_a_zero_stretch_matches_the_exact_map():
    # G = 0 over 1000 at E = -1e-10: no unit cap, so a handful of steps
    # reach the closed-form map (_zero_tail) within 1e-9, from the fixed
    # point of the zero head, its repeller, pi/2 and phases settling on it
    E = -1e-10
    kappa = math.sqrt(-E)
    beta = math.atan2(1.0, kappa)
    for theta0 in (beta, math.pi - beta, 0.5 * math.pi, beta - 1e-3,
                   3.0 * math.pi + beta - 1e-3):
        th, steps, flags = rk_phase._integrate_phase(
            lambda t: 0.0, 1.0, E, 0.0, 1000.0, theta0, ())
        want = spectral1d._zero_tail(theta0, kappa, 1000.0)
        assert abs(th - want) <= 1e-9, (theta0, th, want)
        assert steps <= 20 and flags == [], (theta0, steps)


def test_narrow_deep_box_in_a_near_threshold_stretch(monkeypatch):
    # a box 0.1 wide and 1e4 deep, with 4 states of its own, inside a
    # stretch 2000 long where |w| <= 1e-6, so a step there may be far wider
    # than the box: its breakpoints cut the pieces, and its states are
    # counted in every mode, unflagged, with the RK oracle's counts and the
    # window path's phases.  The stub's boxes are [lo, hi), so G jumps to
    # 1e4 at the end of the piece before the box: an RK step may read g only
    # inside its piece, or it is refused there until it floors
    deep = (1e4, 1000.0, 1000.1)
    shallow = ((1e-6, 0.0, 1000.0), (1e-6, 1000.1, 2000.0))
    G = boxes_G(shallow[0], deep, shallow[1])
    g_scalar = boxes_g_scalar(shallow[0], deep, shallow[1])
    without = boxes_G(*shallow)
    for mode in BoundaryMode:
        for E in (-1e-8, -1e-7):
            case = (mode.value, E)
            got = _assert_matches_window_path(monkeypatch, G, 1.0, E, mode,
                                              case)
            want = count_below_rk(G, 1.0, E, mode, g_scalar=g_scalar)
            assert (got.count, got.uncertainty, got.flags) == (
                want.count, 0, ()), case
            assert got.count >= box_count_oracle(1e4, 0.1, E) == 4, case
            assert got.count > count_below_pruefer(without, 1.0, E,
                                                   mode).count, case


def _window_path(G, alpha, E, mode):
    """The phase count with neither the lead-in start nor the closed-form
    tail: every pass starts at its window end (the whole line at
    atan2(1, kappa)) and the mesh pass runs through to B, its G = 0
    stretches included.  Returns the count, uncertainty, flags, side counts
    and the final phase per pass, in the order count_below_pruefer runs its
    passes."""
    A, B = counting_domain(G, alpha, E, mode)
    kappa = math.sqrt(-E)

    def one(a, b, theta0):
        (th, _, settled), = spectral1d._pass_phases(
            G, [(alpha, E, a, b, theta0, 0.0)])
        c, u, fl = spectral1d._zeros_from_phase(th, kappa)
        if not settled and "phase-near-node" not in fl:
            fl.insert(0, "phase-near-node")
            u = 1
        return c, u, fl, th

    if mode == BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0:
        passes = [one(0.0, B, 0.0), one(0.0, A, 0.0)]
    elif mode == BoundaryMode.HALF_LINE_DIRICHLET:
        passes = [one(0.0, B, 0.0)]
    else:
        passes = [one(A, B, math.atan2(1.0, kappa))]
    flags = ["domain-truncated"] if G.truncated else []
    for p in passes:
        flags += p[2]
    sides = ((passes[1][0], passes[0][0]) if len(passes) == 2
             else (None, None))
    return (sum(p[0] for p in passes), sum(p[1] for p in passes),
            tuple(flags), sides, [p[3] for p in passes])


def _assert_matches_window_path(monkeypatch, G, alpha, E, mode, case):
    got, thetas = _final_phases(monkeypatch, G, alpha, E, mode)
    count, unc, flags, (left, right), want = _window_path(G, alpha, E, mode)
    assert got.count == count, case
    assert got.uncertainty == unc, case
    assert got.flags == flags, case
    assert got.extras.get("left") == left, case
    assert got.extras.get("right") == right, case
    assert len(thetas) == len(want), case
    for a, b in zip(thetas, want):
        assert abs(a - b) <= 1e-8, (case, a, b)
    return got


@pytest.mark.parametrize("name, integrated", [
    ("square-well", 42), ("annulus", 45), ("gaussian", 36), ("bump", 48),
    ("counterexample", 21), ("counterexample-damped", 21),
    ("counterexample-damped-strong", 21),
])
def test_lead_in_and_zero_tail_match_window_path(catalog, monkeypatch, name,
                                                 integrated):
    # starting left of the turning point where the phase is pinned, and
    # mapping the G = 0 stretch in closed form, change no count, flag or
    # side count, and move no final phase by more than 1e-8: on the grid of
    # every mode, alpha in {3, 25, 200, 3200} and m in {0, 1, 3, 10, 40},
    # and on every channel of the plane count at alpha 200 and 3200
    G = to_log(catalog[name], strict=False)
    n_integrated = 0
    for mode in BoundaryMode:
        for alpha in (3.0, 25.0, 200.0, 3200.0):
            for m in (0, 1, 3, 10, 40):
                E = channel_energy(G, alpha, m)
                if alpha * G.g_max + E > 0.0:
                    _assert_matches_window_path(monkeypatch, G, alpha, E,
                                                mode, (mode.value, alpha, m))
                    n_integrated += 1
    assert n_integrated == integrated
    for alpha in (200.0, 3200.0):
        eps = threshold_eps(G, alpha)
        _assert_matches_window_path(
            monkeypatch, G, alpha, -eps,
            BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0, ("dirichlet", alpha))
        m = 0
        while _assert_matches_window_path(
                monkeypatch, G, alpha, -(m * m + eps), BoundaryMode.WHOLE_LINE,
                ("channel", alpha, m)).count:
            m += 1


def test_lead_in_stops_before_a_narrow_deep_box(monkeypatch):
    # a box of width 1e-4 left of the argmax, under the scan spacing
    # 1/(4 sqrt(2e4 + E)), shows only through its breakpoints; a deep one
    # holds states of its own that the start must stay left of
    hidden = boxes_G((1e4, 0.0, 1e-4), (2e4, 1.5, 4.0))
    deep = boxes_G((1e4, 0.0, 0.05), (300.0, 1.5, 4.0))
    for G in (hidden, deep):
        for E in (-225.0, -400.0, -2000.0):
            A, B = counting_domain(G, 1.0, E, BoundaryMode.WHOLE_LINE)
            (t0, _), = spectral1d._lead_in(G, [(1.0, E, A, B)])
            assert A < t0 < 0.0, (E, t0)
    wide_alone = boxes_G((300.0, 1.5, 4.0))
    for E in (-225.0, -2000.0):
        got = _assert_matches_window_path(
            monkeypatch, deep, 1.0, E, BoundaryMode.WHOLE_LINE, E)
        assert got.count > count_below_pruefer(wide_alone, 1.0, E).count, E


def test_phase_lead_in_read_in_chunks_is_the_whole_scan(catalog,
                                                        monkeypatch):
    # the lead-in integral, summed back from the first allowed point in
    # chunks, gives the start and its phase of the whole scan, bit for
    # bit. Whole-line windows of every nonzero spec at alpha in {3, 25,
    # 200, 800, 3200} and m in 0..5, each alone and a spec's all in one
    # shared scan; first chunks of 1 and 3 points, and one longer than any
    # scan, cut it anywhere or nowhere
    windows = {}
    for name in _CATALOG_NAMES[1:]:
        G = to_log(catalog[name], strict=False)
        windows[name] = G, []
        for alpha in (3.0, 25.0, 200.0, 800.0, 3200.0):
            for m in range(6):
                E = channel_energy(G, alpha, m)
                if alpha * G.g_max + E > 0.0:
                    windows[name][1].append((alpha, E, *counting_domain(
                        G, alpha, E, BoundaryMode.WHOLE_LINE)))

    def starts():
        alone, shared = [], []
        for G, ws in windows.values():
            alone += [spectral1d._lead_in(G, [w])[0] for w in ws]
            shared += spectral1d._lead_in(G, ws)
        return alone, shared

    want = starts()
    for chunk in (1, 3, 10 ** 9):
        monkeypatch.setattr(spectral1d, "_HEAD_CHUNK", chunk)
        assert starts() == want, chunk
    every = [w for _, ws in windows.values() for w in ws]
    led = [t0 > A for (t0, _), (_, _, A, _) in zip(want[0], every)]
    assert 100 < sum(led) < len(led), (len(led), sum(led))


def test_zero_tail_in_every_mode(monkeypatch):
    # G = 0 past t = 1 and, in the Dirichlet-at-0 left pass, before
    # t = -1: the mesh pass stops there and the tail is mapped in closed
    # form, with the window path's counts, flags and phases
    G = box_G(60.0, -1.0, 1.0)
    ends = []
    settle = spectral1d._pass_phases

    def spy(G, passes):
        ends.extend(z for _, _, _, z, _, _ in passes)
        return settle(G, passes)

    for mode in BoundaryMode:
        for E in (-0.5, -7.0, -30.0):
            ends.clear()
            with monkeypatch.context() as mp:
                mp.setattr(spectral1d, "_pass_phases", spy)
                count_below_pruefer(G, 1.0, E, mode)
            assert ends == ([1.0, -1.0] if mode ==
                            BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0 else [1.0])
            _assert_matches_window_path(monkeypatch, G, 1.0, E, mode,
                                        (mode.value, E))


def test_magnus_sweep_is_exact_for_constant_w():
    # with w constant the propagator is the exact solution map, on any cut
    # of [0, L] into intervals that turn by less than pi (the zeros are
    # sign-counted; a wider interval raises): where w = k^2 > 0 the phase
    # is the closed form pi floor(psi/pi) + atan2(sin psi', k cos psi'),
    # psi = k L + phi0, psi' = psi mod pi, tan phi0 = k tan theta0, and
    # where w = -kappa^2 it is _zero_tail's map, the hyperbolic branch
    # scaled by e^-nu, on the cut as drawn
    rng = np.random.default_rng(3)
    for n in (1, 7, 40):
        h = rng.uniform(0.1, 1.0, n)
        L = float(np.sum(h))
        for theta0 in (0.0, 0.3, 0.5 * math.pi, 3.0):
            for k in (0.2, 3.0, 40.0):
                parts = np.ceil(k * h / 3.0).astype(np.int64)
                cut = np.repeat(h / parts, parts)
                w = np.full(cut.size, k * k)
                got, = spectral1d._magnus_sweep(cut, w, w, [0, cut.size],
                                                [theta0])
                psi = k * L + math.atan2(k * math.sin(theta0),
                                         math.cos(theta0))
                rest = psi - math.pi * math.floor(psi / math.pi)
                want = (math.pi * math.floor(psi / math.pi)
                        + math.atan2(math.sin(rest), k * math.cos(rest)))
                assert got == pytest.approx(want, abs=1e-9), (n, theta0, k)
                if k * np.max(h) >= math.pi:
                    with pytest.raises(RuntimeError, match="breakpoint"):
                        spectral1d._magnus_sweep(h, w[:n], w[:n], [0, n],
                                                 [theta0])
                w = np.full(n, -k * k)
                got, = spectral1d._magnus_sweep(h, w, w, [0, n], [theta0])
                want = spectral1d._zero_tail(theta0, k, L)
                assert got == pytest.approx(want, abs=1e-9), (n, theta0, -k)


def _ramp_G(lo, hi, g_lo, g_hi):
    """A LogPotential stub: G linear from g_lo at lo to g_hi at hi, 0
    outside [lo, hi)."""
    def g_vec(t):
        t = np.asarray(t, dtype=float)
        ramp = g_lo + (g_hi - g_lo) * (t - lo) / (hi - lo)
        return np.where((t >= lo) & (t < hi), ramp, 0.0)

    return LogPotential(None, (lo, hi), (lo, hi), (lo, hi), False,
                        max(g_lo, g_hi), hi if g_hi > g_lo else lo,
                        0.5 * (g_lo + g_hi) * (hi - lo), g_vec)


def test_the_left_pass_is_the_mirrored_right_pass(monkeypatch):
    # the Dirichlet-at-0 left pass walks the mirrored intervals with their
    # Gauss points swapped: over a ramp it meets, level by level, the
    # phases the right pass meets over the reflected ramp, to rounding,
    # with the same side counts. The phases are read from the mesh sweep,
    # before the zero tail, which would pin both alike
    G = _ramp_G(0.2, 1.7, 30.0, 80.0)
    mirror = _ramp_G(-1.7, -0.2, 80.0, 30.0)
    mode = BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0
    sweep = spectral1d._magnus_sweep
    thetas = []

    def spy(*args):
        out = sweep(*args)
        thetas.append(out)
        return out

    def sweep_phases(H, E):
        # the other side's pass lies off the ramp: one pass per level
        thetas.clear()
        c = count_below_pruefer(H, 1.0, E, mode)
        return c, [th for th, in thetas]

    monkeypatch.setattr(spectral1d, "_magnus_sweep", spy)
    for E in (-5.0, -20.0, -40.0):
        got, right = sweep_phases(G, E)
        want, left = sweep_phases(mirror, E)
        assert (got.extras["right"], got.extras["left"]) == (
            want.extras["left"], want.extras["right"]), E
        assert got.extras["right"] > 0, E
        assert len(right) >= 2, E
        assert right == pytest.approx(left, abs=1e-12), E


def test_a_pass_that_never_settles_is_flagged(monkeypatch):
    # with no spread small enough to settle a pass (a tolerance below 0),
    # every pass sweeps all _MAX_LEVEL bisections, keeps the count, and
    # flags phase-near-node with uncertainty 1, once per pass
    G = box_G(60.0, -1.0, 1.0)
    for mode in BoundaryMode:
        want = count_below_pruefer(G, 1.0, -7.0, mode)
        with monkeypatch.context() as mp:
            mp.setattr(spectral1d, "_SPREAD_TOL", -1.0)
            got = count_below_pruefer(G, 1.0, -7.0, mode)
        passes = 2 if mode == BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0 else 1
        assert want.flags == () and want.uncertainty == 0, mode
        assert got.count == want.count, mode
        assert got.flags == ("phase-near-node",) * passes, mode
        assert got.uncertainty == passes, mode
        assert got.steps > want.steps, mode


def test_zero_tail_keeps_the_branch():
    # from every phase of a branch the map stays inside it, settles on the
    # attractor k pi + beta far out, and leaves the repeller k pi - beta
    # (the tail rule's critical phase) where it is
    for kappa in (0.05, 1.0, 40.0):
        beta = math.atan2(1.0, kappa)
        for k in (0, 3):
            for phi in np.linspace(-beta, math.pi - beta, 9)[1:-1]:
                th = k * math.pi + phi
                # |theta'| <= max(1, kappa^2), so a short stretch moves
                # the phase by less than 1e-3
                near = spectral1d._zero_tail(th, kappa,
                                             1e-3 / max(1.0, kappa * kappa))
                far = spectral1d._zero_tail(th, kappa, 60.0 / kappa)
                assert k * math.pi - beta < near < (k + 1) * math.pi - beta
                assert abs(near - th) <= 1e-3
                assert far == pytest.approx(k * math.pi + beta, abs=1e-12)
            rep = k * math.pi - beta
            kept = spectral1d._zero_tail(rep, kappa, 5.0 / kappa)
            assert kept == pytest.approx(rep, abs=1e-9)


# The inertia engine (count_below_fd) against the full window: the same
# pencil, each block assembled node by node from the element matrices, no
# interior condensed, and counted by dense eigvalsh. The engine's count,
# condensed element by element and pivoted over the vertices only, must
# reproduce it.
_SPLIT = BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0


def _dense_block_counts(G, alpha, mode, E):
    """The negative eigenvalues of each block of the pencil that
    count_below_fd(G, alpha, E, mode) counts, K - alpha M_G - E M_1 with
    kappa = sqrt(-E) at an open end, by dense eigvalsh of the assembled
    block."""
    _, pencil, _ = spectral1d._elements(G, alpha)
    Ke, w, g, _ = pencil
    q = w.shape[1]
    kappa = math.sqrt(max(-E, 0.0))
    counts = []
    for e0, e1, open0, open1 in spectral1d._blocks(pencil, mode):
        n = (q - 1) * (e1 - e0) + 1
        idx = (q - 1) * np.arange(e1 - e0)[:, None] + np.arange(q)
        A = np.zeros((n, n))
        np.add.at(A, (idx[:, :, None], idx[:, None, :]), Ke[e0:e1])
        np.add.at(A, (idx, idx), -(w * (alpha * g + E))[e0:e1])
        A[0, 0] += kappa * open0
        A[-1, -1] += kappa * open1
        keep = slice(1 - open0, n - 1 + open1)
        counts.append(int(np.sum(np.linalg.eigvalsh(A[keep, keep]) < 0.0)))
    return counts


def _sides(mode, per_block):
    return dict(zip(("left", "right"), per_block)) if mode == _SPLIT else {}


def _dense_fd(G, alpha, E, mode):
    """count_below_fd by the full window's counts: the probes at E -/+ delta
    (the upper at most 0) decide where they agree, and E is counted where
    they differ. Returns (count, uncertainty, flags, side counts)."""
    delta = threshold_eps(G, alpha)
    lo, hi = (_dense_block_counts(G, alpha, mode, e)
              for e in (E - delta, min(E + delta, 0.0)))
    at = lo if lo == hi else _dense_block_counts(G, alpha, mode, E)
    flags = (("domain-truncated",) * G.truncated
             + ("near-threshold",) * (sum(lo) != sum(hi)))
    return sum(at), sum(hi) - sum(lo), flags, _sides(mode, at)


def _three_probe_fd(G, alpha, E, mode):
    """count_below_fd were its probes never to decide the count: the count,
    its zero pivots and side counts are read at E, and the probes at
    E -/+ delta only raise `near-threshold`. Returns (count, uncertainty,
    flags, side counts, pivots)."""
    _, pencil, _ = spectral1d._elements(G, alpha)
    counts_at, = spectral1d._counters(pencil, [alpha])
    delta = threshold_eps(G, alpha)
    (lo, hi, at), (_, _, zero), pivots = counts_at(
        mode, [E - delta, min(E + delta, 0.0), E])
    flags = (("domain-truncated",) * G.truncated + ("pivot-shift",) * zero
             + ("near-threshold",) * (sum(lo) != sum(hi)))
    return (sum(at), max(int(zero), sum(hi) - sum(lo)), flags,
            _sides(mode, at), pivots)


def _fd_outcome(got):
    return (got.count, got.uncertainty, got.flags,
            {k: got.extras[k] for k in ("left", "right") if k in got.extras})


def _assert_matches_full_window(G, alpha, E, mode, case):
    # the engine's count, uncertainty, flags and sides are the full
    # window's, at a live energy; below the spectrum it counts nothing
    got = count_below_fd(G, alpha, E, mode)
    if alpha * G.g_max + E <= 0.0:
        assert (got.count, got.steps) == (0, 0), case
        assert "below-spectrum" in got.flags, case
    else:
        assert _fd_outcome(got) == _dense_fd(G, alpha, E, mode), case
    return got


_CATALOG_NAMES = ("zero", "square-well", "annulus", "gaussian", "bump",
                  "counterexample", "counterexample-damped",
                  "counterexample-damped-strong")


@pytest.mark.parametrize("name", _CATALOG_NAMES)
def test_fd_trimmed_pass_matches_full_window(catalog, name):
    # the pivot pass runs over the vertices only, each element's interior
    # condensed: in every mode and at alpha in {3, 25, 200, 800, 3200}:
    # every channel energy of the plane count (the whole line up to the
    # first empty channel, the Dirichlet modes at m = 0), one random energy
    # and one within the threshold offset of 0 (whose upper probe is
    # clamped at 0) give the full window's count, uncertainty, flags and
    # side counts
    G = to_log(catalog[name], strict=False)
    rng = np.random.default_rng(41)
    for alpha in (3.0, 25.0, 200.0, 800.0, 3200.0):
        eps = threshold_eps(G, alpha) or 1e-9
        for mode in BoundaryMode:
            E = -float(rng.uniform(0.0, 1.0)) * max(alpha * G.g_max, 1.0)
            _assert_matches_full_window(G, alpha, E, mode, (alpha, mode, E))
            _assert_matches_full_window(G, alpha, -0.5 * eps, mode,
                                        (alpha, mode, "E + delta > 0"))
            m = 0
            while _assert_matches_full_window(
                    G, alpha, -(m * m + eps), mode, (alpha, mode, m)).count:
                if mode != BoundaryMode.WHOLE_LINE:
                    break
                m += 1


_LINE = (BoundaryMode.WHOLE_LINE,)


@pytest.mark.parametrize("name, alphas, modes", [
    ("square-well", (5.0, 50.0, 200.0), tuple(BoundaryMode)),
    ("annulus", (5.0, 50.0, 200.0), tuple(BoundaryMode)),
    ("gaussian", (5.0, 50.0, 200.0), tuple(BoundaryMode)),
    ("bump", (5.0, 50.0, 200.0), tuple(BoundaryMode)),
    ("counterexample", (5.0, 25.0),
     (BoundaryMode.WHOLE_LINE, BoundaryMode.HALF_LINE_DIRICHLET)),
    ("counterexample-damped", (25.0,), _LINE),
    ("counterexample-damped-strong", (25.0,), _LINE),
])
def test_fd_bisection_matches_full_window(catalog, monkeypatch, name,
                                          alphas, modes):
    # bisection meets the count at energies where it flips, so a count a
    # pivot off in the condensed pass would move a located eigenvalue: the
    # locations must be those of the full window's counts of the same
    # pencil, bit for bit (these are the calls verify makes for its
    # sqrt-moment, square-well at alpha 50 included)
    G = to_log(catalog[name], strict=False)
    dense = []

    def full_counters(pencil, couplings):
        def counts_at(alpha, mode):
            def at(_, energies):
                dense.append(len(energies))
                return ([_dense_block_counts(G, alpha, mode, e)
                         for e in energies], [False] * len(energies), 0)
            return at
        return [counts_at(a, mode) for a in couplings]

    for alpha in alphas:
        for mode in modes:
            kw = dict(E=-threshold_eps(G, alpha), mode=mode, engine="fd")
            got = eigenvalues_below(G, alpha, **kw)
            dense.clear()
            with monkeypatch.context() as mp:
                mp.setattr(spectral1d, "_counters", full_counters)
                want = eigenvalues_below(G, alpha, **kw)
            assert dense, (alpha, mode)
            assert np.array_equal(got, want), (alpha, mode)


def _box_levels(G, mode, E=None):
    """The levels of the pencil of count_below_fd(G, 1.0, ., mode) below E
    (by default the channel energy of m = 0), bisected to adjacent
    floats."""
    return eigenvalues_below(G, 1.0, E=E, mode=mode, engine="fd",
                             tol_eig=1e-300)


def _spy_counts(monkeypatch):
    """A list that collects (energies, per-block counts) of every count the
    condensed pencils make."""
    seen = []
    build = spectral1d._counters

    def spy(pencil, alphas):
        def wrap(counts_at):
            def at(mode, energies):
                out = counts_at(mode, energies)
                seen.extend(zip(energies, out[0]))
                return out
            return at
        return [wrap(c) for c in build(pencil, alphas)]

    monkeypatch.setattr(spectral1d, "_counters", spy)
    return seen


def _vertices(G, alpha, mode):
    """The vertex pivots of one count of count_below_fd(G, alpha, ., mode)."""
    _, pencil, _ = spectral1d._elements(G, alpha)
    return sum(e1 - e0 - 1 + o0 + o1 for e0, e1, o0, o1
               in spectral1d._blocks(pencil, mode) if e1 > e0)


def test_fd_zero_pivot_between_agreeing_probes(monkeypatch):
    # E exactly an interior eigenvalue of an element (at alpha 400 the
    # layout's elements are long enough for negative ones): a zero pivot at
    # E, which the count at E alone flags `pivot-shift` with uncertainty 1;
    # the probes at E -/+ delta meet no zero pivot and agree, so theirs is
    # the count at E, exact, with no flag and no count at E. A zero pivot
    # in a probe (at E - delta) sends the count to E, as a disagreement does
    G = boxes_G((1.0, 0.0, 1.0), (0.375, 1.0, 1.3))
    alpha, line = 400.0, BoundaryMode.WHOLE_LINE
    eigh, lams = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a: lams.append(eigh(a)) or lams[-1])
    count_below_fd(G, alpha, -100.0)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    lam = lams[0][0][0]
    level = float(np.max(lam[(lam < -10.0) & (lam > -390.0)]))
    want = _three_probe_fd(G, alpha, level, line)
    assert want[1:3] == (1, ("pivot-shift",))
    seen = _spy_counts(monkeypatch)
    got = count_below_fd(G, alpha, level)
    assert (got.count, got.uncertainty, got.flags) == (want[0], 0, ())
    assert len(seen) == 2 and got.steps == 2 * _vertices(G, alpha, line)
    delta = threshold_eps(G, alpha)
    E = level + delta
    while E - delta != level:
        E = math.nextafter(E, -math.inf if E - delta > level else math.inf)
    seen.clear()
    got = count_below_fd(G, alpha, E)
    # E - delta, E + delta, E
    assert len(seen) == 3 and got.steps == 3 * _vertices(G, alpha, line)
    assert (got.count, got.flags) == (want[0], ())


def test_fd_probes_that_disagree_sweep_E(monkeypatch):
    # just above a level of the pencil the probes straddle it: the count is
    # read from a third count, at E, and flagged near-threshold with
    # uncertainty 1, as the three-probe count has it
    G = boxes_G((400.0, 0.25, 0.75))
    levels = _box_levels(G, BoundaryMode.WHOLE_LINE)
    assert len(levels) >= 3
    seen = _spy_counts(monkeypatch)
    for level in levels:
        for E in (float(level) * (1.0 - 1e-12), float(level) * (1.0 + 1e-12)):
            seen.clear()
            got = count_below_fd(G, 1.0, E)
            (_, [lo]), (_, [hi]), (_, [at]) = seen
            assert got.flags == ("near-threshold",) and got.uncertainty == 1
            assert _fd_outcome(got) == _three_probe_fd(
                G, 1.0, E, BoundaryMode.WHOLE_LINE)[:4]
            assert (lo + 1, at) == (hi, got.count) == (
                hi, int(np.sum(levels < E))), E


def test_fd_dirichlet_at_0_blocks(monkeypatch):
    # t = 0 is a vertex of every layout, and the Dirichlet-at-0 mode
    # deletes it, splitting the elements into a block either side; a side
    # without mass is an empty block, which counts 0 with no pivot, and
    # each side counts the phase engine's states
    right_only = boxes_G((400.0, 0.25, 0.75))
    both = boxes_G((400.0, -0.75, -0.25), (300.0, 0.25, 0.75))
    for G, blocks in ((right_only, 1), (both, 2)):
        for E in (-350.0, -200.0, -120.0, -60.0, -5.0):
            got = _assert_matches_full_window(G, 1.0, E, _SPLIT, E)
            want = count_below_pruefer(G, 1.0, E, _SPLIT)
            assert got.extras == {"n_nodes": got.extras["n_nodes"],
                                  **{k: want.extras[k]
                                     for k in ("left", "right")}}, E
            # the probes decide: E - delta, then E + delta
            assert got.steps == 2 * _vertices(G, 1.0, _SPLIT), E
        _, pencil, _ = spectral1d._elements(G, 1.0)
        counted = [e1 > e0 for e0, e1, _, _ in spectral1d._blocks(pencil,
                                                                  _SPLIT)]
        assert counted == [blocks == 2, True]
    assert got.extras["left"] > 0 and got.extras["right"] > 0


@st.composite
def _random_boxes(draw):
    n = draw(st.integers(1, 3))
    ends = sorted(draw(st.lists(st.floats(-3.0, 3.0), min_size=2 * n,
                                max_size=2 * n, unique=True)))
    depths = draw(st.lists(st.floats(1.0, 200.0), min_size=n, max_size=n))
    return [(d, lo, hi) for d, lo, hi in zip(depths, ends[::2], ends[1::2])]


@settings(max_examples=60, deadline=None)
@given(boxes=_random_boxes(), frac=st.floats(1e-4, 1.0),
       mode=st.sampled_from(list(BoundaryMode)))
def test_fd_trimmed_pass_property_random_boxes(boxes, frac, mode):
    # on random boxes, at any energy in the range of the spectrum, the
    # condensed pass is the full window's count
    G = boxes_G(*boxes)
    E = -frac * G.g_max
    _assert_matches_full_window(G, 1.0, E, mode, (boxes, E, mode))


@settings(max_examples=40, deadline=None)
@given(boxes=_random_boxes(), k=st.integers(0, 200),
       side=st.sampled_from([-1e-12, 1e-12]),
       mode=st.sampled_from(list(BoundaryMode)))
def test_fd_two_probes_property_near_levels(boxes, k, side, mode):
    # within delta of a level of the pencil the probes disagree, so the
    # count is taken at E and flagged near-threshold: on random boxes it is
    # the three-probe count, side counts included. In the split mode the
    # levels are those of the blocks either side of t = 0
    G = boxes_G(*boxes)
    levels = _box_levels(G, mode)
    assume(levels.size > 0)
    E = float(levels[k % levels.size]) * (1.0 + side)
    got = count_below_fd(G, 1.0, E, mode)
    assert _fd_outcome(got) == _three_probe_fd(G, 1.0, E, mode)[:4]
    assert "near-threshold" in got.flags and got.uncertainty >= 1


@pytest.mark.parametrize("name", _CATALOG_NAMES)
def test_fd_two_probes_match_three_sweeps(catalog, name):
    # at every channel energy of the plane count at alpha in {3, 25, 200,
    # 800, 3200}, and at m = 0 in the Dirichlet modes: the count that
    # agreeing probes decide is the three-probe count, with its
    # uncertainty, flags and side counts, and never more pivots
    G = to_log(catalog[name], strict=False)
    for alpha in (3.0, 25.0, 200.0, 800.0, 3200.0):
        for mode in BoundaryMode:
            m = 0
            while (E := channel_energy(G, alpha, m)) is not None:
                got = count_below_fd(G, alpha, E, mode)
                if "below-spectrum" in got.flags:
                    break
                want = _three_probe_fd(G, alpha, E, mode)
                assert _fd_outcome(got) == want[:4], (alpha, mode, m)
                assert got.steps <= want[4], (alpha, mode, m)
                if not got.count or mode != BoundaryMode.WHOLE_LINE:
                    break
                m += 1


@pytest.mark.parametrize("name, alpha, n_nodes", [
    ("annulus", 50.0, (51, 50, 50)),
    ("square-well", 3200.0, (251, 0, 250)),
])
def test_fd_reads_G_on_its_support_only(catalog, monkeypatch, name, alpha,
                                        n_nodes):
    # at the m = 0 channel energy, in every mode, count_below_fd reads G
    # only while it lays its elements out, and only on the span, the
    # support joined with t = 0; the layout is kept on G, so the other
    # modes read nothing more. The counts are the full window's
    G = to_log(catalog[name], strict=False)
    g = G._g_vec
    reads = []
    monkeypatch.setattr(G, "_g_vec", lambda t: (reads.append(t), g(t))[1])
    monkeypatch.setattr(G, "elements", None)
    E = channel_energy(G, alpha)
    lo, hi = spectral1d._span(G)
    t_lo, t_hi = G.t_support
    assert lo >= min(t_lo, 0.0) and hi <= max(t_hi, 0.0)
    for mode, nodes in zip(BoundaryMode, n_nodes):
        got = _assert_matches_full_window(G, alpha, E, mode, mode)
        assert got.extras["n_nodes"] == nodes, mode
        if mode == BoundaryMode.WHOLE_LINE:
            t = np.concatenate(reads)
            assert lo <= t.min() and t.max() <= hi
        else:
            assert reads == [], mode
        reads.clear()


@pytest.mark.parametrize("kw", [
    dict(domain=(2.0, -2.0)), dict(domain=(0.3, 0.3)),
    dict(domain=(-math.inf, 1.0)), dict(domain=(0.0, math.nan)),
    dict(h=0.0), dict(h=-0.01), dict(h=math.inf), dict(h=math.nan),
])
def test_degenerate_windows_are_refused(catalog, kw):
    # a reversed or empty window used to be counted (3 states at h < 0 on
    # the reversed annulus window, a ZeroDivisionError on the empty one),
    # and then refused, as was a grid step that is not finite and > 0; now
    # neither count_below_fd nor bs_spectrum takes a window or a step at
    # all: each lays out its own elements on the span of G
    G = to_log(catalog["annulus"], strict=False)
    for call in (lambda: count_below_fd(G, 50.0, -1.0, **kw),
                 lambda: bs_spectrum(G, **kw)):
        with pytest.raises(TypeError, match="unexpected keyword"):
            call()


def _formula_sweep_block(h, w1, w2, u, v):
    """_sweep_block with the zeros of every interval taken from the phase,
    floor((phi + mu)/pi) - floor(phi/pi), phi = atan2(u, B/mu), with the
    parity of the signs of u: the count that the sign count keeps."""
    wbar = 0.5 * (w1 + w2)
    c = spectral1d._MAGNUS_C * h * h * (w2 - w1)
    mu2 = h * h * wbar - c * c
    osc = mu2 > 0.0
    mu = np.sqrt(np.abs(mu2))
    pos = mu > 0.0
    safe = np.where(pos, mu, 1.0)
    em = 0.5 * np.expm1(-2.0 * mu)
    cs = np.where(osc, np.cos(mu), 1.0 + em)
    sn = np.where(osc, np.sin(mu), np.where(pos, -em, 1.0)) / safe
    snc = sn * c
    snh = sn * h
    us, vs = [u], [v]
    for p, q, r, s in zip((cs + snc).tolist(), snh.tolist(),
                          (-snh * wbar).tolist(), (cs - snc).tolist()):
        u, v = p * u + q * v, r * u + s * v
        n = abs(u) + abs(v)
        u /= n
        v /= n
        us.append(u)
        vs.append(v)
    U = np.array(us)
    u0, u1 = U[:-1], U[1:]
    B = c * u0 + h * np.array(vs[:-1])
    s0 = np.where(u0 != 0.0, u0, B)
    odd = ((u1 == 0.0) | ((s0 < 0.0) != (u1 < 0.0))).astype(float)
    phi = np.arctan2(u0, B / safe)
    y = (phi + mu) / math.pi - np.floor(phi / math.pi)
    zeros = np.where(osc, odd + 2.0 * np.rint(0.5 * (y - 0.5 - odd)), odd)
    return u, v, float(np.sum(zeros))


def test_sign_count_is_the_phase_formula_on_catalog_blocks(catalog,
                                                           monkeypatch):
    # every pass of every block that the plane counts of the catalog sweep
    # at alpha in {3, 200, 3200}, and the m = 0 passes of every mode (the
    # Dirichlet ones from u = 0): the sign count of the block gives each
    # pass the formula's zeros on its own intervals, and the same (u, u'),
    # bit for bit
    sweep = spectral1d._sweep_block
    seen = []

    def spy(h, w1, w2, cuts, states):
        got = sweep(h, w1, w2, cuts, states)
        assert len(got) == len(states) == len(cuts) - 1
        for (u, v), lo, hi, out in zip(states, cuts, cuts[1:], got):
            assert out == _formula_sweep_block(h[lo:hi], w1[lo:hi],
                                               w2[lo:hi], u, v)
            seen.append((u == 0.0, out[2]))
        return got

    monkeypatch.setattr(spectral1d, "_sweep_block", spy)
    for name in _CATALOG_NAMES[1:]:
        G = to_log(catalog[name], strict=False)
        for alpha in (3.0, 200.0, 3200.0):
            total_count(catalog[name], alpha)
            for mode in BoundaryMode:
                count_below_pruefer(G, alpha, channel_energy(G, alpha), mode)
    assert any(z for z, _ in seen) and any(n for _, n in seen)
    assert len(seen) > 1000


def _largest_turn(h, w1, w2):
    # the largest mu of the oscillatory intervals, as _sweep_block forms it
    c = spectral1d._MAGNUS_C * h * h * (w2 - w1)
    return math.sqrt(np.max(h * h * 0.5 * (w1 + w2) - c * c))


def test_sign_count_on_synthetic_blocks():
    # blocks off the mesh: ones whose widest intervals turn by pi/2 up to
    # pi, blocks from u = 0 and u = -0, and one where u reaches 0 exactly
    # at an interior node: over w = 0 and h = 1, (1/2, -1/2) maps to
    # (0, -1), then to (-1/2, -1/2). An interval that turns by pi or more
    # raises
    rng = np.random.default_rng(11)
    h = rng.uniform(0.05, 0.2, 300)
    w1, w2 = rng.uniform(-100.0, 6.0, (2, 300))
    assert np.max(h * np.sqrt(np.maximum(w1, w2).clip(0.0))) < 0.5
    # 50 intervals turning by about 1 to 2.8 rad, and two by 0.99 pi and
    # 0.999 pi
    near_pi = (0.99 * math.pi) ** 2, (0.999 * math.pi) ** 2
    hw = np.append(rng.uniform(0.6, 1.0, 50), [1.0, 1.0])
    ww1, ww2 = (np.append(w, near_pi) for w in rng.uniform(4.0, 9.6, (2, 50)))
    mixed = (np.concatenate([h[:100], hw, h[100:]]),
             *(np.concatenate([w[:100], x, w[100:]])
               for w, x in ((w1, ww1), (w2, ww2))))
    assert 0.5 * math.pi <= _largest_turn(hw, ww1, ww2) < math.pi
    assert _largest_turn(hw, ww1, ww2) > 0.99 * math.pi
    cases = []
    for u, v in ((0.0, 1.0), (0.0, -1.0), (-0.0, 1.0), (0.6, -0.4),
                 (0.3, 0.7)):
        cases += [(h, w1, w2, u, v), (hw, ww1, ww2, u, v), (*mixed, u, v)]
    zero = np.concatenate([[1.0, 1.0], h]), *(np.concatenate([[0.0, 0.0], w])
                                              for w in (w1, w2))
    cases.append((*zero, 0.5, -0.5))
    want = [_formula_sweep_block(h_, a, b, u, v) for h_, a, b, u, v in cases]
    for (h_, a, b, u, v), one in zip(cases, want):
        assert spectral1d._sweep_block(h_, a, b, [0, h_.size], [(u, v)]) == [
            one]
    # all cases as the passes of one block: a sign change between the end
    # of one pass and the start of the next is no zero of either
    cuts = [0, *np.cumsum([c[0].size for c in cases]).tolist()]
    block = (np.concatenate([c[i] for c in cases]) for i in range(3))
    assert spectral1d._sweep_block(*block, cuts,
                                   [c[3:] for c in cases]) == want
    assert spectral1d._sweep_block(*(x[:2] for x in zero), [0, 2],
                                   [(0.5, -0.5)]) == [(-0.5, -0.5, 1.0)]
    assert sum(_formula_sweep_block(hw, ww1, ww2, 0.3, 0.7)[2:]) > 20
    for turn in (math.pi, 3.5):
        over = (np.append(hw, 1.0), np.append(ww1, turn * turn),
                np.append(ww2, turn * turn))
        assert _largest_turn(*over) >= math.pi
        with pytest.raises(RuntimeError, match="breakpoint"):
            spectral1d._sweep_block(*over, [0, over[0].size], [(0.3, 0.7)])


@st.composite
def _random_profiles(draw):
    # a tabulated profile (piecewise linear in r, jumps at its ends) or a
    # smooth bump, at moderate heights
    if draw(st.booleans()):
        n = draw(st.integers(2, 7))
        steps = draw(st.lists(st.floats(0.05, 3.0), min_size=n, max_size=n))
        r0 = draw(st.sampled_from([0.0, 0.1, 0.7]))
        rs = list(r0 + np.cumsum(steps) - steps[0])
        fs = draw(st.lists(st.floats(0.0, 5.0), min_size=n, max_size=n))
        return make_catalog_potential("tabulated", {"r": rs, "f": fs})
    center = draw(st.floats(0.3, 3.0))
    return make_catalog_potential("bump", {
        "height": draw(st.floats(0.1, 5.0)), "center": center,
        "halfwidth": draw(st.floats(0.05, 0.95)) * center})


@seed(7)
@settings(max_examples=40, deadline=None)
@given(P=_random_profiles(), log_alpha=st.floats(math.log(3.0),
                                                 math.log(3200.0)),
       frac=st.floats(0.0, 1.0))
def test_mesh_pass_property_random_profiles(P, log_alpha, frac):
    # on random profiles, at a random channel below the top of alpha G: the
    # mesh pass and the RK oracle agree on the count within the stated
    # uncertainty in every mode, and on the final phases to 1e-7 where
    # neither flags; the plane count's N_m is nonincreasing in m
    G = to_log(P, strict=False)
    alpha = math.exp(log_alpha)
    assume(channel_energy(G, alpha) is not None)
    E = channel_energy(G, alpha, int(frac * math.sqrt(alpha * G.g_max)))
    for mode in BoundaryMode:
        with pytest.MonkeyPatch.context() as mp:
            got, th_got = _final_phases(mp, G, alpha, E, mode)
        want = count_below_rk(G, alpha, E, mode)
        case = (mode.value, alpha, E)
        tol = max(got.uncertainty, want.uncertainty)
        assert abs(got.count - want.count) <= tol, case
        if not got.flags and not want.flags:
            assert len(th_got) == len(want.extras["thetas"]), case
            for a, b in zip(th_got, want.extras["thetas"]):
                assert abs(a - b) <= 1e-7, (case, a, b)
    counts = list(total_count(P, alpha).per_channel.values())
    assert all(a >= b for a, b in zip(counts, counts[1:])), counts


@seed(7)
@settings(max_examples=30, deadline=None)
@given(P=_random_profiles(), log_alpha=st.floats(math.log(3.0),
                                                 math.log(800.0)),
       stretch=st.floats(1.0, 1.35))
def test_plane_count_nondecreasing_in_alpha(P, log_alpha, stretch):
    # G >= 0, so raising the coupling lowers every level: the plane count
    # at alpha' in [alpha, 1.35 alpha] is at least the one at alpha, within
    # the two stated uncertainties
    alpha = math.exp(log_alpha)
    lo, hi = total_count(P, alpha), total_count(P, stretch * alpha)
    assert lo.total <= hi.total + lo.uncertainty + hi.uncertainty, (
        alpha, stretch, lo.per_channel, hi.per_channel)


def _off_support_points(G, rng):
    """Random points off G.t_support, the float one ulp beyond each finite
    end, and points 1e-12 .. 10 (relative to max(1, |end|)) beyond it."""
    t_lo, t_hi = G.t_support
    pts = []
    for end, side in ((t_lo, -1.0), (t_hi, 1.0)):
        if math.isfinite(end):
            scale = max(1.0, abs(end))
            pts.append(math.nextafter(end, side * math.inf))
            pts += [end + side * scale * 10.0 ** k for k in range(-12, 2)]
            pts += list(end + side * rng.uniform(0.0, 50.0, 32))
    return np.array([x for x in pts if not t_lo <= x <= t_hi])


@seed(11)
@settings(max_examples=60, deadline=None)
@given(P=_random_profiles(),
       boxes=_random_boxes())
def test_G_is_zero_off_its_support(catalog, P, boxes):
    # the element layout ends at the support, where the decaying tail's
    # Robin term stands in for the rest, and the phase engine maps the
    # stretch past it in closed form. That needs G == 0 off the support:
    # on the 8 bundled specs, on random tabulated (with steps at its ends)
    # and bump profiles, and on the box stub
    rng = np.random.default_rng(13)
    Gs = [to_log(Q, strict=False) for Q in catalog.values()]
    Gs += [to_log(P, strict=False), boxes_G(*boxes)]
    for G in Gs:
        t = _off_support_points(G, rng)
        assert t.size or G.t_support[0] == -math.inf == -G.t_support[1]
        assert not np.any(G.eval(t)), (G.t_support, t[G.eval(t) != 0.0])
