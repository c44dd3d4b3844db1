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
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from radcount import (
    BoundaryMode,
    bs_duality_check,
    count_below,
    eigenvalues_below,
    make_catalog_potential,
    to_log,
    total_count,
)
from radcount import spectral1d
from radcount.potentials import LogPotential
import rk_phase
from rk_phase import count_below_rk
from radcount.spectral1d import (
    CountResult,
    bs_spectrum,
    channel_energy,
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
    return LogPotential(None, 1e-10, (lo, hi), breaks, (lo, hi), False,
                        top[0], 0.5 * (top[1] + top[2]),
                        sum(d * (b - a) for d, a, b in boxes), 0.0,
                        g_vec)


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
    # the phase engine integrates the true ODE, so it resolves the flip to
    # 1e-6; fd carries O(h^2) eigenvalue error and gets a wider window
    for engine, margin in (("pruefer", 1e-6), ("fd", 5e-2)):
        below = count_below(G, 1.0, E_HALF_BOX10 - margin,
                            BoundaryMode.HALF_LINE_DIRICHLET, engine=engine)
        above = count_below(G, 1.0, E_HALF_BOX10 + margin,
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


def test_truncated_window_problem_matches_fd_exactly(catalog):
    # truncated=True counts the Dirichlet problem on [A, B] itself, which
    # is the same object fd discretizes; no tail rule, no difference
    rng = np.random.default_rng(23)
    G = to_log(catalog["gaussian"])
    for _ in range(6):
        alpha = float(rng.uniform(5.0, 80.0))
        E = -float(rng.uniform(0.01, 0.8)) * alpha * G.g_max
        dom = counting_domain(G, alpha, E, BoundaryMode.WHOLE_LINE)
        cp = count_below_pruefer(G, alpha, E, BoundaryMode.WHOLE_LINE,
                                 domain=dom, truncated=True)
        cf = count_below_fd(G, alpha, E, BoundaryMode.WHOLE_LINE, domain=dom)
        assert cp.count == cf.count


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
    ev, truncated = eigenvalues_below(G, 1.0, E=-1e-9, n_max=8,
                                      mode=BoundaryMode.HALF_LINE_DIRICHLET,
                                      tol_eig=1e-10)
    assert not truncated
    assert len(ev) == 1
    assert ev[0] == pytest.approx(E_HALF_BOX10, abs=5e-8)


def test_eigenvalues_below_respects_n_max():
    G = box_G(900.0)   # ~ sqrt(900)/pi = 9+ whole-line states
    ev, truncated = eigenvalues_below(G, 1.0, E=-1e-6, n_max=3)
    assert truncated and len(ev) == 3
    assert np.all(np.diff(ev) > 0.0)


def test_eigenvalues_below_stops_at_adjacent_floats(catalog, monkeypatch):
    # a tolerance below float resolution: an interval of adjacent floats has
    # no midpoint inside it and is not split again, so the bisection ends
    # (it looped forever), inside the brackets the default tolerance stops at
    G = to_log(catalog["square-well"])
    probes = []
    count = spectral1d.count_below

    def capped(*args, **kw):
        probes.append(args[2])
        assert len(probes) <= 2000
        return count(*args, **kw)

    monkeypatch.setattr(spectral1d, "count_below", capped)
    coarse, _ = eigenvalues_below(G, 10.0, engine="fd")
    n_coarse = len(probes)
    fine, _ = eigenvalues_below(G, 10.0, engine="fd", tol_eig=1e-20)
    assert len(fine) == len(coarse) > 0
    width = 1e-9 * max(1.0, 10.0 * G.g_max)
    assert np.all(np.abs(fine - coarse) <= width)
    assert n_coarse < len(probes) - n_coarse
    for bad in (0.0, -1e-9, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol_eig"):
            eigenvalues_below(G, 10.0, tol_eig=bad)


def test_bs_duality_on_shared_grid(catalog):
    # inertia identity: #{lambda_n > 1/alpha} equals the Dirichlet count
    # on the same grid, exactly; the fd count must rebuild that grid node
    # for node, with t = 0 an interior node
    mode = BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0
    for name, P in catalog.items():
        G = to_log(P, strict=False)
        if G.g_max <= 0.0:
            continue
        lam, meta = bs_spectrum(G, mode, n_max=24)
        A, B = meta["domain"]
        h = meta["h"]
        n = round((B - A) / h)
        k0 = -A / h
        assert abs(k0 - round(k0)) < 1e-9, name
        assert 0 < round(k0) < n, name
        for alpha in (7.0, 31.0, 90.0):
            want = int(np.sum(lam > 1.0 / alpha))
            assert want < len(lam), (name, alpha)
            got = count_below_fd(G, alpha, -1e-12, mode,
                                 domain=meta["domain"], h=h,
                                 near_threshold_check=False)
            assert got.count == want, (name, alpha)
            assert got.domain == meta["domain"], (name, alpha)
            assert got.h == h, (name, alpha)
            assert got.extras["n_nodes"] == meta["n_nodes"], (name, alpha)


def test_fd_side_counts_split_at_origin(catalog):
    # the left/right counts of the Dirichlet-at-0 split add up to the
    # count, and exist only when the window straddles t = 0
    mode = BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0
    for name in ("square-well", "gaussian", "annulus"):
        G = to_log(catalog[name])
        for alpha in (20.0, 80.0, 300.0):
            E = -1e-3 * alpha * G.g_max
            c = count_below_fd(G, alpha, E, mode)
            assert c.count > 0, (name, alpha)
            assert c.extras["left"] + c.extras["right"] == c.count, (
                name, alpha)
            for dom in ((0.0, 6.0), (-6.0, 0.0), (0.5, 6.0)):
                c = count_below_fd(G, alpha, E, mode, domain=dom)
                assert "left" not in c.extras, (name, alpha, dom)
                assert "right" not in c.extras, (name, alpha, dom)


def test_bs_spectrum_grid_stability(catalog):
    G = to_log(catalog["gaussian"])
    lam1, meta = bs_spectrum(G, n_max=8)
    lam2, _ = bs_spectrum(G, n_max=8, h=meta["h"] / 2.0)
    # leading eigenvalues converge under refinement; the small tail ones
    # are relatively softer, so the blanket tolerance is looser
    assert lam1[0] == pytest.approx(lam2[0], rel=1e-3)
    assert np.allclose(lam1, lam2, rtol=1e-2, atol=1e-10)


def _dense_pencil(G, meta, mode):
    """All eigenvalues, descending, of h diag(G) u = lambda K u on the grid
    of `meta`, built dense: the Dirichlet node at t = 0 is deleted from the
    full tridiagonal, which cuts the coupling across it."""
    A, B = meta["domain"]
    h = meta["h"]
    n = round((B - A) / h)
    gv = G.eval(A + h * np.arange(1, n))
    K = (2.0 * np.eye(n - 1) - np.eye(n - 1, k=1) - np.eye(n - 1, k=-1)) / h
    k0 = round(-A / h)
    if mode == BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0 and 0 < k0 < n:
        keep = np.arange(n - 1) != k0 - 1
        gv, K = gv[keep], K[np.ix_(keep, keep)]
    assert len(gv) == meta["n_nodes"]
    want = scipy.linalg.eigh(np.diag(h * gv), K, eigvals_only=True)[::-1]
    return want, int(np.count_nonzero(gv > 0.0))


def _assert_matches_dense_pencil(G, mode, domain, case, n_max=32,
                                 intervals=400):
    h = (domain[1] - domain[0]) / intervals
    lam, meta = bs_spectrum(G, mode, domain=domain, h=h,
                            n_max=n_max)
    want, positive = _dense_pencil(G, meta, mode)
    assert meta["n_support"] == positive, case
    # every positive eigenvalue up to n_max, however few nodes the grid has
    k = min(n_max, positive)
    # eigenvalues far below the largest are roundoff in both solvers
    np.testing.assert_allclose(lam[:k], want[:k], rtol=1e-10,
                               atol=1e-12 * want[0], err_msg=case)
    assert np.all(lam[k:] == 0.0), case
    return k, positive


@pytest.mark.parametrize("mode", list(BoundaryMode))
def test_bs_spectrum_matches_dense_pencil(catalog, mode):
    # every nonzero bundled spec on a 400-interval grid of its default
    # window, in every mode: the Lanczos spectrum is the dense pencil's
    # (on the half line the disk's G is 0, and all n_max are zeros)
    solved = []
    for name, P in catalog.items():
        G = to_log(P, strict=False)
        if G.g_max <= 0.0:
            continue
        dom = counting_domain(G, 1.0, -max(1e-9 * G.g_max, 1e-12), mode)
        solved.append(_assert_matches_dense_pencil(G, mode, dom, name)[0])
    assert len(solved) == 7 and max(solved) == 32


@pytest.mark.parametrize("mode", list(BoundaryMode))
def test_bs_spectrum_pads_past_the_support(mode):
    # two boxes cover 20 of 399 nodes at h = 0.02: the pencil has 20
    # nonzero eigenvalues, and the other n_max - 20 come back as zeros
    G = boxes_G((50.0, -0.5, -0.3), (30.0, 0.2, 0.4))
    k, positive = _assert_matches_dense_pencil(G, mode, (-4.0, 4.0), mode)
    assert k == positive == 20


@pytest.mark.parametrize("mode", list(BoundaryMode))
def test_bs_spectrum_small_grid_keeps_every_eigenvalue(mode):
    # 8 intervals, 7 nodes all with mass (6 in the split mode, where t = 0
    # is a wall): n_max = 8 asks for all of them, the last two included
    G = box_G(10.0, -1.0, 1.0)
    k, _ = _assert_matches_dense_pencil(G, mode, (-0.5, 0.5), mode,
                                        n_max=8, intervals=8)
    assert k == (6 if mode == BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0 else 7)


# h = 0.02 on (-4, 4): node j sits at t = -4 + 0.02 j, t = 0 is node 200,
# and every box end lies halfway between two nodes. Each case is
# (G, n_max, eigenvalues returned, nodes of support)
ELIMINATION_CASES = {
    # two boxes with a G = 0 gap between them, both branches
    "gap-dense": (boxes_G((50.0, -0.51, -0.31), (30.0, 0.19, 0.39)),
                  32, 20, 20),
    "gap-lanczos": (boxes_G((50.0, -0.51, -0.31), (30.0, 0.19, 0.39)),
                    8, 8, 20),
    # a box ending at the node next to t = 0, and one straddling it (in
    # the split mode, node 200 is a wall, not support)
    "ends-next-to-0": (box_G(40.0, -0.31, -0.01), 8, 8, 15),
    "straddles-0": (box_G(40.0, -0.11, 0.13), 8, 8, 12),
    # all the mass on the right of t = 0: the left Dirichlet side has none
    "one-side-empty": (boxes_G((40.0, 0.29, 0.51), (20.0, 0.89, 1.11)),
                       8, 8, 22),
    # support of n_max + 1 and n_max + 2 nodes: either side of the switch
    # from the dense solve to Lanczos
    "support-n_max+1": (box_G(40.0, 0.49, 0.67), 8, 8, 9),
    "support-n_max+2": (box_G(40.0, 0.49, 0.69), 8, 8, 10),
}


@pytest.mark.parametrize("case", list(ELIMINATION_CASES))
@pytest.mark.parametrize("mode", list(BoundaryMode))
def test_bs_spectrum_eliminates_massless_nodes(mode, case):
    # the spectrum on the support of G is the full grid's dense pencil
    G, n_max, want_k, support = ELIMINATION_CASES[case]
    split = mode == BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0
    if case == "straddles-0" and split:
        support -= 1
    assert _assert_matches_dense_pencil(G, mode, (-4.0, 4.0), case,
                                        n_max=n_max) == (want_k, support)


def test_bs_spectrum_support_at_verify_window(catalog):
    # verify's companion spectra (n_max = 48, counting window at the
    # threshold energy): the annulus is solved dense, the bump by Lanczos
    mode = BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0
    for name, n_support in (("annulus", 34), ("bump", 54)):
        G = to_log(catalog[name])
        dom = counting_domain(G, 50.0, -threshold_eps(G, 50.0), mode)
        lam, meta = bs_spectrum(G, mode, domain=dom, n_max=48)
        assert meta["n_support"] == n_support, name
        assert meta["n_nodes"] == 3998, name
        assert np.count_nonzero(lam) == min(48, n_support), name


def test_bs_spectrum_rejects_negative_G():
    # M^(1/2) needs G >= 0; a stub that dips below 0 on the grid is an
    # error, not NaN eigenvalues
    G = boxes_G((10.0, -1.0, 1.0), (-1.0, 1.0, 2.0))
    for mode in BoundaryMode:
        with pytest.raises(ValueError, match="G >= 0"):
            bs_spectrum(G, mode, domain=(-2.0, 3.0), h=0.01)
    lam, _ = bs_spectrum(G, domain=(-2.0, 0.5), h=0.01)
    assert lam[0] > 0.0


def test_bs_spectrum_reads_G_on_its_support_only(catalog):
    # G = 0 off t_support: the spectrum and meta read at the support nodes
    # and a margin node either side are the whole window's, bit for bit
    for name, P in catalog.items():
        G = to_log(P, strict=False)
        whole = dataclasses.replace(G, t_support=(-math.inf, math.inf))
        for mode in BoundaryMode:
            lam, meta = bs_spectrum(G, mode)
            lam_whole, meta_whole = bs_spectrum(whole, mode)
            assert np.array_equal(lam, lam_whole), (name, mode)
            assert meta == meta_whole, (name, mode)


@pytest.mark.parametrize("mode", list(BoundaryMode))
def test_grid_capped_at_n_cap(monkeypatch, mode):
    # with the cap at 256 intervals, the default grids of both the fd count
    # (h <= 8e-3 here) and bs_spectrum (4000 intervals) are coarsened to
    # h = 8/256 on (-4, 4): the count is flagged and equals the count on
    # that grid asked for explicitly, and the spectrum, marked capped in
    # its meta, equals its spectrum
    monkeypatch.setattr(spectral1d, "_N_CAP", 256)
    G = boxes_G((400.0, -0.5, 0.5), (100.0, 0.5, 1.5))
    dom = (-4.0, 4.0)
    h = (dom[1] - dom[0]) / spectral1d._N_CAP
    capped = count_below_fd(G, 1.0, -50.0, mode, domain=dom)
    explicit = count_below_fd(G, 1.0, -50.0, mode, domain=dom, h=h)
    assert capped.flags == ("grid-coarsened",) and explicit.flags == ()
    assert capped.count == explicit.count > 0
    assert (capped.h, capped.extras) == (explicit.h, explicit.extras)
    lam, meta = bs_spectrum(G, mode, domain=dom)
    lam_h, meta_h = bs_spectrum(G, mode, domain=dom, h=h)
    assert (meta.pop("capped"), meta_h.pop("capped")) == (True, False)
    assert meta == meta_h and meta["h"] == h
    assert np.array_equal(lam, lam_h) and lam[0] > 0.0


def test_duality_check_flags_a_coarsened_grid(monkeypatch):
    # a companion spectrum on a grid coarsened to _N_CAP intervals puts the
    # duality report in doubt, as it does the fd count on such a grid
    G = boxes_G((400.0, -0.5, 0.5), (100.0, 0.5, 1.5))
    full = bs_duality_check(G, 1.0)
    assert full["ok"] and full["flags"] == []
    monkeypatch.setattr(spectral1d, "_N_CAP", 256)
    rep = bs_duality_check(G, 1.0)
    assert rep["ok"] and rep["flags"] == ["grid-coarsened"]
    assert rep["n_nodes"] < full["n_nodes"]


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
        c, u, fl = spectral1d._zeros_from_phase(th, kappa, tail=True)
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

    return LogPotential(None, 1e-10, (lo, hi), (lo, hi), (lo, hi), False,
                        max(g_lo, g_hi), hi if g_hi > g_lo else lo,
                        0.5 * (g_lo + g_hi) * (hi - lo), 0.0, g_vec)


def test_the_left_pass_is_the_mirrored_right_pass(monkeypatch):
    # the Dirichlet-at-0 left pass walks the mirrored intervals with their
    # Gauss points swapped: over a ramp it ends where the right pass ends
    # over the reflected ramp, to rounding, with the same side counts. The
    # window ends at the ramp, so no zero tail pins both phases
    G = _ramp_G(0.2, 1.7, 30.0, 80.0)
    mirror = _ramp_G(-1.7, -0.2, 80.0, 30.0)
    mode = BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0
    settle = spectral1d._pass_phases
    thetas = []

    def spy(*args):
        out = settle(*args)
        thetas.extend(th for th, _, _ in out)
        return out

    monkeypatch.setattr(spectral1d, "_pass_phases", spy)
    for E in (-5.0, -20.0, -40.0):
        thetas.clear()
        got = count_below_pruefer(G, 1.0, E, mode, domain=(-1.7, 1.7))
        want = count_below_pruefer(mirror, 1.0, E, mode, domain=(-1.7, 1.7))
        right, _, _, left = thetas
        assert (got.extras["right"], got.extras["left"]) == (
            want.extras["left"], want.extras["right"]), E
        assert got.extras["right"] > 0, E
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


# The Sturm sweep as it was before the pass was trimmed: every node of a
# Dirichlet block from its Dirichlet end. As the block count of
# _full_window_fd, it makes an fd count the full-window count, which the
# trimmed pass must reproduce exactly (steps aside: the reference reports
# every node).
def _full_window_sturm(a):
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


def _full_window_block(arr, first, stop, a_c):
    return (*_full_window_sturm(arr.tolist()), arr.size)


def _trimmed_block(arr, first, stop, a_c):
    """spectral1d._block_count on a whole block: its core arr[first:stop]
    between the runs of first and len(arr) - stop nodes at a_c."""
    return spectral1d._block_count(arr[first:stop], first, arr.size - stop,
                                   a_c)


def _three_sweep_fd(G, alpha, E, mode=BoundaryMode.WHOLE_LINE, *,
                    domain=None, h=None, near_threshold_check=True,
                    block_count=_trimmed_block):
    """count_below_fd as it was before its probes could decide the count:
    the count, its flags and side counts are read from a sweep at E, and
    the probes at E -/+ delta only raise `near-threshold`. It reads G at
    every node of the grid, builds every block whole, and counts each by
    block_count(arr, first, stop, a_c): by default spectral1d._block_count
    (looked up at the call, so a patch of it patches this)."""
    mode = BoundaryMode(mode)
    A, B = domain if domain is not None else counting_domain(G, alpha, E,
                                                             mode)
    flags = ["domain-truncated"] if G.truncated else []
    if alpha * G.g_max + E <= 0.0:
        return CountResult(0, "fd", E, mode.value, (A, B),
                           flags=tuple(flags + ["below-spectrum"]))
    if h is None:
        h = min(1e-3 * (B - A),
                1.0 / (8.0 * math.sqrt(alpha * G.g_max + abs(E) + 1.0)))
    A, B, h, n, k0, capped = spectral1d._line_grid(A, B, h, mode)
    if capped:
        flags.append("grid-coarsened")
    gv = np.asarray(G.eval(A + h * np.arange(1, n)), dtype=float)
    base = 2.0 - (h * h) * (alpha * gv)
    blocks = [base] if k0 is None else [base[: k0 - 1], base[k0:]]
    cores = []
    for blk in blocks:
        vary = np.flatnonzero(blk != 2.0)
        cores.append((int(vary[0]), int(vary[-1]) + 1) if vary.size
                     else (0, 0))

    def counts_at(energy):
        counts, zero_hit, swept = [], False, 0
        a_c = 2.0 - (h * h) * energy
        for blk, (first, stop) in zip(blocks, cores):
            arr = blk - (h * h) * energy
            cnt, hz, k = block_count(arr, first, stop, a_c)
            swept += k
            if hz:
                shift = 4.0 * np.finfo(float).eps * float(np.max(np.abs(arr)))
                cnt, _, k = block_count(arr + shift, first, stop, a_c + shift)
                swept += k
                zero_hit = True
            counts.append(cnt)
        return counts, zero_hit, swept

    per_block, zero_hit, steps = counts_at(E)
    uncertainty = 0
    if zero_hit:
        flags.append("pivot-shift")
        uncertainty = 1
    delta = threshold_eps(G, alpha)
    if near_threshold_check and delta > 0.0:
        c_lo, _, k_lo = counts_at(E - delta)
        c_hi, _, k_hi = counts_at(E + delta)
        steps += k_lo + k_hi
        if sum(c_lo) != sum(c_hi):
            flags.append("near-threshold")
            uncertainty = max(uncertainty, abs(sum(c_hi) - sum(c_lo)))
    sides = dict(zip(("left", "right"), per_block)) if k0 is not None else {}
    return CountResult(sum(per_block), "fd", E, mode.value, (A, B), h, steps,
                       uncertainty, tuple(flags),
                       {"n_nodes": sum(len(b) for b in blocks), **sides})


def _full_window_fd(*args, **kw):
    """The fd count over every node of the window, G read at every node:
    the reference for the trimmed pass and for reading G on its support."""
    return _three_sweep_fd(*args, block_count=_full_window_block, **kw)


def _assert_matches_full_window(G, alpha, E, mode, case, **kw):
    # the two-probe count with the trimmed sweep against the three-sweep
    # count over every node: the same count, uncertainty, flags and sides
    got = count_below_fd(G, alpha, E, mode, **kw)
    want = _full_window_fd(G, alpha, E, mode, **kw)
    for name in ("count", "uncertainty", "flags", "extras"):
        assert getattr(got, name) == getattr(want, name), (case, name)
    assert got.steps <= want.steps, case
    return got


@pytest.mark.parametrize("name", (
    "zero", "square-well", "annulus", "gaussian", "bump", "counterexample",
    "counterexample-damped", "counterexample-damped-strong"))
def test_fd_trimmed_pass_matches_full_window(catalog, name):
    # in every mode and at alpha in {3, 25, 200, 800, 3200}: every channel
    # energy of the plane count (the whole line up to the first empty
    # channel, the Dirichlet modes at m = 0), one random energy and one
    # within the threshold offset of 0 (whose E + delta probe is > 0) give
    # the full window's count, uncertainty, flags and side counts. The slow
    # tails have no constant tail, so their trimmed pass is the lead-in
    # alone, and their 90k-node windows at alpha 3200 are scanned at m = 0
    G = to_log(catalog[name], strict=False)
    rng = np.random.default_rng(41)
    for alpha in (3.0, 25.0, 200.0, 800.0, 3200.0):
        eps = threshold_eps(G, alpha) or 1e-9
        scan = alpha < 3200.0 or math.isfinite(G.t_support[1])
        for mode in BoundaryMode:
            E = -float(rng.uniform(0.0, 1.0)) * max(alpha * G.g_max, 1.0)
            _assert_matches_full_window(G, alpha, E, mode, (alpha, mode, E))
            _assert_matches_full_window(G, alpha, -0.5 * eps, mode,
                                        (alpha, mode, "E + delta > 0"))
            m = 0
            while _assert_matches_full_window(
                    G, alpha, -(m * m + eps), mode, (alpha, mode, m)).count:
                if mode != BoundaryMode.WHOLE_LINE or not scan:
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
    # bisection meets the count at energies where it flips, so a pivot a
    # few ulps off in the trimmed pass would move a located eigenvalue: the
    # locations must be the full window's bit for bit (these are the calls
    # verify makes for its sqrt-moment, square-well at alpha 50 included).
    # On the slow tails G = 0 for t < e^2, so the half line and the right
    # block at 0 sweep what the whole line sweeps
    G = to_log(catalog[name], strict=False)
    for alpha in alphas:
        for mode in modes:
            kw = dict(E=-threshold_eps(G, alpha), n_max=64, mode=mode,
                      engine="fd")
            got = eigenvalues_below(G, alpha, **kw)
            with monkeypatch.context() as mp:
                mp.setattr(spectral1d, "count_below_fd", _full_window_fd)
                want = eigenvalues_below(G, alpha, **kw)
            assert got[1] == want[1], (alpha, mode)
            assert np.array_equal(got[0], want[0]), (alpha, mode)


def _swept_negatives(monkeypatch):
    """Spy on the Sturm sweep: a list that collects (pivots, negatives)
    of every sweep, for the counts the closed forms add."""
    sweeps = []
    sweep = spectral1d._sturm_pass

    def spy(a, *args):
        out = sweep(a, *args)
        sweeps.append((len(a), out[0]))
        return out

    monkeypatch.setattr(spectral1d, "_sturm_pass", spy)
    return sweeps


def _fd_levels(G, alpha, lo, hi, h):
    """Eigenvalues of the fd operator on nodes lo + h, ..., hi - h."""
    t = lo + h * np.arange(1, round((hi - lo) / h))
    T = (np.diag(2.0 - h * h * alpha * G.eval(t))
         - np.eye(len(t), k=1) - np.eye(len(t), k=-1))
    return np.linalg.eigvalsh(T) / (h * h)


@pytest.mark.parametrize("head, tail", [(k, n) for k in (0, 1, 2)
                                        for n in (0, 1, 2)])
def test_fd_constant_runs_of_0_1_2_nodes(monkeypatch, head, tail):
    # nine nodes t = 0.1 .. 0.9 on (0, 1); the box leaves `head` of them
    # at G = 0 on the left and `tail` on the right. Just above a level of
    # the grid problem the newest negative pivot is the last one, so with
    # a tail it is the tail rule's
    G = boxes_G((400.0, 0.05 + 0.1 * head, 0.95 - 0.1 * tail))
    kw = dict(domain=(0.0, 1.0), h=0.1)
    levels = _fd_levels(G, 1.0, 0.0, 1.0, 0.1)
    levels = levels[levels < 0.0]
    assert len(levels) >= 3
    energies = ([float(e) for e in np.linspace(-399.0, -1.0, 41)]
                + [float(e) * (1.0 + s) for e in levels
                   for s in (1e-12, -1e-12)])
    sweeps = _swept_negatives(monkeypatch)
    from_tail = flagged = 0
    for E in energies:
        sweeps.clear()
        got = _assert_matches_full_window(G, 1.0, E, BoundaryMode.WHOLE_LINE,
                                          (head, tail, E), **kw)
        # probes at E -/+ delta, and E itself only where they disagree
        near = "near-threshold" in got.flags
        assert got.steps == (2 + near) * (9 - head - tail) == sum(
            n for n, _ in sweeps), E
        from_tail += got.count > sweeps[-1 if near else 0][1]
        flagged += near
    assert (from_tail > 0) == (tail > 0)
    assert 0 < flagged < len(energies)


@pytest.mark.parametrize("tail", (0, 1))
def test_fd_sweep_stops_once_settled(monkeypatch, tail):
    # nodes 0.1 .. 0.5 sit in a deep box and the next ones in a shallow one
    # that E lies below, so every a_i there is >= 2: the sweep goes on past
    # the last allowed node only until a pivot is >= 1, and negative pivots
    # on that stretch still count
    G = boxes_G((400.0, 0.05, 0.55), (50.0, 0.55, 0.95 - 0.1 * tail))
    kw = dict(domain=(0.0, 1.0), h=0.1)
    levels = _fd_levels(G, 1.0, 0.0, 1.0, 0.1)
    levels = levels[(levels < -50.0) & (levels > -400.0)]
    assert len(levels) >= 2
    energies = ([float(e) for e in np.linspace(-399.0, -50.0, 36)]
                + [float(e) * (1.0 + s) for e in levels
                   for s in (1e-12, -1e-12)])
    settled = []
    settle = spectral1d._settle_pass

    def spy(a, d):
        out = settle(a, d)
        settled.append((len(a), out[0], out[3]))
        return out

    monkeypatch.setattr(spectral1d, "_settle_pass", spy)
    cut = from_settle = 0
    for E in energies:
        settled.clear()
        got = _assert_matches_full_window(G, 1.0, E, BoundaryMode.WHOLE_LINE,
                                          (tail, E), **kw)
        assert settled[0][0] == 4 - tail
        cut += settled[0][2] < settled[0][0]
        from_settle += settled[0][1]
    assert cut > 0 and from_settle > 0


def test_fd_zero_pivot_past_the_last_allowed_node():
    # h = 0.5, E = -2: G = 8 at t = 0.5 gives the allowed diagonal 0.5 and
    # pivot 0.5; G = 2 at t = 1 gives the diagonal 2 exactly, past the last
    # allowed node, where the pivot 2 - 1/0.5 is 0.0 and is flagged by
    # the one sweep, at E
    G = boxes_G((8.0, 0.25, 0.75), (2.0, 0.75, 1.25))
    got = _assert_matches_full_window(
        G, 1.0, -2.0, BoundaryMode.WHOLE_LINE, "zero pivot",
        domain=(0.0, 4.0), h=0.5, near_threshold_check=False)
    assert "pivot-shift" in got.flags and got.uncertainty == 1


def test_fd_zero_pivot_between_agreeing_probes(monkeypatch):
    # the zero pivot above, at E = -2 exactly: the probes at E -/+ delta
    # meet no zero pivot and agree, so theirs is the count at E, exact,
    # with no flag and no sweep at E; the three-sweep count reads the same
    # count from E, flagged pivot-shift. A zero pivot in a probe (at
    # E - delta = -2) still sends the count to a sweep at E
    G = boxes_G((8.0, 0.25, 0.75), (2.0, 0.75, 1.25))
    kw = dict(domain=(0.0, 4.0), h=0.5)
    sweeps = _swept_negatives(monkeypatch)
    got = count_below_fd(G, 1.0, -2.0, **kw)
    assert (got.count, got.uncertainty, got.flags) == (1, 0, ())
    assert len(sweeps) == 2 and got.steps == 4
    sweeps.clear()
    want = _three_sweep_fd(G, 1.0, -2.0, **kw)
    assert (want.count, want.uncertainty, want.flags) == (1, 1,
                                                          ("pivot-shift",))
    delta = threshold_eps(G, 1.0)
    E = -2.0 + delta
    assert E - delta == -2.0
    sweeps.clear()
    got = _assert_matches_full_window(G, 1.0, E, BoundaryMode.WHOLE_LINE,
                                      "zero pivot in a probe", **kw)
    # E - delta, its retry, E + delta, E
    assert len(sweeps) == 4 and got.steps == 8
    assert (got.count, got.flags) == (1, ())


def test_fd_probes_that_disagree_sweep_E(monkeypatch):
    # just above a level of the grid problem the probes straddle it: the
    # count is read from a third sweep, at E, and flagged near-threshold
    # with uncertainty 1, as the three-sweep count has it
    G = boxes_G((400.0, 0.25, 0.75))
    kw = dict(domain=(0.0, 1.0), h=0.1)
    levels = _fd_levels(G, 1.0, 0.0, 1.0, 0.1)
    counts = []
    block_count = spectral1d._block_count

    def spy(*args):
        out = block_count(*args)
        counts.append(out[0])
        return out

    monkeypatch.setattr(spectral1d, "_block_count", spy)
    for level in levels[levels < 0.0]:
        for E in (float(level) * (1.0 - 1e-12), float(level) * (1.0 + 1e-12)):
            counts.clear()
            got = _assert_matches_full_window(
                G, 1.0, E, BoundaryMode.WHOLE_LINE, E, **kw)
            assert got.flags == ("near-threshold",) and got.uncertainty == 1
            lo, hi, at = counts[:3]   # E - delta, E + delta, E
            assert (lo + 1, at) == (hi, got.count) == (
                hi, int(np.sum(levels < E))), E


def test_fd_dirichlet_at_0_blocks(monkeypatch):
    # t = 0 is node 10 of (-1, 1) at h = 0.1, splitting nodes -0.9 .. -0.1
    # from 0.1 .. 0.9; a block that is all G = 0 counts 0 with no sweep,
    # and so does one whose box lies below E
    mode = BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0
    kw = dict(domain=(-1.0, 1.0), h=0.1)
    right_only = boxes_G((400.0, 0.25, 0.75))
    both = boxes_G((400.0, -0.75, -0.25), (300.0, 0.25, 0.75))
    sweeps = _swept_negatives(monkeypatch)
    for G, blocks in ((right_only, 1), (both, 2)):
        for E in (-350.0, -200.0, -120.0, -60.0, -5.0):
            sweeps.clear()
            got = _assert_matches_full_window(G, 1.0, E, mode, E, **kw)
            swept = 1 if blocks == 1 or E < -300.0 else 2
            # the probes decide: E - delta first, then E + delta
            assert got.flags == () and len(sweeps) == 2 * swept, E
            if blocks == 1:
                assert got.extras["left"] == 0
    assert got.extras["left"] > 0 and got.extras["right"] > 0


def test_fd_zero_pivot_retry_is_trimmed_too(monkeypatch):
    # h = 0.5, E = -1 and G = 5 on the first two nodes make both diagonals
    # exactly 1: the second pivot is 0.0, and the retry with the ulp shift
    # sweeps the same two nodes again, the five-node tail in closed form
    G = boxes_G((5.0, 0.25, 1.25))
    kw = dict(domain=(0.0, 4.0), h=0.5, near_threshold_check=False)
    sweeps = _swept_negatives(monkeypatch)
    calls = []
    block_count = spectral1d._block_count
    monkeypatch.setattr(spectral1d, "_block_count",
                        lambda *a: calls.append(a) or block_count(*a))
    got = _assert_matches_full_window(G, 1.0, -1.0, BoundaryMode.WHOLE_LINE,
                                      "zero pivot", **kw)
    assert "pivot-shift" in got.flags and got.uncertainty == 1
    assert [n for n, _ in sweeps] == [2, 2]   # E, retry
    assert got.steps == 4
    # the shift is the full window's, 4 eps max|diagonal|: here the tail's
    # a_c = 2.25, not the core's 1
    (core, first, n_tail, a_c), retry = calls
    shift = 4.0 * np.finfo(float).eps * 2.25
    assert (first, n_tail, a_c, core.tolist()) == (0, 5, 2.25, [1.0, 1.0])
    assert retry[1:] == (0, 5, a_c + shift)
    assert retry[0].tolist() == [1.0 + shift] * 2


def test_run_pivot_is_the_constant_run_recursion():
    # pivot k of a constant run from a Dirichlet end, in closed form, and
    # the exact limit (k + 2)/(k + 1) when a = 2
    for a in (2.0 + 1e-11, 2.0 + 1e-4, 2.25, 3.0, 40.0):
        theta = 2.0 * math.asinh(0.5 * math.sqrt(a - 2.0))
        d = math.inf
        for k in range(60):
            d = a - 1.0 / d
            assert spectral1d._run_pivot(theta, k) == pytest.approx(
                d, rel=1e-13), (a, k)
    assert spectral1d._run_pivot(0.0, 3) == 5 / 4


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
    # trimmed pass is the full window's count
    G = boxes_G(*boxes)
    E = -frac * G.g_max
    _assert_matches_full_window(G, 1.0, E, mode, (boxes, E, mode))


@settings(max_examples=40, deadline=None)
@given(boxes=_random_boxes(), k=st.integers(0, 200),
       side=st.sampled_from([-1e-12, 1e-12]),
       mode=st.sampled_from(list(BoundaryMode)))
def test_fd_two_probes_property_near_levels(boxes, k, side, mode):
    # within delta of a level of the grid problem the probes disagree, so
    # the count is swept at E and flagged near-threshold: on random boxes
    # it is the three-sweep count, side counts included. In the split mode
    # the levels are those of the blocks either side of t = 0
    G = boxes_G(*boxes)
    h = 1.0 / 16.0
    cuts = ((-4.0, 0.0, 4.0) if mode == BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0
            else (-4.0, 4.0))
    levels = np.concatenate([_fd_levels(G, 1.0, a, b, h)
                             for a, b in zip(cuts, cuts[1:])])
    levels = levels[levels < 0.0]
    assume(levels.size > 0)
    E = float(levels[k % levels.size]) * (1.0 + side)
    got = _assert_matches_full_window(G, 1.0, E, mode, (boxes, E, mode),
                                      domain=(-4.0, 4.0), h=h)
    assert "near-threshold" in got.flags and got.uncertainty >= 1


_CATALOG_NAMES = ("zero", "square-well", "annulus", "gaussian", "bump",
                  "counterexample", "counterexample-damped",
                  "counterexample-damped-strong")


@pytest.mark.parametrize("name", _CATALOG_NAMES)
def test_fd_two_probes_match_three_sweeps(catalog, name):
    # at every channel energy of the plane count at alpha in {3, 25, 200,
    # 800, 3200}, and at m = 0 in the Dirichlet modes: the count that
    # agreeing probes decide is the three-sweep count, with its
    # uncertainty, flags and side counts, and never more pivots
    G = to_log(catalog[name], strict=False)
    for alpha in (3.0, 25.0, 200.0, 800.0, 3200.0):
        for mode in BoundaryMode:
            m = 0
            while (E := channel_energy(G, alpha, m)) is not None:
                got = count_below_fd(G, alpha, E, mode)
                want = _three_sweep_fd(G, alpha, E, mode)
                for attr in ("count", "uncertainty", "flags", "extras"):
                    assert getattr(got, attr) == getattr(want, attr), (
                        alpha, mode, m, attr)
                assert got.steps <= want.steps, (alpha, mode, m)
                if not got.count or mode != BoundaryMode.WHOLE_LINE:
                    break
                m += 1


def _whole_head_block_count(core, first, n_tail, a_c):
    """_block_count with the contraction taken over the whole head at once:
    the start node and entering pivot that the chunked head must give."""
    allowed = np.flatnonzero(core < 2.0)
    if allowed.size == 0:
        return 0, False, 0
    theta_c = 2.0 * math.asinh(0.5 * math.sqrt(a_c - 2.0))
    th = 2.0 * np.arcsinh(0.5 * np.sqrt(core[: allowed[0]] - 2.0))
    i = int(np.searchsorted(np.cumsum(th[::-1]), spectral1d._LEAD_IN))
    if i < th.size:
        j = th.size - 1 - i
        d = math.exp(float(th[j]))
    else:
        j = 0
        d = spectral1d._run_pivot(theta_c, first - 1) if first else math.inf
    last = int(allowed[-1]) + 1
    neg, hit_zero, d = spectral1d._sturm_pass(core[j:last].tolist(), d)
    n_set, hz_set, d, k = spectral1d._settle_pass(core[last:].tolist(), d)
    if n_tail and 0.0 < d < 1.0 / spectral1d._run_pivot(theta_c, n_tail - 1):
        neg += 1
    return neg + n_set, hit_zero or hz_set, last - j + k


@pytest.mark.parametrize("scale", (1e-4, 1.0))
def test_fd_head_read_in_chunks_is_the_whole_head(monkeypatch, scale):
    # the head's contraction, summed back from the first allowed node in
    # chunks, gives the start node, the entering pivot, the count and the
    # steps of the whole head, bit for bit: heads that cannot reach the
    # lead-in (the sweep starts at the core, entering from a Dirichlet end
    # or a constant run, first > 0) and longer ones (it starts inside the
    # first, a later or the last chunk), down to heads of G = 0 nodes, each
    # adding the most, theta_c, around the shortest that reaches it. First
    # chunks of 1 and 3 nodes cut the head wherever the bound lets them
    rng = np.random.default_rng(5)
    sturm = spectral1d._sturm_pass
    entering = []

    def spy(a, d=math.inf):
        entering.append((len(a), d))
        return sturm(a, d)

    monkeypatch.setattr(spectral1d, "_sturm_pass", spy)
    a_c = 2.0 + scale
    theta_c = 2.0 * math.asinh(0.5 * math.sqrt(scale))
    shortest = math.ceil(spectral1d._LEAD_IN / theta_c)
    heads = [2.0 + scale * rng.uniform(0.05, 1.0, n)
             for n in (0, 1, 10, 64, 65, 300, 1500, 3000, 20000)]
    heads += [np.full(n, a_c) for n in range(shortest - 2, shortest + 3)]
    starts = set()
    for head in heads:
        core = np.concatenate([head, 2.0 - rng.uniform(0.1, 1.0, 20),
                               2.0 + rng.uniform(0.01, 0.1, 5)])
        for first in (0, 7):
            entering.clear()
            want = (_whole_head_block_count(core, first, 9, a_c),
                    tuple(entering))
            for chunk in (spectral1d._HEAD_CHUNK, 1, 3):
                monkeypatch.setattr(spectral1d, "_HEAD_CHUNK", chunk)
                entering.clear()
                got = spectral1d._block_count(core, first, 9, a_c)
                assert (got, tuple(entering)) == want, (head.size, first)
            starts.add((head.size >= shortest - 2,
                        want[1][0][0] < head.size + 20))
    assert starts >= {(False, False), (True, False), (True, True)}


def test_sturm_kernels_read_memoryviews_as_lists():
    # count_below_fd hands the sweeps memoryviews of float64 arrays: each
    # kernel returns the same tuple as for a list of the same floats, with
    # exact zero pivots (1, 1, ... from a Dirichlet end gives pivots 1, 0)
    # mid-sweep and at the last pivot, and a settled stop before the end
    rng = np.random.default_rng(3)
    sturm = [([1.0, 1.0, 1.0, 2.5, 0.3], math.inf),
             ([1.0, 1.0], math.inf),
             ([0.5, 2.0], math.inf),
             (list(2.0 + rng.normal(0.0, 1.0, 500)), 0.7),
             ([], 0.4)]
    settle = [([2.0, 2.0, 2.0, 3.0], 0.5),
              ([2.0, 2.0], 1.0),
              ([2.5, 2.0], 0.4),
              (list(2.0 + rng.uniform(0.0, 1e-3, 300)), -0.2),
              ([], 0.4)]
    hits = set()
    for a, d in sturm:
        want = spectral1d._sturm_pass(a, d)
        assert spectral1d._sturm_pass(memoryview(np.array(a)), d) == want
        hits.add(want[1])
    for a, d in settle:
        want = spectral1d._settle_pass(a, d)
        assert spectral1d._settle_pass(memoryview(np.array(a)), d) == want
        hits.add(want[1])
    assert spectral1d._sturm_pass([1.0, 1.0]) == (0, True, 1e-300)
    assert spectral1d._sturm_pass([1.0, 1.0, 1.0])[:2] == (1, True)
    assert spectral1d._settle_pass([2.0, 2.0, 2.0, 3.0], 0.5)[1::2] == (True, 3)
    assert hits == {True, False}


@pytest.mark.parametrize("name, alpha, n_nodes", [
    ("annulus", 50.0, (9152, 4615, 9151)),
    ("square-well", 3200.0, (43451, 18104, 43450)),
])
def test_fd_reads_G_on_its_support_only(catalog, monkeypatch, name, alpha,
                                        n_nodes):
    # at the m = 0 channel energy, in every mode, count_below_fd reads G once,
    # at every grid node inside its support and at most 2 more at each end;
    # the grid and its node count are the full window's
    G = to_log(catalog[name], strict=False)
    g = G._g_vec
    reads = []
    monkeypatch.setattr(G, "_g_vec", lambda t: (reads.append(t.size), g(t))[1])
    E = channel_energy(G, alpha)
    t_lo, t_hi = G.t_support
    for mode, nodes in zip(BoundaryMode, n_nodes):
        reads.clear()
        got = count_below_fd(G, alpha, E, mode)
        A, B = got.domain
        t = A + got.h * np.arange(1, round((B - A) / got.h))
        inside = int(np.sum((t >= t_lo) & (t <= t_hi)))
        assert got.extras["n_nodes"] == nodes, mode
        assert len(reads) == 1 and inside <= reads[0] <= inside + 4, (
            mode, reads, inside)
        want = _full_window_fd(G, alpha, E, mode)
        assert (got.count, got.flags, got.extras) == (
            want.count, want.flags, want.extras), mode


@pytest.mark.parametrize("kw", [
    dict(domain=(2.0, -2.0)), dict(domain=(0.3, 0.3)),
    dict(domain=(-math.inf, 1.0)), dict(domain=(0.0, math.nan)),
    dict(h=0.0), dict(h=-0.01), dict(h=math.inf), dict(h=math.nan),
])
def test_degenerate_windows_are_refused(catalog, kw):
    # a reversed or empty window used to be counted (3 states at h < 0 on
    # the reversed annulus window, a ZeroDivisionError on the empty one);
    # both engines and bs_spectrum now refuse it, and a grid step that is
    # not finite and > 0
    G = to_log(catalog["annulus"], strict=False)
    calls = [lambda: count_below_fd(G, 50.0, -1.0, **kw),
             lambda: bs_spectrum(G, **kw)]
    if "h" not in kw:
        calls.append(lambda: count_below_pruefer(G, 50.0, -1.0, **kw))
    for call in calls:
        with pytest.raises(ValueError, match="need a finite"):
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
    # Dirichlet ones from u = 0), truncated too: the sign count of the
    # block gives each pass the formula's zeros on its own intervals, and
    # the same (u, u'), bit for bit
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
            count_below_pruefer(G, alpha, channel_energy(G, alpha),
                                truncated=True)
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
    # count_below_fd reads G only on t_support and a node of margin at each
    # end, taking the diagonal to be exactly 2 at every other node. That
    # needs G == 0 off the support: on the 8 bundled specs, on random
    # tabulated (with steps at its ends) and bump profiles, and on the box
    # stub
    rng = np.random.default_rng(13)
    Gs = [to_log(Q, strict=False) for Q in catalog.values()]
    Gs += [to_log(P, strict=False), boxes_G(*boxes)]
    for G in Gs:
        t = _off_support_points(G, rng)
        assert t.size or G.t_support[0] == -math.inf == -G.t_support[1]
        assert not np.any(G.eval(t)), (G.t_support, t[G.eval(t) != 0.0])
