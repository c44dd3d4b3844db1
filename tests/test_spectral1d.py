"""Line counting engines: phase shooting vs matrix inertia.

Two independent oracles pin these down.  The box profile has a closed
counting function: with s = sqrt(D + E), the whole-line operator
-u'' - D 1_(0,L) has exactly floor((sL + 2 asin(s/sqrt(D)))/pi) eigenvalues
below E, and the half-line Dirichlet version flips its first count at the
root of k cot(k) = -kappa.  On top of that the two engines must agree with
each other on everything the catalog can produce.
"""
import math

import numpy as np
import pytest

from radcount import BoundaryMode, count_below, eigenvalues_below, to_log
from radcount import spectral1d
from radcount.potentials import LogPotential
from radcount.spectral1d import (
    GridSpec,
    StepControl,
    bs_spectrum,
    count_below_fd,
    count_below_pruefer,
    counting_domain,
    threshold_eps,
)

E_HALF_BOX10 = -4.62419408632978   # root of k cot k = -kappa, depth 10


def box_G(depth: float = 10.0, lo: float = 0.0, hi: float = 1.0):
    """A LogPotential stub: G = depth * indicator(lo, hi)."""
    def g_vec(t):
        t = np.asarray(t, dtype=float)
        return np.where((t >= lo) & (t < hi), depth, 0.0)

    def g_scalar(t):
        return depth if lo <= t < hi else 0.0

    return LogPotential(None, 1e-10, (lo, hi), (lo, hi), (lo, hi), False,
                        depth, 0.5 * (lo + hi), depth * (hi - lo), 0.0,
                        g_vec, g_scalar)


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


def test_bs_duality_on_shared_grid(catalog):
    # inertia identity: #{lambda_n > 1/alpha} equals the Dirichlet count
    # on the same grid, exactly
    G = to_log(catalog["square-well"])
    lam, meta = bs_spectrum(G, BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0,
                            n_max=24)
    for alpha in (7.0, 31.0, 90.0):
        want = int(np.sum(lam > 1.0 / alpha))
        got = count_below_fd(G, alpha, -1e-12,
                             BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0,
                             domain=meta["domain"],
                             grid=GridSpec(h=meta["h"]),
                             near_threshold_check=False)
        assert got.count == want, alpha


def test_bs_spectrum_grid_stability(catalog):
    G = to_log(catalog["gaussian"])
    lam1, meta = bs_spectrum(G, n_max=8)
    lam2, _ = bs_spectrum(G, n_max=8, grid=GridSpec(h=meta["h"] / 2.0))
    # leading eigenvalues converge under refinement; the small tail ones
    # are relatively softer, so the blanket tolerance is looser
    assert lam1[0] == pytest.approx(lam2[0], rel=1e-3)
    assert np.allclose(lam1, lam2, rtol=1e-2, atol=1e-10)


def test_threshold_eps_tracks_scale(catalog):
    G = to_log(catalog["square-well"])
    assert threshold_eps(G, 100.0) == pytest.approx(1e-7)
    assert threshold_eps(G, 200.0) == 2.0 * threshold_eps(G, 100.0)


def test_counting_domain_pads_with_energy():
    G = box_G(1.0)
    near = counting_domain(G, 1.0, -1e-8, BoundaryMode.WHOLE_LINE)
    deep = counting_domain(G, 1.0, -0.9, BoundaryMode.WHOLE_LINE)
    assert near[0] <= deep[0] and near[1] >= deep[1]
    half = counting_domain(G, 1.0, -0.5, BoundaryMode.HALF_LINE_DIRICHLET)
    assert half[0] == 0.0


# The generic Cash-Karp loop the unrolled phase kernel replaced, kept as the
# reference it must match bit for bit: stages as lists, sums by sum().
_CK_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (3 / 10, -9 / 10, 6 / 5),
    (-11 / 54, 5 / 2, -70 / 27, 35 / 27),
    (1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096),
)
_CK_C = (0.0, 1 / 5, 3 / 10, 3 / 5, 1.0, 7 / 8)
_CK_B5 = (37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771)
_CK_B4 = (2825 / 27648, 0.0, 18575 / 48384, 13525 / 55296, 277 / 14336, 1 / 4)


def _phase_rhs(g_scalar, alpha, E, t, th):
    s = math.sin(th)
    c = math.cos(th)
    return c * c + (E + alpha * g_scalar(t)) * s * s


def _generic_integrate_phase(g_scalar, alpha, E, a, b, theta0, breaks, ctrl):
    flags = []
    pieces = [a] + sorted(p for p in breaks if a < p < b) + [b]
    th = theta0
    steps = 0
    for lo, hi in zip(pieces, pieces[1:]):
        t = lo
        w_mid = E + alpha * g_scalar(0.5 * (lo + hi))
        h = min(ctrl.h_max, hi - lo, 0.25 / math.sqrt(1.0 + abs(w_mid)))
        while t < hi:
            if steps >= ctrl.max_steps:
                raise RuntimeError(
                    f"phase integration exceeded {ctrl.max_steps} steps "
                    f"(alpha={alpha}, E={E})")
            h_cap = 0.25 / math.sqrt(1.0 + abs(E) + alpha * g_scalar(t))
            h = min(h, h_cap, hi - t, ctrl.h_max)
            if h < ctrl.h_min:
                h = ctrl.h_min
                flags.append("step-floor")
            k = [0.0] * 6
            k[0] = _phase_rhs(g_scalar, alpha, E, t, th)
            for i in range(1, 6):
                y = th + h * sum(_CK_A[i][j] * k[j] for j in range(i))
                k[i] = _phase_rhs(g_scalar, alpha, E, t + _CK_C[i] * h, y)
            th5 = th + h * sum(_CK_B5[i] * k[i] for i in range(6))
            th4 = th + h * sum(_CK_B4[i] * k[i] for i in range(6))
            err = abs(th5 - th4)
            steps += 1
            if err <= ctrl.phase_tol or h <= ctrl.h_min:
                t += h
                th = th5
            fac = 0.9 * (ctrl.phase_tol / (err + 1e-300)) ** 0.2
            h *= min(5.0, max(0.2, fac))
    return th, steps, flags


@pytest.mark.parametrize("name, alpha, m, mode, step", [
    ("square-well", 3200.0, 0, BoundaryMode.WHOLE_LINE, StepControl()),
    ("square-well", 3200.0, 40, BoundaryMode.WHOLE_LINE, StepControl()),
    ("counterexample", 5.0, 0, BoundaryMode.WHOLE_LINE, StepControl()),
    ("gaussian", 40.0, 0, BoundaryMode.WHOLE_LINE, StepControl()),
    ("bump", 40.0, 0, BoundaryMode.HALF_LINE_DIRICHLET, StepControl()),
    ("bump", 40.0, 0, BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0, StepControl()),
    ("square-well", 200.0, 0, BoundaryMode.WHOLE_LINE,
     StepControl(h_min=0.05)),
], ids=["disk-3200", "disk-3200-m40", "slowtail-5", "gaussian", "bump-half",
        "bump-dirichlet-at-0", "disk-step-floor"])
def test_phase_kernel_matches_generic_loop(catalog, monkeypatch, name,
                                           alpha, m, mode, step):
    G = to_log(catalog[name], strict=False)
    E = -(m * m + threshold_eps(G, alpha))
    kernel = spectral1d._integrate_phase
    pairs = []

    def both(*args):
        pairs.append((kernel(*args), _generic_integrate_phase(*args)))
        return pairs[-1][0]

    monkeypatch.setattr(spectral1d, "_integrate_phase", both)
    count_below_pruefer(G, alpha, E, mode, step=step)
    assert len(pairs) == (2 if mode == BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0
                          else 1)
    for got, want in pairs:
        assert got == want   # theta, steps and flags, exactly
    floored = any("step-floor" in got[2] for got, _ in pairs)
    assert floored == (step != StepControl())


def test_phase_kernel_step_budget_matches_generic_loop(catalog):
    G = to_log(catalog["square-well"])
    args = (G.eval_scalar, 200.0, -1.0, -20.0, 10.0, 0.5, G.breakpoints,
            StepControl(max_steps=10))
    with pytest.raises(RuntimeError) as got:
        spectral1d._integrate_phase(*args)
    with pytest.raises(RuntimeError) as want:
        _generic_integrate_phase(*args)
    assert str(got.value) == str(want.value)
    assert "exceeded 10 steps" in str(got.value)
