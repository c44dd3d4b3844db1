"""Angular decomposition against the Bessel oracle.

For the disk well the per-channel counts have a closed form: channel m
holds one bound state per positive zero of J_m below sqrt(alpha), plus one
more when the boundary log-derivative sqrt(alpha) J_m'(sqrt(alpha)) /
J_m(sqrt(alpha)) lies below -m.  That formula never touches our ODE or
matrix code, so agreement here validates the whole counting pipeline.
"""
import ast
import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jn_zeros, jv, jvp

from radcount import (
    BoundaryMode,
    ChannelBreakdown,
    bs_duality_check,
    channel_count,
    count_below,
    eigenvalues_below,
    load_bundled,
    make_catalog_potential,
    sandwich_check,
    to_log,
    total_count,
    total_counts,
)
from radcount import channels, spectral1d
from radcount.spectral1d import bs_spectrum, channel_energy
from rk_phase import count_below_rk
from test_spectral1d import _CATALOG_NAMES, _random_profiles


def disk_channel_oracle(alpha: float, m: int) -> int:
    s = np.sqrt(alpha)
    zeros = jn_zeros(m, max(8, int(s / np.pi) + 8))
    n = int(np.sum(zeros < s))
    if s * jvp(m, s) / jv(m, s) < -float(m):
        n += 1
    return n


def disk_total_oracle(alpha: float) -> tuple[dict, int]:
    per = {}
    m = 0
    while True:
        per[m] = disk_channel_oracle(alpha, m)
        if m > 0 and per[m] == 0:
            break
        m += 1
    total = per[0] + 2 * sum(v for k, v in per.items() if k > 0)
    return per, total


def test_disk_well_per_channel_matches_bessel(catalog):
    b = total_count(catalog["square-well"], 200.0)
    per, total = disk_total_oracle(200.0)
    assert b.total == total == 51
    for m, want in per.items():
        assert b.per_channel.get(m, 0) == want, m
    assert b.uncertainty == 0


def test_phase_engine_matches_bessel_on_a_dense_sweep(catalog):
    # 200 log-spaced couplings in [25, 3200]: every channel count of the
    # phase engine is the Bessel oracle's, with uncertainty 0 and no flags.
    # The inertia engine stays out: it counts these too, but at 74.89 its
    # probes see the Dirichlet-at-0 state at -5.9e-8, within threshold_eps
    # of the channel energy -7.5e-8, and it flags near-threshold
    P = catalog["square-well"]
    for alpha in np.geomspace(25.0, 3200.0, 200):
        b = total_count(P, float(alpha))
        per, total = disk_total_oracle(float(alpha))
        assert b.per_channel == per, alpha
        assert (b.total, b.uncertainty, b.flags) == (total, 0, ()), alpha


def _disk_thresholds(alpha_max: float) -> list[tuple[int, float]]:
    """(m, alpha) where channel m of the unit disk gains a state, below
    alpha_max: at E = 0 the inside solution J_m(sqrt(alpha) r) meets the
    outside one, r^-m (or 1 for m = 0), where J_{m-1} vanishes (J_1 for
    m = 0), so alpha is j_{m-1,k}^2 (j_{1,k}^2)."""
    out = []
    m = 0
    while True:
        zeros = jn_zeros(1 if m == 0 else m - 1, 32)
        below = zeros[zeros ** 2 < alpha_max]
        if not below.size:
            return out
        out += [(m, float(z * z)) for z in below]
        m += 1


def test_phase_engine_counts_both_sides_of_every_disk_threshold(catalog):
    # the 106 couplings below 800 where a channel of the disk gains a
    # state, each counted 0.1% below and above it: every phase-engine
    # channel count is the Bessel oracle's
    P = catalog["square-well"]
    thresholds = _disk_thresholds(800.0)
    assert len(thresholds) == 106
    for m, alpha_c in thresholds:
        for alpha in (alpha_c * (1.0 - 1e-3), alpha_c * (1.0 + 1e-3)):
            assert (channel_count(P, alpha, m).count
                    == disk_channel_oracle(alpha, m)), (m, alpha)


def test_rk_oracle_matches_bessel_on_the_disk(catalog):
    # the RK oracle of the phase engine, by itself: at 20 log-spaced
    # couplings in [3, 3200], every whole-line channel up to the first empty
    # one counts the Bessel oracle's states, with uncertainty 0 and no flags
    G = to_log(catalog["square-well"])
    for alpha in np.geomspace(3.0, 3200.0, 20):
        alpha = float(alpha)
        m = 0
        while True:
            want = disk_channel_oracle(alpha, m)
            got = count_below_rk(G, alpha, channel_energy(G, alpha, m))
            assert (got.count, got.uncertainty, got.flags) == (want, 0, ()), (
                alpha, m)
            if not want:
                break
            m += 1


def test_disk_well_totals_both_engines(catalog):
    P = catalog["square-well"]
    for alpha, want in ((25.0, None), (200.0, 51)):
        _, oracle = disk_total_oracle(alpha)
        if want is not None:
            assert oracle == want
        for engine in ("pruefer", "fd"):
            assert total_count(P, alpha, engine=engine).total == oracle, \
                (alpha, engine)


def test_disk_well_alpha_400_fd_matches_bessel(catalog):
    # at alpha = 400 two channels bind only barely (channel 16 just below
    # its threshold -256), which the uniform FD grid shifted above the
    # counting energy (103); both engines count the oracle's 105, channel
    # by channel
    P = catalog["square-well"]
    per, oracle = disk_total_oracle(400.0)
    assert oracle == 105
    for engine in ("pruefer", "fd"):
        b = total_count(P, 400.0, engine=engine)
        assert (b.total, b.uncertainty, b.flags) == (105, 0, ()), engine
        assert b.per_channel == per, engine


def test_fd_counts_bessel_on_both_sides_of_every_disk_threshold(catalog):
    # the 106 couplings below 800 where a disk channel gains a state: the
    # inertia engine's channel count on either side equals Bessel's at
    # a relative offset 1e-3 in every channel, and at 1e-7 for m >= 1
    # (an m = 0 state binds at a line energy quadratic in the offset, and
    # the channel energy sits threshold_eps below 0). The FD grid missed
    # 5 + 84 of these at 1e-3
    P = catalog["square-well"]
    thresholds = _disk_thresholds(800.0)
    assert len(thresholds) == 106
    for delta, ms in ((1e-3, 0), (1e-7, 1)):
        for m, alpha in thresholds:
            if m < ms:
                continue
            for a in (alpha * (1.0 - delta), alpha * (1.0 + delta)):
                got = channel_count(P, a, m, engine="fd")
                assert got.count == disk_channel_oracle(a, m), (m, a)


@pytest.mark.parametrize("name", [
    "square-well", "annulus", "gaussian", "bump", "counterexample",
    "counterexample-damped", "counterexample-damped-strong"])
def test_fd_plane_count_is_the_phase_engines_at_3200(catalog, name):
    # at alpha 3200 the engines agree on every channel, the Dirichlet-at-0
    # route and the total, none in doubt: the FD grid gave 2417 on the
    # annulus (2415) and 98 on the counterexample (99)
    fd, phase = (total_count(catalog[name], 3200.0, engine=e)
                 for e in ("fd", "pruefer"))
    assert fd.per_channel == phase.per_channel
    assert (fd.total, fd.radial_dirichlet_count, fd.uncertainty) == (
        phase.total, phase.radial_dirichlet_count, 0)
    assert set(fd.flags) <= channels.INFORMATIONAL_FLAGS


def test_disk_channel_count_at_alpha_1e7(catalog):
    # far below the point cap of the lead-in scan (708,000 points of
    # 3,000,000), the m = 0 channel still counts at alpha 1e7, as Bessel
    rep = channel_count(catalog["square-well"], 1e7, 0)
    assert rep.count == disk_channel_oracle(1e7, 0) == 1007
    assert rep.uncertainty == 0 and rep.flags == ()


def test_channel_counts_nonincreasing_in_m(catalog):
    b = total_count(catalog["square-well"], 200.0)
    counts = [b.per_channel[m] for m in sorted(b.per_channel)]
    assert all(a >= c for a, c in zip(counts, counts[1:]))
    assert b.m_max == max(m for m, v in b.per_channel.items() if v > 0)


def test_m_scan_brackets_everything(catalog):
    P = catalog["gaussian"]
    alpha = 60.0
    b = total_count(P, alpha)
    m_scan = b.extras["m_scan"]
    assert b.m_max < m_scan
    # mu1, the magnitude of the lowest line eigenvalue, from both engines;
    # m_scan is the first m with m^2 >= mu1
    mu1, mu1_fd = (-eigenvalues_below(to_log(P), alpha, engine=engine)[0]
                   for engine in ("pruefer", "fd"))
    assert mu1 == pytest.approx(mu1_fd, rel=1e-3)
    assert m_scan == math.ceil(math.sqrt(mu1))
    # any channel at or beyond the scan limit is empty by monotonicity
    assert channel_count(P, alpha, m_scan).count == 0


def test_channel_index_validated(catalog):
    with pytest.raises(ValueError):
        channel_count(catalog["gaussian"], 10.0, -1)
    with pytest.raises(ValueError):
        channel_count(catalog["gaussian"], 10.0, 1.5)


def test_sandwich_holds_across_catalog(catalog):
    for name in ("square-well", "gaussian", "annulus", "bump",
                 "counterexample"):
        for alpha in (9.0, 37.0, 120.0):
            rep = sandwich_check(catalog[name], alpha)
            assert rep["ok"], (name, alpha)
            assert rep["difference"] in (0, 1)


@st.composite
def _step_profiles(draw):
    # a disk or a ring well
    height, r_outer = draw(st.floats(0.1, 5.0)), draw(st.floats(0.2, 3.0))
    if draw(st.booleans()):
        return make_catalog_potential("square-well", {
            "height": height, "radius": r_outer})
    return make_catalog_potential("annulus-well", {
        "height": height, "r_outer": r_outer,
        "r_inner": draw(st.floats(0.05, 0.95)) * r_outer})


@settings(max_examples=40, deadline=None)
@given(P=st.one_of(_random_profiles(), _step_profiles()),
       alpha=st.floats(1.0, 400.0))
def test_sandwich_property_random_profiles(P, alpha):
    # on random tabulated, bump and step profiles the Dirichlet-at-0 route
    # drops at most one state of the plane count: sandwich_check passes,
    # and the difference is 0 or 1 outright
    b = total_count(P, alpha)
    rep = sandwich_check(P, alpha, breakdown=b)
    assert b.total - (b.radial_dirichlet_count + b.nonradial) in (0, 1), (
        alpha, b.per_channel, rep)


def test_tabulated_peak_off_the_samples_is_a_breakpoint():
    # a piece from r = 0 to a zero sample reads G = 0 at both ends and
    # peaks at r = 2/3 inside: that peak is a breakpoint, so the phase mesh
    # resolves it (the plane count raised "a mesh interval turns by 3.18
    # >= pi rad"), and both engines count the same, also where a larger
    # peak further out holds g_max
    for fs, want in (((3.0, 0.0, 0.0, 0.0), {17.0: 4, 100.0: 26}),
                     ((3.0, 0.0, 0.0, 1.0), {17.0: 17, 100.0: 94})):
        P = make_catalog_potential("tabulated", {"r": [0.0, 1.0, 2.0, 3.0],
                                                 "f": list(fs)})
        assert to_log(P).breakpoints[0] == pytest.approx(math.log(2 / 3))
        for alpha, n in want.items():
            b = total_count(P, alpha)
            assert b.total == total_count(P, alpha, engine="fd").total == n
            assert sandwich_check(P, alpha, breakdown=b)["ok"]


def test_bs_spectrum_is_the_disk_bessel_spectrum(catalog):
    # on the unit disk the Dirichlet-at-0 problem is the Dirichlet disk,
    # whose couplings are j_{0,k}^2: every companion value above 1/alpha
    # is 1/j_{0,k}^2 within 1e-9 relative, and there are as many
    G = to_log(catalog["square-well"], strict=False)
    want = 1.0 / jn_zeros(0, 40) ** 2
    for alpha in (10.0, 50.0, 400.0, 3200.0):
        lam, _ = bs_spectrum(G, floor=1.0 / alpha)
        k = int(np.sum(lam > 1.0 / alpha))
        assert k == int(np.sum(want > 1.0 / alpha)) > 0, alpha
        np.testing.assert_allclose(lam[:k], want[:k], rtol=1e-9, atol=0.0,
                                   err_msg=str(alpha))


def test_duality_exact_on_shared_grid(catalog):
    for name in ("square-well", "gaussian", "annulus"):
        for alpha in (8.0, 50.0):
            rep = bs_duality_check(catalog[name], alpha)
            assert rep["ok"], (name, alpha)
            assert rep["count_spectrum"] == rep["count_direct"]


@pytest.mark.parametrize("kind, params", [
    ("square-well", {"radius": 0.1728840350480831}),
    ("gaussian", {"width": 0.08121264674759256})])
def test_duality_just_below_thresholds_on_a_grid_sized_once(kind, params):
    # 1e-7 below each of the first three thresholds 1/lambda_k of these
    # profiles, both routes count k states on the check's one pencil, with
    # no doubt flag
    P = make_catalog_potential(kind, params)
    lam, _ = bs_spectrum(to_log(P, strict=False), floor=1.0 / 4000.0)
    for k in range(3):
        rep = bs_duality_check(P, (1.0 / lam[k]) * (1.0 - 1e-7))
        assert rep["count_direct"] == rep["count_spectrum"] == k, k
        assert rep["ok"] and rep["uncertainty"] == 0, k
        assert rep["flags"] == [], k


@pytest.mark.parametrize("doubt", ("pivot-shift", "lambda-near-threshold"))
def test_sandwich_violation_raises_unless_in_doubt(catalog, doubt):
    # a Dirichlet route one above the total violates the sandwich: an
    # informational flag does not excuse it, a doubt flag does only with an
    # uncertainty that covers the violation
    b = total_count(catalog["square-well"], 37.0)
    off = dataclasses.replace(b, radial_dirichlet_count=b.total
                              - b.nonradial + 1, uncertainty=0)
    informational = ("below-spectrum", "domain-truncated", "zero-potential")
    for flags, unc in (((), 0), (("domain-truncated",), 0),
                       (informational, 0), (informational, 1),
                       (("domain-truncated", doubt), 0)):
        with pytest.raises(channels.ChannelConsistencyError):
            sandwich_check(None, 37.0, breakdown=dataclasses.replace(
                off, flags=flags, uncertainty=unc))
    rep = sandwich_check(None, 37.0, breakdown=dataclasses.replace(
        off, flags=("domain-truncated", doubt), uncertainty=1))
    assert not rep["ok"] and rep["difference"] == -1


def test_duality_violation_raises_unless_in_doubt(catalog, monkeypatch):
    # the slow tail's report carries domain-truncated; one more state on
    # the spectrum route is a mismatch that only a doubt flag excuses, and
    # only with an uncertainty that covers it: a value moved just above
    # 1/alpha flags lambda-near-threshold with uncertainty 1, one moved far
    # above it nothing
    P = catalog["counterexample"]
    want = bs_duality_check(P, 20.0)
    assert want["ok"] and want["flags"] == ["domain-truncated"]
    assert want["uncertainty"] == 0
    solve = channels.bs_spectrum

    def moved(value):
        def spectrum(*args, **kw):
            lam, meta = solve(*args, **kw)
            lam = lam.copy()
            lam[want["count_spectrum"]] = value
            return lam, meta
        return spectrum

    with monkeypatch.context() as mp:
        mp.setattr("radcount.channels.bs_spectrum", moved(2.0 / 20.0))
        c = want["count_direct"]
        with pytest.raises(channels.ChannelConsistencyError,
                           match=f"spectrum route {c + 1}, direct route {c},"):
            bs_duality_check(P, 20.0)
    monkeypatch.setattr("radcount.channels.bs_spectrum",
                        moved((1.0 + 1e-10) / 20.0))
    rep = bs_duality_check(P, 20.0)
    assert not rep["ok"] and rep["uncertainty"] == 1
    assert rep["count_spectrum"] == want["count_spectrum"] + 1
    assert rep["count_direct"] == want["count_direct"]
    assert rep["flags"] == ["lambda-near-threshold", "domain-truncated"]


def test_duality_past_48_values_counts_every_state(catalog):
    # past 48 states the spectrum counts every state of the Dirichlet-at-0
    # problem, as the phase engine does, and both routes agree on one
    # pencil
    for name, alpha in (("counterexample", 3200.0), ("gaussian", 1e5)):
        rep = bs_duality_check(catalog[name], alpha)
        want = total_count(catalog[name], alpha).radial_dirichlet_count
        assert rep["count_spectrum"] == rep["count_direct"] == want > 48
        assert rep["ok"] and rep["uncertainty"] == 0
    assert rep["flags"] == []
    assert "spectrum-short" not in channels.INFORMATIONAL_FLAGS


@pytest.mark.parametrize("name", [
    "square-well", "annulus", "gaussian", "bump", "counterexample",
    "counterexample-damped", "counterexample-damped-strong"])
def test_duality_reports_match_a_full_spectrum(catalog, monkeypatch, name):
    # the report read from the pencil laid out for the check's coupling is
    # the one read from a pencil laid out for twice that coupling, which
    # resolves more of the spectrum: counts, uncertainty and flags, at
    # couplings shallow and deep
    P = catalog[name]
    alphas = (3.0, 10.0, 50.0, 800.0, 3200.0)

    def checks():
        return [{k: v for k, v in bs_duality_check(P, a).items()
                 if k != "n_nodes"} for a in alphas]

    got = checks()
    solve = channels.bs_spectrum

    def finer(G, *, floor):
        return solve(G, floor=floor / 2.0)

    monkeypatch.setattr("radcount.channels.bs_spectrum", finer)
    assert got == checks()


@pytest.mark.parametrize("name", [
    "square-well", "annulus", "gaussian", "bump", "counterexample",
    "counterexample-damped", "counterexample-damped-strong"])
def test_half_line_count_is_the_dirichlet_routes_right_side(catalog, name):
    # verify's Bargmann check reads total_count's right side in place of a
    # half-line Dirichlet count: the two are the same pass
    P = catalog[name]
    G = to_log(P, strict=False)
    for alpha in (3.0, 10.0, 50.0, 200.0, 3200.0):
        half = count_below(G, alpha, channel_energy(G, alpha),
                           BoundaryMode.HALF_LINE_DIRICHLET)
        assert total_count(P, alpha).extras["right"] == half.count, alpha


def test_nonradial_empty_below_coupling_one_over_j(catalog):
    # the nonradial count is bounded by alpha * J, so alpha * J < 1
    # forces every m != 0 channel to be empty
    P = catalog["square-well"]   # J = 1/2
    b = total_count(P, 1.5)
    assert b.nonradial == 0
    assert b.total == b.per_channel[0]


def test_zero_potential_breakdown(catalog):
    b = total_count(catalog["zero"], 100.0)
    assert b.total == 0
    assert b.nonradial == 0
    assert "zero-potential" in b.flags


@pytest.mark.parametrize("engine", ["pruefer", "fd"])
def test_non_positive_alpha_is_refused(catalog, engine):
    # alpha <= 0 (or not finite) raises the engines' error in every
    # route that reads a channel energy; only G = 0 at alpha > 0 reads as
    # a zero potential
    for alpha in (0.0, -0.0, -5.0, math.inf, math.nan):
        for P in (catalog["gaussian"], catalog["zero"]):
            with pytest.raises(ValueError, match="need alpha > 0"):
                total_count(P, alpha, engine=engine)
            with pytest.raises(ValueError, match="need alpha > 0"):
                channel_count(P, alpha, 0, engine=engine)
            with pytest.raises(ValueError, match="need alpha > 0"):
                channel_energy(to_log(P, strict=False), alpha)
    G = to_log(catalog["zero"], strict=False)
    assert channel_energy(G, 5.0) is None
    b = total_count(catalog["zero"], 5.0, engine=engine)
    assert (b.total, b.flags) == (0, ("zero-potential",))


def test_breakdown_dataclass_shape(catalog):
    P = catalog["annulus"]
    b = total_count(P, 30.0)
    assert isinstance(b, ChannelBreakdown)
    assert b.total == b.per_channel[0] + b.nonradial
    assert b.extras["m_scan"] >= b.m_max
    ev = eigenvalues_below(to_log(P), 30.0)[:1]
    assert len(ev) == 1 and -ev[0] > 0.0


@pytest.mark.parametrize("name, alpha, passes, steps, total, per", [
    ("counterexample", 5.0, [3], 951, 2, {0: 2, 1: 0}),
    ("square-well", 200.0, [17], 3178, 51,
     {0: 5, 1: 4, 2: 4, 3: 3, 4: 3, 5: 2, 6: 2, 7: 2, 8: 1, 9: 1, 10: 1,
      11: 0}),
], ids=["slowtail-5", "disk-200"])
def test_total_count_work(catalog, monkeypatch, name, alpha, passes, steps,
                          total, per):
    # one batch of passes: every channel with m^2 < alpha g_max (at most
    # 16 in the first batch), and the two Dirichlet-at-0 passes; the
    # counts past the first empty channel are dropped. No bisection for
    # the lowest eigenvalue
    b, seen = _phase_batches(catalog, monkeypatch, name, alpha)
    assert [len(out) for out in seen] == passes
    assert sum(n for out in seen for _, n, _ in out) == steps
    assert b.total == total
    assert b.per_channel == per
    assert b.extras["m_scan"] == max(per)


def _phase_batches(catalog, monkeypatch, name, alpha):
    """total_count by the phase engine, and the (theta, steps, settled) of
    the passes of each batch it swept."""
    seen = []
    settle = spectral1d._pass_phases

    def batch(*args):
        seen.append(settle(*args))
        return seen[-1]

    monkeypatch.setattr(spectral1d, "_pass_phases", batch)
    return total_count(catalog[name], alpha), seen


def test_total_count_phase_steps_disk_3200(catalog, monkeypatch):
    # the work of the phase engine at disk alpha=3200: two batches, of 16
    # channels and the Dirichlet pair, then of channels 16..56 (up to
    # 56^2 < 3200; 51 is the first empty one), sweep 20528 mesh intervals
    # in all, bisections included, each pass running only from the lead-in
    # start to the support end t = 0
    b, seen = _phase_batches(catalog, monkeypatch, "square-well", 3200.0)
    assert b.total == 806 and b.uncertainty == 0 and not b.flags
    assert [len(out) for out in seen] == [18, 41]
    assert sum(n for out in seen for _, n, _ in out) == 20528


def test_total_count_phase_steps_slowtail_5(catalog, monkeypatch):
    # on the slow tail at alpha=5, |w| stays below 1e-2 over most of the
    # ~2000-wide window: a mesh rule absolute in w, not floored at a unit
    # scale, covers it in 951 mesh intervals for the 3 passes (m = 0 and
    # the Dirichlet pair; m = 1 is below the spectrum), bisections included
    b, seen = _phase_batches(catalog, monkeypatch, "counterexample", 5.0)
    assert (b.total, b.per_channel, b.uncertainty) == (2, {0: 2, 1: 0}, 0)
    assert [len(out) for out in seen] == [3]
    assert sum(n for out in seen for _, n, _ in out) == 951


def _fd_batches(catalog, monkeypatch, name, alpha):
    """total_count by the inertia engine, and the counts of each batch it
    sent (count_batch_fd)."""
    seen = []
    batch = channels.count_batch_fd

    def counting(*args):
        seen.append(batch(*args))
        return seen[-1]

    monkeypatch.setattr(channels, "count_batch_fd", counting)
    return total_count(catalog[name], alpha, engine="fd"), seen


def test_fd_sturm_work_disk_3200(catalog, monkeypatch):
    # the work of the inertia engine at disk alpha=3200: two batches, of
    # 16 channels and the Dirichlet-at-0 count, then of channels 16..56
    # (51 is the first empty one), on one layout of 25 elements; the 59
    # counts take 3014 vertex pivots in all (at E -/+ delta, whose counts
    # agree, so none at E), where the FD grid's 53 counts swept 150802;
    # every channel count is the Bessel oracle's
    b, seen = _fd_batches(catalog, monkeypatch, "square-well", 3200.0)
    per, total = disk_total_oracle(3200.0)
    assert b.total == total == 806 and b.uncertainty == 0 and not b.flags
    assert b.per_channel == per
    assert [len(out) for out in seen] == [17, 42]
    counts = [r for out in seen for r in out]
    assert sum(r.extras.get("n_nodes", 0) for r in counts) == 14557
    assert sum(r.steps for r in counts) == 3014


@pytest.mark.parametrize("name, batches, total, nodes, pivots", [
    ("counterexample", [8], 99, 3796, 770),
    ("bump", [17, 64, 45], 3874, 37624, 7748),
], ids=["counterexample-3200", "bump-3200"])
def test_fd_sturm_work_at_3200(catalog, monkeypatch, name, batches, total,
                               nodes, pivots):
    # the slow tail, whose G > 0 runs to the span's end, and the bump, with
    # 124 channels: the counts of each batch, the nodes they count and the
    # vertex pivots of their probes (the FD grid swept 361830 and 243089
    # pivots)
    b, seen = _fd_batches(catalog, monkeypatch, name, 3200.0)
    assert b.total == total and b.uncertainty == 0
    assert set(b.flags) <= channels.INFORMATIONAL_FLAGS
    assert [len(out) for out in seen] == batches
    counts = [r for out in seen for r in out]
    assert sum(r.extras.get("n_nodes", 0) for r in counts) == nodes
    assert sum(r.steps for r in counts) == pivots


@pytest.mark.parametrize("engine", ["pruefer", "fd"])
@pytest.mark.parametrize("name", _CATALOG_NAMES)
def test_total_counts_is_total_count_at_each_coupling(catalog, name,
                                                      engine):
    # couplings out of order, one repeated, over more than a decade (two
    # batches), and one at which every channel m >= 1 is below the
    # spectrum (alpha max G = 1/2): each breakdown is that of its coupling
    # counted alone, field for field
    P = catalog[name]
    g_max = to_log(P, strict=False).g_max
    alphas = [800.0, 3.0, 0.5 / (g_max or 1.0), 25.0, 3.0, 200.0]
    got = total_counts(P, alphas, engine=engine)
    assert len(got) == len(alphas)
    for a, b in zip(alphas, got):
        want = total_count(P, a, engine=engine)
        assert dataclasses.asdict(b) == dataclasses.asdict(want), a


def test_total_counts_batches_within_a_decade(catalog, monkeypatch):
    # the distinct couplings, ascending, in batches within a factor 10 of
    # their first: 3 with 25 (and 3 again), then 200 with 800
    batches = []
    rounds = channels._channel_counts

    def spy(G, alphas, engine):
        batches.append(list(alphas))
        return rounds(G, alphas, engine)

    monkeypatch.setattr(channels, "_channel_counts", spy)
    total_counts(catalog["square-well"], [800.0, 3.0, 25.0, 3.0, 200.0])
    assert batches == [[3.0, 25.0], [200.0, 800.0]]
    assert channels._decades([1.0, 10.0, 10.0, 10.5, 100.0]) == [
        [1.0, 10.0, 10.0], [10.5, 100.0]]


def test_fd_batch_counts_each_coupling_and_mode_in_one_call(monkeypatch):
    # a plane count's inertia batch counts the E -/+ delta probes of every
    # query at one (coupling, mode) in one counts_at call, and counts again
    # at E, in at most one more call, only the queries whose probes do not
    # decide; the disk at 40, 100 and 400 is one batch, in two rounds
    P = load_bundled("square-well")
    asked, calls = [], []
    batch, build = channels.count_batch_fd, spectral1d._counters

    def counting(G, queries):
        asked.append({})
        for a, E, mode in queries:
            if a * G.g_max + E > 0.0:
                key = (a, BoundaryMode(mode))
                asked[-1][key] = asked[-1].get(key, 0) + 1
        return batch(G, queries)

    def spy(pencil, alphas):
        calls.append({})

        def wrap(alpha, counts_at):
            def at(mode, energies):
                calls[-1].setdefault((alpha, mode), []).append(len(energies))
                return counts_at(mode, energies)
            return at
        return [wrap(a, c) for a, c in zip(alphas, build(pencil, alphas))]

    monkeypatch.setattr(channels, "count_batch_fd", counting)
    monkeypatch.setattr(spectral1d, "_counters", spy)
    got = total_counts(P, [400.0, 40.0, 100.0], engine="fd")
    assert [b.total for b in got] == [disk_total_oracle(a)[1]
                                      for a in (400.0, 40.0, 100.0)]
    assert len(asked) == len(calls) == 2
    for queries, made in zip(asked, calls):
        assert set(made) == set(queries)
        for key, n in queries.items():
            assert made[key][0] == 2 * n and len(made[key]) <= 2, key
            assert made[key][1:] <= [n], key


def test_annulus_3200_has_no_step_floor(catalog):
    # both jumps of G are mesh nodes, and every pass settles under
    # bisection: 2415 states, uncertainty 0, no flag
    b = total_count(catalog["annulus"], 3200.0)
    assert (b.total, b.uncertainty, b.flags) == (2415, 0, ())


def _flag_literals(tree) -> set[str]:
    """String constants that a module puts into flags: appended to a
    `flags` list, assigned or added to a name ending in `flags`, passed as
    `flags=` or stored under a "flags" key."""
    found = set()

    def strings(node):
        return {n.value for n in ast.walk(node)
                if isinstance(n, ast.Constant) and isinstance(n.value, str)}

    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "append"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "flags"):
            found |= strings(node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            if node.value is not None and any(
                    isinstance(t, ast.Name) and t.id.lower().endswith("flags")
                    for t in targets):
                found |= strings(node.value)
        elif isinstance(node, ast.keyword) and node.arg == "flags":
            found |= strings(node.value)
        elif isinstance(node, ast.Dict):
            for k, v in zip(node.keys, node.values):
                if isinstance(k, ast.Constant) and k.value == "flags":
                    found |= strings(v)
    return found


def test_every_flag_is_in_the_readme_table():
    # the README's flag table lists exactly the flags src/ raises, and its
    # informational rows are channels.INFORMATIONAL_FLAGS
    root = Path(__file__).resolve().parents[1]
    emitted = set()
    for path in sorted((root / "src" / "radcount").glob("*.py")):
        emitted |= _flag_literals(ast.parse(path.read_text()))
    rows = re.findall(r"^\| `([a-z-]+)` \| (informational|doubt) \|",
                      (root / "README.md").read_text(), re.MULTILINE)
    table = dict(rows)
    assert len(rows) == len(table) == 8
    assert emitted == set(table)
    assert {f for f, kind in rows if kind == "informational"} == \
        channels.INFORMATIONAL_FLAGS
