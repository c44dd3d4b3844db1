"""Angular decomposition against the Bessel oracle.

For the disk well the per-channel counts have a closed form: channel m
holds one bound state per positive zero of J_m below sqrt(alpha), plus one
more when the boundary log-derivative sqrt(alpha) J_m'(sqrt(alpha)) /
J_m(sqrt(alpha)) lies below -m.  That formula never touches our ODE or
matrix code, so agreement here validates the whole counting pipeline.
"""
import dataclasses

import numpy as np
import pytest
from scipy.special import jn_zeros, jv, jvp

from radcount import (
    BoundaryMode,
    ChannelBreakdown,
    bs_duality_check,
    channel_count,
    channel_cutoff,
    count_below,
    eigenvalues_below,
    sandwich_check,
    to_log,
    total_count,
)
from radcount import channels
from radcount.spectral1d import GridSpec, counting_domain, threshold_eps


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


def test_disk_well_totals_both_engines(catalog):
    P = catalog["square-well"]
    for alpha, want in ((25.0, None), (200.0, 51)):
        _, oracle = disk_total_oracle(alpha)
        if want is not None:
            assert oracle == want
        for engine in ("pruefer", "fd"):
            assert total_count(P, alpha, engine=engine).total == oracle, \
                (alpha, engine)


def test_disk_well_alpha_400_needs_fine_grid_for_fd(catalog):
    # at alpha = 400 two channels bind only barely (the 2D binding energy
    # near onset is exponentially small), and the default fd grid shifts
    # them above the counting energy; the phase engine and a refined fd
    # grid both recover the oracle total
    P = catalog["square-well"]
    _, oracle = disk_total_oracle(400.0)
    assert oracle == 105
    assert total_count(P, 400.0).total == 105
    coarse = total_count(P, 400.0, engine="fd")
    assert 103 <= coarse.total <= 105
    fine = total_count(P, 400.0, engine="fd", grid=GridSpec(h=1e-3))
    assert fine.total == 105


def test_channel_counts_nonincreasing_in_m(catalog):
    b = total_count(catalog["square-well"], 200.0)
    counts = [b.per_channel[m] for m in sorted(b.per_channel)]
    assert all(a >= c for a, c in zip(counts, counts[1:]))
    assert b.m_max == max(m for m, v in b.per_channel.items() if v > 0)


def test_channel_cutoff_brackets_everything(catalog):
    P = catalog["gaussian"]
    alpha = 60.0
    m_scan, mu1 = channel_cutoff(P, alpha)
    b = total_count(P, alpha)
    assert b.m_max < m_scan
    # mu1 is the magnitude of the lowest line eigenvalue
    ev, _ = eigenvalues_below(to_log(P), alpha, n_max=1, engine="fd")
    assert mu1 == pytest.approx(-ev[0], rel=1e-3)
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


def test_duality_exact_on_shared_grid(catalog):
    for name in ("square-well", "gaussian", "annulus"):
        for alpha in (8.0, 50.0):
            rep = bs_duality_check(catalog[name], alpha)
            assert rep["ok"], (name, alpha)
            assert rep["count_spectrum"] == rep["count_direct"]


@pytest.mark.parametrize("doubt", ("pivot-shift", "lambda-near-threshold"))
def test_sandwich_violation_raises_unless_in_doubt(catalog, doubt):
    # a Dirichlet route one above the total violates the sandwich: an
    # informational flag does not excuse it, a doubt flag does only with an
    # uncertainty that covers the violation
    b = total_count(catalog["square-well"], 37.0)
    off = dataclasses.replace(b, radial_dirichlet_count=b.total
                              - b.nonradial + 1, uncertainty=0)
    for flags in ((), ("domain-truncated",),
                  ("below-spectrum", "domain-truncated", "zero-potential"),
                  ("domain-truncated", doubt)):
        with pytest.raises(channels.ChannelConsistencyError):
            sandwich_check(None, 37.0, breakdown=dataclasses.replace(
                off, flags=flags))
    rep = sandwich_check(None, 37.0, breakdown=dataclasses.replace(
        off, flags=("domain-truncated", doubt), uncertainty=1))
    assert not rep["ok"] and rep["difference"] == -1


def test_duality_violation_raises_unless_in_doubt(catalog, monkeypatch):
    # the slow tail's direct count carries domain-truncated; one more
    # state on either route is a mismatch that only a doubt flag excuses
    P = catalog["counterexample"]
    want = bs_duality_check(P, 20.0)
    assert want["ok"] and want["flags"] == ["domain-truncated"]
    direct = channels.count_below_fd

    def off_by_one(*extra):
        def count(*args, **kw):
            r = direct(*args, **kw)
            return dataclasses.replace(r, count=r.count + 1,
                                       flags=r.flags + extra)
        return count

    with monkeypatch.context() as mp:
        mp.setattr("radcount.channels.count_below_fd", off_by_one())
        with pytest.raises(channels.ChannelConsistencyError):
            bs_duality_check(P, 20.0)
        mp.setattr("radcount.channels.count_below_fd",
                   off_by_one("pivot-shift"))
        rep = bs_duality_check(P, 20.0)
        assert not rep["ok"]
        assert rep["count_direct"] == want["count_direct"] + 1
    # the first companion eigenvalue below 1/alpha moved just above it
    solve = channels.bs_spectrum

    def spectrum(*args, **kw):
        lam, meta = solve(*args, **kw)
        lam = lam.copy()
        lam[want["count_spectrum"]] = (1.0 + 1e-10) / 20.0
        return lam, meta

    monkeypatch.setattr("radcount.channels.bs_spectrum", spectrum)
    rep = bs_duality_check(P, 20.0)
    assert not rep["ok"]
    assert rep["count_spectrum"] == want["count_spectrum"] + 1
    assert rep["flags"] == ["lambda-near-threshold", "domain-truncated"]


def test_duality_reuses_one_spectrum_per_window(catalog, monkeypatch):
    # the companion spectrum does not depend on alpha: checks that share a
    # dict solve it once per (counting window, n_max, grid), each runs its
    # own direct count, and the reports equal those of unshared checks
    P = catalog["square-well"]
    want = [bs_duality_check(P, a) for a in (10.0, 50.0)]
    solved, direct = [], []

    def spy(calls, fn):
        def wrapped(*args, **kw):
            calls.append(kw.get("n_max"))
            return fn(*args, **kw)
        return wrapped

    monkeypatch.setattr("radcount.channels.bs_spectrum",
                        spy(solved, channels.bs_spectrum))
    monkeypatch.setattr("radcount.channels.count_below_fd",
                        spy(direct, channels.count_below_fd))
    spectra = {}
    got = [bs_duality_check(P, a, spectra=spectra) for a in (10.0, 50.0)]
    assert got == want
    assert solved == [48] and len(direct) == 2
    G = to_log(P, strict=False)
    window = counting_domain(G, 10.0, -threshold_eps(G, 10.0),
                             BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0)
    assert list(spectra) == [(window, 48, GridSpec())]
    bs_duality_check(P, 10.0, n_max=24, spectra=spectra)
    assert solved == [48, 24] and len(direct) == 3


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


def test_breakdown_dataclass_shape(catalog):
    P = catalog["annulus"]
    b = total_count(P, 30.0)
    assert isinstance(b, ChannelBreakdown)
    assert b.total == b.per_channel[0] + b.nonradial
    assert b.extras["m_scan"] >= b.m_max
    assert channel_cutoff(P, 30.0)[1] > 0.0


@pytest.mark.parametrize("name, alpha, calls, total, per", [
    ("counterexample", 5.0, 3, 2, {0: 2, 1: 0}),
    ("square-well", 200.0, 13, 51,
     {0: 5, 1: 4, 2: 4, 3: 3, 4: 3, 5: 2, 6: 2, 7: 2, 8: 1, 9: 1, 10: 1,
      11: 0}),
], ids=["slowtail-5", "disk-200"])
def test_total_count_work(catalog, monkeypatch, name, alpha, calls, total,
                          per):
    # one count per channel up to the first empty one, plus the Dirichlet
    # count; no bisection for the lowest eigenvalue
    seen = []

    def counting(*args, **kw):
        seen.append(args)
        return count_below(*args, **kw)

    monkeypatch.setattr("radcount.channels.count_below", counting)
    b = total_count(catalog[name], alpha)
    assert len(seen) == calls
    assert b.total == total
    assert b.per_channel == per
    assert b.extras["m_scan"] == max(per)


def test_total_count_phase_steps_disk_3200(catalog, monkeypatch):
    # the work of the phase engine at disk alpha=3200: 53 counts (m = 0..51
    # and the Dirichlet count) take 29400 RK steps in all, the kernel
    # running only from the lead-in start to the support end t = 0
    seen = []

    def counting(*args, **kw):
        seen.append(count_below(*args, **kw))
        return seen[-1]

    monkeypatch.setattr("radcount.channels.count_below", counting)
    b = total_count(catalog["square-well"], 3200.0)
    assert b.total == 806 and b.uncertainty == 0 and not b.flags
    assert len(seen) == 53
    assert sum(r.steps for r in seen) == 29400


def test_fd_sturm_work_disk_3200(catalog, monkeypatch):
    # the work of the fd engine at disk alpha=3200: the 53 counts sweep
    # 226203 pivots in all (at E and E -/+ delta), only from the lead-in or
    # the end of the constant head up to the support end t = 0, out of
    # 3 x 581203 grid nodes; every channel count is the Bessel oracle's
    seen = []

    def counting(*args, **kw):
        seen.append(count_below(*args, **kw))
        return seen[-1]

    monkeypatch.setattr("radcount.channels.count_below", counting)
    b = total_count(catalog["square-well"], 3200.0, engine="fd")
    per, total = disk_total_oracle(3200.0)
    assert b.total == total == 806 and b.uncertainty == 0 and not b.flags
    assert b.per_channel == per
    assert len(seen) == 53
    assert sum(r.extras["n_nodes"] for r in seen) == 581203
    assert sum(r.steps for r in seen) == 226203


@pytest.mark.parametrize("name, counts, total, nodes, pivots", [
    ("counterexample", 7, 98, 696463, 542745),
    ("bump", 125, 3874, 519945, 364632),
])
def test_fd_sturm_work_at_3200(catalog, monkeypatch, name, counts, total,
                               nodes, pivots):
    # past the last allowed node the sweep stops at the first pivot >= 1;
    # on the slow tail, whose G > 0 runs to the window end, that cuts the
    # swept pivots from 2071755 to 542745 (bump: 394500 to 364632)
    seen = []

    def counting(*args, **kw):
        seen.append(count_below(*args, **kw))
        return seen[-1]

    monkeypatch.setattr("radcount.channels.count_below", counting)
    b = total_count(catalog[name], 3200.0, engine="fd")
    assert b.total == total and b.uncertainty == 0
    assert set(b.flags) <= channels.INFORMATIONAL_FLAGS
    assert len(seen) == counts
    assert sum(r.extras["n_nodes"] for r in seen) == nodes
    assert sum(r.steps for r in seen) == pivots


def test_annulus_3200_has_no_step_floor(catalog):
    # the last step of every piece lands on the piece end, so a rounding
    # residue before a breakpoint is no floored step
    b = total_count(catalog["annulus"], 3200.0)
    assert (b.total, b.uncertainty, b.flags) == (2415, 0, ())
