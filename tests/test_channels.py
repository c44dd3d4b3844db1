"""Angular decomposition against the Bessel oracle.

For the disk well the per-channel counts have a closed form: channel m
holds one bound state per positive zero of J_m below sqrt(alpha), plus one
more when the boundary log-derivative sqrt(alpha) J_m'(sqrt(alpha)) /
J_m(sqrt(alpha)) lies below -m.  That formula never touches our ODE or
matrix code, so agreement here validates the whole counting pipeline.
"""
import numpy as np
import pytest
from scipy.special import jn_zeros, jv, jvp

from radcount import (
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
from radcount.spectral1d import GridSpec


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
