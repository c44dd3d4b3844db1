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
from scipy.special import jn_zeros, jv, jvp

from radcount import (
    BoundaryMode,
    ChannelBreakdown,
    bs_duality_check,
    channel_count,
    count_below,
    eigenvalues_below,
    sandwich_check,
    to_log,
    total_count,
)
from radcount import channels, spectral1d
from radcount.spectral1d import (bs_spectrum, channel_energy, counting_domain,
                                 threshold_eps)
from rk_phase import count_below_rk


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
    # The fd engine stays out: its grid samples the jump of G at the disk
    # edge from one side, and it misses at 32 of these couplings
    P = catalog["square-well"]
    for alpha in np.geomspace(25.0, 3200.0, 200):
        b = total_count(P, float(alpha))
        per, total = disk_total_oracle(float(alpha))
        assert b.per_channel == per, alpha
        assert (b.total, b.uncertainty, b.flags) == (total, 0, ()), alpha


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
    fine = total_count(P, 400.0, engine="fd", h=1e-3)
    assert fine.total == 105


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
    mu1, mu1_fd = (-eigenvalues_below(to_log(P), alpha, n_max=1,
                                      engine=engine)[0][0]
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
    # the slow tail's direct count carries domain-truncated; one more
    # state on either route is a mismatch that only a doubt flag excuses,
    # and only with an uncertainty that covers it
    P = catalog["counterexample"]
    want = bs_duality_check(P, 20.0)
    assert want["ok"] and want["flags"] == ["domain-truncated"]
    assert want["uncertainty"] == 0
    direct = channels.count_below_fd

    def off_by_one(*extra, uncertainty=0):
        def count(*args, **kw):
            r = direct(*args, **kw)
            return dataclasses.replace(r, count=r.count + 1,
                                       flags=r.flags + extra,
                                       uncertainty=uncertainty)
        return count

    with monkeypatch.context() as mp:
        for extra, unc in (((), 0), ((), 1), (("pivot-shift",), 0)):
            mp.setattr("radcount.channels.count_below_fd",
                       off_by_one(*extra, uncertainty=unc))
            with pytest.raises(channels.ChannelConsistencyError):
                bs_duality_check(P, 20.0)
        mp.setattr("radcount.channels.count_below_fd",
                   off_by_one("pivot-shift", uncertainty=1))
        rep = bs_duality_check(P, 20.0)
        assert not rep["ok"] and rep["uncertainty"] == 1
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
    assert not rep["ok"] and rep["uncertainty"] == 1
    assert rep["count_spectrum"] == want["count_spectrum"] + 1
    assert rep["flags"] == ["lambda-near-threshold", "domain-truncated"]


def test_duality_reuses_one_spectrum_per_window(catalog, monkeypatch):
    # the companion spectrum and its window do not depend on alpha: checks
    # that share a dict solve it once per n_max, each runs its own direct
    # count, and the reports equal those of unshared checks
    P = catalog["square-well"]
    alphas = (10.0, 50.0, 3200.0)
    want = [bs_duality_check(P, a) for a in alphas]
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
    got = [bs_duality_check(P, a, spectra=spectra) for a in alphas]
    assert got == want
    assert solved == [48] and len(direct) == 3
    assert list(spectra) == [48]
    G = to_log(P, strict=False)
    window = counting_domain(G, 10.0, -threshold_eps(G, 10.0),
                             BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0)
    lam, meta = bs_spectrum(G, BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0,
                            domain=window, n_max=48)
    assert meta == spectra[48][1] and np.array_equal(lam, spectra[48][0])
    bs_duality_check(P, 10.0, n_max=24, spectra=spectra)
    assert solved == [48, 24] and len(direct) == 4


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
    ev, _ = eigenvalues_below(to_log(P), 30.0, n_max=1)
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


def test_fd_sturm_work_disk_3200(catalog, monkeypatch):
    # the work of the fd engine at disk alpha=3200: the 53 counts sweep
    # 150802 pivots in all (at E -/+ delta, whose counts agree, so none at
    # E; 226203 with E swept too), only from the lead-in or the end of the
    # constant head up to the support end t = 0, out of 2 x 581203 grid
    # nodes; every channel count is the Bessel oracle's
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
    assert sum(r.steps for r in seen) == 150802


@pytest.mark.parametrize("name, counts, total, nodes, pivots", [
    ("counterexample", 7, 98, 696463, 361830),
    ("bump", 125, 3874, 519945, 243089),
])
def test_fd_sturm_work_at_3200(catalog, monkeypatch, name, counts, total,
                               nodes, pivots):
    # past the last allowed node the sweep stops at the first pivot >= 1;
    # on the slow tail, whose G > 0 runs to the window end, that cut the
    # swept pivots of three sweeps from 2071755 to 542745 (bump: 394500 to
    # 364632); the two agreeing probes alone sweep 361830 (bump: 243089)
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
    # both jumps of G are mesh nodes, and every pass settles under
    # bisection: 2415 states, uncertainty 0, no flag
    b = total_count(catalog["annulus"], 3200.0)
    assert (b.total, b.uncertainty, b.flags) == (2415, 0, ())


def _flag_literals(tree) -> set[str]:
    """String constants that a module puts into flags: appended to a
    `flags` list, assigned to a name ending in `flags`, passed as `flags=`
    or stored under a "flags" key."""
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
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
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
    assert len(rows) == len(table) == 9
    assert emitted == set(table)
    assert {f for f, kind in rows if kind == "informational"} == \
        channels.INFORMATIONAL_FLAGS
