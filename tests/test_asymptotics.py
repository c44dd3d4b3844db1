"""Sweeps, the N/alpha tail, and the two-sided tail-level link."""
import csv
import io
import math

import pytest

from radcount import (
    classify,
    delta_link_check,
    sweep,
    to_log,
    weyl_coefficient,
    weyl_verdict,
    zeta_sequence,
)
from radcount.asymptotics import CSV_COLUMNS, alpha_grid, limit_estimates
from radcount.bounds import bound_chad, bound_weak

CSV_HEADER = ("alpha,N,N_over_alpha,N_radial_dirichlet,N_nonradial,"
              "chad,chad_sharp,lt_nonradial,weak_bound")


def classify_potential(P):
    G = to_log(P, strict=False)
    return classify(zeta_sequence(G, 200))


def test_alpha_grid_geometric_with_both_ends():
    g = alpha_grid(10.0, 1000.0, per_decade=4)
    assert g[0] == 10.0
    assert g[-1] == pytest.approx(1000.0)
    ratios = [b / a for a, b in zip(g, g[1:])]
    assert all(r == pytest.approx(10.0 ** 0.25, rel=1e-9) for r in ratios)
    # a max that falls off the geometric ladder is appended
    g2 = alpha_grid(10.0, 42.0, per_decade=2)
    assert g2[-1] == 42.0
    with pytest.raises(ValueError):
        alpha_grid(10.0, 5.0)
    with pytest.raises(ValueError):
        alpha_grid(1.0, 10.0, per_decade=0)
    # 10 ** (k / per_decade) would overflow before passing an infinite max
    with pytest.raises(ValueError, match="finite"):
        alpha_grid(5.0, math.inf)
    # finite ends whose ladder still overflows: a span past 1e308, and a
    # max whose 1e-12 stopping margin is infinite
    for lo, hi in ((1e-300, 1e300), (1.0, 1.7976931348623157e308)):
        with pytest.raises(ValueError, match="overflows"):
            alpha_grid(lo, hi)


@pytest.fixture(scope="module")
def disk_sweep(catalog):
    return sweep(catalog["square-well"], alpha_grid(20.0, 200.0,
                                                    per_decade=4))


def test_sweep_rows_consistent(disk_sweep, catalog):
    T = disk_sweep
    assert len(T.rows) == len(T.alphas) == 5
    counts = [r.N for r in T.rows]
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    P = catalog["square-well"]
    for r in T.rows:
        assert r.N_over_alpha == pytest.approx(r.N / r.alpha, rel=1e-15)
        assert r.N == r.N_radial_dirichlet + r.N_nonradial \
            or r.N == r.N_radial_dirichlet + r.N_nonradial + 1
        # the cached-integral rows must equal the direct bound calls
        assert r.chad == pytest.approx(bound_chad(P, r.alpha), rel=1e-9)
        assert r.weak_bound == pytest.approx(bound_weak(P, r.alpha),
                                             rel=1e-9)
        assert r.uncertainty == 0


def test_sweep_csv_header_and_roundtrip(disk_sweep, tmp_path):
    text = disk_sweep.to_csv()
    assert text.splitlines()[0] == CSV_HEADER
    assert ",".join(CSV_COLUMNS) == CSV_HEADER
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == len(disk_sweep.rows)
    assert float(rows[-1]["alpha"]) == pytest.approx(200.0)
    assert int(rows[-1]["N"]) == disk_sweep.rows[-1].N
    out = tmp_path / "sweep.csv"
    disk_sweep.write_csv(str(out))
    assert out.read_text(encoding="utf-8") == text


def test_sweep_as_dict_shape(disk_sweep):
    d = disk_sweep.as_dict()
    assert d["kind"] == "square-well"
    assert d["weyl_coefficient"] == pytest.approx(0.25)
    assert len(d["ratio_deltas"]) == len(d["rows"]) - 1
    assert set(CSV_COLUMNS) <= set(d["rows"][0])


def test_sweep_budget_cuts_rows(catalog):
    T = sweep(catalog["square-well"], [5.0, 10.0, 20.0, 40.0],
              budget_seconds=1e-9)
    assert len(T.rows) == 1     # the first row always lands
    assert any("budget" in n for n in T.notes)


def test_fd_sweep_rows_are_the_phase_engines_on_the_slow_tail(catalog):
    # the slow tail at alpha 5..50, 4 per decade: every row's counts are
    # the phase engine's, none in doubt, the rows at 8.89, 15.81 and 28.12
    # included, where the FD grid's Dirichlet wall lost a state
    grid = alpha_grid(5.0, 50.0, per_decade=4)
    rows = [sweep(catalog["counterexample"], grid, engine=e).rows
            for e in ("fd", "pruefer")]
    assert [round(r.alpha, 2) for r in rows[0]] == [5.0, 8.89, 15.81, 28.12,
                                                     50.0]
    for fd, phase in zip(*rows):
        assert (fd.N, fd.N_radial_dirichlet, fd.N_nonradial, fd.uncertainty) \
            == (phase.N, phase.N_radial_dirichlet, phase.N_nonradial, 0)


def test_sweep_truncation_note(catalog):
    T = sweep(catalog["counterexample"], [5.0, 10.0])
    assert any("truncated" in n for n in T.notes)


def test_weyl_coefficient_values(catalog):
    assert weyl_coefficient(catalog["square-well"]) == pytest.approx(0.25)
    assert weyl_coefficient(catalog["annulus"]) == pytest.approx(0.75)
    assert weyl_coefficient(catalog["gaussian"]) == pytest.approx(0.25)
    assert weyl_coefficient(catalog["zero"]) == 0.0


def test_limit_estimates_windows(disk_sweep):
    up, lo = limit_estimates(disk_sweep)
    assert up >= lo
    # default window is the top half-decade: alpha >= 200/sqrt(10)
    tail_ratios = [r.N_over_alpha for r in disk_sweep.rows
                   if r.alpha >= 200.0 / math.sqrt(10.0)]
    assert up == max(tail_ratios) and lo == min(tail_ratios)


def test_weyl_verdict_disk_consistent(disk_sweep, catalog):
    P = catalog["square-well"]
    v = weyl_verdict(P, disk_sweep, classify_potential(P))
    assert v["verdict"] == "weyl-holds"
    assert v["sequence_circle"] == "yes"
    assert v["numeric_close"] is True
    assert v["assessment"] == "consistent"
    assert abs(v["tail_upper"] - 0.25) <= v["tol"]


def test_weyl_verdict_slow_tail_fails_weyl(catalog):
    P = catalog["counterexample"]
    T = sweep(P, alpha_grid(5.0, 50.0, per_decade=3))
    v = weyl_verdict(P, T, classify_potential(P))
    assert v["verdict"] == "weyl-fails"
    assert v["sequence_circle"] == "no"
    # the sweep cannot override the sequence; it only grades agreement
    want = "tension" if v["numeric_close"] else "consistent"
    assert v["assessment"] == want


def test_weyl_verdict_zero_trivial(catalog):
    P = catalog["zero"]
    T = sweep(P, [5.0, 50.0])
    v = weyl_verdict(P, T, classify_potential(P))
    assert v["verdict"] == "weyl-holds"
    assert v["tail_upper"] == 0.0 and v["tail_lower"] == 0.0
    assert v["assessment"] == "consistent"


def test_delta_link_vanishing_instances(catalog):
    # the implication is classify's tail-law verdict: the damped slow tail
    # holds the Weyl law (yes/yes), so its spectral sups must decay
    for name in ("square-well", "gaussian", "annulus", "bump",
                 "counterexample-damped"):
        rep = delta_link_check(catalog[name])
        assert rep["implication"] == "vanishing", name
        assert rep["holds"], name
        assert rep["evidence"]["sup_late"] <= rep["evidence"]["sup_early"]


def test_delta_link_nonvanishing_instances(catalog):
    # the slow tail fails the Weyl law (yes/no): its matched spectral
    # window must stay away from zero
    rep = delta_link_check(catalog["counterexample"])
    assert rep["implication"] == "nonvanishing"
    assert rep["holds"]
    lo, hi = rep["evidence"]["matched_window"]
    assert 1 <= lo < hi <= rep["n_modes"]
    assert rep["evidence"]["min_matched"] > 0.0


def test_delta_link_vacuous_for_zero(catalog):
    rep = delta_link_check(catalog["zero"])
    assert rep["implication"] == "vacuous"
    assert rep["holds"]


def test_delta_link_strong_damping_is_classified(catalog):
    rep = delta_link_check(catalog["counterexample-damped-strong"])
    assert rep["implication"] == "vanishing"
    assert rep["holds"]
