"""Coupling sweeps and the constant-per-coupling limit.

`sweep` tabulates the bound-state count and every closed-form bound over
an alpha grid.  `weyl_coefficient` is the predicted limit of N/alpha,
half the integral J.  `limit_estimates` reports window extremes of
N/alpha over the top of the grid as finite-coupling surrogates for the
upper and lower limits (no finite sweep can produce the limits
themselves).  `weyl_verdict` confronts those surrogates with the block-
sequence verdict; the sequence criterion always has the last word, the
sweep only corroborates or records tension.  `delta_link_check` is the
window-level face of the same correspondence on the spectral side: the
tail level of k * zeta_k against the tail of n * lambda_n.
"""
from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .bounds import _chad, _weak, _weak_q, bound_lt_nonradial
from .channels import _decades, total_counts
from .potentials import RadialPotential, integral_logweight, to_log
from .spectral1d import bs_spectrum
from .weakseq import (WeakVerdict, ZetaSequence, classify, level_sup,
                      weak_level, zeta_sequence)

__all__ = [
    "CSV_COLUMNS",
    "SweepRow",
    "SweepTable",
    "alpha_grid",
    "sweep",
    "weyl_coefficient",
    "limit_estimates",
    "weyl_verdict",
    "delta_link_check",
]

# delta_link_check: a nonvanishing tail needs the matched spectral level
# >= AWAY_FRAC of the sequence's lower level
AWAY_FRAC = 0.02
# weyl_verdict: the sweep tail corroborates the coefficient J/2 within this
WEYL_TOL = 0.05

CSV_COLUMNS = ("alpha", "N", "N_over_alpha", "N_radial_dirichlet",
               "N_nonradial", "chad", "chad_sharp", "lt_nonradial",
               "weak_bound")


@dataclass
class SweepRow:
    alpha: float
    N: int
    N_over_alpha: float
    N_radial_dirichlet: int
    N_nonradial: int
    chad: float
    chad_sharp: float
    lt_nonradial: float
    weak_bound: float
    uncertainty: int = 0
    flags: tuple[str, ...] = ()

    def csv_values(self) -> list:
        return [self.alpha, self.N, self.N_over_alpha,
                self.N_radial_dirichlet, self.N_nonradial, self.chad,
                self.chad_sharp, self.lt_nonradial, self.weak_bound]


@dataclass
class SweepTable:
    kind: str
    description: str
    j_value: float
    weyl: float
    engine: str
    rows: list[SweepRow] = field(default_factory=list)
    notes: tuple[str, ...] = ()

    @property
    def alphas(self) -> list[float]:
        return [r.alpha for r in self.rows]

    @property
    def ratios(self) -> list[float]:
        return [r.N_over_alpha for r in self.rows]

    def ratio_deltas(self) -> list[float]:
        """Successive differences of N/alpha, the convergence diagnostic."""
        rr = self.ratios
        return [rr[i + 1] - rr[i] for i in range(len(rr) - 1)]

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(CSV_COLUMNS)
        for r in self.rows:
            w.writerow(r.csv_values())
        return buf.getvalue()

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv())

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "description": self.description,
            "j_value": self.j_value,
            "weyl_coefficient": self.weyl,
            "engine": self.engine,
            "rows": [dict(zip(CSV_COLUMNS, r.csv_values()),
                          uncertainty=r.uncertainty, flags=list(r.flags))
                     for r in self.rows],
            "ratio_deltas": self.ratio_deltas(),
            "notes": list(self.notes),
        }


def alpha_grid(alpha_min: float, alpha_max: float,
               per_decade: int = 6) -> list[float]:
    """Geometric grid, per_decade points per factor of 10, both ends in."""
    if not (0.0 < alpha_min <= alpha_max):
        raise ValueError("need 0 < alpha_min <= alpha_max")
    if not math.isfinite(alpha_max):
        raise ValueError(f"need finite alpha_max, got {alpha_max}")
    if per_decade < 1:
        raise ValueError("per_decade must be >= 1")
    out = []
    k = 0
    while True:
        try:
            a = alpha_min * 10.0 ** (k / per_decade)
        except OverflowError:
            raise ValueError(f"alpha grid {alpha_min:g} .. {alpha_max:g}: "
                             "10^(k/per_decade) overflows") from None
        if a > alpha_max * (1.0 + 1e-12):
            break
        out.append(a)
        k += 1
    if out[-1] < alpha_max * (1.0 - 1e-12):
        out.append(alpha_max)
    return out


def sweep(P: RadialPotential, alphas: Sequence[float], *,
          engine: str = "pruefer", C: float = 1.0, K: int = 200,
          budget_seconds: float | None = None,
          z: ZetaSequence | None = None) -> SweepTable:
    """Count and bound over an ascending alpha grid.

    Every bound is affine in alpha, so its integrals (J, the log weight at
    R = 1 and the K-window quasinorm) are computed once, and each row
    applies the `bounds` formulas at its alpha; z, when given, stands in
    for zeta_sequence(G, K), as in `bound_weak`.  The rows are counted a
    batch at a time (`total_counts`).  A budget, when given, is checked
    before each batch of rows within a factor 10; the first batch always
    lands, and rows past the cutoff are skipped with a note rather than an
    error.
    """
    alphas = sorted(float(a) for a in alphas)
    if not alphas:
        raise ValueError("empty alpha grid")
    t0 = time.monotonic()
    G = to_log(P, strict=False)
    j = G.j_value
    w1, _ = integral_logweight(P, 1.0)
    q = _weak_q(G, K, z)
    notes = []
    if G.truncated:
        notes.append("domain truncated at the working cap; counts are for "
                     "the truncated potential")

    table = SweepTable(P.kind, P.description, j,
                       weyl_coefficient(P), engine)
    for batch in _decades(alphas):
        if (budget_seconds is not None
                and time.monotonic() - t0 > budget_seconds
                and table.rows):
            notes.append(f"budget exhausted before alpha={batch[0]:g}; "
                         f"{len(alphas) - len(table.rows)} rows skipped")
            break
        for a, b in zip(batch, total_counts(G, batch, engine=engine)):
            table.rows.append(SweepRow(a, b.total, b.total / a,
                                       b.radial_dirichlet_count, b.nonradial,
                                       _chad(a, w1, j), _chad(a, w1, j, 1.0),
                                       bound_lt_nonradial(P, a),
                                       _weak(a, j, q, C),
                                       uncertainty=b.uncertainty,
                                       flags=b.flags))
    table.notes = tuple(notes)
    return table


def weyl_coefficient(P: RadialPotential) -> float:
    """Predicted limit of N/alpha: half of int r F dr."""
    return to_log(P, strict=False).j_value / 2.0


def limit_estimates(T: SweepTable) -> tuple[float, float]:
    """(upper, lower): window extremes of N/alpha over the top half-decade
    of the grid, finite-coupling surrogates for the upper and lower limits
    of the ratio.
    """
    if not T.rows:
        raise ValueError("empty sweep table")
    a_lo = T.rows[-1].alpha / math.sqrt(10.0)
    vals = [r.N_over_alpha for r in T.rows if r.alpha >= a_lo]
    return max(vals), min(vals)


def weyl_verdict(P: RadialPotential, T: SweepTable, seq: WeakVerdict) -> dict:
    """Confront the sweep tail with the block-sequence verdict.

    The sequence criterion decides; the sweep can only corroborate
    ("consistent") or fail to corroborate ("tension", e.g. the grid stops
    before the constant-per-coupling regime sets in).  WEYL_TOL is an
    absolute tolerance on N/alpha, whose natural scale here is the
    coefficient J/2 itself.
    """
    w = weyl_coefficient(P)
    upper, lower = limit_estimates(T)
    verdict = {"yes": "weyl-holds", "no": "weyl-fails",
               "inconclusive": "inconclusive"}[seq.in_weak_circle]
    numeric_close: bool | None
    if math.isinf(w):
        numeric_close = None
    else:
        numeric_close = max(abs(upper - w), abs(lower - w)) <= WEYL_TOL
    notes: list[str] = []
    if seq.in_weak_circle == "inconclusive" or numeric_close is None:
        assessment = "inconclusive"
    elif seq.in_weak_circle == "yes":
        assessment = "consistent" if numeric_close else "tension"
        if not numeric_close:
            notes.append("sequence criterion accepts the constant-per-"
                         "coupling law but the sweep tail has not "
                         "converged at the computed couplings")
    else:
        assessment = "consistent" if not numeric_close else "tension"
        if numeric_close:
            notes.append("sweep tail sits at the predicted coefficient "
                         "although the sequence criterion rejects the "
                         "law; the excess may emerge beyond the grid")
    return {
        "verdict": verdict,
        "sequence_circle": seq.in_weak_circle,
        "weyl_coefficient": w,
        "tail_upper": upper,
        "tail_lower": lower,
        "tol": WEYL_TOL,
        "numeric_close": numeric_close,
        "assessment": assessment,
        "notes": notes,
    }


def delta_link_check(P: RadialPotential, *, K: int = 200) -> dict:
    """Window implication between the two tail levels.

    Both the rearranged block sequence and the quadratic-form spectrum
    carry a tail level: sup k * zeta*_k over the late rank window, and
    n * lambda_n over a spectral rank window.  The two levels agree up
    to constants nobody pins down, so the checkable statement is an
    implication between windows.  The sequence level vanishes iff
    classify's tail-law verdict is yes/yes, which forces the spectral sups
    to decay window over window; otherwise it forces the spectral level to
    stay away from zero over the ranks the discretized operator actually
    resolves.  That matched
    window ends at the count of blocks visible inside the (capped)
    spectral domain; later ranks reflect the cap, not the tail.  Checked
    on the computed windows only; no limit is claimed.
    """
    G = to_log(P, strict=False)
    z = zeta_sequence(G, K)
    v = classify(z)
    lam, meta = bs_spectrum(G)
    lam = lam[lam > 0.0]
    out = {"delta_window": (v.delta_minus, v.delta_plus),
           "quasinorm": v.quasinorm, "n_modes": int(lam.size),
           "implication": "vacuous", "holds": True}
    if lam.size < 8:
        out["evidence"] = {"reason": "spectral window too small"}
        return out
    x = weak_level(lam)
    q1, q2 = lam.size // 4, lam.size // 2
    sup_early = level_sup(x[q1:q2])
    sup_late = level_sup(x[q2:])
    # blocks with numerically nonzero mass inside the spectral domain;
    # ranks past this count probe the domain cap, not the tail level
    t_dom = max(map(abs, meta["domain"]))
    vals = np.asarray(z.values)
    tiny = 1e-15 * float(np.max(vals)) if vals.size else 0.0
    kv = int(np.sum((vals[1:] > tiny)
                    & (np.exp(np.arange(vals.size - 1)) < t_dom)))
    out["evidence"] = {"sup_early": sup_early, "sup_late": sup_late,
                       "visible_blocks": kv}
    if v.quasinorm <= 0.0:
        return out
    if (v.in_weak, v.in_weak_circle) == ("yes", "yes"):
        # vanishing sequence level: the spectral sups must decay window
        # over window
        out["implication"] = "vanishing"
        out["holds"] = sup_late <= max(0.9 * sup_early, 1e-14)
    elif kv >= 3:
        # nonvanishing sequence level: the block-matched spectral window
        # must not collapse
        lo, hi = max(1, kv // 2), min(kv, lam.size)
        min_matched = float(np.min(x[lo:hi]))
        out["evidence"]["matched_window"] = (lo, hi)
        out["evidence"]["min_matched"] = min_matched
        out["implication"] = "nonvanishing"
        out["holds"] = min_matched >= AWAY_FRAC * v.delta_minus
    return out
