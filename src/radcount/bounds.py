"""Closed-form upper bounds on the plane bound-state count.

Every bound here is an affine function of the coupling whose slope is a
weighted integral of the potential: `bound_chad` uses the log-weighted
integral around a reference radius R plus 2/sqrt(3) times the plain
integral, `bound_chad_sharp` is the R = 1 variant with the prefactor
sharpened to 1, `bound_lt_nonradial` bounds the combined m != 0 channels
by alpha * J, and `bound_weak` adds a multiple of the weak-l1 quasinorm
of the dyadic block sequence.  `empirical_constant` inverts the last one:
given measured counts it reports the smallest constant that would have
made the bound hold on the given set.

J is read from `to_log(P, strict=False).j_value`, cached on the potential.
`bound_chad_min_over_R` takes the log weight W(R) = int G |t - ln R| dt
for its whole radius grid from one split of the line at the grid's
log-span [a, b] (`integral_logweight_grid`): past b the piece is
M1 - s M0 with s = ln R and Mp = int_{t>b} t^p G, before a it is
s N0 - N1 likewise, and only [a, b] within the support is integrated per
radius.

A bound evaluates to +inf when its defining integral diverges; that is a
legitimate report ("this bound says nothing here"), not an error.  The
kind's tail law decides the divergence exactly; no quadrature guesses it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import total_count
from .potentials import (RadialPotential, integral_logweight,
                         integral_logweight_grid, to_log)
from .spectral1d import _check_alpha
from .weakseq import ZetaSequence, quasinorm_weak, zeta_sequence

__all__ = [
    "BoundReport",
    "bound_chad",
    "bound_chad_sharp",
    "bound_chad_min_over_R",
    "bound_lt_nonradial",
    "bound_weak",
    "bound_report",
    "default_R_grid",
    "empirical_constant",
]

# prefactor of the plain integral term in bound_chad; strictly above the
# 1 used by bound_chad_sharp, which is what orders the two bounds at R = 1
CHAD_FACTOR = 2.0 / math.sqrt(3.0)


def _j(P: RadialPotential) -> float:
    """int r F dr, cached on P by the change of variables."""
    return to_log(P, strict=False).j_value


def _chad(alpha, w, j, factor: float = CHAD_FACTOR):
    """1 + alpha * w + factor * alpha * j from the log weight w (a float or
    an array over radii) and J; factor 1 with w = W(1) is chad_sharp.  Every
    term is nonnegative, so a divergent integral gives +inf unguarded."""
    return 1.0 + alpha * w + factor * alpha * j


def _weak(alpha: float, j: float, q: float, C: float) -> float:
    """1 + alpha * (J + C * q) from J and the window quasinorm q; C is
    checked here, where `bound_weak` and a sweep's rows both pass."""
    if not (C > 0.0 and math.isfinite(C)):
        raise ValueError(f"need finite C > 0, got {C}")
    return 1.0 + alpha * (j + C * q)


def _weak_q(G, K: int, z: ZetaSequence | None = None) -> float:
    """The quasinorm q that `_weak` takes: inf when J diverges, else the
    K-window quasinorm of z, or of zeta_sequence(G, K) without one."""
    if math.isinf(G.j_value):
        return math.inf
    return quasinorm_weak((z if z is not None else zeta_sequence(G, K)).values)


def bound_chad(P: RadialPotential, alpha: float, R: float = 1.0) -> float:
    """1 + alpha * int r F |ln(r/R)| dr + (2/sqrt 3) * alpha * int r F dr."""
    _check_alpha(alpha)
    return _chad(alpha, integral_logweight(P, R)[0], _j(P))


def bound_chad_sharp(P: RadialPotential, alpha: float) -> float:
    """1 + alpha * int r F |ln r| dr + alpha * int r F dr.

    Same shape as bound_chad at R = 1 but with the plain-integral
    prefactor lowered to 1, so it is never the weaker of the two.
    """
    _check_alpha(alpha)
    return _chad(alpha, integral_logweight(P, 1.0)[0], _j(P), 1.0)


def default_R_grid() -> np.ndarray:
    return np.geomspace(1e-3, 1e3, 64)


def bound_chad_min_over_R(P: RadialPotential, alpha: float,
                          R_grid: Sequence[float] | None = None
                          ) -> tuple[float, float]:
    """Minimum of bound_chad over a grid of reference radii.

    Returns (value, argmin R).  The argmin is nan when every grid value is
    infinite (divergent log-weighted integral for every R).
    """
    _check_alpha(alpha)
    grid = np.asarray(default_R_grid() if R_grid is None else R_grid,
                      dtype=float)
    vals = _chad(alpha, integral_logweight_grid(P, grid)[0], _j(P))
    k = int(np.argmin(vals))
    if math.isinf(vals[k]):
        return math.inf, math.nan
    return float(vals[k]), float(grid[k])


def bound_lt_nonradial(P: RadialPotential, alpha: float) -> float:
    """alpha * int r F dr; bounds the total count of the m != 0 channels."""
    _check_alpha(alpha)
    return alpha * _j(P)


def bound_weak(P: RadialPotential, alpha: float, C: float = 1.0, *,
               K: int = 200, z: ZetaSequence | None = None) -> float:
    """1 + alpha * (int r F dr + C * quasinorm of the block sequence).

    The constant C is a user knob, not a derived value.  The quasinorm is
    the K-window estimate, a lower bound on the true one, so the number
    returned is an estimate of the bound rather than a certified value.
    """
    _check_alpha(alpha)
    G = to_log(P, strict=False)
    return _weak(alpha, G.j_value, _weak_q(G, K, z), C)


@dataclass
class BoundReport:
    """All bounds evaluated at one (potential, alpha), with the inputs
    echoed so the record is self-describing."""

    alpha: float
    R: float
    C: float
    chad: float
    chad_sharp: float
    chad_min: float
    chad_min_arg: float
    lt_nonradial: float
    weak: float
    notes: tuple[str, ...] = ()

    def finite_flags(self) -> dict[str, bool]:
        return {
            "chad": math.isfinite(self.chad),
            "chad_sharp": math.isfinite(self.chad_sharp),
            "chad_min": math.isfinite(self.chad_min),
            "lt_nonradial": math.isfinite(self.lt_nonradial),
            "weak": math.isfinite(self.weak),
        }

    def as_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "R": self.R,
            "C": self.C,
            "chad": self.chad,
            "chad_sharp": self.chad_sharp,
            "chad_min": self.chad_min,
            "chad_min_arg": self.chad_min_arg,
            "lt_nonradial": self.lt_nonradial,
            "weak": self.weak,
            "finite": self.finite_flags(),
            "notes": list(self.notes),
        }


def bound_report(P: RadialPotential, alpha: float, *, R: float = 1.0,
                 C: float = 1.0, R_grid: Sequence[float] | None = None,
                 K: int = 200) -> BoundReport:
    """Evaluate every bound at one coupling; at R = 1 one log weight serves
    both chad and chad_sharp."""
    _check_alpha(alpha)
    w_R = integral_logweight(P, R)[0]
    w_1 = w_R if R == 1.0 else integral_logweight(P, 1.0)[0]
    j = _j(P)
    chad, sharp = _chad(alpha, w_R, j), _chad(alpha, w_1, j, 1.0)
    cmin, carg = bound_chad_min_over_R(P, alpha, R_grid)
    lt = bound_lt_nonradial(P, alpha)
    weak = bound_weak(P, alpha, C, K=K)
    notes = ["weak uses the K-window quasinorm, a lower bound on the "
             "true quasinorm"]
    if not math.isfinite(chad):
        notes.append("log-weighted integral divergent: chad bounds vacuous")
    return BoundReport(alpha, R, C, chad, sharp, cmin, carg, lt, weak,
                       notes=tuple(notes))


def empirical_constant(P_set: Sequence[RadialPotential],
                       alpha_set: Sequence[float], *, K: int = 200,
                       engine: str = "pruefer",
                       counts: Sequence[Sequence[int]] | None = None,
                       details: list | None = None) -> float:
    """Least C making the weak bound hold on every (P, alpha) in the set.

    For each pair the requirement N <= 1 + alpha (J + C q) inverts to
    C >= (N - 1 - alpha J) / (alpha q) with q the window quasinorm; the
    report is the max of those over the binding pairs, 0.0 when none bind
    (the bound holds already at C -> 0+), and +inf when a pair has q = 0
    yet a positive requirement (no constant can work).  This is a lower
    bound on any admissible constant, not a canonical value: enlarging
    the set can only raise it.

    counts, when given, must be aligned counts[i][k] for (P_set[i],
    alpha_set[k]); otherwise the counts are computed here.  details, when
    given, collects one dict per pair.
    """
    best = 0.0
    for i, P in enumerate(P_set):
        G = to_log(P, strict=False)
        q = _weak_q(G, K)
        if math.isinf(q):
            continue  # J diverges: the right side is infinite for every C
        j = G.j_value
        for k, alpha in enumerate(alpha_set):
            _check_alpha(alpha)
            if counts is not None:
                n = int(counts[i][k])
            else:
                n = total_count(P, alpha, engine=engine).total
            numer = n - 1.0 - alpha * j
            if numer <= 0.0:
                c_req = 0.0
            elif q <= 0.0:
                c_req = math.inf
            else:
                c_req = numer / (alpha * q)
            if details is not None:
                details.append({"kind": P.kind, "alpha": alpha, "N": n,
                                "J": j, "quasinorm": q, "C_required": c_req})
            best = max(best, c_req)
    return best
