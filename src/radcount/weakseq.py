"""Dyadic block sequence of a line profile and its weak-l1 classification.

For G on the line, block 0 is (-1, 1) and block k >= 1 is the pair of
intervals e^{k-1} < |t| < e^k. The block sequence is

    zeta_0 = int_{-1}^{1} G dt,
    zeta_k = int_{block k} |t| G(t) dt.

Linear growth of the bound-state count is equivalent to this sequence lying
in weak-l1 (finite sup_n of n times the n-th largest entry), and the
semiclassical limit holds exactly when n * x*_n -> 0 (the weak-l1 "small"
subspace). On a finite computed prefix those suprema are window estimates,
so the classifier returns yes/no/inconclusive with the evidence attached
rather than pretending to decide a limit.

Blocks are integrated in u = ln t coordinates, where |t| dt = e^{2u} du;
for the borderline family G = t^{-sigma} (ln t)^{-tau} the integrand
becomes e^{(2-sigma)u} u^{-tau} exactly, so block values stay accurate out
to k = 300 with no overflow (e^{2u} alone is representable to u ~ 354).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .potentials import LogPotential
from .quadrature import integrate_batch, integrate_interval

__all__ = [
    "ZetaSequence",
    "WeakVerdict",
    "zeta_sequence",
    "rearrange",
    "weak_level",
    "level_bounds",
    "level_sup",
    "quasinorm_weak",
    "ell1_norm",
    "delta_estimates",
    "classify",
]

MAX_BLOCKS = 300

# Window-sup ratio thresholds, calibrated on the catalog: decaying sups
# (ratio well under 1) mean n x*_n -> 0; a ratio pinned near 1 with
# nonvanishing sups means a finite nonzero limit; growth means no weak-l1.
RATIO_CIRCLE_YES = 0.92
RATIO_CIRCLE_NO = 0.97
RATIO_WEAK_YES = 1.05
RATIO_WEAK_NO = 1.25


@dataclass
class ZetaSequence:
    """Block values zeta_0..zeta_K with quadrature error estimates."""

    values: np.ndarray
    errors: np.ndarray
    K: int
    source: LogPotential | None = None
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        assert len(self.values) == self.K + 1


def _block_pieces(G: LogPotential, K: int):
    """(block k, side, partition in u = ln|t|) of every nonempty piece of
    blocks 1..K: the t-interval side*(e^{k-1}, e^k) clipped to the support."""
    t_lo, t_hi = G.t_support
    for side, lo_s, hi_s in ((1, t_lo, t_hi), (-1, -t_hi, -t_lo)):
        u_breaks = {math.log(side * b) for b in G.breakpoints
                    if math.isfinite(b) and side * b > 0.0}
        for k in range(1, K + 1):
            lo = max(math.exp(k - 1.0), lo_s)
            hi = min(math.exp(float(k)), hi_s)
            if hi <= lo or hi <= 0.0:
                continue
            u_lo, u_hi = math.log(max(lo, 1e-300)), math.log(hi)
            yield k, side, [u_lo, *sorted(u for u in u_breaks
                                          if u_lo < u < u_hi), u_hi]


def zeta_sequence(G: LogPotential, K: int = 200, *, epsabs: float = 1e-10,
                  epsrel: float = 1e-8) -> ZetaSequence:
    """Compute the block sequence zeta_0..zeta_K of G.

    Blocks disjoint from the support of G are exact zeros (no quadrature).
    Every other block piece, on both sides, is integrated in one batch.
    """
    if not 1 <= K <= MAX_BLOCKS:
        raise ValueError(f"need 1 <= K <= {MAX_BLOCKS}, got {K}")
    vals = np.zeros(K + 1)
    errs = np.zeros(K + 1)
    t_lo, t_hi = G.t_support
    if t_hi > t_lo:
        lo0, hi0 = max(-1.0, t_lo), min(1.0, t_hi)
        if hi0 > lo0:
            pts = [b for b in G.breakpoints if lo0 < b < hi0]
            vals[0], errs[0] = integrate_interval(
                G.eval, lo0, hi0, points=pts, epsabs=epsabs, epsrel=epsrel)
        pieces = list(_block_pieces(G, K))
        if pieces:
            block, side, edges = zip(*pieces)
            side = np.array(side, dtype=float)

            def integrand(u, j):
                # |t| dt = e^{2u} du on the side of piece j
                return np.exp(2.0 * u) * G.eval(side[j] * np.exp(u))

            v, e = integrate_batch(integrand, edges, epsabs=epsabs,
                                   epsrel=epsrel)
            vals += np.bincount(block, v, K + 1)
            errs += np.bincount(block, e, K + 1)
    notes = ("support window truncated",) if G.truncated else ()
    return ZetaSequence(vals, errs, K, G, notes)


def rearrange(values) -> np.ndarray:
    """Non-increasing rearrangement x*_1 >= x*_2 >= ..."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError("expected a 1d sequence")
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("sequence entries must be finite and >= 0")
    return np.sort(arr)[::-1]


def weak_level(values) -> np.ndarray:
    """The weak-l1 level n * x*_n over ranks n = 1, 2, ...: rank n is entry
    n - 1, so a rank window is a slice."""
    x = rearrange(values)
    return np.arange(1, len(x) + 1) * x


def level_sup(level: np.ndarray) -> float:
    """sup of a weak_level slice; 0.0 on an empty one."""
    return float(np.max(level)) if level.size else 0.0


def quasinorm_weak(values) -> float:
    """sup_n n * x*_n (1-based) over the given entries.

    On a truncated prefix of an infinite sequence this is a lower bound for
    the true quasinorm.
    """
    return level_sup(weak_level(values))


def ell1_norm(values) -> float:
    arr = np.asarray(values, dtype=float)
    return float(np.sum(np.abs(arr)))


def level_bounds(level: np.ndarray) -> tuple[float, float]:
    """(inf, sup) of the nonzero weak_level entries over ranks
    n in [max(4, len // 2), len]; (0.0, 0.0) if none."""
    prod = level[max(4, len(level) // 2) - 1:]
    prod = prod[prod > 0.0]
    return ((float(np.min(prod)), float(np.max(prod))) if prod.size
            else (0.0, 0.0))


def delta_estimates(values) -> tuple[float, float]:
    """(inf, sup) of n * x*_n over ranks n in [max(4, K // 2), K], nonzero
    entries only.

    Approximates the limit inferior/superior of n x*_n; zeros from prefix
    truncation would otherwise pin the infimum at 0 for every compactly
    supported profile. Empty window -> (0.0, 0.0).
    """
    return level_bounds(weak_level(values))


@dataclass
class WeakVerdict:
    """Tri-state classification with the window evidence it rests on."""

    in_weak: str            # 'yes' | 'no' | 'inconclusive'
    in_weak_circle: str     # same values; 'yes' implies in_weak == 'yes'
    quasinorm: float        # window estimate (lower bound) of sup n x*_n
    ell1: float
    delta_minus: float
    delta_plus: float
    window_sups: tuple[float, float]
    sup_ratio: float
    K: int
    j_value: float
    notes: tuple[str, ...] = ()
    evidence: dict = field(default_factory=dict)

    def text(self) -> str:
        """One-line human verdict."""
        if self.in_weak_circle == "yes":
            return "O(alpha) growth holds; Weyl law holds"
        if self.in_weak == "yes" and self.in_weak_circle == "no":
            return "O(alpha) holds, Weyl fails"
        if self.in_weak == "yes":
            return "O(alpha) growth holds; Weyl law inconclusive"
        if self.in_weak == "no":
            return "growth exceeds O(alpha); Weyl law fails"
        return "inconclusive"


def classify(z: ZetaSequence) -> WeakVerdict:
    """Decide membership of the block sequence in weak-l1 and in its
    vanishing subspace, from the computed prefix.

    The decision compares sup n x*_n over the rank windows (K/4, K/2] and
    (K/2, K]: decay of the sups means n x*_n -> 0, a stable nonzero level
    means weak-l1 without the vanishing property, growth means the sequence
    is not weak-l1 at all. An infinite J, read from z.source (nan without
    one), forces 'no' (integrability is part of the linear-growth
    criterion). Ambiguous ratios return 'inconclusive'.
    """
    j_value = z.source.j_value if z.source is not None else math.nan
    level = weak_level(z.values)
    K = len(level)
    quasi = level_sup(level)
    l1 = ell1_norm(z.values)
    d_lo, d_hi = level_bounds(level)
    s1 = level_sup(level[K // 4:K // 2])
    s2 = level_sup(level[K // 2:K])
    notes = list(z.notes)
    evidence = {"window_1": (K // 4, K // 2), "window_2": (K // 2, K),
                "sup_1": s1, "sup_2": s2}
    tiny = 1e-12 * max(quasi, 1e-300)

    if math.isinf(j_value):
        notes.append("int rF dr divergent: linear growth impossible")
        weak, circle = "no", "no"
    elif s2 <= tiny:
        # sequence is (numerically) finitely supported in rank
        weak, circle = "yes", "yes"
    elif s1 <= tiny:
        notes.append("first window empty; prefix too short to compare")
        weak, circle = "inconclusive", "inconclusive"
    else:
        ratio = s2 / s1
        evidence["ratio"] = ratio
        if ratio >= RATIO_WEAK_NO:
            weak, circle = "no", "no"
        elif ratio <= RATIO_WEAK_YES:
            weak = "yes"
            if ratio <= RATIO_CIRCLE_YES:
                circle = "yes"
            elif ratio >= RATIO_CIRCLE_NO:
                circle = "no"
            else:
                circle = "inconclusive"
        else:
            weak, circle = "inconclusive", "inconclusive"
    if circle == "yes" and weak != "yes":
        weak = "yes"
    ratio = evidence.get("ratio", math.nan)
    return WeakVerdict(weak, circle, quasi, l1, d_lo, d_hi, (s1, s2), ratio,
                       z.K, j_value, tuple(notes), evidence)
