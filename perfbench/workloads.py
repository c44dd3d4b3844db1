"""The four radcount workloads and the checks on their outputs.

Each workload is a list of CLI invocations, exactly as a user would type
them after `radcount`.  `timed` is the batch one pass repeats; it is the
same for every seed, so pass times compare across seeds.  `extra` holds the
seed-drawn operations; they run once per run, untimed and before the
passes, and count towards `attempted` like any other.

A check returns None when the output is right, or a `Miss`.  A miss is
`known` only when it matches one of the documented finite-difference
defects (see NOTES.md) exactly as it was recorded: the fd count at a pinned
coupling, at a recorded sweep row, a small fd error at a seeded disk
coupling, or at most two engine disagreements in a seeded `verify`.  A known
miss is the expected output of the code as it stands and is counted apart
from the failures; any other miss, an fd miss of another shape included,
is a failed operation and makes the run incorrect.
"""
from __future__ import annotations

import json
import math
import os
from typing import Callable, NamedTuple

import numpy as np

from oracle import disk_total_oracle

HERE = os.path.dirname(os.path.abspath(__file__))

PINNED_DISK = (200.0, 400.0, 800.0, 1600.0, 3200.0)
DISK_RANGE = (200.0, 3200.0)
ENGINES = ("pruefer", "fd")
SLOWTAIL_GRID = ["--alpha-min", "5", "--alpha-max", "50", "--per-decade", "4"]
VERIFY_SPECS = ("square-well", "gaussian", "annulus", "bump")
CATALOG = ("annulus", "bump", "counterexample", "counterexample-damped",
           "counterexample-damped-strong", "gaussian", "square-well", "zero")
CLASSIFY_ALPHA = (1.0, 1000.0)      # seeded bounds couplings
CLASSIFY_TIMED_ALPHA = 100.0
CHAD_FACTOR = 2.0 / math.sqrt(3.0)   # bound_chad's plain-integral prefactor


class Miss(NamedTuple):
    message: str
    known: bool = False


class Op(NamedTuple):
    key: str
    argv: list[str]
    check: Callable[[dict, dict], Miss | None]  # (body, bodies by key)


class Workload(NamedTuple):
    specs: tuple[str, ...]          # loaded and converted by the set-up
    ops: Callable[[int], tuple[list[Op], list[Op]]]  # seed -> timed, extra


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def num(x) -> float:
    """A JSON number from a radcount report; non-finite values arrive as
    the strings 'infinite', '-infinite' and 'nan'."""
    return {"infinite": math.inf, "-infinite": -math.inf,
            "nan": math.nan}.get(x, x) if isinstance(x, str) else float(x)


def close(got, want, tol: float) -> bool:
    g, w = num(got), num(want)
    if not math.isfinite(w):
        return g == w or (math.isnan(g) and math.isnan(w))
    return math.isfinite(g) and abs(g - w) <= tol


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


# ---------------------------------------------------------------------------
# disk-ladder


# the fd miss recorded at each pinned coupling: channel offsets from the
# oracle, and the total's (channel 16 counts twice: 103 against 105)
KNOWN_FD_DISK = {400.0: ({16: -1}, -2)}
# the fd misses seen at seeded couplings: one state per channel, total
# off by at most 4
SEEDED_FD_CHANNEL_OFF, SEEDED_FD_TOTAL_OFF = 1, 4


def _known_fd_disk(alpha: float, seeded: bool, off: dict, total_off: int):
    if seeded:
        return (abs(total_off) <= SEEDED_FD_TOTAL_OFF
                and all(abs(d) <= SEEDED_FD_CHANNEL_OFF for d in off.values()))
    return KNOWN_FD_DISK.get(alpha) == (off, total_off)


def _check_disk(alpha: float, engine: str, seeded: bool, body: dict,
                bodies: dict):
    per, total = disk_total_oracle(alpha)
    u = body["uncertainty"]
    got = {int(m): n for m, n in body["per_channel"].items()}
    off = {m: got.get(m, 0) - per.get(m, 0) for m in sorted(set(per) | set(got))
           if got.get(m, 0) != per.get(m, 0)}
    total_off = body["total"] - total
    if abs(total_off) > u or any(abs(d) > u for d in off.values()):
        known = engine == "fd" and _known_fd_disk(alpha, seeded, off,
                                                  total_off)
        return Miss(f"total {body['total']} vs Bessel oracle {total}, "
                    f"uncertainty {u}, channel offsets {off}", known=known)
    other = bodies.get(_disk_key(alpha, "pruefer"))
    if engine == "fd" and other is not None:
        # both match the oracle within their own uncertainty here, so a
        # split wider than either one is a new fault, not the known one
        tol = max(u, other["uncertainty"])
        if abs(body["total"] - other["total"]) > tol:
            return Miss(f"fd total {body['total']} vs pruefer "
                        f"{other['total']}")
    return None


def _disk_key(alpha: float, engine: str) -> str:
    return f"count:{engine}:{alpha!r}"


def _disk_ops(alphas, seeded: bool) -> list[Op]:
    return [Op(_disk_key(a, e),
               ["count", "--spec", "square-well", "--breakdown",
                "--alpha", repr(a), "--method", e],
               lambda b, bs, a=a, e=e: _check_disk(a, e, seeded, b, bs))
            for a in alphas for e in ENGINES]


def disk_ladder(seed: int):
    # one seeded coupling in each half of the log range: pooled they are
    # log-uniform on [200, 3200], and both halves are always visited
    rng = np.random.default_rng([seed, 1])
    lo, hi = DISK_RANGE
    mid = math.sqrt(lo * hi)
    seeded = [_log_uniform(rng, lo, mid), _log_uniform(rng, mid, hi)]
    return _disk_ops(PINNED_DISK, False), _disk_ops(seeded, True)


# ---------------------------------------------------------------------------
# slowtail-sweep

_ROW_COUNTS = ("N", "N_radial_dirichlet", "N_nonradial")
# the grid points where fd gives one state fewer than pruefer at the seed
KNOWN_FD_SLOWTAIL = (8.891397050194614, 15.811388300841898,
                     28.117066259517458)


def _check_sweep_pruefer(ref_rows: list[dict], body: dict, bodies: dict):
    rows = body["rows"]
    if len(rows) != len(ref_rows):
        return Miss(f"{len(rows)} rows, reference has {len(ref_rows)}")
    for r, want in zip(rows, ref_rows):
        if not close(r["alpha"], want["alpha"], 1e-12 * want["alpha"]):
            return Miss(f"alpha {r['alpha']} vs reference {want['alpha']}")
        for k in _ROW_COUNTS:
            if abs(r[k] - want[k]) > r["uncertainty"]:
                return Miss(f"alpha={r['alpha']:.4g}: {k} {r[k]} vs "
                            f"reference {want[k]}")
    return None


def _check_sweep_fd(body: dict, bodies: dict):
    ref = bodies.get("sweep:pruefer")
    if ref is None:
        return Miss("no pruefer sweep to compare with")
    if len(body["rows"]) != len(ref["rows"]):
        return Miss("fd and pruefer sweeps differ in length")
    split, known = [], True
    for f, p in zip(body["rows"], ref["rows"]):
        if abs(f["N"] - p["N"]) > max(f["uncertainty"], p["uncertainty"]):
            split.append(f"alpha={f['alpha']:.4g}: fd {f['N']} vs "
                         f"pruefer {p['N']}")
            known &= (f["N"] == p["N"] - 1 and any(
                close(f["alpha"], a, 1e-9 * a) for a in KNOWN_FD_SLOWTAIL))
    return Miss("; ".join(split), known=known) if split else None


def slowtail_sweep(seed: int):
    ref_rows = load_reference()["slowtail-sweep"]["pruefer_rows"]
    argv = ["sweep", "--spec", "counterexample", *SLOWTAIL_GRID, "--method"]
    return [Op("sweep:pruefer", argv + ["pruefer"],
               lambda b, bs: _check_sweep_pruefer(ref_rows, b, bs)),
            Op("sweep:fd", argv + ["fd"], _check_sweep_fd)], []


# ---------------------------------------------------------------------------
# catalog-verify


# the most engine disagreements seen in one seeded verify (annulus, seed
# 21, in a scan of seeds 1 to 80 on the four specs)
SEEDED_VERIFY_DISAGREEMENTS = 2


def _check_verify(spec: str, seeded: bool, body: dict, bodies: dict):
    bad = [c for c in body["checks"] if not c["ok"]]
    if bad or not body["ok"]:
        # on a seeded run, an engine disagreement or two on the random
        # instances is the fd defect again; at the default seed every check
        # passes, and any other failed check is not the defect
        known = (seeded and len(bad) == 1
                 and bad[0]["name"] == "oracle-equivalence"
                 and bad[0]["disagreements"] <= SEEDED_VERIFY_DISAGREEMENTS)
        return Miss(f"verify failed: {bad}", known=known)
    if spec == "square-well":
        for c in body["checks"]:
            if c["name"] == "bound-validity":
                want = disk_total_oracle(float(c["alpha"]))[1]
                if c["N"] != want:
                    return Miss(f"alpha={c['alpha']}: N {c['N']} vs Bessel "
                                f"oracle {want}")
    return None


def _verify_ops(seed: int | None) -> list[Op]:
    argv, tag = ([], "") if seed is None else (["--seed", str(seed)],
                                               f":seed{seed}")
    return [Op(f"verify:{s}{tag}", ["verify", "--spec", s, *argv],
               lambda b, bs, s=s: _check_verify(s, seed is not None, b, bs))
            for s in VERIFY_SPECS]


def catalog_verify(seed: int):
    # the timed batch keeps the CLI's default seed: the random instances
    # it draws change the cost of a pass by about 10% from seed to seed
    return _verify_ops(None), _verify_ops(seed)


# ---------------------------------------------------------------------------
# catalog-classify


def _check_integrals(ref: dict, body: dict, bodies: dict):
    for key in ("J", "logweight"):
        got, want = body[key], ref[key]
        tol = num(want["error"]) + 1e-12 * abs(num(want["value"]))
        if math.isfinite(num(got["error"])):
            tol += num(got["error"])
        if not close(got["value"], want["value"], tol):
            return Miss(f"{key} {got['value']} vs reference {want['value']}"
                        f" (tolerance {tol:.3g})")
    return None


def _quasinorm_tol(ref: dict) -> float:
    # quasinorm = sup_n n x*_n over K+1 blocks, so a per-block error e
    # moves it by at most (K+1) e
    return (ref["K"] + 1) * ref["max_zeta_error"] + 1e-12 * ref["quasinorm"]


def _check_seq(ref: dict, body: dict, bodies: dict):
    v = body["verdict"]
    tol = _quasinorm_tol(ref) + (body["K"] + 1) * max(body["zeta_errors"])
    if not close(body["quasinorm"], ref["quasinorm"], tol):
        return Miss(f"quasinorm {body['quasinorm']} vs reference "
                    f"{ref['quasinorm']}")
    for key in ("text", "linear_growth", "weyl_law"):
        if v[key] != ref["verdict"][key]:
            return Miss(f"verdict {key} {v[key]!r} vs reference "
                        f"{ref['verdict'][key]!r}")
    return None


def _check_bounds(ref: dict, alpha: float, body: dict, bodies: dict):
    """Every bound is 1 + alpha * slope (lt_nonradial: alpha * slope), with
    the slope taken from the recorded integrals and allowed their stated
    quadrature error."""
    j, j_err = num(ref["J"]["value"]), num(ref["J"]["error"])
    w, w_err = num(ref["logweight"]["value"]), num(ref["logweight"]["error"])
    q, q_err = ref["quasinorm"], _quasinorm_tol(ref)
    chad_err = w_err + CHAD_FACTOR * j_err
    want = {  # bound: (offset, slope, slope error)
        "chad": (1.0, w + CHAD_FACTOR * j, chad_err),
        "chad_sharp": (1.0, w + j, w_err + j_err),
        "chad_min": (1.0, num(ref["chad_min_slope"]), chad_err),
        "lt_nonradial": (0.0, j, j_err),
        "weak": (1.0, j + q, j_err + q_err),
    }
    for key, (offset, slope, err) in want.items():
        value = offset + alpha * slope
        tol = alpha * err + 1e-9 * (1.0 + abs(value))
        if not close(body[key], value, tol):
            return Miss(f"{key} {body[key]} vs 1 + alpha * slope = {value}")
    if not close(body["chad_min_arg"], ref["chad_min_arg"], 0.0):
        return Miss(f"chad_min_arg {body['chad_min_arg']} vs reference "
                    f"{ref['chad_min_arg']}")
    return None


def _bounds_op(ref: dict, spec: str, alpha: float, tag: str) -> Op:
    return Op(f"bounds:{spec}{tag}",
              ["bounds", "--spec", spec, "--minR", "--alpha", repr(alpha)],
              lambda b, bs: _check_bounds(ref, alpha, b, bs))


def catalog_classify(seed: int):
    # bounds cost does not depend on alpha; the seeded couplings run as the
    # extras, which also warm up the bound code before the timed passes
    ref = load_reference()["catalog-classify"]
    rng = np.random.default_rng([seed, 4])
    timed, extra = [], []
    for s in CATALOG:
        r = ref[s]
        timed += [
            Op(f"integrals:{s}", ["potential", "integrals", "--spec", s],
               lambda b, bs, r=r: _check_integrals(r, b, bs)),
            Op(f"seq:{s}", ["seq", "--spec", s],
               lambda b, bs, r=r: _check_seq(r, b, bs)),
            _bounds_op(r, s, CLASSIFY_TIMED_ALPHA, ""),
        ]
        extra.append(_bounds_op(r, s, _log_uniform(rng, *CLASSIFY_ALPHA),
                                f":seed{seed}"))
    return timed, extra


WORKLOADS = {
    "disk-ladder": Workload(("square-well",), disk_ladder),
    "slowtail-sweep": Workload(("counterexample",), slowtail_sweep),
    "catalog-verify": Workload(VERIFY_SPECS, catalog_verify),
    "catalog-classify": Workload(CATALOG, catalog_classify),
}
