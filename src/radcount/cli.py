"""Command-line entry point.

One executable, seven subcommands: `potential` (spec echo and weighted
integrals), `seq` (dyadic block sequence and its verdict), `count1d`
(one line-operator count), `count` (plane count by channel), `bounds`
(closed-form bounds), `sweep` (coupling sweep to CSV/JSON) and `verify`
(the full cross-check suite).  Every report is a single JSON document on
stdout carrying the tool version and the resolved configuration, so a
report is reproducible from its own header.  Exit codes: 0 on success,
1 when `verify` finds a violation, 2 on usage and quadrature budget errors.

Potential specs are JSON files; a bare name (with or without `.json`)
falls back to the bundled catalog, ignoring case and punctuation, so
`--spec squarewell.json` finds the packaged `square-well` spec.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
from enum import Enum

import numpy as np

from . import __version__
from .asymptotics import alpha_grid, limit_estimates, sweep, weyl_verdict
from .bounds import _chad, bound_lt_nonradial, bound_report
from .channels import bs_duality_check, excused, sandwich_check, total_count
from .potentials import (PotentialSpecError, RadialPotential, _moment,
                         bundled_spec_names, integral_J, integral_logweight,
                         load_bundled, load_spec, to_log)
from .quadrature import QuadratureBudgetError
from .spectral1d import (THRESHOLD_FRAC, BoundaryMode, count_batch_fd,
                         count_batch_pruefer, count_below, eigenvalues_below)
from .weakseq import classify, zeta_sequence

_MODES = {m.value: m for m in BoundaryMode}
_MODE_ALIASES = {"line": "whole-line", "half": "half-line-dirichlet",
                 "dirichlet0": "whole-line-dirichlet-at-0"}


def _canon(name: str) -> str:
    return re.sub(r"[^a-z0-9]", "", name.lower())


def _load_potential(spec: str) -> RadialPotential:
    if os.path.exists(spec):
        return load_spec(spec)
    name = _canon(spec[:-5] if spec.endswith(".json") else spec)
    for b in bundled_spec_names():
        if _canon(b) == name:
            return load_bundled(b)
    raise PotentialSpecError(
        f"spec {spec!r}: no such file and no bundled spec matches "
        f"(bundled: {', '.join(bundled_spec_names())})")


def _json_ready(x):
    """Mapped copy with only JSON-standard scalars: non-finite floats
    become the strings 'infinite' / '-infinite' / 'nan'."""
    if isinstance(x, bool):
        return x
    if isinstance(x, dict):
        return {str(k): _json_ready(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_ready(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_json_ready(v) for v in x.tolist()]
    if isinstance(x, (float, np.floating)):
        v = float(x)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "infinite" if v > 0 else "-infinite"
        return v
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, Enum):
        return x.value
    return x


def _emit(doc: dict, path: str | None = None) -> None:
    text = json.dumps(_json_ready(doc), indent=2) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config_dict(args: argparse.Namespace) -> dict:
    """Resolved run configuration: subcommand, spec, the threshold fraction
    where it is applied, then every option the subcommand registered,
    sorted. A subcommand registers only the knobs it applies, so only
    those are echoed."""
    cfg = {"subcommand": args.cmd, "spec": getattr(args, "spec", None)}
    if args.cmd in ("count1d", "count", "sweep", "verify"):   # they count
        cfg["threshold_frac"] = THRESHOLD_FRAC
    for k in sorted(vars(args)):
        if k not in cfg and k not in ("cmd", "func", "sub"):
            cfg[k] = getattr(args, k)
    return cfg


def _report(args: argparse.Namespace, body: dict) -> dict:
    return {"tool": "radcount", "version": __version__,
            "config": _config_dict(args), "report": body}


# ---------------------------------------------------------------------------
# subcommands


def _cmd_potential(args) -> int:
    P = _load_potential(args.spec)
    G = to_log(P, strict=False)
    body = {
        "kind": P.kind,
        "params": dict(P.params),
        "description": P.description,
        "support_r": list(P.support),
        "g_max": G.g_max,
        "domain_hint": list(G.domain_hint),
        "truncated": G.truncated,
    }
    if args.sub == "integrals":
        j, j_err = integral_J(P, epsabs=args.quad_abs_tol,
                              epsrel=args.quad_rel_tol)
        w, w_err = integral_logweight(P, args.R, epsabs=args.quad_abs_tol,
                                      epsrel=args.quad_rel_tol)
        body["J"] = {"value": j, "error": j_err}
        body["logweight"] = {"R": args.R, "value": w, "error": w_err}
        body["weyl_coefficient"] = j / 2.0
    _emit(_report(args, body), args.json_out)
    return 0


def _cmd_seq(args) -> int:
    P = _load_potential(args.spec)
    G = to_log(P, strict=False)
    z = zeta_sequence(G, args.K, epsabs=args.quad_abs_tol,
                      epsrel=args.quad_rel_tol)
    v = classify(z)
    body = {
        "K": z.K,
        "zeta": list(z.values),
        "zeta_errors": list(z.errors),
        "quasinorm": v.quasinorm,
        "ell1": v.ell1,
        "delta_window": {"lower": v.delta_minus, "upper": v.delta_plus},
        "verdict": {
            "linear_growth": v.in_weak,
            "weyl_law": v.in_weak_circle,
            "text": v.text(),
            "window_sups": list(v.window_sups),
            "sup_ratio": v.sup_ratio,
            "J": v.j_value,
            "notes": list(v.notes),
        },
    }
    _emit(_report(args, body), args.json_out)
    return 0


def _cmd_count1d(args) -> int:
    P = _load_potential(args.spec)
    G = to_log(P, strict=False)
    mode = _MODES[_MODE_ALIASES.get(args.mode, args.mode)]
    methods = ("pruefer", "fd") if args.method == "both" else (args.method,)
    results = {m: count_below(G, args.alpha, args.energy, mode, engine=m)
               for m in methods}
    body = {m: dataclasses.asdict(c) for m, c in results.items()}
    if len(results) == 2:
        a, b = (results[m] for m in methods)
        body["agree"] = (a.count == b.count)
    _emit(_report(args, body), args.json_out)
    return 0


def _cmd_count(args) -> int:
    P = _load_potential(args.spec)
    b = total_count(P, args.alpha, engine=args.method)
    body = {
        "alpha": b.alpha,
        "total": b.total,
        "radial_dirichlet_count": b.radial_dirichlet_count,
        "nonradial": b.nonradial,
        "m_max": b.m_max,
        "method": b.method,
        "uncertainty": b.uncertainty,
        "flags": list(b.flags),
    }
    if args.breakdown:
        body["per_channel"] = {str(m): n for m, n in
                               sorted(b.per_channel.items())}
    if args.check == "sandwich":
        body["sandwich"] = sandwich_check(P, args.alpha, breakdown=b)
    elif args.check == "duality":
        body["duality"] = bs_duality_check(P, args.alpha)
    _emit(_report(args, body), args.json_out)
    return 0


def _cmd_bounds(args) -> int:
    P = _load_potential(args.spec)
    rep = bound_report(P, args.alpha, R=args.R, C=args.C)
    body = rep.as_dict()
    if not args.minR:
        # the grid minimum was computed anyway; --minR only changes which
        # number is highlighted
        body["selected"] = {"bound": "chad", "R": args.R, "value": rep.chad}
    else:
        body["selected"] = {"bound": "chad_min", "R": rep.chad_min_arg,
                            "value": rep.chad_min}
    _emit(_report(args, body), args.json_out)
    return 0


def _cmd_sweep(args) -> int:
    P = _load_potential(args.spec)
    grid = alpha_grid(args.alpha_min, args.alpha_max, args.per_decade)
    z = zeta_sequence(to_log(P, strict=False), args.K)
    T = sweep(P, grid, engine=args.method, C=args.C, K=args.K,
              budget_seconds=args.budget_seconds, z=z)
    body = T.as_dict()
    if T.rows:
        upper, lower = limit_estimates(T)
        body["tail_estimates"] = {"upper": upper, "lower": lower}
        v = classify(z)
        body["weyl"] = weyl_verdict(P, T, v)
    if args.csv:
        T.write_csv(args.csv)
    _emit(_report(args, body), args.json_out)
    return 0


# ---------------------------------------------------------------------------
# verify: the cross-check suite


def _verify_checks(P: RadialPotential, alphas: list[float], rng,
                   n_random: int, eig_tol: float) -> list[dict]:
    G = to_log(P, strict=False)
    checks: list[dict] = []

    def add(name: str, ok: bool, **details):
        checks.append({"name": name, "ok": bool(ok), **details})

    # engine agreement on randomized (alpha, E, mode) instances, all drawn
    # first: each engine counts them in one batch, on one mesh or layout
    instances = []
    for _ in range(n_random):
        a = float(np.exp(rng.uniform(np.log(5.0), np.log(80.0))))
        depth = a * G.g_max
        e = -float(rng.uniform(1e-6, 0.9)) * depth if depth > 0.0 else -1.0
        mode = list(_MODES.values())[int(rng.integers(0, 3))]
        instances.append((a, e, mode))
    bad = 0
    flagged = 0
    for cp, cf in zip(count_batch_pruefer(G, instances),
                      count_batch_fd(G, instances)):
        flags = cp.flags + cf.flags
        flagged += bool(flags)
        if not excused(abs(cp.count - cf.count), flags,
                       max(cp.uncertainty, cf.uncertainty)):
            bad += 1
    add("oracle-equivalence", bad == 0, instances=n_random,
        flagged=flagged, disagreements=bad)

    j = G.j_value
    # first moment of G over the positive axis, for the half-line check
    tmom = 0.0
    t_lo, t_hi = G.t_support
    if t_hi > 0.0:
        tmom, _ = _moment(P._prof, 1, max(t_lo, 0.0), t_hi)

    # the alpha-independent input of the per-alpha checks: the log weight
    # at R = 1 of both chad bounds
    w1, _ = integral_logweight(P, 1.0)
    for a in alphas:
        b = total_count(P, a)
        s = sandwich_check(P, a, breakdown=b)
        add("sandwich", s["ok"], alpha=a, diff=s["difference"])
        d = bs_duality_check(P, a)
        add("duality", d["ok"], alpha=a,
            count_spectrum=d["count_spectrum"],
            count_direct=d["count_direct"])
        sharp = _chad(a, w1, j, 1.0)
        chad1 = _chad(a, w1, j)
        ok_chain = (b.total <= sharp + 1e-9) and (sharp <= chad1 + 1e-9)
        add("bound-validity", ok_chain, alpha=a, N=b.total,
            chad_sharp=sharp, chad=chad1)
        lt = bound_lt_nonradial(P, a)
        add("lieb-thirring-nonradial", b.nonradial <= lt + 1e-9,
            alpha=a, nonradial=b.nonradial, bound=lt)
        # the m = 0 line eigenvalues below the channel energy, bisected on
        # the element pencil the duality check solved, condensed once: its
        # probes are far cheaper than phase counts; it sums every one
        ev = eigenvalues_below(G, a, tol_eig=eig_tol, engine="fd")
        moment = float(np.sum(np.sqrt(np.abs(ev))))
        lt_line = 0.5 * a * j
        add("lieb-thirring-line", moment <= lt_line * (1 + 1e-9) + 1e-9,
            alpha=a, sqrt_moment=moment, bound=lt_line)
        # the half-line Dirichlet count is the Dirichlet-at-0 route's right
        # side, which total_count has just counted
        nh = b.extras["right"]
        add("bargmann-half-line", nh <= a * tmom + 1e-9,
            alpha=a, count=nh, bound=a * tmom)
    return checks


def _cmd_verify(args) -> int:
    P = _load_potential(args.spec)
    rng = np.random.default_rng(args.seed)
    alphas = args.alpha if args.alpha else [10.0, 50.0]
    checks = _verify_checks(P, alphas, rng, args.n_random, args.eig_tol)
    n_bad = sum(1 for c in checks if not c["ok"])
    body = {"checks": checks, "failures": n_bad, "ok": n_bad == 0}
    _emit(_report(args, body), args.json_out)
    return 0 if n_bad == 0 else 1


# ---------------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser, *, spec_required: bool = True):
    p.add_argument("--spec", required=spec_required,
                   help="potential spec file or bundled name")
    p.add_argument("--json-out", default=None, metavar="PATH",
                   help="write the JSON report here instead of stdout")


def _add_quad_tols(p: argparse.ArgumentParser):
    p.add_argument("--quad-abs-tol", type=float, default=1e-10)
    p.add_argument("--quad-rel-tol", type=float, default=1e-8)


class _Parser(argparse.ArgumentParser):
    # -1e-3 is a number, not an option (argparse's pattern: -1 and -1.5)
    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _build_show(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.set_defaults(func=_cmd_potential)


def _build_integrals(p: argparse.ArgumentParser) -> None:
    _build_show(p)
    _add_quad_tols(p)
    p.add_argument("--R", type=float, default=1.0)


def _build_seq(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    _add_quad_tols(p)
    p.add_argument("--K", type=int, default=200)
    p.set_defaults(func=_cmd_seq)


def _build_count1d(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--energy", type=float, required=True)
    p.add_argument("--mode", default="whole-line",
                   choices=sorted(_MODES) + sorted(_MODE_ALIASES))
    p.add_argument("--method", default="pruefer",
                   choices=("pruefer", "fd", "both"))
    p.set_defaults(func=_cmd_count1d)


def _build_count(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--method", default="pruefer", choices=("pruefer", "fd"))
    p.add_argument("--breakdown", action="store_true")
    p.add_argument("--check", choices=("sandwich", "duality"), default=None)
    p.set_defaults(func=_cmd_count)


def _build_bounds(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--alpha", type=float, required=True)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--R", type=float, default=1.0)
    g.add_argument("--minR", action="store_true",
                   help="highlight the grid minimum over R")
    p.add_argument("--C", type=float, default=1.0)
    p.set_defaults(func=_cmd_bounds)


def _build_sweep(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--alpha-min", type=float, required=True)
    p.add_argument("--alpha-max", type=float, required=True)
    p.add_argument("--per-decade", type=int, default=6)
    p.add_argument("--method", default="pruefer", choices=("pruefer", "fd"))
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--K", type=int, default=200)
    p.add_argument("--budget-seconds", type=float, default=None)
    p.add_argument("--csv", default=None, metavar="PATH")
    p.set_defaults(func=_cmd_sweep)


def _build_verify(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--eig-tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--alpha", type=float, action="append", default=None,
                   help="coupling(s) for the per-alpha checks")
    p.add_argument("--n-random", type=int, default=12,
                   help="randomized engine-agreement instances")
    p.set_defaults(func=_cmd_verify)


# name -> (add_parser keywords, builder or the table of its children), in
# usage order
_SUBCOMMANDS = {
    "potential": ({"help": "spec echo and weighted integrals"},
                  {"show": ({}, _build_show),
                   "integrals": ({}, _build_integrals)}),
    "seq": ({"help": "dyadic block sequence and verdict"}, _build_seq),
    "count1d": ({"help": "one line-operator count"}, _build_count1d),
    "count": ({"help": "plane count by channel"}, _build_count),
    "bounds": ({"help": "closed-form bounds at one coupling"}, _build_bounds),
    "sweep": ({"help": "coupling sweep to CSV/JSON"}, _build_sweep),
    "verify": ({"help": "run the full cross-check suite"}, _build_verify),
}


def _add_children(p: argparse.ArgumentParser, dest: str, table: dict,
                  argv: list[str]) -> None:
    """Subparsers for `dest` from `table` (a nested table's go to `sub`).
    When argv[0] names one, only that one is built, with the choices
    metavar pinned to the full set, so a usage line printed by `p` reads as
    if every subparser had been built."""
    only = argv[0] if argv and argv[0] in table else None
    kw = {} if only is None else {"metavar": "{" + ",".join(table) + "}"}
    sub = p.add_subparsers(dest=dest, required=True, **kw)
    for name, (parser_kw, build) in table.items():
        if only in (None, name):
            q = sub.add_parser(name, allow_abbrev=False, **parser_kw)
            if isinstance(build, dict):
                _add_children(q, "sub", build, argv[1:])
            else:
                build(q)


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The radcount parser. When argv is given and names a subcommand (and
    for `potential`, a child), only that subcommand's parser is built: it
    parses argv, and prints every usage, help and error, as the full one
    does. Any other argv, or none, builds every subparser."""
    # no prefix matching: a mistyped or deleted long option is an error,
    # never a silent match for another one; subparsers are _Parsers too
    ap = _Parser(
        prog="radcount", allow_abbrev=False,
        description="bound-state counting and growth classification for "
                    "radial plane potentials")
    ap.add_argument("--version", action="version",
                    version=f"radcount {__version__}")
    _add_children(ap, "cmd", _SUBCOMMANDS, argv or [])
    return ap


def _validate(args: argparse.Namespace, ap: argparse.ArgumentParser) -> None:
    for name in ("quad_abs_tol", "quad_rel_tol", "eig_tol", "budget_seconds"):
        value = getattr(args, name, None)
        if value is None:
            continue
        flag = "--" + name.replace("_", "-")
        if value <= 0.0:
            ap.error(f"{flag} must be positive")
        if not math.isfinite(value):
            ap.error(f"{flag} must be finite")
    if getattr(args, "n_random", 0) < 0:
        ap.error("--n-random must be >= 0")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ap = build_parser(argv)
    args = ap.parse_args(argv)
    _validate(args, ap)
    try:
        return args.func(args)
    except (ValueError, OSError, QuadratureBudgetError) as exc:
        print(f"radcount: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
