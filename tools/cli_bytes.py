"""Record the CLI's output on a fixed case list, and diff two recordings.

    python tools/cli_bytes.py record OUT.json [--src DIR]
    python tools/cli_bytes.py diff A.json B.json

`record` runs every case in-process through `radcount.cli.main` and stores
{argv: {"stdout": ..., "stderr": ..., "exit": code}} as JSON; a usage error
that argparse raises as SystemExit is recorded with its code like any other
exit, and help is wrapped at 80 columns. The radcount it imports is the
one under DIR (default: this checkout's `src/`), so two checkouts can be
recorded with one copy of this script. `diff` prints every case whose
bytes differ, with the JSON fields that differ when both sides parse, and
exits 1 if any case differs.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from pathlib import Path

SPECS = ("zero", "square-well", "annulus", "gaussian", "bump",
         "counterexample", "counterexample-damped",
         "counterexample-damped-strong")


def cases() -> list[list[str]]:
    out = []
    for spec in SPECS:
        for alpha in ("3", "25", "200", "800", "3200"):
            out.append(["count", "--spec", spec, "--alpha", alpha,
                        "--breakdown", "--check", "sandwich"])
    # plane counts with the fd engine, every channel's count in the report
    for spec, alpha in (("square-well", "200"), ("square-well", "3200"),
                        ("annulus", "50"), ("bump", "50")):
        out.append(["count", "--spec", spec, "--alpha", alpha,
                    "--method", "fd", "--breakdown"])
    for spec in SPECS:
        out.append(["sweep", "--spec", spec, "--alpha-min", "5",
                    "--alpha-max", "50", "--per-decade", "4"])
    out.append(["sweep", "--spec", "counterexample", "--alpha-min", "5",
                "--alpha-max", "50", "--per-decade", "4", "--method", "fd"])
    for spec in ("zero", "square-well", "annulus", "gaussian", "bump",
                 "counterexample"):
        for seed in ("1234", "7"):
            out.append(["verify", "--spec", spec, "--seed", seed])
    # the engine-agreement batch at its edges: no instance, one, forty; a
    # zero potential, and couplings far from the instances' 5..80
    for n in ("0", "1"):
        out.append(["verify", "--spec", "square-well", "--n-random", n])
    for spec in ("bump", "counterexample", "counterexample-damped",
                 "counterexample-damped-strong"):
        out.append(["verify", "--spec", spec, "--n-random", "40",
                    "--seed", "9"])
    out.append(["verify", "--spec", "zero", "--n-random", "5"])
    out.append(["verify", "--spec", "gaussian", "--alpha", "3", "--alpha",
                "200"])
    for spec, energy in (("square-well", "-1.5"), ("gaussian", "-1.5")):
        out.append(["count1d", "--spec", spec, "--alpha", "40",
                    "--energy", energy, "--method", "both"])
    # channel energies, where the fd count is read from its E -/+ delta
    # probes: the disk, and the slow tail, whose G > 0 runs to the window
    # end
    for spec, alpha, energy in (("square-well", "40", "-4e-08"),
                                ("counterexample", "50",
                                 "-4.578909720634325e-10")):
        out.append(["count1d", "--spec", spec, "--alpha", alpha,
                    f"--energy={energy}", "--method", "both"])
    for spec in ("zero", "square-well", "annulus", "gaussian", "bump",
                 "counterexample"):
        out.append(["count", "--spec", spec, "--alpha", "50",
                    "--check", "duality"])
    # usage errors: a coupling that is not positive, and a negative
    # instance count
    out.append(["count", "--spec", "gaussian", "--alpha", "0"])
    out.append(["count", "--spec", "gaussian", "--alpha=-5"])
    out.append(["verify", "--spec", "square-well", "--n-random", "-3"])
    for spec in SPECS:
        out.append(["seq", "--spec", spec])
        out.append(["bounds", "--spec", spec, "--alpha", "50", "--minR"])
        out.append(["potential", "show", "--spec", spec])
        out.append(["potential", "integrals", "--spec", spec])
    # help, usage and error paths: no subcommand, root flags, an unknown
    # name, potential without a child, every subcommand's help
    out += [[], ["--help"], ["--version"], ["bogus"], ["potential"]]
    out += [[cmd, "-h"] for cmd in ("potential", "seq", "count1d", "count",
                                    "bounds", "sweep", "verify")]
    out.append(["potential", "integrals", "-h"])
    # errors the root reports after a subcommand parsed: a trailing
    # unrecognized argument and a rejected tolerance; one that the bounds
    # parser reports
    out.append(["count", "--spec", "square-well", "--alpha", "3", "extra"])
    out.append(["seq", "--spec", "zero", "--quad-abs-tol", "0"])
    out.append(["bounds", "--spec", "gaussian", "--alpha", "50", "--R", "2",
                "--minR"])
    # values that are refused: tolerances and budgets that are not finite,
    # and a negative weak-bound constant
    out.append(["seq", "--spec", "zero", "--quad-abs-tol", "nan"])
    out.append(["seq", "--spec", "zero", "--quad-rel-tol", "inf"])
    out.append(["verify", "--spec", "zero", "--eig-tol", "inf"])
    out.append(["sweep", "--spec", "zero", "--alpha-min", "5",
                "--alpha-max", "50", "--budget-seconds", "nan"])
    for cmd in (["bounds", "--alpha", "50"],
                ["sweep", "--alpha-min", "5", "--alpha-max", "50"]):
        out.append(cmd + ["--spec", "gaussian", "--C", "-1"])
    return out


def record(path: str, src: str) -> None:
    # help text wraps at the terminal width argparse reads from COLUMNS
    os.environ["COLUMNS"] = "80"
    sys.path.insert(0, str(Path(src).resolve()))
    from radcount.cli import main

    got = {}
    for argv in cases():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        got[" ".join(argv)] = {"stdout": out.getvalue(),
                               "stderr": err.getvalue(), "exit": code}
    Path(path).write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
    print(f"{len(got)} cases -> {path}")


def _leaves(x, prefix=""):
    if isinstance(x, dict):
        for k, v in x.items():
            yield from _leaves(v, f"{prefix}/{k}")
    elif isinstance(x, list):
        for i, v in enumerate(x):
            yield from _leaves(v, f"{prefix}[{i}]")
    else:
        yield prefix, x


def _field_diff(a: str, b: str) -> list[str]:
    try:
        la, lb = (dict(_leaves(json.loads(s))) for s in (a, b))
    except ValueError:
        return [f"  stdout, not both JSON: {len(a)} -> {len(b)} characters"]
    no = "<absent>"   # a key present with value null differs from none
    return [f"  {k}: {la.get(k, no)!r} -> {lb.get(k, no)!r}"
            for k in sorted(set(la) | set(lb))
            if la.get(k, no) != lb.get(k, no)]


def diff(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    n_diff = 0
    for case in sorted(set(a) | set(b)):
        if a.get(case) == b.get(case):
            continue
        n_diff += 1
        print(case)
        if case not in a or case not in b:
            print(f"  only in {path_a if case in a else path_b}")
            continue
        if a[case]["exit"] != b[case]["exit"]:
            print(f"  exit: {a[case]['exit']} -> {b[case]['exit']}")
        if a[case].get("stderr") != b[case].get("stderr"):
            print(f"  stderr: {a[case].get('stderr')!r} -> "
                  f"{b[case].get('stderr')!r}")
        if a[case]["stdout"] != b[case]["stdout"]:
            print("\n".join(_field_diff(a[case]["stdout"],
                                        b[case]["stdout"])))
    print(f"{n_diff} of {len(set(a) | set(b))} cases differ")
    return 1 if n_diff else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("record")
    p.add_argument("out")
    p.add_argument("--src", default=str(Path(__file__).resolve().parents[1]
                                        / "src"))
    p = sub.add_parser("diff")
    p.add_argument("a")
    p.add_argument("b")
    args = ap.parse_args()
    if args.cmd == "record":
        record(args.out, args.src)
        return 0
    return diff(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
