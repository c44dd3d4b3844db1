#!/usr/bin/env python3
"""Record reference.json, the outputs the benchmark checks against where no
closed-form oracle exists: the Pruefer row counts of the slowtail-sweep
batch, and for every bundled spec J, the log weight at R = 1, the block
sequence quasinorm and verdict, and the alpha-slope of the grid-minimised
log-weighted bound.

    python3 perfbench/record_reference.py

The committed file was recorded from the commit that introduced the
benchmark; re-record only on purpose, and say why.
"""
from __future__ import annotations

import json
import os

from run import HERE, import_cli, invoke
from workloads import CATALOG, SLOWTAIL_GRID


def report(cli, argv: list[str]) -> dict:
    rc, out, err, _ = invoke(cli, argv)
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)}: exit {rc}\n{err}")
    return json.loads(out)["report"]


def main() -> None:
    cli = import_cli()
    sweep = report(cli, ["sweep", "--spec", "counterexample", *SLOWTAIL_GRID,
                         "--method", "pruefer"])
    rows = [{k: r[k] for k in ("alpha", "N", "N_radial_dirichlet",
                               "N_nonradial")} for r in sweep["rows"]]
    classify = {}
    for spec in CATALOG:
        ints = report(cli, ["potential", "integrals", "--spec", spec])
        seq = report(cli, ["seq", "--spec", spec])
        # every bound is 1 + alpha * slope, so alpha = 1 gives the slope
        bounds = report(cli, ["bounds", "--spec", spec, "--minR",
                              "--alpha", "1"])
        chad_min = bounds["chad_min"]
        classify[spec] = {
            "J": ints["J"],
            "logweight": {k: ints["logweight"][k] for k in ("value", "error")},
            "K": seq["K"],
            "quasinorm": seq["quasinorm"],
            "max_zeta_error": max(seq["zeta_errors"]),
            "verdict": {k: seq["verdict"][k]
                        for k in ("text", "linear_growth", "weyl_law")},
            "chad_min_slope": (chad_min - 1.0 if isinstance(chad_min, float)
                               else chad_min),
            "chad_min_arg": bounds["chad_min_arg"],
        }
    with open(os.path.join(HERE, "reference.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"slowtail-sweep": {"pruefer_rows": rows},
                   "catalog-classify": classify}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
