#!/usr/bin/env python3
"""radcount benchmark: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload disk-ladder --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18 --trace 1

Every operation is `radcount.cli.main(argv)` called in this process, with
the argv a user would type; the JSON it prints is captured and checked
against an oracle or a recorded reference (workloads.py).  One pass runs a
workload's timed batch; passes repeat until the next one would end more
than half a pass past `--seconds`, and the reported times are medians over
passes, scaled to the reference machine speed that speed.py samples during
each pass; `setup_s` is scaled by a reference import.  With
`--trace 1` plain and traced passes alternate, and the per-layer numbers come
from the traced ones (spantrace.py).  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  `--workload
all` runs every workload in its own interpreter and prints a table.

Results and spans are written under .perfbench_out/ in the checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

# one thread in all: OpenBLAS would otherwise start a thread per core.  It
# reads these when numpy is first imported, which the imports below do.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from spantrace import Tracer, layer_metrics  # noqa: E402
from speed import Speedometer  # noqa: E402
from workloads import WORKLOADS, Miss  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = tuple(WORKLOADS)
SETUP_REPEATS = 3
# median time of the reference import below on the 2-core Xeon VM the
# benchmark was tuned on; setup_s is in seconds at that speed
REF_IMPORT_S = 0.65

# Set-up as a user pays it on every invocation: a fresh interpreter imports
# radcount (which brings numpy and scipy), loads the workload's specs and
# moves them to the line.
_SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import numpy, scipy, radcount
from radcount.potentials import load_bundled, to_log
for name in sys.argv[2:]:
    to_log(load_bundled(name), strict=False)
print(time.perf_counter() - t0)
"""

# The reference for set-up: a fresh interpreter that imports the numpy and
# scipy modules radcount imported when the benchmark was written, and
# nothing of radcount.  Import speed on a shared VM drifts by a factor of
# two within minutes, and this import drifts with the set-up run next to it.
_REF_IMPORT_CODE = """
import time
t0 = time.perf_counter()
import numpy, scipy, scipy.integrate, scipy.linalg, scipy.sparse.linalg
import scipy.special
print(time.perf_counter() - t0)
"""


def metric_units() -> dict[str, str]:
    """Every metric's unit, as BENCHMARK.json declares it."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def import_cli():
    """radcount.cli from this checkout's src/, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "radcount", "__init__.py")):
        raise SystemExit(f"perfbench: no radcount sources under {SRC}")
    sys.path.insert(0, SRC)
    from radcount import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: radcount imported from {cli.__file__}, "
                         f"not from {SRC}")
    return cli


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": workload, "seed": seed,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu}


def invoke(cli, argv: list[str]):
    """(exit code or the exception text, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except (Exception, SystemExit) as exc:  # a raising operation has failed
        rc = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def timed_pass(cli, ops) -> tuple[float, float, list, float]:
    """One pass under a Speedometer: (wall, slowest op, outcomes, raw wall).

    Each operation's time leaves out the sampler's own time and is scaled
    to reference seconds by the kernel samples taken while it ran (speed.py);
    wall is the sum of these.  The raw wall is in plain seconds.
    """
    outcomes, times = [], []
    with Speedometer() as meter:
        t0 = time.perf_counter()
        for op in ops:
            spent, n = meter.spent, len(meter.samples)
            outcomes.append(invoke(cli, op.argv))
            times.append((outcomes[-1][3] - (meter.spent - spent),
                          meter.samples[n:]))
        raw = time.perf_counter() - t0 - meter.spent
    scaled = [t * meter.scale(samples) for t, samples in times]
    return sum(scaled), max(scaled), outcomes, raw


def check(ops, outcomes) -> list[tuple[str, Miss]]:
    """(op key, Miss) for every operation whose output is wrong."""
    bodies = {}
    for op, (_, out, _, _) in zip(ops, outcomes):
        with contextlib.suppress(ValueError, KeyError, TypeError):
            bodies[op.key] = json.loads(out)["report"]
    misses = []
    for op, (rc, _, err, _) in zip(ops, outcomes):
        body = bodies.get(op.key)
        if body is None:
            miss = Miss(f"exit {rc}, no JSON report: {err.strip()[-300:]}")
        else:
            try:
                miss = op.check(body, bodies)
            except (KeyError, TypeError, ValueError) as exc:
                miss = Miss(f"malformed report: {exc!r}")
            if miss is None and rc != 0:
                miss = Miss(f"exit {rc} although the report checks out")
        if miss is not None:
            misses.append((op.key, miss))
    return misses


def interpreter_seconds(code: str, *args: str) -> float:
    res = subprocess.run([sys.executable, "-c", code, *args],
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=120, check=True)
    return float(res.stdout.split()[-1])


def setup_pairs(specs) -> list[tuple[float, float]]:
    """(set-up, reference import) seconds, each pair run back to back,
    in alternating order."""
    pairs = []
    for i in range(SETUP_REPEATS):
        if i % 2:
            ref = interpreter_seconds(_REF_IMPORT_CODE)
            setup = interpreter_seconds(_SETUP_CODE, SRC, *specs)
        else:
            setup = interpreter_seconds(_SETUP_CODE, SRC, *specs)
            ref = interpreter_seconds(_REF_IMPORT_CODE)
        pairs.append((setup, ref))
    return pairs


def out_stem(workload: str, seed: int, trace: bool) -> str:
    return os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    cli = import_cli()
    wl = WORKLOADS[name]
    timed, extra = wl.ops(seed)
    env = environment(name, seed)
    print("env " + json.dumps(env), flush=True)

    # the seeded extras go first: untimed, they also warm up the code
    # paths the timed batch is about to use
    misses = check(extra, [invoke(cli, op.argv) for op in extra])
    attempted = len(extra)

    walls = {False: [], True: []}
    raw_walls = {False: [], True: []}
    op_max, layers, known = [], [], []
    tracer, setups = None, []
    t_start = time.perf_counter()
    while True:
        traced = trace and len(walls[False]) > len(walls[True])
        if traced:
            with Tracer() as tracer:
                wall, _, outcomes, raw = timed_pass(cli, timed)
            layers.append(layer_metrics(tracer.spans))
        else:
            wall, slowest, outcomes, raw = timed_pass(cli, timed)
            op_max.append(slowest)
        walls[traced].append(wall)
        raw_walls[traced].append(raw)
        found = check(timed, outcomes)
        misses += found
        known.append(sum(m.known for _, m in found))
        attempted += len(timed)
        done = bool(walls[True]) or not trace
        # overrunning by up to half a pass keeps the time measured near
        # `seconds` on average, and gives a 10 s batch two passes in 18 s
        if done and time.perf_counter() - t_start + raw / 2 > seconds:
            break

    if trace:
        metrics = {k: statistics.median(m[k] for m in layers)
                   for k in layers[0]}
        metrics["spectral1d.fd_known_misses"] = statistics.median(known)
        metrics["trace.overhead_s"] = (statistics.median(walls[True])
                                       - statistics.median(walls[False]))
    else:
        setups = setup_pairs(wl.specs)
        metrics = {
            "wall_s": statistics.median(walls[False]),
            "op_max_s": statistics.median(op_max),
            "setup_s": REF_IMPORT_S * statistics.median(
                setup / ref for setup, ref in setups),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    # a known defect in its recorded shape is the expected output of this
    # code, not a failure; it is counted in spectral1d.fd_known_misses
    failed = sum(not m.known for _, m in misses)
    units = metric_units()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    stem = out_stem(name, seed, trace)
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "result": result, "walls": walls[False],
                   "traced_walls": walls[True],
                   "raw_walls": raw_walls[False],
                   "raw_traced_walls": raw_walls[True],
                   "setup_pairs": setups,
                   "misses": [[k, m.message, m.known] for k, m in misses]},
                  fh, indent=1)
    if tracer is not None:
        tracer.dump(stem + "-spans.json")
    for key, m in misses:
        print(f"{'known' if m.known else 'FAILED'} {key}: {m.message}")
    return result


def run_all(args) -> None:
    """Each workload in its own interpreter, so peak RSS is its own."""
    table = {}
    for name in WORKLOAD_NAMES:
        res = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if res.returncode != 0:
            raise SystemExit(f"perfbench: {name} exited {res.returncode}\n"
                             f"{res.stderr}")
        sys.stdout.write("".join(ln + "\n" for ln in
                                 res.stdout.splitlines()[:-1]))
        table[name] = json.loads(res.stdout.splitlines()[-1])
    for name, r in table.items():
        print(f"== {name}: correct={r['correct']} attempted={r['attempted']}"
              f" failed={r['failed']}")
        rows = [(k, m["value"], m["unit"]) for k, m in r["metrics"].items()]
        if not args.trace:
            rows.append(("failed_frac", r["failed"] / r["attempted"],
                         "ratio"))
            with open(out_stem(name, args.seed, args.trace) + ".json",
                      encoding="utf-8") as fh:
                n_known = sum(m[2] for m in json.load(fh)["misses"])
            rows.append(("known_frac", n_known / r["attempted"], "ratio"))
        for k, v, u in rows:
            print(f"   {k:28s} {v:14.6g} {u}")
    print(json.dumps(table))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    threads = os.environ.get("RADCOUNT_THREADS")
    if threads is not None and threads.strip() != "1":
        raise SystemExit(f"perfbench: RADCOUNT_THREADS={threads!r}; the "
                         f"benchmark runs single-threaded, unset it or set 1")
    if args.workload == "all":
        run_all(args)
        return
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
