"""Span tracing around the public functions of each radcount layer.

A `Tracer` replaces every public function defined in a layer module with a
wrapper that records one span per call: name, start, end and the index of
the enclosing span.  The wrapper is patched into every namespace that bound
the function by name, not only into the defining module: `channels` does
`from .spectral1d import bs_spectrum`, so patching `spectral1d` alone would
miss every call made from `channels`.  Spans stay in memory; `dump` writes
them out once the run is over.  `layer_metrics` turns one traced pass into
the per-layer numbers the benchmark reports.
"""
from __future__ import annotations

import functools
import json
import sys
import time
import types

LAYERS = ("potentials", "quadrature", "weakseq", "spectral1d", "channels",
          "bounds", "asymptotics", "cli")

# flags that describe the problem rather than put the count in doubt
INFORMATIONAL_FLAGS = frozenset({"domain-truncated", "below-spectrum",
                                 "zero-potential"})


def _doubtful(result) -> bool:
    return result.uncertainty > 0 or any(
        f not in INFORMATIONAL_FLAGS for f in result.flags)


# what a span keeps of its function's return value, for the work counters
_INFO = {
    "spectral1d.count_below_pruefer": lambda r: (r.steps, _doubtful(r)),
    "spectral1d.count_below_fd": lambda r: (r.extras.get("n_nodes", 0),
                                            _doubtful(r)),
    "spectral1d.bs_spectrum": lambda r: r[1]["n_nodes"],
    "asymptotics.sweep": lambda r: len(r.rows),
}


class Tracer:
    """Context manager: patches the layers on entry, restores on exit.

    `spans` holds [name, start, end, parent, info] records in call order;
    parent is the index of the enclosing span, or -1; info stays None when
    the call raised.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[dict, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, info = self.spans, self._stack, _INFO.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if info is not None:
                rec[4] = info(out)
            return out
        return traced

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"radcount.{layer}"]
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType)
                        and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}",
                                                         obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "radcount" and not modname.startswith("radcount."):
                continue
            ns = vars(mod)
            for attr, obj in list(ns.items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((ns, attr, obj))
                    ns[attr] = hit[1]
        return self

    def __exit__(self, *exc) -> None:
        for ns, attr, obj in reversed(self._undo):
            ns[attr] = obj
        self._undo.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": [s[:4] for s in self.spans]}, fh)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counters and times of one traced pass.

    Self time is a span's duration minus the time its child spans cover;
    calls run on one thread, so children never overlap.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    covered = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            covered[s[3]] += dur[i]
    self_s = {layer: 0.0 for layer in LAYERS}
    for i, s in enumerate(spans):
        self_s[s[0].split(".", 1)[0]] += dur[i] - covered[i]

    above = []  # names of each span's ancestors; parents come first
    for s in spans:
        p = s[3]
        above.append(above[p] | {spans[p][0]} if p >= 0 else frozenset())

    def named(*names):
        return [i for i, s in enumerate(spans) if s[0] in names]

    def outermost(idx, prefix):
        return [i for i in idx
                if not any(a.startswith(prefix) for a in above[i])]

    pruefer = named("spectral1d.count_below_pruefer")
    fd = named("spectral1d.count_below_fd")
    engine = pruefer + fd
    quad = outermost([i for i, s in enumerate(spans)
                      if s[0].startswith("quadrature.")], "quadrature.")
    reports = named("bounds.bound_report")
    under_total = [i for i in engine if "channels.total_count" in above[i]]
    useful = [i for i in under_total if "channels.channel_count" in above[i]]
    # the integrals the bounds ask for; the block sequence inside
    # bound_weak has its own counter
    quad_in_reports = [i for i in quad if "bounds.bound_report" in above[i]
                       and "weakseq.zeta_sequence" not in above[i]]

    def total(idx):
        return sum(dur[i] for i in idx)

    def kept(idx):
        # a call that raised kept nothing; its op is a miss, not a crash
        return [spans[i][4] for i in idx if spans[i][4] is not None]

    return {
        "spectral1d.pruefer_calls": len(pruefer),
        "spectral1d.pruefer_s": total(pruefer),
        "spectral1d.rk_steps": sum(k[0] for k in kept(pruefer)),
        "spectral1d.fd_calls": len(fd),
        "spectral1d.fd_s": total(fd),
        "spectral1d.fd_nodes": sum(k[0] for k in kept(fd)),
        "spectral1d.bisect_s": total(outermost(
            named("spectral1d.eigenvalues_below"),
            "spectral1d.eigenvalues_below")),
        "spectral1d.bs_s": total(named("spectral1d.bs_spectrum")),
        "spectral1d.bs_nodes": sum(kept(named("spectral1d.bs_spectrum"))),
        "spectral1d.doubt_flagged": sum(1 for k in kept(engine) if k[1]),
        "channels.total_calls": len(named("channels.total_count")),
        "channels.self_s": self_s["channels"],
        "channels.cutoff_counts": sum(
            1 for i in engine if "channels.channel_cutoff" in above[i]),
        "channels.useful_frac": (len(useful) / len(under_total)
                                 if under_total else 0.0),
        "channels.checks_s": total(named("channels.sandwich_check",
                                         "channels.bs_duality_check")),
        "quadrature.calls": len(quad),
        "quadrature.self_s": self_s["quadrature"],
        "potentials.integral_calls": len(named("potentials.integral_J",
                                               "potentials.integral_logweight")),
        "potentials.to_log_s": total(outermost(named("potentials.to_log"),
                                               "potentials.to_log")),
        "weakseq.zeta_calls": len(named("weakseq.zeta_sequence")),
        "weakseq.self_s": self_s["weakseq"],
        "bounds.self_s": self_s["bounds"],
        "bounds.quad_per_report": (len(quad_in_reports) / len(reports)
                                   if reports else 0.0),
        "asymptotics.self_s": self_s["asymptotics"],
        "asymptotics.rows": sum(kept(named("asymptotics.sweep"))),
        "cli.self_s": self_s["cli"],
    }
