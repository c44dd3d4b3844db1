"""Machine-speed sampling, to take the machine's own drift out of pass times.

On a shared virtual machine the speed of one core drifts by 30% and more
within a minute, and the same pass over the same batch reads anywhere in
that range.  A `Speedometer` samples the speed while a pass runs: every
`INTERVAL` seconds a SIGALRM handler interrupts the pass between two Python
bytecodes and times a small fixed kernel.  The kernel does the kind of work
radcount does (a scalar RK4 phase integration with `math` calls and a
Python callback, a Sturm-like recurrence, small numpy array operations) and
uses nothing from radcount.  Its time in the handler rises and falls with
the time of the work around it, so a time measured while some samples were
taken, times `scale(samples)`, is the time the work would take on a machine
where the kernel takes `KERNEL_REF_S`; that is how the benchmark reports
its times.  The handler's own time is kept in `spent`, so callers can take
it out of what they measured.
"""
from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

INTERVAL = 0.2
# mean in-pass kernel time on the 2-core Xeon VM the benchmark was tuned
# on; reported times are seconds at that speed
KERNEL_REF_S = 1.0e-3

_X = np.linspace(0.0, 4.0, 256)


def _g(t: float) -> float:
    return math.exp(-t * t) / (1.0 + t * t)


def _rhs(t: float, th: float) -> float:
    return math.cos(th) ** 2 + 30.0 * _g(t) * math.sin(th) ** 2


def kernel() -> float:
    th, t, h = 0.0, 0.0, 0.01
    for _ in range(200):
        k1 = _rhs(t, th)
        k2 = _rhs(t + 0.5 * h, th + 0.5 * h * k1)
        k3 = _rhs(t + 0.5 * h, th + 0.5 * h * k2)
        k4 = _rhs(t + h, th + h * k3)
        th += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        t += h
    d, negative = math.inf, 0
    for i in range(400):
        d = 2.0 + 0.001 * i - (0.0 if d == math.inf else 1.0 / d)
        negative += d < 0.0
    s = 0.0
    for _ in range(10):
        s += float(np.sum(np.exp(-_X * _X) * np.cos(3.0 * _X)))
    return th + negative + s


class Speedometer:
    """Context manager: samples the kernel every INTERVAL seconds."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False
        self._old = None

    def _tick(self, *_) -> None:
        if self._busy:  # a late signal inside the handler itself
            return
        self._busy = True
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt
        self._busy = False

    def __enter__(self) -> "Speedometer":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        if not self.samples:  # a pass shorter than INTERVAL
            self._tick()

    def scale(self, samples: list[float] | None = None) -> float:
        """Factor from seconds measured while `samples` were taken (all of
        this meter's samples if there are none) to reference seconds."""
        return KERNEL_REF_S / statistics.fmean(samples or self.samples)
