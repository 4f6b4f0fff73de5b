"""Reference-speed clock: wall times normalised by a fixed reference kernel.

On a shared virtual machine the speed of a core switches between fast and
slow phases within seconds, by tens of percent, and CPU time moves with
it.  The benchmark therefore runs a short fixed kernel (a pure Python
loop and a numpy complex exponential, like the package's own mix) in
bursts between its operations, and reports each timed interval (a round,
a set-up, a cold process) as

    normalised seconds = wall seconds * REF_S / (mean kernel time of the
                         bursts taken between and right around its operations)

that is, in seconds at the speed where the kernel takes REF_S.  The
kernel is benchmark code and does not change with the package, so a
change to the package moves normalised and wall times alike.  Raw wall
times are kept next to the normalised ones in the results file.
"""

from __future__ import annotations

import statistics
import time

REF_S = 0.005   # nominal kernel time: about one run on a 2 GHz Xeon vCPU
BURST = 5       # kernel runs per burst
PAD_S = 0.1     # bursts this close to an interval belong to it: the ones right around it

_Z = None


def _kernel() -> float:
    global _Z
    import numpy as np

    if _Z is None:
        _Z = 1j * np.linspace(0.0, 1.0, 40_000)
    t = time.perf_counter()
    acc = 0
    for i in range(40_000):
        acc += i * i % 7
    np.exp(_Z).sum()
    return time.perf_counter() - t


def burst() -> list[float]:
    """[wall clock, mean seconds] of BURST consecutive kernel runs."""
    return [time.time(), statistics.fmean(_kernel() for _ in range(BURST))]


def factor(bursts: list[list[float]], start: float, end: float) -> float:
    """Multiplier turning wall seconds spent in [start, end] into normalised seconds.

    Uses the bursts taken within PAD_S of the interval (those run between
    and right around its operations); the run's mean if there are none.
    """
    near = [b[1] for b in bursts if start - PAD_S <= b[0] <= end + PAD_S]
    return REF_S / statistics.fmean(near or [b[1] for b in bursts])
