"""A speed probe, so that times taken minutes apart can be compared.

On the two-core cloud VM this benchmark was written on, a fixed kernel's
run time changes by up to a factor of three within seconds, and CPU time
moves with wall time, so the process is running on the core but slower.
The median operation time of one workload moved by 40% between two sets
of the same runs.  No run length averages that out.

The probe times a small fixed kernel every PERIOD_S seconds of wall time,
from a SIGALRM handler on the measured thread itself, so its samples see
the speed the program saw.  `Probe.scaled` turns the wall time of an
interval into the time the same work takes at the reference speed: the
wall time minus the probe's own share, times REF_S over the median probe
sample in the interval.

The speed changes do not slow all code alike, so the kernel mixes what the
program does: a Python loop, calls on small numpy arrays and a small
scipy.sparse product.  Against one workload's operations repeated over
minutes, this mix left less spread than any one of its parts.  Each sample
calls the kernel twice and times the second call: timed straight after the
program, the kernel took 290-340 us on full_scale but 110-120 us on
oracle, because the program had emptied the caches, so a change to the
program's memory use would have moved the reference speed.  The warm
kernel does not see slowdowns that only hit memory-bound code, which
leaves full_scale with more spread than oracle.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
import scipy.sparse

PERIOD_S = 0.01
# the kernel's median time at the reference speed: about what it took on
# that VM while the VM ran fast
REF_S = 75e-6
WARM_CALLS = 200

_rng = np.random.default_rng(0)
_VECTOR = _rng.random(20)
_MATRIX = scipy.sparse.random(30, 30, density=0.2, format="csr",
                              random_state=0)
_X = _rng.random(30)


def kernel() -> float:
    total = 0
    for i in range(500):
        total += i * i
    for _ in range(4):
        total += _VECTOR.dot(_VECTOR) + np.exp(_VECTOR).sum()
    for _ in range(2):
        total += (_MATRIX @ _X).sum()
    return total


class Probe:
    """Samples the kernel's run time every PERIOD_S while started."""

    def __init__(self):
        self.samples: list[float] = []
        for _ in range(WARM_CALLS):
            kernel()

    def _sample(self, signum, frame) -> None:
        # the first call refills the caches the program emptied, so that
        # the timed one does not depend on what the program keeps in them
        kernel()
        started = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - started)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        """Where the samples of an interval that starts now will begin."""
        return len(self.samples)

    def factor(self, since: int) -> float:
        """Reference speed over the speed seen since `mark()` gave `since`."""
        taken = self.samples[since:]
        if not taken:
            raise RuntimeError("interval too short for a probe sample")
        return REF_S / statistics.median(taken)

    def scaled(self, wall: float, since: int) -> float:
        """`wall` seconds since `mark()` gave `since`, at the reference
        speed and without the probe's own time."""
        own = sum(self.samples[since:])
        return (wall - own) * self.factor(since)
