"""CPU-speed sampling for a shared, noisy host.

A shared virtual machine can switch between a fast and a slow state
whatever the program does; on a 2-core x86 VM the two are about 1.6x
apart and alternate every few seconds.
:class:`SpeedSampler` times a small fixed kernel owned by the benchmark 40
times a second from an interval-timer signal, during the jobs and between
them.  The kernel has the instruction mix of the jobs: interpreted float
arithmetic with many small calls and growing lists (the DP5(4) loop), a
numpy pass over an L2-sized array and float formatting (CSV emission).

A job's time, less the kernel's own time inside it, divided by the mean
kernel time inside it and times :data:`REFERENCE_S`, is its time at the
reference speed.  The kernel is not part of the program, so a change to
the program moves normalized times as much as raw ones.  The sampler runs
in the benchmark's own process and thread; its signal handler touches no
program state.
"""

import math
import signal
import time
from array import array
from bisect import bisect_left

import numpy as np

# Kernel time in the fast state of the reference machine (2-core x86 VM,
# Python 3.11.7, numpy 2.4.6).
REFERENCE_S = 0.0006
TICK_S = 0.025
# A job's speed is taken over the job and this much time on each side,
# so that even a job shorter than a tick gets several kernel timings.
PAD_S = 0.1


def _rhs(t, x, v):
    return v, -0.1 * v - math.sin(x) + 0.3 * math.cos(0.8 * t)


_FIELD = np.linspace(0.0, 1.0, 32768)   # 256 KiB, about an L2 cache


def _kernel() -> float:
    t, x, v, h = 0.0, 0.5, 0.0, 0.01
    ts, xs, vs = [t], [x], [v]
    for _ in range(150):
        k1x, k1v = _rhs(t, x, v)
        k2x, k2v = _rhs(t + 0.5 * h, x + 0.5 * h * k1x, v + 0.5 * h * k1v)
        k3x, k3v = _rhs(t + 0.5 * h, x + 0.5 * h * k2x, v + 0.5 * h * k2v)
        k4x, k4v = _rhs(t + h, x + h * k3x, v + h * k3v)
        x += h / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        v += h / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        t += h
        ts.append(t)
        xs.append(x)
        vs.append(v)
    a = np.sqrt(np.abs(np.sin(_FIELD * x) + 0.5))
    text = "\n".join(",".join(f"{u:.17g}" for u in row)
                     for row in zip(ts[:60], xs, vs))
    return float(a[3]) + len(text) + float(np.asarray(xs).sum())


class SpeedSampler:
    """Kernel timings taken every :data:`TICK_S` while the sampler is on."""

    def __init__(self):
        self.starts = array("d")
        self.costs = array("d")
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        _kernel()
        self.starts.append(t0)
        self.costs.append(time.perf_counter() - t0)

    def normalize(self, t0: float, t1: float) -> float:
        """The interval's length at the reference speed, ticks removed."""
        i = bisect_left(self.starts, t0)
        j = bisect_left(self.starts, t1)
        own = t1 - t0 - sum(self.costs[i:j])
        around = self.costs[bisect_left(self.starts, t0 - PAD_S):
                            bisect_left(self.starts, t1 + PAD_S)]
        # The speed can change within a job, so the mean speed counts;
        # dropping the slowest tenth ignores ticks that met a page fault
        # or a garbage collection.
        kept = sorted(around)[:max(1, len(around) * 9 // 10)]
        return own * REFERENCE_S * len(kept) / sum(kept)
