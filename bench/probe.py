"""A speed probe that scales a child's CPU time to a reference host speed.

On a shared host the CPU time of the same workload body drifts by a
third within minutes, with no steal time recorded: other tenants slow
the core the child runs on. Wall time and process CPU time drift alike.
A :class:`SpeedProbe` measures that drift while the child runs. Every
:data:`INTERVAL_S` of the child's CPU time, a ``SIGPROF`` timer runs two
fixed kernels, best of three each: an interpreter loop of integer and
container operations and a small numpy sort and reduction. The mean time
of each kernel over the run, over its time on the reference host, is
that kind of code's slowdown. The probe reports the mean of the two.
Equal weights follow most of the drift of every workload, from the
pure-Python event engine to the numpy attack estimator. A CPU time
divided by the slowdown is in seconds on the reference host.

The kernels read only their own data, so the program computes exactly
what it would without them; they cost about 3% of the CPU time.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Callable, Dict, List

import numpy as np

__all__ = ["INTERVAL_S", "REFERENCE_S", "SpeedProbe"]

#: Process CPU time between two samples.
INTERVAL_S = 0.025
#: Each kernel's best-of-three time on the reference host: a 2-CPU
#: x86-64 KVM guest (Xeon, Python 3.11.7, numpy 2.4.6) in a quiet spell.
REFERENCE_S: Dict[str, float] = {"python": 155e-6, "numpy": 56e-6}
_REPEATS = 3


class SpeedProbe:
    """Samples both kernels on a CPU-time timer between start and stop."""

    def __init__(self) -> None:
        table = {i: i * 7 for i in range(256)}
        slots = list(range(64))
        values = np.random.default_rng(1).integers(0, 1 << 30, size=8192)
        starts = np.arange(0, values.size, 32)

        def python_kernel() -> int:
            acc = 0
            for i in range(1000):
                acc = (acc * 31 + table[i & 255] + slots[acc & 63]) \
                    & 0xFFFFFFFF
            return acc

        def numpy_kernel() -> np.ndarray:
            ordered = np.sort(values)
            return np.bitwise_or.reduceat(ordered ^ (ordered >> 3), starts)

        self._kernels: Dict[str, Callable[[], object]] = {
            "python": python_kernel, "numpy": numpy_kernel}
        self.times: Dict[str, List[float]] = {name: []
                                              for name in self._kernels}

    def sample(self, *_signal_args) -> None:
        """Time each kernel once, best of :data:`_REPEATS` runs."""
        clock = time.perf_counter
        for name, kernel in self._kernels.items():
            best = float("inf")
            for _ in range(_REPEATS):
                started = clock()
                kernel()
                best = min(best, clock() - started)
            self.times[name].append(best)

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def slowdown(self) -> float:
        """Mean over both kernels of mean time / reference time."""
        if not self.times["python"]:
            self.sample()
        return statistics.fmean(statistics.fmean(self.times[name])
                                / REFERENCE_S[name] for name in REFERENCE_S)
