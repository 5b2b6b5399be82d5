"""Host speed sampled while a job runs, to take host drift out of job times.

On a shared 2-vCPU host the same pure-Python work runs up to 20-40%
slower for stretches of seconds to minutes, so raw job times of one
commit differ that much from run to run. While a job runs, SIGALRM
fires every INTERVAL_S seconds and the handler times a fixed
pure-Python kernel in the main thread's CPU time, so that waiting for
the GIL while `foliation` worker threads run is not counted. The mean
of REF_KERNEL_S / kernel time over the job is the host's speed
relative to the reference, and

    corrected time = (raw time - time spent in the kernel) * speed

is the job's time on a host where the kernel takes REF_KERNEL_S, the
median kernel time on the host the benchmark was tuned on (2-vCPU
Intel Xeon VM, CPython 3.11.7). On that host thread CPU time drifts
with wall time (no steal time is reported), so the kernel tracks the
drift. On single-threaded jobs this cut the run-to-run spread from
about 15% to about 2%.

The kernel uses no charfol code, so a change to charfol cannot change
the reference it is measured against. It runs in the main thread,
which is where Python runs signal handlers.
"""

from __future__ import annotations

import signal
import statistics
from time import thread_time

INTERVAL_S = 0.05
REF_KERNEL_S = 1.4e-4


def kernel() -> float:
    """CPU seconds of this thread taken by a fixed mix of interpreter
    work."""
    t0 = thread_time()
    acc, table = 0.0, {}
    for i in range(400):
        pair = (i, i * 0.5)
        table[i & 63] = pair
        acc += pair[1] * 1.0001 - (i % 7)
        acc = abs(acc) ** 0.5
    return thread_time() - t0


class SpeedSampler:
    """`with SpeedSampler() as s:` samples the kernel around and inside
    the block; `s.correct(raw)` turns a raw time measured inside the
    block into the corrected time."""

    def __enter__(self):
        self.inside = []
        self.edges = [kernel()]
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def _sample(self, signum, frame):
        self.inside.append(kernel())

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.edges.append(kernel())
        return False

    def speed(self) -> float:
        """Mean host speed relative to the reference, over the block."""
        return statistics.fmean(REF_KERNEL_S / k
                                for k in self.inside + self.edges)

    def correct(self, raw: float) -> float:
        return (raw - sum(self.inside)) * self.speed()
