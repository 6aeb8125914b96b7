"""Job time at a nominal host speed, from a reference run alongside the job.

The CPU speed this benchmark sees on a shared host drifts by up to 2x over
minutes, which swamps the differences it is meant to show. So, while a job
runs, a fixed pure-Python reference routine (the benchmark's own code, never
rcumem's) is run from a SIGALRM timer every PERIOD_S. The job's wall time
minus the time spent in the reference, times NOMINAL_REF_S over the mean
reference duration, is the time the job would take on a host that runs the
reference in NOMINAL_REF_S: a job that does less work reads lower, a host
that runs slower does not. The mean, not the median, matches the job, which
absorbs every slow moment of its run. On a 2-vCPU KVM guest (Xeon, Sapphire
Rapids), over ten 25-second runs per workload, the quartile spread of the
per-run median job time, as a share of its median, was 0.185 / 0.184 / 0.119
raw and 0.036 / 0.031 / 0.017 rescaled (sweep_writes / oracles / sweep_reads).
The reference is pure Python, so it slightly over-corrects work done in
numpy and scipy (oracles) when the host slows.

Only the main thread may use HostTimer (signal handlers run there).
"""
from __future__ import annotations

import heapq
import math
import signal
import time

PERIOD_S = 0.1
# the reference's duration on an unloaded 2-vCPU Xeon (Sapphire Rapids) guest;
# a fixed scale, so that nominal seconds read close to wall seconds there
NOMINAL_REF_S = 0.004


class _Uniforms:
    """Blocked pseudo-uniforms with a method call per draw, like the simulator's sources."""

    __slots__ = ("x", "buf", "i")

    def __init__(self):
        self.x, self.buf, self.i = 0.3, [0.0] * 64, 64

    def next(self) -> float:
        if self.i >= 64:
            x, buf = self.x, self.buf
            for j in range(64):
                x = (x * 997.0 + 0.1234567) % 1.0
                buf[j] = x
            self.x, self.i = x, 0
        u = self.buf[self.i]
        self.i += 1
        return u

    def exponential(self, rate: float) -> float:
        return -math.log(1.0 - self.next()) / rate


def _term(k: int, a: float, r: float) -> float:
    if not (math.isfinite(a) and a > 0):
        raise ValueError(a)
    return math.exp(-r * k) * a**k / (k + 1.0)


def reference() -> float:
    """A fixed mix of interpreter work: a tight heap/dict loop, then a small event loop."""
    heap: list[float] = []
    slots: dict[int, float] = {}
    x = 0.5
    for i in range(5000):
        x = x * 1.000001 + 0.25
        slots[i & 255] = x
        heapq.heappush(heap, (x * i) % 97.0)
        if len(heap) > 64:
            heapq.heappop(heap)
    src, t, done, acc = _Uniforms(), 0.0, [], 0.0
    counts = {0: 0}
    for i in range(700):
        t += src.exponential(2.0)
        heapq.heappush(done, t + src.exponential(1.0))
        while done and done[0] < t:
            heapq.heappop(done)
            counts[i & 63] = counts.get(i & 63, 0) + 1
        acc += _term(i % 40, 0.9, 0.1)
    return acc + x


def reference_time() -> float:
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


class HostTimer:
    """Times a block and samples the reference through it.

    After the block: `wall` (seconds, reference time included), `spent`
    (seconds in the reference inside the block) and `samples` (reference
    durations; the first is taken just before the block, so a block shorter
    than PERIOD_S still has one).
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self.wall = 0.0
        self._start = 0.0
        self._old_handler = None

    def _on_alarm(self, signum, frame) -> None:
        d = reference_time()
        self.samples.append(d)
        self.spent += d

    def __enter__(self) -> HostTimer:
        self.samples, self.spent = [reference_time()], 0.0
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._old_handler)

    def mean_ref(self) -> float:
        return math.fsum(self.samples) / len(self.samples)


def nominal_s(net_s: float, mean_ref_s: float) -> float:
    """Seconds of work measured at a reference duration of mean_ref_s, rescaled to NOMINAL_REF_S."""
    return net_s * NOMINAL_REF_S / mean_ref_s
