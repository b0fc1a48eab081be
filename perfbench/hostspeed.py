"""Host-speed reference: scale measured times to a fixed host speed.

The benchmark shares its cores with other work, and the speed of the host
drifts by tens of percent over tens of seconds (README.md, "Host speed").
To take that drift out of the pass times, the benchmark times a fixed
pure-Python kernel all through the work it measures and scales the work's
time by ``REF_KERNEL_S / kernel time``: the time the work would take on a
host that runs the kernel in ``REF_KERNEL_S``.  Kernel time is never part of
a measured time.

``HostSampler`` runs the kernel from a ``SIGALRM`` handler every
``INTERVAL_S`` of wall time while it is active, so the samples cover long
calls into the package as well as short ones.  Python runs the handler
between bytecodes, after any C call in progress returns.
"""

from __future__ import annotations

import signal
import time

# kernel time on the reference host (median over runs on a 2-CPU machine)
REF_KERNEL_S = 0.004
# wall time between two kernel runs
INTERVAL_S = 0.2


def kernel_s() -> float:
    """Wall time of one run of the fixed kernel: integer arithmetic and dict stores."""
    t0 = time.perf_counter()
    s = 0
    d = {}
    for i in range(30000):
        s += i * i % 7
        d[i & 255] = s
    return time.perf_counter() - t0


class HostSampler:
    """Times the work inside ``with`` and samples host speed while it runs.

    After the block, ``work_s`` is the block's wall time without the kernel
    runs, and ``reference_s()`` is that time scaled to the reference host.
    The kernel time behind the scaling is averaged over the block, each
    sample weighted by the work time next to it.
    """

    def __init__(self, interval_s: float = INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.work_s = 0.0
        self.kernel_total_s = 0.0  # time of every kernel run, first and last too
        self.segments: list[tuple[float, float]] = []  # (work s, kernel s)
        self._prev_kernel = 0.0
        self._start = self._last = 0.0
        self._old_handler = None
        self._sampling = False

    def __enter__(self) -> "HostSampler":
        self._start = time.perf_counter()
        self._prev_kernel = kernel_s()
        self._last = time.perf_counter()
        self.kernel_total_s = self._last - self._start
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self._sample()
        self.work_s = time.perf_counter() - self._start - self.kernel_total_s
        return False

    def _on_alarm(self, signum, frame) -> None:
        if not self._sampling:  # a late alarm while the kernel runs is dropped
            self._sample()

    def _sample(self) -> None:
        self._sampling = True
        now = time.perf_counter()
        k = kernel_s()
        self.segments.append((now - self._last, (self._prev_kernel + k) / 2))
        self._prev_kernel = k
        self._last = time.perf_counter()
        self.kernel_total_s += self._last - now
        self._sampling = False

    def kernel_mean_s(self) -> float:
        work = sum(w for w, _ in self.segments)
        return sum(w * k for w, k in self.segments) / work

    def reference_s(self) -> float:
        """The block's work time scaled to the reference host speed."""
        return self.work_s * REF_KERNEL_S / self.kernel_mean_s()
