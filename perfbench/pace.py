"""CPU-speed calibration, so that pass times compare across a shared host.

A shared host's CPU speed drifts by 20-40% over seconds to minutes (other
tenants change the turbo frequency and the cache and memory traffic).  Raw
wall times of the same code then spread more between runs than any useful
regression bound.  The drift is the same for all pure-Python work on one
vCPU within a fraction of a second, so the benchmark divides it out: a fixed
kernel of integer, big-integer, dict and string work runs every
``INTERVAL_S`` in the timed process (from a ``SIGALRM`` handler, in the main
thread, between bytecodes), and each stretch of workload time is scaled by
``REF_KERNEL_S / k``, where ``k`` is the running median of the kernel
durations around it.  The result is the workload's time at a fixed reference
speed, the speed at which one kernel takes ``REF_KERNEL_S``; the kernel's own
time is left out.  ``REF_KERNEL_S`` is a constant, so a faster program gives
a smaller figure on any host; 1.9 ms is what the kernel took when it was
sized, on the 2-vCPU Intel Xeon VM the benchmark was written on (it took
1.1-2.5 ms there as the host's load changed).

The module imports only ``signal`` and ``time``, so that a process can
start a ``Pacer`` before its first import of netlab and normalise its set-up
time the same way.
"""

from __future__ import annotations

import signal
import time

REF_KERNEL_S = 0.0019
INTERVAL_S = 0.1
KERNEL_ITERS = 3000
SMOOTH = 5  # kernel samples in the running median


def kernel(n: int = KERNEL_ITERS) -> int:
    x, acc, d, big = 1, 0, {}, (1 << 160) + 7
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        k = x & 255
        d[k] = d.get(k, 0) + i
        big = (big * (x | 1)) >> 32
        acc += len(str(k))
    return acc + len(d) + (big & 1)


def _median(values):
    v = sorted(values)
    mid = len(v) // 2
    return v[mid] if len(v) % 2 else (v[mid - 1] + v[mid]) / 2


def kernel_s(reps: int) -> float:
    """Median duration of ``reps`` kernels run back to back."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return _median(times)


class Pacer:
    """Interleaves the kernel with the workload and rescales the workload time.

    ``start``/``stop`` bracket the timed region; ``normalised_s`` is its
    workload time at the reference speed and ``raw_s`` its workload time on
    this host, both without the kernel's own time.
    """

    def __init__(self):
        self.stretches: list[float] = []  # workload time before each kernel
        self.kernels: list[float] = []
        self._mark = 0.0
        self._prev = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.stretches.append(t0 - self._mark)
        self.kernels.append(t1 - t0)
        self._mark = time.perf_counter()

    def start(self) -> None:
        self._prev = signal.signal(signal.SIGALRM, self._tick)
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._prev)
        self.stretches.append(time.perf_counter() - self._mark)
        if not self.kernels:  # a region shorter than one interval
            self.kernels.append(kernel_s(SMOOTH))

    @property
    def raw_s(self) -> float:
        return sum(self.stretches)

    @property
    def normalised_s(self) -> float:
        ks, half, total = self.kernels, SMOOTH // 2, 0.0
        for i, stretch in enumerate(self.stretches):
            j = min(i, len(ks) - 1)  # the tail stretch takes the last kernel's window
            k = _median(ks[max(0, j - half):j + half + 1])
            total += stretch * REF_KERNEL_S / k
        return total

    @property
    def scale(self) -> float:
        """``normalised_s / raw_s``, above 1 where the host ran faster than
        the reference speed."""
        return self.normalised_s / self.raw_s
