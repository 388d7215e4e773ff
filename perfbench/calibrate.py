"""Machine-speed calibration kernels.

The benchmark's host is shared: the same single-threaded computation can run
up to 1.8 times slower for stretches of 5 to 30 seconds, which no median over
a 20-second run removes. Each timed operation is therefore bracketed by a
fixed kernel that uses none of gkdv's code. The operation's wall time is
scaled by ``reference_s`` over the mean wall time of the kernel runs before
and after it, and its CPU time likewise by the kernel's mean CPU time. A
kernel resembles the work it calibrates: FFTs and element-wise products for
time stepping and diagnostics, dense symmetric eigensolves for the spectrum,
interpreter work for set-up.

``reference_s`` is each kernel's fastest time on the reference machine
(2-core Xeon, numpy 2.4.6 with OpenBLAS, one thread), so scaled figures are
in units of that machine's quiet speed. Run this file to time the kernels on
the current machine:

    python3 perfbench/calibrate.py
"""

from __future__ import annotations

import statistics
import time

import numpy as np
# bound at import, before tracing rebinds numpy.fft, so kernels stay untraced
from numpy.fft import irfft, rfft


def _fft_work(reps: int = 1500) -> None:
    x = np.random.default_rng(0).standard_normal(4096)
    k = 0.01 * np.arange(2049)
    for _ in range(reps):
        u = irfft(k * rfft(x), 4096)
        u = u * u * u


def _eigh_work(reps: int = 10) -> None:
    import scipy.linalg

    a = np.random.default_rng(0).standard_normal((300, 300))
    a = a + a.T
    for _ in range(reps):
        scipy.linalg.eigh(a)


def _python_work(reps: int = 1_500_000) -> None:
    s = 0
    for i in range(reps):
        s += i * i


class Kernel:
    def __init__(self, name: str, work, reference_s: float):
        self.name = name
        self.work = work
        self.reference_s = reference_s

    def time(self) -> tuple:
        """Wall and CPU seconds of one run of the kernel."""
        w, c = time.perf_counter(), time.process_time()
        self.work()
        return time.perf_counter() - w, time.process_time() - c

    def scale(self, before: tuple, after: tuple) -> tuple:
        """Factors that turn a wall and a CPU time measured between two
        kernel runs into reference seconds."""
        return (self.reference_s / (0.5 * (before[0] + after[0])),
                self.reference_s / (0.5 * (before[1] + after[1])))


KERNELS = {
    "fft": Kernel("fft", _fft_work, 0.100),
    "eigh": Kernel("eigh", _eigh_work, 0.092),
    "python": Kernel("python", _python_work, 0.084),
}


if __name__ == "__main__":
    for kernel in KERNELS.values():
        kernel.time()
        runs = [kernel.time()[0] for _ in range(20)]
        print(f"{kernel.name:7s} min {min(runs):.4f} s  median {statistics.median(runs):.4f} s  "
              f"reference {kernel.reference_s:.4f} s")
