"""Sample the speed of the CPU that the benchmark's runs share.

Usage: python3 host_probe.py

run.py starts this script pinned to the same CPU as the workload's child
interpreters.  Every PERIOD_S seconds it times a small fixed job (numpy
on a 1e5-element array, 128x128 FFTs, an interpreter loop) by its own
CPU time, which the child's work does not enter.  A shared host makes the
job slower exactly when it makes the workload slower.  After printing
``ready`` it samples until SIGTERM (or until its parent is gone), then
prints one line of ``timestamp:cpu_seconds`` pairs, the timestamp being
``time.perf_counter`` at the middle of the job (a system-wide monotonic
clock on Linux).
"""

import os
import signal
import sys
import time

import numpy as np

PERIOD_S = 0.2

_rng = np.random.default_rng(12345)
_x = _rng.random(100_000)
_idx = (_x * 32).astype(np.intp)
_grid = _rng.standard_normal((128, 128))


def job():
    y = np.sin(_x) * 0.5 + _x
    np.bincount(_idx, weights=y, minlength=32)
    for _ in range(5):
        np.fft.irfft2(np.fft.rfft2(_grid), s=_grid.shape)
    total = 0
    for i in range(5000):
        total += i
    return total


def main():
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    parent = os.getppid()
    job()  # first call pays numpy's lazy set-up
    print("ready", flush=True)
    samples = []
    while not stopping and os.getppid() == parent:
        time.sleep(PERIOD_S)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        job()
        wall1, cpu1 = time.perf_counter(), time.process_time()
        samples.append(f"{(wall0 + wall1) / 2:.6f}:{cpu1 - cpu0:.9f}")
    print(" ".join(samples), flush=True)


if __name__ == "__main__":
    sys.exit(main())
