"""Machine-speed reference: a fixed kernel timed alongside every workload.

The benchmark runs on a shared host whose speed wanders by tens of percent
over seconds to minutes (other tenants on the same cores), in CPU time as
well as wall time.  The kernel below does a fixed mix of the work polphase
does (interpreter-bound scalar Python, small 2x2 complex numpy products and
FFT/convolution over 640-sample rows) and never calls polphase, so a change
to the program cannot move it.  Timed next to the workload, its duration
over REFERENCE_S is the host's slowness at that moment; run.py divides
each end-to-end timing by the slowness measured next to it, so the figures
read as at the reference speed, and keeps the raw ones in the result record.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: kernel duration at the reference speed; a round figure near its time on
#: the 2-vCPU x86-64 VM (2.0 GHz, Python 3.11, numpy 2.4) the benchmark was
#: tuned on, where it took 18-24 ms.  It only sets the scale of the figures.
REFERENCE_S = 0.025

_ROWS = np.random.default_rng(0).normal(size=(240, 640))
_TAPS = np.hanning(11)
_STEP = np.array([[math.cos(0.1), -math.sin(0.1)], [math.sin(0.1), math.cos(0.1)]]) * np.exp(0.05j)


def _work() -> float:
    acc = 0.0
    for k in range(40000):
        acc += math.sin(k * 1e-3) * k
    m = np.eye(2, dtype=complex)
    for _ in range(2400):
        m = m @ _STEP
    for row in _ROWS:
        acc += float(np.abs(np.fft.rfft(row)).max()) + float(np.convolve(row, _TAPS, mode="valid").sum())
    return acc + abs(m[0, 0])


def sample() -> tuple[float, float]:
    """One timing of the kernel: (wall seconds, process CPU seconds)."""
    c0 = time.process_time()
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0, time.process_time() - c0
