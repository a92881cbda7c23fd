"""Host-speed calibration and the benchmark's clock.

The virtual machines this benchmark runs on disturb timing in two ways that
the guest cannot prevent:

* the vCPU is stolen for milliseconds at a time, often enough to move a p99;
* the CPU runs up to 1.7x slower for milliseconds to minutes at a time, and
  the thread's CPU clock slows down with the wall clock.

The first is removed by reading every time from the thread's CPU clock
(CLOCK_THREAD_CPUTIME_ID), which stops while the thread does not run.  For
the second, a short fixed kernel runs before every control step, outside the
timed step, and the step's time is scaled by REF_NS over the mean kernel time
just before and just after it.  The kernel mixes interpreted arithmetic with
small numpy calls, as a control step does, and both slow down by about the
same factor: measured, a step slowed by the kernel's factor to a power of
0.85 to 1.0, which leaves a run-to-run spread of a few percent.  Start-up
work such as imports does not follow the kernel, so set-up time is not
scaled.

Normalized times read "as if the kernel took REF_NS".  REF_NS is close to the
kernel's time in the fast phase of the 2-core x86-64 VM (Python 3.11, numpy
2.4) the benchmark was written on, so normalized times there read about as
raw ones do when the host is quiet.  Both measures assume a single-threaded
program that does not wait: the benchmark checks that no thread or child
process was started, and prints raw wall-clock throughput for comparison.
"""
from __future__ import annotations

import time

import numpy as np

REF_NS = 42_000

_A = np.arange(10.0)


def kernel() -> float:
    s = 0.0
    a = _A
    for i in range(10):
        b = a * 1.5
        s += float(b.mean()) + i * 0.5
    return s


now = time.thread_time_ns


def time_kernel() -> int:
    t0 = now()
    kernel()
    return now() - t0


def scales(kernel_ns) -> np.ndarray:
    """Per step, REF_NS over the mean of the kernel runs just before it
    (sample i) and just after it (sample i + 1; the last step has only i)."""
    k = np.asarray(kernel_ns, dtype=float)
    if k.size == 0:
        raise ValueError("no calibration samples")
    after = np.append(k[1:], k[-1])
    return 2.0 * REF_NS / (k + after)

