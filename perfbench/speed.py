"""Reference kernel that gauges how fast the CPU runs at the moment.

On a shared virtual machine the CPU speed the benchmark gets changes, by
up to about 1.7x, from second to second and for stretches of minutes
(other tenants on the same host); process CPU time slows down with wall
time, so it does not help.  The end-to-end times are therefore reported
at a fixed reference speed.  The reference kernel is timed between the
timed samples of a run, in the same process, and

    time at reference speed = median(samples) * REF_S / median(kernel times)

is the time a sample would take on a CPU on which the kernel takes REF_S.
Scaling each sample by the kernel times right next to it instead was
tried and dropped: one slow kernel run (a spike of a tenth of a second,
which a sample of seconds averages out) then skews two samples.
The kernel is a LAPACK eigensolve (scipy.linalg.eig of a fixed 100x100
real matrix, 24 times, about 0.25 s), the kind of work that dominates the
spectral and EP-search workloads; the other workloads slow down with it
when the host is busy.  A kernel that mixed in an interpreted Python loop
of equal time tracked the workloads worse (the loop swings more than any
workload does).  A kernel much shorter than a sample follows the
second-to-second swings that a sample averages out, so it is not made
shorter.  It never calls lioueps, so no change to the program moves it.
The raw wall times and the kernel times are kept in the result record.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.linalg

# a round figure near the kernel time on a 2-core shared x86_64 VM (Xeon, OpenBLAS)
REF_S = 0.2
_MATRIX = np.random.default_rng(0).standard_normal((100, 100))


def warm_up():
    """Let LAPACK finish its lazy set-up before the kernel is timed."""
    scipy.linalg.eig(_MATRIX)


def reference_s() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    for _ in range(24):
        scipy.linalg.eig(_MATRIX)
    return time.perf_counter() - t0


def at_reference(samples: list[float], refs: list[float]) -> float:
    """Median of samples at the reference speed, given the kernel times
    refs taken between them."""
    return statistics.median(samples) * REF_S / statistics.median(refs)
