"""The host's pace, from a fixed computation timed between operations.

On the shared 2-core reference host, runs of one workload differ in
speed by 10% to over 50%, in spells of seconds to minutes, with process
CPU time equal to wall time throughout: the host's contention, not the
program, sets that drift. A fixed computation that does not touch
levelcross drifts with it. Its mean time over a run, divided by its time
on the reference machine, is the run's pace factor; run.py divides
operation times by it, so they read as seconds at the reference
machine's pace. A change to levelcross moves them; the host's drift
mostly does not.
"""

import statistics
import time

import numpy as np

REFERENCE_S = 4.0e-3   # mean sample on the reference machine (2 cores, Python 3.11, numpy 2.4)
EVERY_S = 0.1          # seconds of operation time between two samples


class Pace:
    """Samples the fixed computation after operations, one sample per
    EVERY_S of their time, so each spell of the host counts by its length."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._floats = rng.standard_normal(400).tolist()
        self._matrices = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
                          for _ in range(40)]
        self._z = rng.standard_normal(20_000) + 1j * rng.standard_normal(20_000)
        self._owed = 0.0
        self.samples = []
        self._kernel()

    def _kernel(self):
        """The three kinds of work the workloads do: Python formatting and
        arithmetic, one small eigenproblem at a time, vectorised complex arrays."""
        ",".join(f"{x:.9e}" for x in self._floats)
        sum(i * i % 7 for i in range(4000))
        for matrix in self._matrices:
            np.linalg.eigvals(matrix)
        for _ in range(5):
            np.sort(np.abs(self._z * self._z + 1.0) ** 0.5)

    def _sample(self):
        started = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - started)

    def after_op(self, seconds):
        self._owed += seconds
        while self._owed >= EVERY_S:
            self._owed -= EVERY_S
            self._sample()

    def factor(self, statistic=statistics.mean):
        """`statistic` of the samples over the reference sample: above 1
        on a host slower than the reference machine."""
        if not self.samples:
            self._sample()
        return statistic(self.samples) / REFERENCE_S
