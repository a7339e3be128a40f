"""Wall-clock timing scaled to a reference host speed.

The benchmark runs on shared machines whose speed drifts: on a 2-CPU box,
identical passes of ``pas bench`` took 3.6 s in one half-minute and 7.3 s
in the next, with CPU time equal to wall time and no steal time.  A fixed
reference kernel that does not touch pas is timed before the first
measured call and after every call; each call's wall time is scaled by
``REFERENCE_S`` over the mean of the kernel times just before and just
after it.  The kernel is the same on both sides of any comparison, so a
change to pas moves scaled time as it moves wall time.
"""

import time
from dataclasses import dataclass

import numpy as np

# Scaled seconds are seconds on a host that runs the kernel in REFERENCE_S.
REFERENCE_S = 0.2


@dataclass
class _Record:
    index: int
    value: float


class HostClock:
    """Times calls in wall seconds and samples the host's speed between them."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.normal(size=(400, 16))
        self._block = rng.normal(size=(1500, 256))
        self._basis = np.linalg.qr(rng.normal(size=(256, 2)))[0]
        self._text = ",".join(repr(float(x)) for x in rng.normal(size=20000))
        # 16 MiB, below the pinned mmap threshold so it is not re-faulted
        self._stream = rng.normal(size=2 << 20)
        self._out = np.empty_like(self._stream)
        self._kernel()               # first call pays numpy's lazy set-up
        self.kernel_s = [self._kernel()]

    def _kernel(self):
        """Fixed amounts of the kinds of work the workloads do."""
        t0 = time.perf_counter()
        for _ in range(2):           # interpreter: parsing and small objects
            values = [float(tok) for tok in self._text.split(",")]
            sums = {}
            for rec in (_Record(i, v) for i, v in enumerate(values[:5000])):
                sums[rec.index % 97] = sums.get(rec.index % 97, 0.0) + rec.value
        for _ in range(500):         # small arrays: numpy dispatch
            Y = self._small - self._small.mean(axis=0)
            np.linalg.eigh(Y.T @ Y)
            np.isfinite(Y).all()
            np.argmin(Y, axis=1)
        for _ in range(30):          # BLAS: rank-2 residuals of a 1500x256 block
            Y = self._block - self._block.mean(axis=0)
            R = Y - (Y @ self._basis) @ self._basis.T
            np.einsum("ij,ij->i", R, R)
        for _ in range(10):          # memory bandwidth
            np.multiply(self._stream, 1.0000001, out=self._out)
        return time.perf_counter() - t0

    def time(self, fn):
        """Run ``fn()``; return its wall and its reference-host seconds."""
        t0 = time.perf_counter()
        fn()
        wall = time.perf_counter() - t0
        self.kernel_s.append(self._kernel())
        return wall, wall * REFERENCE_S * 2.0 / sum(self.kernel_s[-2:])
