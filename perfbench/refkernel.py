"""Fixed reference work that measures how fast the machine runs right now.

On a shared machine the same work can take up to 75% longer from one
second to the next.  Slices of this kernel run between sequence visits
of the measured work and around each set-up; the work's time divided
by the kernel's slice time cancels a slowdown of the whole machine.

One slice is ``STEPS`` iterations of what rffseg's forward recursion
does per frame -- fancy indexing, a shifted log-sum-exp over a
``(16, 11)`` block, a 20x20 matrix-vector product and a little scalar
interpreter arithmetic -- followed by one 96x96 matrix product.  Its
inputs are drawn once from a fixed seed, so every slice does the same
work.  A reference-second is the time of ``SLICES_PER_REF_SECOND``
slices, about one second on a 2-core x86-64 container.
"""

from __future__ import annotations

import math
import time

import numpy as np

STEPS = 40
SLICES_PER_REF_SECOND = 1000


class ReferenceKernel:
    """Keeps the wall seconds of every slice it ran, in order."""

    def __init__(self):
        rng = np.random.default_rng(20250714)
        self._block = rng.normal(size=(16, 11))
        self._mat = rng.normal(size=(20, 20))
        self._big = rng.normal(size=(96, 96)) / 10.0
        self.durations = []
        self.checksum = 0.0

    def run_slice(self) -> float:
        start = time.perf_counter()
        block, mat = self._block, self._mat
        acc = 0.0
        for step in range(STEPS):
            rows = np.arange(step % 5, 16)
            cells = block[rows] + mat[step % 20, : block.shape[1]]
            peak = cells.max()
            acc += peak + math.log(float(np.sum(np.exp(cells - peak))))
            acc += 1e-3 * float((mat @ mat[:, step % 20])[step % 20])
            for j in range(8):
                acc += (j * 0.5 + step) % 3.0
        acc += float((self._big @ self._big)[0, 0])
        self.checksum += acc
        elapsed = time.perf_counter() - start
        self.durations.append(elapsed)
        return elapsed

    def sample(self, slices: int = 5) -> float:
        """Mean slice time now: the machine's current speed."""
        return sum(self.run_slice() for _ in range(slices)) / slices
