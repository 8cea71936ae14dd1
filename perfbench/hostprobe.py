"""Host-speed probe: a fixed kernel that never calls lumpedq.

The benchmark shares a small virtual machine whose speed drifts by tens of
percent over seconds, in pure Python and in BLAS alike. Timing this probe
next to every op tracks that drift, and scaling each op time by
NOMINAL_S / (probe time around it) cancels most of it: over ten 10 s runs
of sweep-540 on a 2-vCPU box, the quartile spread of the median op time
was 10.6% unscaled and 1.9% scaled. The probe mixes the kinds of work
lumpedq does: a complex Hermitian eigensolve, a complex matrix product, a
Kronecker product and an interpreter loop.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.020  # the probe's median on the 2-vCPU box of the first baseline
SHARE = 0.1  # probe time after an op, as a share of that op's time


class HostProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((400, 400)) + 1j * rng.standard_normal((400, 400))
        self.hermitian = (a + a.conj().T)[:200, :200]
        self.square = a
        self.factor = a[:40, :40]
        self.identity = np.eye(12, dtype=complex)
        self.once()  # the first call pays for BLAS start-up

    def once(self) -> float:
        start = time.perf_counter()
        np.linalg.eigh(self.hermitian)
        self.square @ self.square
        np.kron(self.factor, self.identity)
        total = 0
        for i in range(100_000):
            total += i * i
        return time.perf_counter() - start

    def block(self, seconds: float) -> float:
        """Median probe time over about SHARE * ``seconds`` of probing."""
        count = max(1, round(SHARE * seconds / NOMINAL_S))
        return statistics.median(self.once() for _ in range(count))

    @staticmethod
    def scale(seconds: float, probe_s: float) -> float:
        """``seconds`` as they would read on the host at its nominal speed."""
        return seconds * NOMINAL_S / probe_s
