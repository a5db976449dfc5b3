"""Host-speed calibration for the certificate times.

On a shared virtual machine the same certificate takes anywhere from 22 to
46 ms, in phases that last tens of seconds, so raw medians of 15 s runs
taken minutes apart spread by 10-27 % (quartile distance over median, five
runs).  A fixed kernel in the same mix of small numpy linear algebra and
Python loops, which belongs to the benchmark and never to the package, is
timed in the measuring process between certificates, and each certificate
time is scaled by ``REFERENCE_S / kernel time`` around it: seconds at a
reference host speed.  That brought the spread to about 6 %.  A change to
the package moves the certificate time and not the kernel, so a real gain
or loss shows in full.  The raw median is printed beside the calibrated
one.

The other workloads are not calibrated.  Their operations last seconds, a
kernel sample beside them does not see the speed during them, and scaling
made their spread worse (simulate: 17 % calibrated against 5 % raw).
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# median kernel time on the host the seed commit was measured on (Intel
# Xeon, 2 vCPUs, Python 3.11, numpy 2.4)
REFERENCE_S = 1.7e-3
SAMPLE_EVERY_S = 0.5
_REPEATS = 5
_A = -2.0 * np.eye(6) + np.arange(36.0).reshape(6, 6) / 360.0
_B = np.ones((6, 2), dtype=complex)
_I = np.eye(6)


def kernel() -> float:
    """The package's mix in miniature: a Python-level explicit time-stepping
    loop over lists of floats, and small complex solves plus Hermitian
    eigenvalues in numpy."""
    y = [0.1] * 8
    for _ in range(300):
        y = [v + 1e-3 * (0.5 * u - v) for v, u in zip(y, y[1:] + y[:1])]
    acc = sum(y)
    for k in range(40):
        x = np.linalg.solve(1j * (k + 1.0) * _I - _A, _B)
        acc += float(np.linalg.eigvalsh(x.conj().T @ x)[0])
    return acc


class SpeedProbe:
    """Kernel samples taken between operations; ``factor(t0, t1)`` is the
    scale for an interval, from the samples just before and just after."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (time, kernel seconds)

    def sample(self) -> None:
        times = []
        for _ in range(_REPEATS):
            t0 = perf_counter()
            kernel()
            times.append(perf_counter() - t0)
        self.samples.append((perf_counter(), statistics.median(times)))

    def sample_if_due(self) -> None:
        if not self.samples or perf_counter() - self.samples[-1][0] >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self, t0: float, t1: float) -> float:
        before = [s for at, s in self.samples if at <= t0]
        after = [s for at, s in self.samples if at >= t1]
        near = before[-1:] + after[:1]
        return REFERENCE_S / statistics.mean(near or [s for _, s in self.samples])

    def kernel_ms(self) -> float:
        return 1e3 * statistics.median(s for _, s in self.samples)
