"""Machine-speed calibration for the end-to-end timings.

The benchmark shares a few cores with other tenants, and their load makes
the same code run 15-25% slower or faster for tens of seconds at a time.
Run medians taken minutes apart then differ by more than any change worth
measuring. ``Calibrator.speed()`` times a fixed kernel that uses no
branchnet code: float64 and float32 matrix products of im2col shape, a
batch-norm-like elementwise pass over a few MiB, and small NumPy calls made
in a Python loop (generator construction, slicing, reductions), the mix a
training step spends its time on. The benchmark runs it right before and
right after each timed phase, and scales the phase's throughput by
``REFERENCE_RATE`` over the kernel's rate in that window: the figure is the
throughput the machine would give if it ran the kernel at
``REFERENCE_RATE`` iterations per second. A change to branchnet leaves the
kernel untouched, so it moves the scaled figure as much as the raw one.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel iterations per second; about the median on the machine the
# baseline in README.md was measured on. Only ratios between commits
# matter, so this constant never needs to change.
REFERENCE_RATE = 310.0
WINDOW_S = 0.2


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(20170221)
        self.a64 = rng.standard_normal((256, 576))
        self.b64 = rng.standard_normal((576, 64))
        self.a32 = self.a64.astype(np.float32)
        self.b32 = self.b64.astype(np.float32)
        self.act = rng.standard_normal((32, 16, 24, 24))
        self.images = rng.random((16, 36, 36, 3))
        # Every large result goes to a buffer made here, so the kernel's
        # speed does not depend on the heap state the workload left behind.
        self.out64 = np.empty((256, 64))
        self.out32 = np.empty((256, 64), dtype=np.float32)
        self.centred = np.empty_like(self.act)
        self.squared = np.empty_like(self.act)
        self.mean = np.empty((1, 16, 1, 1))
        self.var = np.empty((1, 16, 1, 1))
        self.rates: list[float] = []

    def _iteration(self, i: int) -> None:
        np.matmul(self.a64, self.b64, out=self.out64)
        np.matmul(self.a32, self.b32, out=self.out32)
        np.mean(self.act, axis=(0, 2, 3), keepdims=True, out=self.mean)
        np.subtract(self.act, self.mean, out=self.centred)
        np.square(self.centred, out=self.squared)
        np.mean(self.squared, axis=(0, 2, 3), keepdims=True, out=self.var)
        self.var += 1e-5
        np.sqrt(self.var, out=self.var)
        np.divide(self.centred, self.var, out=self.centred)
        np.maximum(self.centred, 0.0, out=self.centred)
        for j, image in enumerate(self.images):
            rng = np.random.default_rng((i, j))
            y, x = rng.integers(0, 5, size=2)
            crop = image[y:y + 32, x:x + 32]
            if rng.random() < 0.5:
                crop = crop[:, ::-1]
            crop.sum(axis=(0, 1))

    def speed(self) -> float:
        """Kernel iterations per second over one window; also kept in
        ``rates``."""
        i = 0
        t0 = time.perf_counter()
        deadline = t0 + WINDOW_S
        while True:
            self._iteration(i)
            i += 1
            now = time.perf_counter()
            if now >= deadline:
                break
        rate = i / (now - t0)
        self.rates.append(rate)
        return rate


def scale_rate(rate: float, speed: float) -> float:
    """A throughput measured while the kernel ran at ``speed``, at the
    reference machine speed."""
    return rate * REFERENCE_RATE / speed


def scale_seconds(seconds: float, speed: float) -> float:
    """A duration measured while the kernel ran at ``speed``, at the
    reference machine speed."""
    return seconds * speed / REFERENCE_RATE
