"""Machine-speed probe for speed-normalised timings.

The benchmark runs on shared machines whose speed changes by up to about
1.6x within seconds (another tenant on the same core). A fixed numpy kernel,
unrelated to softcontact, is timed right before and after every measured
operation; an operation's wall time is scaled by PROBE_NOMINAL_S over the
probe's time around it. A change to softcontact cannot move the probe, so it
moves the normalised time exactly as it moves the wall time, while the
machine's swings largely cancel.
"""
from __future__ import annotations

import time

import numpy as np

# The probe time the normalised timings are expressed at: an operation that
# took t seconds while the probe took p seconds reports t * PROBE_NOMINAL_S / p.
PROBE_NOMINAL_S = 0.015
PROBE_REPEATS = 3


class SpeedProbe:
    """A mix like the workloads' inner loops: squared distances, a softmin,
    plane distances and a softplus on a 144-point cloud and, many times over,
    on a 24-point one."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.points = rng.standard_normal((144, 3))
        self.normals = rng.standard_normal((144, 3))
        self.matrix = rng.standard_normal((144, 144))

    @staticmethod
    def _kernel(p, n):
        pp = np.sum(p * p, axis=-1)
        d = pp[:, None] - 2.0 * (p @ p.T) + pp[None, :]
        w = np.exp(-(d - d.min(axis=1, keepdims=True)) / 1e-2)
        w /= w.sum(axis=1, keepdims=True)
        s = p @ n.T - np.sum(p * n, axis=-1)
        f = np.log1p(np.exp(-np.abs(s) / 1e-3)) * w
        return (f[..., None] * n[None]).sum(axis=1)

    def _once(self):
        for _ in range(4):
            self._kernel(self.points, self.normals)
            self.matrix @ self.matrix
        small_p, small_n = self.points[:24], self.normals[:24]
        for _ in range(40):
            self._kernel(small_p, small_n)

    def __call__(self) -> float:
        """Median seconds of PROBE_REPEATS runs of the kernel."""
        times = []
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            self._once()
            times.append(time.perf_counter() - t0)
        return float(np.median(times))
