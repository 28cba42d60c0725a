"""A reference clock that measures the host's speed while the work runs.

The benchmark runs on a shared host whose speed for the same code moves
between levels up to 1.7 times apart, switching within seconds.  A raw
pass time measures that level as much as the program.  So while timed
work runs, the clock interrupts it about every INTERVAL_S to run a short
fixed kernel, and keeps the kernel's times.  The time the work itself
took, kernel runs left out, is then scaled by the kernel's nominal time
over its mean time in that interval: the result is the time the
work would take at the host speed where the kernel takes its nominal
time.  A change to sidforge moves the scaled time as it moves the raw
one, because the kernel calls nothing in sidforge and never changes
with it.

Not all code slows alike when the host does: pure-Python loops slow
more than NumPy calls on whole batches.  So the kernel is made of parts
that each copy one kind of work sidforge does, and each workload picks
the parts that are like its own work:

- "decode": single-row matrix products with Python bookkeeping and a
  sort, as in beam decoding;
- "train": batched matrix products and Adam-like updates, as in
  training;
- "kmeans": a broadcast distance reduction with per-cluster means, as
  in k-means.

The clock gets its chances to run the kernel from `tick`, which the
workloads call between operations, and from the calls that `hooked`
wraps: one per training step (`numkit.adam_step`), k-means fit
(`numkit.kmeans_fit`) and decoded query (`evalsuite.beam_decode`).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from tracer import Tracer

# Median time of each part on a 2-vCPU x86-64 VM in its fast state, with
# OPENBLAS_NUM_THREADS=1.  They only set the unit of the scaled times.
NOMINAL_S = {"decode": 0.0008, "train": 0.0009, "kmeans": 0.00105}
# wall time between kernel runs
INTERVAL_S = 0.05
HOOKS = ["numkit.adam_step", "numkit.kmeans_fit", "evalsuite.beam_decode"]


class Reference:
    """The clock of one run; `parts` names the kernel parts it runs."""

    def __init__(self, parts):
        self.parts = [getattr(self, f"_{part}_like") for part in parts]
        self.nominal = sum(NOMINAL_S[part] for part in parts)
        rng = np.random.default_rng(0)
        self.rows = rng.standard_normal((35, 48))
        self.w1 = rng.standard_normal((48, 32)) * 0.2
        self.w2 = rng.standard_normal((32, 16)) * 0.2
        self.x = rng.standard_normal((64, 48))
        self.v1 = rng.standard_normal((48, 64)) * 0.1
        self.v2 = rng.standard_normal((64, 32)) * 0.1
        self.points = rng.standard_normal((320, 32))
        self.centroids = rng.standard_normal((16, 32))
        self.samples: list[float] = []   # every kernel time, in order
        self.paused = 0.0                # wall time spent in the kernel
        self._due = 0.0

    def _decode_like(self) -> None:
        for r, row in enumerate(self.rows):
            h = np.tanh(row[None, :] @ self.w1) @ self.w2
            v = h[0] - h[0].max()
            logp = (v - np.log(np.exp(v).sum())).tolist()
            sorted(((logp[k], (r, k)) for k in range(16)), reverse=True)

    def _train_like(self) -> None:
        m = np.zeros_like(self.v1)
        for _ in range(9):
            h = np.tanh(self.x @ self.v1)
            g = (h @ self.v2) @ self.v2.T * (1 - h * h)
            m = 0.9 * m + 0.1 * (self.x.T @ g)
            m / (np.sqrt(m * m) + 1e-8)

    def _kmeans_like(self) -> None:
        d2 = np.sum((self.points[:, None, :]
                     - self.centroids[None, :, :]) ** 2, axis=2)
        assign = np.argmin(d2, axis=1)
        for j in range(len(self.centroids)):
            mask = assign == j
            if mask.any():
                self.points[mask].mean(axis=0)

    def sample(self) -> float:
        """Runs the kernel once; returns and keeps its time."""
        t0 = time.perf_counter()
        for part in self.parts:
            part()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.paused += t1 - t0
        self._due = t1 + INTERVAL_S
        return t1 - t0

    def tick(self) -> None:
        """Runs the kernel if INTERVAL_S has passed since its last run."""
        if time.perf_counter() >= self._due:
            self.sample()

    def now(self) -> float:
        """A clock in seconds that stands still while the kernel runs."""
        return time.perf_counter() - self.paused

    def start(self) -> tuple[float, int]:
        """Opens an interval of timed work: runs the kernel, then reads
        the clock."""
        self.sample()
        return self.now(), len(self.samples) - 1

    def stop(self, mark: tuple[float, int]) -> tuple[float, float]:
        """Closes the interval opened by `start`; returns its raw time and
        its time scaled to the kernel's nominal time, by the kernel runs
        at its two ends and inside it."""
        t0, first = mark
        raw = self.now() - t0
        self.sample()
        return raw, self.scale(raw, self.samples[first:])

    def scale(self, seconds: float, samples: list[float]) -> float:
        return seconds * self.nominal / statistics.fmean(samples)

    def hooked(self):
        """A context in which every call to one of HOOKS, in any module
        that binds it, ends with a `tick`."""
        return Tracer().installed("sidforge", HOOKS,
                                  dict.fromkeys(HOOKS, lambda *_: self.tick()))
