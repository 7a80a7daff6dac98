"""Per-run trajectory record shared by all solvers."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class RunReport:
    """Trajectory of one solver run.

    ``iterates``, ``recorded_iters``, ``samples_used`` and ``wall_ms`` are
    aligned lists: entry ``j`` describes the iterate recorded after outer
    iteration ``recorded_iters[j]``.  ``samples_used`` counts cumulative
    oracle samples spent by the solver (residual evaluation is measurement
    and is never included).  ``wall_ms`` is the solver time elapsed since
    the report was made, stamped by :meth:`record`.  ``residuals`` holds
    ``(k, estimate, stderr)`` tuples in ``k`` order; the solvers leave it
    empty, and the benchmark runner fills it after the solve from the
    recorded iterates.
    """

    iterates: list[np.ndarray] = field(default_factory=list)
    recorded_iters: list[int] = field(default_factory=list)
    samples_used: list[int] = field(default_factory=list)
    wall_ms: list[float] = field(default_factory=list)
    residuals: list[tuple[int, float, float]] = field(default_factory=list)
    _started: float = field(default_factory=time.perf_counter, init=False, repr=False, compare=False)

    def record(self, k: int, x: np.ndarray, samples: int) -> None:
        self.wall_ms.append((time.perf_counter() - self._started) * 1e3)
        self.iterates.append(np.array(x, copy=True))
        self.recorded_iters.append(int(k))
        self.samples_used.append(int(samples))

    def validate(self) -> None:
        n = len(self.iterates)
        if not (len(self.recorded_iters) == len(self.samples_used) == len(self.wall_ms) == n):
            raise ValueError("inconsistent report lengths")
        if any(b < a for a, b in zip(self.samples_used, self.samples_used[1:])):
            raise ValueError("samples_used must be nondecreasing")

    @property
    def final_iterate(self) -> np.ndarray:
        return self.iterates[-1]

    @property
    def final_residual(self) -> tuple[int, float, float]:
        if not self.residuals:
            raise ValueError("run recorded no residuals")
        return self.residuals[-1]

    @property
    def total_samples(self) -> int:
        return self.samples_used[-1] if self.samples_used else 0
