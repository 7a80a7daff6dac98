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
    and is never included).  ``residuals`` holds ``(k, estimate, stderr)``
    tuples in ``k`` order, at whatever cadence the caller chose: the
    benchmark runner fills it after the solve from the recorded iterates, and
    a residual hook passed to the solver (see :meth:`note`) appends to it
    during the solve.  ``wall_ms`` is solver time: the clock starts when the
    report is made and stops while :meth:`note` records and measures.
    """

    iterates: list[np.ndarray] = field(default_factory=list)
    recorded_iters: list[int] = field(default_factory=list)
    samples_used: list[int] = field(default_factory=list)
    wall_ms: list[float] = field(default_factory=list)
    residuals: list[tuple[int, float, float]] = field(default_factory=list)
    _clock_origin: float = field(
        default_factory=time.perf_counter, init=False, repr=False, compare=False
    )

    def record(self, k: int, x: np.ndarray, samples: int, wall_ms: float) -> None:
        self.iterates.append(np.array(x, copy=True))
        self.recorded_iters.append(int(k))
        self.samples_used.append(int(samples))
        self.wall_ms.append(float(wall_ms))

    def note(self, k: int, x: np.ndarray, samples: int, residual_hook=None) -> None:
        """Record iterate ``k``, then call ``residual_hook(k, x)`` if given
        and keep its ``(estimate, stderr)`` unless it returns None.  The
        solver clock is paused for the whole call."""
        paused = time.perf_counter()
        self.record(k, x, samples, (paused - self._clock_origin) * 1e3)
        if residual_hook is not None:
            res = residual_hook(k, x)
            if res is not None:
                self.residuals.append((k, float(res[0]), float(res[1])))
        self._clock_origin += time.perf_counter() - paused

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
