"""Projected stochastic subgradient baseline: one sample per iteration."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..games.base import GameOracle, NumericError
from ..report import RunReport
from ..rng import RandomStream


@dataclass(frozen=True)
class SgConfig:
    alpha0: float
    total_iters: int
    record_every: int = 1  # iterate-recording cadence; final always recorded

    def __post_init__(self):
        if self.alpha0 <= 0:
            raise ValueError("alpha0 must be positive")
        if self.total_iters < 0:
            raise ValueError("total_iters must be >= 0")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")

    def step(self, k: int) -> float:
        # k starts at 1 so the first steplength is alpha0.
        return self.alpha0 / np.sqrt(k)


def run(
    game: GameOracle,
    config: SgConfig,
    x0: np.ndarray,
    stream: RandomStream,
) -> RunReport:
    """x_{k+1} = proj(x_k - alpha_k v_k), alpha_k = alpha0 / sqrt(k).

    The constrained market variant needs no special casing: its oracle
    exposes the stacked primal-dual vector and the nonnegative orthant of
    doubled dimension, so the same projected update covers both blocks.
    """
    x = np.asarray(x0, dtype=float).copy()
    if not game.feasible.contains(x):
        raise ValueError("x0 must lie in the feasible set")
    report = RunReport()
    report.record(0, x, 0)
    alpha0 = config.alpha0
    project = game.feasible.project
    sample = game.operator_sample
    for k in range(1, config.total_iters + 1):
        v = sample(x, stream)
        x = project(x - (alpha0 / math.sqrt(k)) * v)
        if not math.isfinite(x.sum()):
            raise NumericError(f"subgradient iterate became non-finite at step {k}")
        if k % config.record_every == 0 or k == config.total_iters:
            report.record(k, x, k)
    report.validate()
    return report
