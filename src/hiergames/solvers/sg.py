"""Projected stochastic subgradient baseline: one sample per iteration."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..games.base import GameOracle, NumericError, chunk_steps
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


def run(
    game: GameOracle,
    config: SgConfig,
    x0: np.ndarray,
    stream: RandomStream,
) -> RunReport:
    """x_{k+1} = proj(x_k - alpha_k v_k), alpha_k = alpha0 / sqrt(k).

    v_k is one ``operator_rows`` call on noise that ``draw_noise`` pre-draws
    from ``stream`` in chunks (``chunk_steps``).  As in the resolvent loop
    (``vr_spp.inner_resolvent``), the iterate is checked once per chunk,
    and a chunk that ends non-finite is replayed with a check per step to
    name the first bad step.

    The constrained market variant needs no special casing: its oracle
    exposes the stacked primal-dual vector and the nonnegative orthant of
    doubled dimension, so the same projected update covers both blocks.
    """
    x = np.asarray(x0, dtype=float).copy()
    if not game.feasible.contains(x):
        raise ValueError("x0 must lie in the feasible set")
    report = RunReport()
    report.record(0, x, 0)
    alpha0, total, every = config.alpha0, config.total_iters, config.record_every
    rows = game.operator_rows

    def steps(x, noise, first, project, checked):
        for k, xi in enumerate(noise, first):
            x = project(x - (alpha0 / math.sqrt(k)) * rows(x, xi))
            if checked and not math.isfinite(x.sum()):
                raise NumericError(f"subgradient iterate became non-finite at step {k}")
            if k % every == 0 or k == total:
                report.record(k, x, k)
        return x

    feasible = game.feasible
    chunk = chunk_steps(1, x.size)
    for start in range(0, total, chunk):
        noise = game.draw_noise(stream, (min(chunk, total - start), 1))[:, 0]
        with np.errstate(all="ignore"):  # the replay warns as each step did
            x_start, x = x, steps(x, noise, start + 1, feasible.clip, False)
        if not math.isfinite(x.sum()):
            # raises, so the iterates this chunk recorded go with the report
            steps(x_start, noise, start + 1, feasible.project, True)
    report.validate()
    return report
