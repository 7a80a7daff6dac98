"""Variance-reduced stochastic proximal-point solver.

The outer loop applies an inexact resolvent of the expectation-valued
operator: at step k it runs a projected stochastic-approximation loop on the
strongly monotone proximal subproblem

    0 in T(z) + (z - x_k) / lam

using fresh operator samples and steplengths theta / j, for a number of
steps given by a growing sample-size schedule.  Growing the inner budget is
what restores a deterministic outer rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..games.base import GameOracle, NumericError, chunk_steps
from ..report import RunReport
from ..rng import RandomStream

SCHEDULE_KINDS = ("polynomial", "geometric", "geometric-base")


@dataclass(frozen=True)
class SampleSchedule:
    """Inner sample-size rule N_k.

    polynomial(a):      N_k = ceil((k+1)^(2a)),  a > 1
    geometric(rho):     N_k = floor(rho^-(k+1)), 0 < rho < 1
    geometric-base(r):  N_k = floor(r^(k+1)),    r > 1

    Sizes are floored at 1 and capped at ``cap`` to keep geometric rules
    bounded on long runs; a size too large for a float is ``cap``.
    """

    kind: str
    param: float
    cap: int = 1_000_000

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"kind must be one of {SCHEDULE_KINDS}, got {self.kind!r}")
        if self.kind == "polynomial" and not self.param > 1:
            raise ValueError("param must exceed 1: the polynomial schedule needs exponent a > 1")
        if self.kind == "geometric" and not 0 < self.param < 1:
            raise ValueError("param must lie in (0, 1): the geometric schedule needs 0 < rho < 1")
        if self.kind == "geometric-base" and not self.param > 1:
            raise ValueError("param must exceed 1: the geometric-base schedule needs base > 1")
        if self.cap < 1:
            raise ValueError("cap must be >= 1")

    def size(self, k: int) -> int:
        if k < 0:
            raise ValueError("k must be >= 0")
        try:
            if self.kind == "polynomial":
                n = math.ceil((k + 1) ** (2.0 * self.param))
            elif self.kind == "geometric":
                n = math.floor(self.param ** -(k + 1))
            else:
                n = math.floor(self.param ** (k + 1))
        except OverflowError:
            return self.cap
        return max(1, min(n, self.cap))


@dataclass(frozen=True)
class VrSppConfig:
    lam: float
    theta: float
    schedule: SampleSchedule
    outer_iters: int
    min_inner_steps: int = 10

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.theta <= 0:
            raise ValueError("theta must be positive")
        if self.outer_iters < 0:
            raise ValueError("outer_iters must be >= 0")
        if self.min_inner_steps < 1:
            raise ValueError("min_inner_steps must be >= 1")

    def inner_steps(self, k: int) -> int:
        return max(self.min_inner_steps, self.schedule.size(k))


def inner_resolvent(
    game: GameOracle,
    x_k: np.ndarray,
    lam: float,
    theta: float,
    n_steps: int,
    stream: RandomStream,
) -> np.ndarray:
    """Inexact evaluation of the resolvent (I + lam T)^{-1} at ``x_k``.

    Runs ``n_steps`` projected SA updates z <- proj(z - (theta/j) u) with
    u = v + (z - x_k)/lam and v a fresh operator sample at z, evaluated by
    ``operator_rows`` on noise pre-drawn from ``stream`` in chunks, which
    replays a sample-at-a-time loop's draws.  The Yosida residual runs the
    same recursion over lanes of mini-batches, one lane per repeat and
    point, each with its own centre (``residuals.resolvent_lanes``); this
    one-lane loop is the solver's.

    A chunk steps through ``FeasibleSet.clip`` with numpy's floating-point
    warnings off, and its last iterate is checked once.  If it is not
    finite, the chunk is replayed from its first iterate through
    ``project`` with a check per step and the caller's warning settings;
    the replay computes the same iterates, so it raises the
    ``NumericError`` that names the first bad step.  A non-finite
    coordinate lasts to the chunk's end (see ``FeasibleSet``); an iterate
    whose coordinates are finite but whose sum overflows is caught only if
    the chunk ends with one.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    x_k = np.asarray(x_k, dtype=float)
    rows = game.operator_rows

    def steps(z, noise, first, project, checked):
        for j, xi in enumerate(noise, first):
            u = rows(z, xi) + (z - x_k) / lam
            z = project(z - (theta / j) * u)
            # A non-finite entry makes the sum non-finite (inf +/- inf is nan).
            if checked and not math.isfinite(z.sum()):
                raise NumericError(f"inner SA produced a non-finite iterate at step {j}")
        return z

    feasible = game.feasible
    z = x_k.copy()
    chunk = chunk_steps(1, z.size)
    for start in range(0, n_steps, chunk):
        noise = game.draw_noise(stream, (min(chunk, n_steps - start), 1))[:, 0]
        with np.errstate(all="ignore"):  # the replay warns as each step did
            z_start, z = z, steps(z, noise, start + 1, feasible.clip, False)
        if not math.isfinite(z.sum()):
            steps(z_start, noise, start + 1, feasible.project, True)  # raises
    return z


def run(
    game: GameOracle,
    config: VrSppConfig,
    x0: np.ndarray,
    stream: RandomStream,
) -> RunReport:
    """Outer proximal-point loop; deterministic given (config, stream).

    Records x_0 and every outer iterate with the solver's cumulative inner
    samples and elapsed time; residuals are measured afterwards from the
    recorded iterates (see ``bench.runner``).
    """
    x = np.asarray(x0, dtype=float).copy()
    if not game.feasible.contains(x):
        raise ValueError("x0 must lie in the feasible set")
    report = RunReport()
    samples = 0
    report.record(0, x, samples)
    for k in range(config.outer_iters):
        n_steps = config.inner_steps(k)
        try:
            x = inner_resolvent(game, x, config.lam, config.theta, n_steps, stream.derive(k))
        except NumericError as err:
            raise NumericError(f"outer iteration {k}: {err}") from err
        samples += n_steps
        report.record(k + 1, x, samples)
    report.validate()
    return report
