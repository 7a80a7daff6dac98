"""Solution-quality metrics.

``yosida_residual`` estimates res(x) = ||x - J(x)|| / lam, where J is the
resolvent of the game's mean operator at proximal weight lam; res vanishes
exactly at solutions of the inclusion and is (1/lam)-Lipschitz.  The
resolvent itself is expectation-valued, so it is estimated by the same
projected SA recursion the solver uses, repeated over independent streams.
The repeats run in lockstep as lanes (one vectorized oracle call per step for
all of them) over noise that each lane pre-draws in chunks from its own
stream, so every lane draws and computes exactly what it would alone and the
result does not depend on how many lanes run together.  Given many points
(a run's trajectory), the repeats of all of them run as lanes together, up
to ``MAX_LANES`` at a time, with the same results as one point at a time.
The merged estimate removes the repeat-to-repeat sampling variance from the
squared norm before taking the root: the raw norm of a noisy resolvent
estimate is biased upward at (and near) a true zero, and the correction is
what lets the metric report a statistical zero there.

``br_residual`` is the best-response residual of the smoothed game: the
per-player distance to an inexact proximal best response computed with an
inflated zeroth-order budget, averaged over players.

Residual evaluation is measurement, not optimization: its sampling budget is
never charged to a solver's sample count.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .games.base import GameOracle, NumericError, chunk_steps
from .rng import RandomStream
from .solvers.smoothing import SmoothingParams, zsol_solve

# Lanes per resolvent_lanes call of a points-form Yosida residual, in whole
# points (at least one): with the per-lane noise chunk (``chunk_steps``) this
# bounds the memory held however many points are measured together; 31
# points x 3 repeats take one call.
MAX_LANES = 128


@dataclass(frozen=True)
class ResidualConfig:
    lam: float = 0.1
    theta: float = 0.1
    inner_steps: int = 10_000
    samples_per_step: int = 1
    repeats: int = 5

    def __post_init__(self):
        for name in ("lam", "theta"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.inner_steps < 1:
            raise ValueError("inner_steps must be >= 1")
        if self.samples_per_step < 1:
            raise ValueError("samples_per_step must be >= 1")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")


@dataclass(frozen=True)
class BrResidualConfig:
    """Budget of the best-response residual relative to the solver's: the
    solver's inner step count at the final iteration plus ``extra_steps``,
    at ``eval_zeta_scale`` times its steplength (see :func:`br_residual`)."""

    extra_steps: int = 8
    eval_zeta_scale: float = 0.2

    def __post_init__(self):
        if self.extra_steps < 0:
            raise ValueError("extra_steps must be >= 0")
        if self.eval_zeta_scale <= 0:
            raise ValueError("eval_zeta_scale must be positive")


def _corrected_norm(x: np.ndarray, estimates: np.ndarray, lam: float) -> float:
    """||x - mean(estimates)|| / lam with the mean's sampling variance
    removed from the squared norm (clipped at zero)."""
    r = estimates.shape[0]
    center = estimates.mean(axis=0)
    gap2 = float(np.sum((x - center) ** 2))
    if r > 1:
        gap2 -= float(np.sum(estimates.var(axis=0, ddof=1))) / r
    return math.sqrt(max(0.0, gap2)) / lam


def resolvent_lanes(
    game: GameOracle,
    centres: np.ndarray,
    config: ResidualConfig,
    streams: list[RandomStream],
    first_lane: int = 0,
) -> np.ndarray:
    """One inexact resolvent estimate per lane, shape (lanes, dim).

    Lane l runs the solver's projected SA recursion
    z <- proj(z - (theta/j) (v + (z - c)/lam)) from z = c = ``centres[l]``
    for ``inner_steps`` steps, with v the mean of ``samples_per_step``
    operator samples at z, on noise drawn from ``streams[l]`` in the order a
    sample-at-a-time loop draws it.  Lanes are point-major, ``repeats`` per
    point, starting at the caller's lane ``first_lane``; a lane that goes
    non-finite is named by its point and repeat.
    """
    lam, theta, n_steps = config.lam, config.theta, config.inner_steps
    samples = config.samples_per_step
    chunk = chunk_steps(samples, centres.shape[1])
    project = game.feasible.project
    z = centres.copy()
    for start in range(0, n_steps, chunk):
        steps = min(chunk, n_steps - start)
        # (steps, lanes, samples, *event): one contiguous block per step.
        noise = np.stack([game.draw_noise(s, (steps, samples)) for s in streams], axis=1)
        for c in range(steps):
            j = start + c + 1
            # sum / count is what ndarray.mean computes, without its overhead
            v = game.operator_rows(z[:, None, :], noise[c]).sum(axis=1) / samples
            u = v + (z - centres) / lam
            z = project(z - (theta / j) * u)
            # A non-finite entry makes the sum non-finite (inf +/- inf is nan);
            # the total of finite lane sums can still overflow, so check per lane.
            if not math.isfinite(z.sum()):
                finite = np.isfinite(z.sum(axis=1))
                if not finite.all():
                    point, repeat = divmod(first_lane + int(np.argmin(finite)), config.repeats)
                    raise NumericError(
                        f"inner SA of point {point}, repeat {repeat} produced a "
                        f"non-finite iterate at step {j}"
                    )
    return z


def _estimate(x: np.ndarray, reps: np.ndarray, lam: float) -> tuple[float, float]:
    """Variance-corrected residual at ``x`` from its repeats' resolvent
    estimates, with a jackknife standard error."""
    estimate = _corrected_norm(x, reps, lam)
    r = reps.shape[0]
    if r == 1:
        return estimate, 0.0
    loo = np.array([_corrected_norm(x, np.delete(reps, j, axis=0), lam) for j in range(r)])
    stderr = math.sqrt((r - 1) / r * float(np.sum((loo - loo.mean()) ** 2)))
    return estimate, stderr


def yosida_residual(
    game: GameOracle,
    x: np.ndarray,
    config: ResidualConfig,
    stream: RandomStream | Sequence[RandomStream],
) -> tuple[float, float] | list[tuple[float, float]]:
    """Estimate (residual, stderr) at ``x``.

    Runs ``repeats`` independent resolvent estimates as lanes on derived
    streams (merge order is fixed by the derivation labels), combines them
    with the variance correction above, and reports a jackknife standard
    error.

    Points form: ``x`` of shape (m, dim) with a sequence of m streams returns
    the m pairs, running the m x repeats lanes together through
    :func:`resolvent_lanes`, ``MAX_LANES // repeats`` points (at least one) per
    call; lane (p, r) draws from ``stream[p].derive(r)``, so each pair is
    bitwise what the one-point call at ``x[p]`` on ``stream[p]`` returns.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return yosida_residual(game, x[None, :], config, [stream])[0]
    if len(stream) != len(x):
        raise ValueError(f"{len(x)} points need as many streams, got {len(stream)}")
    r = config.repeats
    per_call = max(1, MAX_LANES // r)
    out = []
    for first in range(0, len(x), per_call):
        points = x[first:first + per_call]
        lanes = [s.derive(k) for s in stream[first:first + per_call] for k in range(r)]
        reps = resolvent_lanes(game, np.repeat(points, r, axis=0), config, lanes, first * r)
        out += [_estimate(p, reps[i * r:(i + 1) * r], config.lam) for i, p in enumerate(points)]
    return out


def br_residual(
    game: GameOracle,
    params: SmoothingParams,
    x: np.ndarray,
    n_outer_steps: int,
    stream: RandomStream,
    eval_zeta: float | None = None,
) -> float:
    """Mean over players of ||x^i - B_i(x)||, with B_i an inexact smoothed
    proximal best response at an evaluation budget the caller inflates
    relative to the solver's (>= 4x is the working convention).

    The best response is defined by (eta, prox weight) alone; the steplength
    is solve tactics.  ``eval_zeta`` lets the measurement run a smaller step
    than the solver: near a sharp kink the smoothed curvature can reach
    mean-intercept * |slope gap| / (2 eta), where the solver's steplength
    oscillates instead of converging, and an instrument must not oscillate.
    Defaults to one fifth of the solver steplength.
    """
    x = np.asarray(x, dtype=float)
    if eval_zeta is None:
        eval_zeta = params.zeta / 5.0
    eval_params = replace(params, zeta=eval_zeta)
    total = 0.0
    for i in range(game.layout.n_players):
        sl = game.layout.slice_of(i)
        best = zsol_solve(game, eval_params, i, x, n_outer_steps, stream.derive(i))
        total += float(np.linalg.norm(x[sl] - best))
    return total / game.layout.n_players
