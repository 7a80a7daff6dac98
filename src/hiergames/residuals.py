"""Solution-quality metrics.

``yosida_residual`` estimates res(x) = ||x - J(x)|| / lam, where J is the
resolvent of the game's mean operator at proximal weight lam; res vanishes
exactly at solutions of the inclusion and is (1/lam)-Lipschitz.  The
resolvent itself is expectation-valued, so it is estimated by the same
projected SA loop the solver uses, repeated over independent streams.  The
merged estimate removes the repeat-to-repeat sampling variance from the
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
from dataclasses import dataclass, replace

import numpy as np

from .games.base import GameOracle
from .rng import RandomStream
from .solvers.smoothing import SmoothingParams, zsol_solve
from .solvers.vr_spp import inner_resolvent


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


def yosida_residual(
    game: GameOracle,
    x: np.ndarray,
    config: ResidualConfig,
    stream: RandomStream,
) -> tuple[float, float]:
    """Estimate (residual, stderr) at ``x``.

    Runs ``repeats`` independent resolvent estimates on derived streams
    (merge order is fixed by the derivation labels), combines them with the
    variance correction above, and reports a jackknife standard error.
    """
    x = np.asarray(x, dtype=float)
    reps = np.stack(
        [
            inner_resolvent(
                game, x, config.lam, config.theta, config.inner_steps,
                stream.derive(r), config.samples_per_step,
            )
            for r in range(config.repeats)
        ]
    )
    estimate = _corrected_norm(x, reps, config.lam)
    r = config.repeats
    if r == 1:
        return estimate, 0.0
    loo = np.array(
        [_corrected_norm(x, np.delete(reps, j, axis=0), config.lam) for j in range(r)]
    )
    stderr = math.sqrt((r - 1) / r * float(np.sum((loo - loo.mean()) ** 2)))
    return estimate, stderr


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
