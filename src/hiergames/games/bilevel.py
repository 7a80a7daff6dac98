"""Bilevel game with scalar quadratic lower levels.

Player i chooses x_i in R.  Its follower solves a one-dimensional bound-
constrained quadratic program whose solution has the closed form
``max(slope_i x_i / q_i, bound_i x_i)``.  The sampled objective is

    d_i x_i^2 / 2 + w x_i sum_j x_j + a_i * max(slope_i x_i / q_i, bound_i x_i)

with interaction weight w = 3 and a_i uniform on [a_lo, a_hi], independent
across players.  The game admits an exact per-realization potential, and in
the coincident-slope case (slope_i / q_i == bound_i) the mean operator is
linear, so the equilibrium is available from a dense solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..rng import RandomStream
from .base import FeasibleSet, GameOracle, PlayerLayout, UnsupportedCaseError

INTERACTION_WEIGHT = 3.0


@dataclass(frozen=True)
class BilevelParams:
    curvature: np.ndarray      # d_i >= 0
    lower_quad: np.ndarray     # q_i > 0
    lower_slope: np.ndarray    # slope of the lower-level linear term, b_i
    bound_slope: np.ndarray    # slope of the lower-level bound, l_i
    a_lo: float
    a_hi: float

    def __post_init__(self):
        for name in ("curvature", "lower_quad", "lower_slope", "bound_slope"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        n = self.curvature.size
        shapes = {self.lower_quad.size, self.lower_slope.size, self.bound_slope.size}
        if shapes != {n} or n < 1:
            raise ValueError("per-player arrays must share one length >= 1")
        if np.any(self.lower_quad <= 0):
            raise ValueError("lower-level quadratic coefficients must be positive")
        if np.any(self.curvature < 0):
            raise ValueError("curvatures must be nonnegative")
        # a_lo == a_hi is allowed: a degenerate range makes the intercepts
        # deterministic, which the noise-free diagnostics rely on.
        if self.a_lo > self.a_hi:
            raise ValueError("intercept range out of order")

    @property
    def n_players(self) -> int:
        return self.curvature.size

    @property
    def kink_slopes(self) -> np.ndarray:
        """Slope of the first branch of the lower-level solution, b_i / q_i."""
        return self.lower_slope / self.lower_quad

    @staticmethod
    def sample(
        n_players: int,
        stream: RandomStream,
        curvature_range: tuple[float, float] = (0.0, 100.0),
        lower_quad: float = 3.0,
        lower_slope_range: tuple[float, float] = (0.0, 3.0),
        bound_slope_range: tuple[float, float] = (0.0, 1.0),
        a_range: tuple[float, float] = (33.0, 37.0),
        coincident: bool = False,
    ) -> "BilevelParams":
        """Draw an instance; ``coincident`` pins slope/q == bound == 1."""
        d = stream.uniform(curvature_range[0], curvature_range[1], n_players)
        if coincident:
            slope = np.full(n_players, float(lower_quad))
            bound = np.ones(n_players)
        else:
            slope = stream.uniform(lower_slope_range[0], lower_slope_range[1], n_players)
            bound = stream.uniform(bound_slope_range[0], bound_slope_range[1], n_players)
        return BilevelParams(
            curvature=d,
            lower_quad=np.full(n_players, float(lower_quad)),
            lower_slope=slope,
            bound_slope=bound,
            a_lo=a_range[0],
            a_hi=a_range[1],
        )

    def coincident_case(self) -> bool:
        return bool(np.allclose(self.kink_slopes, self.bound_slope, rtol=0, atol=0))


def _lower_values(params: BilevelParams, x: np.ndarray) -> np.ndarray:
    """Closed-form follower states max(slope_i x_i / q_i, bound_i x_i)."""
    return np.maximum(params.kink_slopes * x, params.bound_slope * x)


def _lower_slopes(params: BilevelParams, x: np.ndarray) -> np.ndarray:
    """Slope of the larger branch at each x_i; ties take slope_i / q_i."""
    beta = params.kink_slopes
    lam = params.bound_slope
    return np.where(beta * x >= lam * x, beta, lam)


class BilevelGame(GameOracle):
    def __init__(self, params: BilevelParams):
        self.params = params
        n = params.n_players
        self.layout = PlayerLayout.scalar_players(n)
        self.feasible = FeasibleSet.free(n)

    def draw_noise(self, stream, shape):
        """One intercept per player per sample, drawn jointly so that
        operator, objectives and potential share a realization: shape
        ``shape + (n,)``."""
        p = self.params
        return stream.uniform(p.a_lo, p.a_hi, (*shape, p.n_players))

    def operator_rows(self, z, noise):
        p = self.params
        w = INTERACTION_WEIGHT
        return (p.curvature + w) * z + w * z.sum(axis=-1, keepdims=True) + noise * _lower_slopes(p, z)

    def objective_rows(self, i, own, x, noise):
        p = self.params
        own = own.reshape(-1)
        rivals = float(np.sum(x)) - float(x[i])
        w = INTERACTION_WEIGHT
        lower = np.maximum(p.kink_slopes[i] * own, p.bound_slope[i] * own)
        return 0.5 * p.curvature[i] * own**2 + w * own * (rivals + own) + noise[:, i] * lower

    def potential_sample(self, x, stream) -> float:
        """One realization of the exact potential; shares the per-player
        intercept draws with the other sample methods."""
        x = np.asarray(x, dtype=float)
        a = self.draw_noise(stream, ())
        p = self.params
        w = INTERACTION_WEIGHT
        quad = 0.5 * float(p.curvature @ x**2)
        inter = 0.5 * w * float(np.sum(x)) ** 2 + 0.5 * w * float(x @ x)
        return quad + inter + float(a @ _lower_values(p, x))


def direct_equilibrium(params: BilevelParams, ridge: float = 0.0) -> np.ndarray:
    """Equilibrium of the mean game in the coincident-slope case.

    There the lower-level subgradient is the constant bound slope, the mean
    operator is affine, and the equilibrium solves

        (d_i + w + ridge) x_i + w sum_j x_j = -mean(a) * bound_i.

    ``ridge`` accounts for an added ``ridge * x`` operator term (see
    :class:`~hiergames.games.base.RidgedGame`).
    """
    if not params.coincident_case():
        raise UnsupportedCaseError("direct solve needs coincident lower-level slopes")
    n = params.n_players
    w = INTERACTION_WEIGHT
    a_bar = 0.5 * (params.a_lo + params.a_hi)
    mat = np.diag(params.curvature + w + ridge) + w * np.ones((n, n))
    rhs = -a_bar * params.bound_slope
    x = np.linalg.solve(mat, rhs)
    resid = float(np.max(np.abs(mat @ x - rhs)))
    if resid > 1e-10 * max(1.0, float(np.max(np.abs(rhs)))):
        raise UnsupportedCaseError(f"linear solve residual too large: {resid:.2e}")
    return x
