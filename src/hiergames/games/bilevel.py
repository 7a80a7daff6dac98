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
    nonneg: bool = False       # strategy sets default to all of R

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


def lower_level_solution(params: BilevelParams, i: int, x_i: float) -> float:
    """Closed-form follower state max(slope_i x / q_i, bound_i x)."""
    return float(max(params.kink_slopes[i] * x_i, params.bound_slope[i] * x_i))


def lower_level_subgradient(params: BilevelParams, i: int, x_i: float) -> float:
    """Slope of the strictly larger branch; ties take slope_i / q_i."""
    beta = params.kink_slopes[i]
    lam = params.bound_slope[i]
    if beta * x_i > lam * x_i:
        return float(beta)
    if lam * x_i > beta * x_i:
        return float(lam)
    return float(beta)


def _lower_values(params: BilevelParams, x: np.ndarray) -> np.ndarray:
    return np.maximum(params.kink_slopes * x, params.bound_slope * x)


def _lower_slopes(params: BilevelParams, x: np.ndarray) -> np.ndarray:
    beta = params.kink_slopes
    lam = params.bound_slope
    return np.where(beta * x >= lam * x, beta, lam)


class BilevelGame(GameOracle):
    def __init__(self, params: BilevelParams):
        self.params = params
        n = params.n_players
        self.layout = PlayerLayout.scalar_players(n)
        self.feasible = FeasibleSet.nonneg(n) if params.nonneg else FeasibleSet.free(n)

    def _draw_a(self, stream: RandomStream, size=None):
        # One intercept per player per realization, drawn jointly so that
        # cloned streams align draws across operator/objective/potential.
        p = self.params
        shape = p.n_players if size is None else (size, p.n_players)
        return stream.uniform(p.a_lo, p.a_hi, shape)

    def operator_sample(self, x, stream):
        p = self.params
        x = np.asarray(x, dtype=float)
        a = stream.generator.uniform(p.a_lo, p.a_hi, p.n_players)
        return self.operator_rows(x, a)

    def operator_noise(self, stream, shape):
        """One intercept per player per sample: shape ``shape + (n,)``."""
        p = self.params
        return stream.uniform(p.a_lo, p.a_hi, (*shape, p.n_players))

    def operator_rows(self, z, noise):
        p = self.params
        w = INTERACTION_WEIGHT
        return (p.curvature + w) * z + w * z.sum(axis=-1, keepdims=True) + noise * _lower_slopes(p, z)

    def objective_sample(self, i, x, stream):
        x = np.asarray(x, dtype=float)
        a = self._draw_a(stream)
        p = self.params
        w = INTERACTION_WEIGHT
        own = float(x[i])
        return float(
            0.5 * p.curvature[i] * own**2
            + w * own * np.sum(x)
            + a[i] * lower_level_solution(p, i, own)
        )

    def _objective_rows(self, i, own, rivals, a):
        p = self.params
        w = INTERACTION_WEIGHT
        lower = np.maximum(p.kink_slopes[i] * own, p.bound_slope[i] * own)
        return 0.5 * p.curvature[i] * own**2 + w * own * (rivals + own) + a * lower

    def objective_sample_batch(self, i, own, x, stream):
        own = np.asarray(own, dtype=float).reshape(-1)
        x = np.asarray(x, dtype=float)
        a = self._draw_a(stream, own.size)[:, i]
        rivals = float(np.sum(x)) - float(x[i])
        return self._objective_rows(i, own, rivals, a)

    def objective_pair_sample_batch(self, i, own_a, own_b, x, stream):
        own_a = np.asarray(own_a, dtype=float).reshape(-1)
        own_b = np.asarray(own_b, dtype=float).reshape(-1)
        x = np.asarray(x, dtype=float)
        a = self._draw_a(stream, own_a.size)[:, i]
        rivals = float(np.sum(x)) - float(x[i])
        return self._objective_rows(i, own_a, rivals, a), self._objective_rows(i, own_b, rivals, a)

    def potential_sample(self, x, stream) -> float:
        """One realization of the exact potential; shares the per-player
        intercept draws with the other sample methods."""
        x = np.asarray(x, dtype=float)
        a = self._draw_a(stream)
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
