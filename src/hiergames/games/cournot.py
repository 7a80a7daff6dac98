"""Multi-leader multi-follower stochastic Cournot market.

N leaders choose scalar quantities x_i >= 0.  Given aggregate leader output
X and a demand-intercept realization a, M followers play a quadratic-cost
Cournot game among themselves; their equilibrium is the unique solution of
the complementarity system

    0 <= y_j  perp  c_j y_j - (a - b (X + Y)) + b y_j >= 0,

with Y the follower aggregate.  Leader i's sampled objective is
``-p(X + Y) x_i + C_i x_i^2 / 2`` (negated profit with quadratic cost) and
the sampled operator component is

    -p(X + Y) + C_i x_i + (1 + dY/dX) b x_i.

An expectation-constrained variant appends one multiplier per leader for the
private constraint E[x_i - U_i + w_i] <= 0 and iterates the primal-dual pair
on the nonnegative orthant of dimension 2N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..rng import RandomStream
from .base import FeasibleSet, GameOracle, NumericError, PlayerLayout


@dataclass(frozen=True)
class MlmfParams:
    demand_slope: float
    a_lo: float
    a_hi: float
    leader_costs: np.ndarray    # quadratic coefficients C_i >= 0, cost C_i x^2 / 2
    follower_costs: np.ndarray  # quadratic coefficients c_j >= 0, cost c_j y^2 / 2
    caps: np.ndarray | None = None          # U_i for the constrained variant
    constraint_noise_halfwidth: float = 1.0

    def __post_init__(self):
        lead = np.asarray(self.leader_costs, dtype=float)
        foll = np.asarray(self.follower_costs, dtype=float)
        lead.setflags(write=False)
        foll.setflags(write=False)
        object.__setattr__(self, "leader_costs", lead)
        object.__setattr__(self, "follower_costs", foll)
        if self.caps is not None:
            caps = np.asarray(self.caps, dtype=float)
            caps.setflags(write=False)
            object.__setattr__(self, "caps", caps)
        if self.demand_slope <= 0:
            raise ValueError("demand slope must be positive")
        if not self.a_lo < self.a_hi:
            raise ValueError("intercept range must satisfy a_lo < a_hi")
        if lead.ndim != 1 or foll.ndim != 1 or lead.size < 1 or foll.size < 1:
            raise ValueError("need at least one leader and one follower")
        if np.any(lead < 0) or np.any(foll < 0):
            raise ValueError("cost coefficients must be nonnegative")

    @property
    def n_leaders(self) -> int:
        return self.leader_costs.size

    @property
    def n_followers(self) -> int:
        return self.follower_costs.size

    @staticmethod
    def sample(
        n_leaders: int,
        n_followers: int,
        demand_slope: float,
        a_range: tuple[float, float],
        leader_cost_range: tuple[float, float],
        follower_cost: float,
        stream: RandomStream,
        caps: float | None = None,
        constraint_noise_halfwidth: float = 1.0,
    ) -> "MlmfParams":
        """Draw an instance: C_i uniform on ``leader_cost_range``."""
        costs = stream.uniform(leader_cost_range[0], leader_cost_range[1], n_leaders)
        return MlmfParams(
            demand_slope=demand_slope,
            a_lo=a_range[0],
            a_hi=a_range[1],
            leader_costs=costs,
            follower_costs=np.full(n_followers, float(follower_cost)),
            caps=None if caps is None else np.full(n_leaders, float(caps)),
            constraint_noise_halfwidth=constraint_noise_halfwidth,
        )


@dataclass(frozen=True)
class FollowerSolution:
    y: np.ndarray        # follower quantities, >= 0
    total: float         # Y = sum_j y_j
    dY_dX: float         # derivative of Y w.r.t. aggregate leader quantity

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        y.setflags(write=False)
        object.__setattr__(self, "y", y)


def follower_equilibrium(params: MlmfParams, X: float, a: float) -> FollowerSolution:
    """Solve the follower complementarity system for aggregate X and intercept a.

    With a common market price the activity condition F_j(0) = -(price) is
    identical for every follower, so active-set enumeration collapses to one
    pass: either all followers are active or none are.  Ties (price exactly
    zero) keep the derivative of the closed active set for reproducibility.
    """
    if not (np.isfinite(X) and np.isfinite(a)):
        raise NumericError("follower equilibrium needs finite X and a")
    b = params.demand_slope
    weights = 1.0 / (params.follower_costs + b)
    s = float(weights.sum())
    shrink = -b * s / (1.0 + b * s)  # dY/dX on the full active set, in (-1, 0)
    margin = a - b * X
    if margin > 0.0:
        price = margin / (1.0 + b * s)
        y = price * weights
        return FollowerSolution(y=y, total=float(y.sum()), dY_dX=shrink)
    y = np.zeros(params.n_followers)
    dy = shrink if margin == 0.0 else 0.0
    return FollowerSolution(y=y, total=0.0, dY_dX=dy)


def follower_complementarity(params: MlmfParams, sol: FollowerSolution, X: float, a: float) -> float:
    """max_j |min(y_j, F_j(y))| for the follower system; ~0 at a solution."""
    b = params.demand_slope
    price = a - b * (X + sol.total)
    f = params.follower_costs * sol.y - price + b * sol.y
    return float(np.max(np.abs(np.minimum(sol.y, f))))


class MlmfCournotGame(GameOracle):
    """Leader-level oracle for the unconstrained market (feasible set R_+^N)."""

    def __init__(self, params: MlmfParams):
        self.params = params
        self.layout = PlayerLayout.scalar_players(params.n_leaders)
        self.feasible = FeasibleSet.nonneg(params.n_leaders)
        b = params.demand_slope
        # Follower aggregates are fixed by the costs, so precompute them for
        # the per-sample paths (one operator draw sits in every inner step).
        self._wsum = float((1.0 / (params.follower_costs + b)).sum())
        self._shrink = -b * self._wsum / (1.0 + b * self._wsum)

    def operator_sample(self, x, stream):
        p = self.params
        a = stream.generator.uniform(p.a_lo, p.a_hi)
        return self.operator_value(np.asarray(x, dtype=float), a)

    def operator_value(self, x: np.ndarray, a: float) -> np.ndarray:
        """Operator realization at a fixed intercept (noise-free evaluation);
        the scalar form of :meth:`operator_rows`, bitwise equal to it."""
        p = self.params
        b = p.demand_slope
        margin = a - b * x.sum()
        if margin > 0.0:
            price = margin / (1.0 + b * self._wsum)
            shrink = self._shrink
        else:
            price = margin
            shrink = self._shrink if margin == 0.0 else 0.0
        return (p.leader_costs + (1.0 + shrink) * b) * x - price

    def _price(self, X, a):
        """Row-wise (price, dY/dX) at leader aggregates X and intercepts a."""
        b = self.params.demand_slope
        margin = a - b * X
        price = np.where(margin > 0.0, margin / (1.0 + b * self._wsum), margin)
        return price, np.where(margin >= 0.0, self._shrink, 0.0)

    def draw_noise(self, stream, shape):
        """One demand intercept per sample: an array of shape ``shape``."""
        return stream.uniform(self.params.a_lo, self.params.a_hi, shape)

    def operator_rows(self, z, noise):
        price, dY = self._price(z.sum(axis=-1), noise)
        # Same association as operator_value, so the two are bitwise equal.
        coef = self.params.leader_costs + (1.0 + dY)[..., None] * self.params.demand_slope
        return coef * z - price[..., None]

    def objective_rows(self, i, own, x, noise):
        own = own.reshape(-1)
        rivals = float(np.sum(x)) - float(x[i])
        price, _ = self._price(rivals + own, noise)
        return -price * own + 0.5 * self.params.leader_costs[i] * own**2


class ConstrainedMlmfCournotGame(GameOracle):
    """Primal-dual oracle: z = [x, p] on R_+^{2N}.

    First block: leader operator plus p_i (the constraint gradient is
    identically one).  Second block: -(x_i - U_i + w_i) with per-leader
    noise w_i uniform on [-h, h].
    """

    def __init__(self, params: MlmfParams):
        if params.caps is None:
            raise ValueError("constrained market needs caps")
        self.params = params
        self.inner = MlmfCournotGame(params)
        n = params.n_leaders
        self.layout = PlayerLayout.scalar_players(2 * n)
        self.feasible = FeasibleSet.nonneg(2 * n)

    def _draw_w(self, stream: RandomStream, size=None):
        h = self.params.constraint_noise_halfwidth
        return stream.uniform(-h, h, size)

    def operator_sample(self, z, stream):
        p = self.params
        n = p.n_leaders
        z = np.asarray(z, dtype=float)
        x, duals = z[:n], z[n:]
        primal = self.inner.operator_sample(x, stream) + duals
        h = p.constraint_noise_halfwidth
        w = stream.generator.uniform(-h, h, n)
        dual = (p.caps - x) - w
        return np.concatenate([primal, dual])

    def draw_noise(self, stream, shape):
        """Per sample the intercept and then the n constraint noises, as an
        array of shape ``shape + (1 + n,)``.  Each step (last axis of
        ``shape``, S samples) draws its S intercepts before its S x n
        constraint noises, as a batch of S samples always has."""
        p = self.params
        *steps, s = shape
        n = p.n_leaders
        h = p.constraint_noise_halfwidth
        lo = np.repeat([p.a_lo, -h], [s, s * n])
        hi = np.repeat([p.a_hi, h], [s, s * n])
        raw = stream.uniform(lo, hi, (*steps, s * (1 + n)))
        w = raw[..., s:].reshape(*steps, s, n)
        return np.concatenate([raw[..., :s, None], w], axis=-1)

    def operator_rows(self, z, noise):
        n = self.params.n_leaders
        x, duals = z[..., :n], z[..., n:]
        primal = self.inner.operator_rows(x, noise[..., 0]) + duals
        dual = -(x - self.params.caps + noise[..., 1:])
        return np.concatenate([primal, dual], axis=-1)

    def constraint_sample(self, i, x_i, stream) -> np.ndarray:
        """One realization of the private constraint of leader i."""
        w = self._draw_w(stream)
        return np.array([float(x_i) - self.params.caps[i] + w])

    def constraint_sample_batch(self, i, x_i, count, stream) -> np.ndarray:
        w = self._draw_w(stream, count)
        return float(x_i) - self.params.caps[i] + w
