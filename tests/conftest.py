"""Shared fixtures and small synthetic games used across the suite."""

from __future__ import annotations

import numpy as np
import pytest

from hiergames import FeasibleSet, GameOracle, PlayerLayout, RandomStream, RidgedGame
from hiergames.games.bilevel import BilevelGame, BilevelParams
from hiergames.games.cournot import ConstrainedMlmfCournotGame, MlmfCournotGame, MlmfParams


class LinearToy(GameOracle):
    """Noise-free single player with operator slope * x + offset.

    slope = 0 gives the zero operator; the objective is the matching
    quadratic slope * v^2 / 2 + offset * v.
    """

    def __init__(self, slope: float = 1.0, offset: float = 0.0, nonneg: bool = False):
        self.slope = float(slope)
        self.offset = float(offset)
        self.layout = PlayerLayout.scalar_players(1)
        self.feasible = FeasibleSet.nonneg(1) if nonneg else FeasibleSet.free(1)

    def operator_noise(self, stream, shape):
        return np.zeros((*shape, 0))

    def operator_rows(self, z, noise):
        # the zeros only give the result the noise's leading axes
        return self.slope * z + self.offset + np.zeros((*noise.shape[:-1], 1))

    def objective_sample(self, i, x, stream):
        v = float(np.asarray(x, float)[0])
        return 0.5 * self.slope * v * v + self.offset * v

    def objective_sample_batch(self, i, own, x, stream):
        own = np.asarray(own, float).reshape(-1)
        return 0.5 * self.slope * own * own + self.offset * own


class QuadraticToy(GameOracle):
    """One player, objective kappa (v - m)^2 / 2 (+ a |v| + linear noise).

    ``noise`` adds sigma * w * v with w ~ U(-1, 1), keeping the minimizer in
    place while making the value oracle genuinely stochastic.
    """

    def __init__(self, kappa: float, m: float = 0.0, abs_weight: float = 0.0, noise: float = 0.0):
        self.kappa = float(kappa)
        self.m = float(m)
        self.abs_weight = float(abs_weight)
        self.noise = float(noise)
        self.layout = PlayerLayout.scalar_players(1)
        self.feasible = FeasibleSet.free(1)

    def _value(self, v, w):
        base = 0.5 * self.kappa * (v - self.m) ** 2 + self.abs_weight * np.abs(v)
        return base + self.noise * w * v

    def operator_noise(self, stream, shape):
        shape = (*shape, 1)
        return stream.uniform(-1.0, 1.0, shape) if self.noise else np.zeros(shape)

    def operator_rows(self, z, noise):
        return self.kappa * (z - self.m) + self.abs_weight * np.sign(z) + self.noise * noise

    def objective_sample(self, i, x, stream):
        w = stream.uniform(-1.0, 1.0) if self.noise else 0.0
        return float(self._value(float(np.asarray(x, float)[0]), w))

    def objective_sample_batch(self, i, own, x, stream):
        own = np.asarray(own, float).reshape(-1)
        w = stream.uniform(-1.0, 1.0, own.size) if self.noise else np.zeros(own.size)
        return self._value(own, w)

    def prox_best_response(self, c: float, center: float) -> float:
        """Exact minimizer of value + c (v - center)^2 / 2."""
        if self.abs_weight == 0.0:
            return (self.kappa * self.m + c * center) / (self.kappa + c)
        w = self.kappa * self.m + c * center
        mag = max(abs(w) - self.abs_weight, 0.0)
        return float(np.sign(w) * mag / (self.kappa + c))


def make_mlmf_params(stream=None, n_leaders=13, n_followers=10, caps=None) -> MlmfParams:
    stream = stream or RandomStream(7).derive("params")
    return MlmfParams.sample(
        n_leaders=n_leaders,
        n_followers=n_followers,
        demand_slope=7.0,
        a_range=(33.0, 37.0),
        leader_cost_range=(0.0, 100.0),
        follower_cost=50.0,
        stream=stream,
        caps=caps,
    )


def make_bilevel_params(stream=None, n_players=13, coincident=False) -> BilevelParams:
    stream = stream or RandomStream(11).derive("params")
    return BilevelParams.sample(n_players, stream, coincident=coincident)


def oracle_cases() -> dict[str, tuple[GameOracle, np.ndarray]]:
    """Every game with the operator primitive, each with a feasible point."""
    s = RandomStream(5).derive("oracle-cases")
    return {
        "mlmf": (MlmfCournotGame(make_mlmf_params()), s.uniform(0.0, 1.0, 13)),
        "mlmf-constrained": (
            ConstrainedMlmfCournotGame(make_mlmf_params(caps=5.0)), s.uniform(0.0, 1.0, 26)
        ),
        "bilevel": (BilevelGame(make_bilevel_params()), s.uniform(-1.0, 1.0, 13)),
        "ridged-bilevel": (
            RidgedGame(BilevelGame(make_bilevel_params(n_players=4)), mu=0.5),
            s.uniform(-1.0, 1.0, 4),
        ),
        "linear-toy": (LinearToy(slope=2.0, offset=-1.0, nonneg=True), np.array([0.7])),
        "quadratic-toy": (QuadraticToy(kappa=5.0, m=1.0, abs_weight=0.5, noise=1.0), np.array([0.3])),
    }


@pytest.fixture
def stream() -> RandomStream:
    return RandomStream(12345)
