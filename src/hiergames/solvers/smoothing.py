"""Randomized smoothing, zeroth-order best response, and the asynchronous
relaxed outer scheme.

Player objectives here may be nonsmooth and only available through sampled
function values.  Smoothing by a uniform ball perturbation of radius eta
yields a surrogate whose gradient has the sphere-sampling representation

    grad phi(v) = E[ (n_i / eta) * phi_value(v + eta s) * s ],   s ~ sphere,

which needs function values only.  The mini-batch estimator below draws
antithetic direction pairs (s, -s) sharing one noise realization; each
member is a uniform sphere draw, expectations are unchanged, and the pairing
cancels the O(|phi|/eta) common-mode term that otherwise dominates the
estimator's variance.  The inner solver (a projected SGD on the strongly
convex proximal surrogate with geometrically growing batches) computes an
inexact proximal best response; the outer scheme updates one randomly chosen
player per step, relaxed by gamma_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..games.base import GameOracle, NumericError
from ..report import RunReport
from ..rng import RandomStream


@dataclass(frozen=True)
class SmoothingParams:
    eta: float = 0.1          # smoothing radius
    prox_weight: float = 1.0  # c in the proximal best-response objective
    zeta: float = 0.01        # inner steplength
    batch_base: float = 1.5   # N_t = ceil(batch_base^(t+1))
    steps_rule: str | int = "log-growth"  # T_k = ceil(log k^1.5), or a fixed int

    def __post_init__(self):
        for name in ("eta", "prox_weight", "zeta"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.batch_base <= 1:
            raise ValueError("batch_base must exceed 1")
        if isinstance(self.steps_rule, str) and self.steps_rule != "log-growth":
            raise ValueError("steps_rule must be 'log-growth' or an integer")
        if isinstance(self.steps_rule, int) and self.steps_rule < 1:
            raise ValueError("steps_rule must be >= 1 when fixed")

    def inner_batch(self, t: int) -> int:
        return int(math.ceil(self.batch_base ** (t + 1)))

    def inner_steps(self, k: int) -> int:
        if isinstance(self.steps_rule, int):
            return self.steps_rule
        return max(1, math.ceil(math.log(max(k, 1) ** 1.5)))


@dataclass(frozen=True)
class ArspbrConfig:
    outer_iters: int
    # gamma_k = 1 (unrelaxed) for "constant", min(1, k^-0.51) for "power"
    relaxation: str = "constant"
    record_every: int = 1

    def __post_init__(self):
        if self.outer_iters < 0:
            raise ValueError("outer_iters must be >= 0")
        if self.relaxation not in ("constant", "power"):
            raise ValueError("relaxation must be 'constant' or 'power'")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")

    def gamma_at(self, k: int) -> float:
        if self.relaxation == "constant":
            return 1.0
        return min(1.0, float(k) ** -0.51)


def zsol_contraction_factor(strong_convexity: float, smoothness: float, zeta: float) -> float:
    """Per-step mean-square contraction factor of the inner solver,
    1 - 2 c zeta + 2 zeta^2 alpha^2; below one iff zeta < c / alpha^2."""
    return 1.0 - 2.0 * strong_convexity * zeta + 2.0 * zeta**2 * smoothness**2


def _prox_penalty(own: np.ndarray, center: np.ndarray, weight: float) -> np.ndarray:
    diff = own - center
    return 0.5 * weight * np.sum(diff * diff, axis=1)


def zo_gradient_batch(
    game: GameOracle,
    params: SmoothingParams,
    i: int,
    v_i: np.ndarray,
    x: np.ndarray,
    batch_size: int,
    stream: RandomStream,
) -> np.ndarray:
    """Mini-batch sphere-sampling gradient estimate of the smoothed proximal
    objective phi(v) = f_i,eta(v, x^{-i}) + (c/2) ||v - x^i||^2.

    Directions come in antithetic pairs sharing a noise draw (see module
    docstring); ``batch_size`` counts function evaluations and is rounded up
    to a whole number of pairs.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    n_i = game.layout.dims[i]
    sl = game.layout.slice_of(i)
    v_i = np.atleast_1d(np.asarray(v_i, dtype=float))
    center = np.asarray(x, dtype=float)[sl]
    n_pairs = (batch_size + 1) // 2

    dirs = stream.unit_sphere_batch(n_i, n_pairs)
    plus = v_i + params.eta * dirs
    minus = v_i - params.eta * dirs
    f_plus, f_minus = game.objective_pair_sample_batch(i, plus, minus, x, stream)
    f_plus = f_plus + _prox_penalty(plus, center, params.prox_weight)
    f_minus = f_minus + _prox_penalty(minus, center, params.prox_weight)

    halves = 0.5 * (f_plus - f_minus)
    return (n_i / params.eta) * (halves[:, None] * dirs).mean(axis=0)


def _zo_evals(batch_size: int) -> int:
    return 2 * ((batch_size + 1) // 2)


def _zsol(
    game: GameOracle,
    params: SmoothingParams,
    i: int,
    x: np.ndarray,
    n_outer_steps: int,
    stream: RandomStream,
) -> tuple[np.ndarray, int]:
    if n_outer_steps < 1:
        raise ValueError("n_outer_steps must be >= 1")
    sl = game.layout.slice_of(i)
    own_set = game.feasible.restrict(sl)
    v = np.asarray(x, dtype=float)[sl].copy()
    evals = 0
    for t in range(n_outer_steps):
        batch = params.inner_batch(t)
        g = zo_gradient_batch(game, params, i, v, x, batch, stream)
        v = own_set.project(v - params.zeta * g)
        evals += _zo_evals(batch)
        if not np.all(np.isfinite(v)):
            raise NumericError(f"zeroth-order iterate became non-finite at step {t}")
    return v, evals


def zsol_solve(
    game: GameOracle,
    params: SmoothingParams,
    i: int,
    x: np.ndarray,
    n_outer_steps: int,
    stream: RandomStream,
) -> np.ndarray:
    """Inexact smoothed proximal best response of player i at joint point x:
    projected SGD from v = x^i with batches N_t = ceil(base^(t+1))."""
    v, _ = _zsol(game, params, i, x, n_outer_steps, stream)
    return v


def arspbr_run(
    game: GameOracle,
    params: SmoothingParams,
    config: ArspbrConfig,
    x0: np.ndarray,
    stream: RandomStream,
) -> RunReport:
    """Asynchronous relaxed scheme: at step k, draw player i_k, compute an
    inexact smoothed proximal best response with the step rule's budget, and
    move that player by x_i <- (1 - gamma_k) x_i + gamma_k B.

    Asynchrony is modeled by the random single-player updates; a run is
    sequential and deterministic given (config, stream).
    """
    x = np.asarray(x0, dtype=float).copy()
    if not game.feasible.contains(x):
        raise ValueError("x0 must lie in the feasible set")
    n_players = game.layout.n_players
    probs = np.full(n_players, 1.0 / n_players)
    report = RunReport()
    samples = 0
    report.record(0, x, samples)
    for k in range(1, config.outer_iters + 1):
        i_k = stream.choice_index(probs)
        sl = game.layout.slice_of(i_k)
        try:
            best, evals = _zsol(game, params, i_k, x, params.inner_steps(k), stream.derive(k))
        except NumericError as err:
            raise NumericError(f"outer iteration {k}: {err}") from err
        gamma = config.gamma_at(k)
        x[sl] = (1.0 - gamma) * x[sl] + gamma * best
        samples += evals
        if k % config.record_every == 0 or k == config.outer_iters:
            report.record(k, x, samples)
    report.validate()
    return report
