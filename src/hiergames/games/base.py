"""Game abstraction consumed by every solver.

A game instance exposes its player layout, a coordinate-separable feasible
set, and sampled oracles.  The operator is sampled through one noise-explicit
primitive: ``operator_noise`` draws the noise of a block of samples and
``operator_rows`` evaluates the concatenated per-player subgradient map (the
follower problem is solved internally) row-wise under given noise, so
callers that pass the same noise array share it (common random numbers) and
callers that draw a block up front replay the draws of sample-at-a-time use.
``objective_sample`` returns one realization of a player's implicit
objective.  Normal-cone elements of the feasible set are never materialized
in samples; solvers realize them by projecting.  Implementations must be
immutable after construction and pure given (x, stream state): repeating a
call with a cloned stream reproduces the sample bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..rng import RandomStream


class NumericError(RuntimeError):
    """Non-finite value where a finite one is required."""


class UnsupportedCaseError(ValueError):
    """Operation invoked outside the structural case it supports."""


@dataclass(frozen=True)
class PlayerLayout:
    """Strategy dimensions: player i owns coordinates ``slice_of(i)``."""

    dims: tuple[int, ...]

    def __post_init__(self):
        if not self.dims or any(d < 1 for d in self.dims):
            raise ValueError("every player needs dimension >= 1")

    @property
    def n_players(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def slice_of(self, i: int) -> slice:
        start = sum(self.dims[:i])
        return slice(start, start + self.dims[i])

    @staticmethod
    def scalar_players(n: int) -> "PlayerLayout":
        return PlayerLayout((1,) * n)


@dataclass(frozen=True)
class FeasibleSet:
    """Coordinate-separable feasible set: whole space, orthant, or box.

    ``lo``/``hi`` are per-coordinate bounds with ``-inf``/``inf`` for free
    directions, so Euclidean projection is a clip.
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("bounds must be 1-d arrays of equal length")
        if np.any(lo > hi):
            raise ValueError("box bounds out of order")
        lo.setflags(write=False)
        hi.setflags(write=False)
        if np.all(lo == 0.0) and np.all(np.isinf(hi)):
            kind = "nonneg"
        elif np.all(np.isinf(lo)) and np.all(np.isinf(hi)):
            kind = "free"
        else:
            kind = "box"
        object.__setattr__(self, "_kind", kind)

    @staticmethod
    def free(dim: int) -> "FeasibleSet":
        return FeasibleSet(np.full(dim, -np.inf), np.full(dim, np.inf))

    @staticmethod
    def nonneg(dim: int) -> "FeasibleSet":
        return FeasibleSet(np.zeros(dim), np.full(dim, np.inf))

    @staticmethod
    def box(lo, hi) -> "FeasibleSet":
        return FeasibleSet(np.asarray(lo, float), np.asarray(hi, float))

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def project(self, x: np.ndarray) -> np.ndarray:
        """Euclidean projection; rejects NaN input."""
        x = np.asarray(x, dtype=float)
        if np.isnan(x).any():
            raise NumericError("cannot project NaN")
        kind = self._kind
        if kind == "nonneg":
            return np.maximum(x, 0.0)
        if kind == "free":
            return x.copy()
        return np.clip(x, self.lo, self.hi)

    def contains(self, x: np.ndarray, tol: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lo - tol) and np.all(x <= self.hi + tol))

    def restrict(self, sl: slice) -> "FeasibleSet":
        """Sub-set for one player's coordinate block."""
        return FeasibleSet(self.lo[sl], self.hi[sl])


class GameOracle:
    """Interface contract; see module docstring.

    Subclasses set ``layout`` and ``feasible`` and implement the operator
    primitive (``operator_noise``, ``operator_rows``) and the objective
    sample methods; they may override ``operator_sample`` with a scalar fast
    path that draws and computes exactly what a batch of one does.  The
    objective ``*_batch`` variants evaluate at fixed rivals under many
    independent noise realizations; the default implementations loop.
    """

    layout: PlayerLayout
    feasible: FeasibleSet

    def operator_noise(self, stream: RandomStream, shape: tuple[int, ...]) -> np.ndarray:
        """Noise of ``shape`` operator samples, as an array of shape
        ``shape + event`` (``event`` is game-specific, possibly empty).

        The last axis of ``shape`` holds the samples of one step; a draw of
        shape ``(C, S)`` equals ``C`` consecutive draws of shape ``(S,)``.
        """
        raise NotImplementedError

    def operator_rows(self, z: np.ndarray, noise: np.ndarray) -> np.ndarray:
        """Operator realizations at points ``z`` (shape ``(..., dim)``) under
        ``noise`` from :meth:`operator_noise`; the leading axes of ``z``
        broadcast against those of ``noise`` and the result has shape
        ``broadcast + (dim,)``."""
        raise NotImplementedError

    def operator_sample(self, x: np.ndarray, stream: RandomStream) -> np.ndarray:
        return self.operator_rows(np.asarray(x, dtype=float), self.operator_noise(stream, (1,)))[0]

    def operator_sample_batch(self, x: np.ndarray, count: int, stream: RandomStream) -> np.ndarray:
        """``count`` operator realizations at ``x``, shape ``(count, dim)``."""
        return self.operator_rows(np.asarray(x, dtype=float), self.operator_noise(stream, (count,)))

    def objective_sample(self, i: int, x: np.ndarray, stream: RandomStream) -> float:
        raise NotImplementedError

    def objective_sample_batch(
        self, i: int, own: np.ndarray, x: np.ndarray, stream: RandomStream
    ) -> np.ndarray:
        """Objective realizations at per-row own-variable values ``own``.

        ``own`` has shape (count, n_i) (or (count,) for scalar players);
        rivals stay at ``x``.  Row j uses its own fresh noise draw, so two
        calls with cloned streams share noise row by row.
        """
        own = np.atleast_2d(np.asarray(own, dtype=float))
        sl = self.layout.slice_of(i)
        out = np.empty(own.shape[0])
        for j in range(own.shape[0]):
            xj = np.array(x, dtype=float, copy=True)
            xj[sl] = own[j]
            out[j] = self.objective_sample(i, xj, stream)
        return out

    def objective_pair_sample_batch(
        self, i: int, own_a: np.ndarray, own_b: np.ndarray, x: np.ndarray, stream: RandomStream
    ) -> tuple[np.ndarray, np.ndarray]:
        """Row-wise objective realizations at two own-variable arrays with a
        shared noise draw per row (common random numbers within the pair)."""
        fa = self.objective_sample_batch(i, own_a, x, stream.clone())
        fb = self.objective_sample_batch(i, own_b, x, stream)
        return fa, fb


def estimate_mean_operator(
    game: GameOracle, x: np.ndarray, n_samples: int, stream: RandomStream
) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo estimate of the mean operator at ``x``.

    Returns (mean, per-coordinate standard error).  Diagnostic helper; the
    solvers themselves never average over frozen sample sets.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    samples = game.operator_sample_batch(np.asarray(x, float), n_samples, stream)
    mean = samples.mean(axis=0)
    if n_samples == 1:
        return mean, np.zeros_like(mean)
    stderr = samples.std(axis=0, ddof=1) / np.sqrt(n_samples)
    return mean, stderr


class RidgedGame(GameOracle):
    """Wraps a game, adding ``mu * x`` to the operator (and the matching
    quadratic to objectives).  Used to build strongly monotone synthetic
    instances from a monotone base game."""

    def __init__(self, base: GameOracle, mu: float):
        if mu < 0:
            raise ValueError("mu must be >= 0")
        self.base = base
        self.mu = float(mu)
        self.layout = base.layout
        self.feasible = base.feasible

    def operator_sample(self, x, stream):
        return self.base.operator_sample(x, stream) + self.mu * np.asarray(x, float)

    def operator_noise(self, stream, shape):
        return self.base.operator_noise(stream, shape)

    def operator_rows(self, z, noise):
        return self.base.operator_rows(z, noise) + self.mu * z

    def objective_sample(self, i, x, stream):
        sl = self.layout.slice_of(i)
        own = np.asarray(x, float)[sl]
        return self.base.objective_sample(i, x, stream) + 0.5 * self.mu * float(own @ own)

    def objective_sample_batch(self, i, own, x, stream):
        own2 = np.atleast_2d(np.asarray(own, dtype=float))
        base = self.base.objective_sample_batch(i, own, x, stream)
        return base + 0.5 * self.mu * np.sum(own2 * own2, axis=1)
