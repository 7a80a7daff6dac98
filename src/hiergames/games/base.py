"""Game abstraction consumed by every solver.

A game instance exposes its player layout, a coordinate-separable feasible
set, and sampled oracles.  The operator and every player's implicit
objective are functions of one random variable: ``draw_noise`` draws its
realizations for a block of samples, and ``operator_rows`` (the follower
problem is solved internally) and ``objective_rows`` evaluate row-wise under
given noise.  Callers that pass the same noise array share it (common random
numbers); a block drawn up front replays sample-at-a-time draws, which is
how the solvers and the residuals step (in chunks of ``chunk_steps``).  The
``*_sample*`` methods draw, then evaluate.  Normal-cone elements of the
feasible set are never materialized in samples; solvers realize them by
projecting.  Implementations must be immutable after construction and pure
given (x, stream state): repeating a call with a cloned stream reproduces
the sample bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..rng import RandomStream

# Noise pre-drawn per loop (or lane) and chunk, counted as steps x samples x
# dim: a chunk runs max(1, NOISE_CHUNK_VALUES // (samples_per_step * dim)) steps.
# The solver loops also check their iterate once per chunk (see FeasibleSet).
NOISE_CHUNK_VALUES = 4096


def chunk_steps(samples_per_step: int, dim: int) -> int:
    """Steps per pre-drawn noise chunk (see ``NOISE_CHUNK_VALUES``)."""
    return max(1, NOISE_CHUNK_VALUES // (samples_per_step * dim))


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
    directions, so Euclidean projection is a clip.  ``project`` rejects NaN
    and then calls ``clip``, which does not look at its input.  The solver
    loops step with ``clip`` and check their iterate once per noise chunk:
    a projected coordinate that is NaN stays NaN, and one that is ``±inf``
    lies on a side whose bound is infinite, where the next update keeps it
    ``±inf`` or makes it NaN, so a chunk that goes non-finite ends
    non-finite.
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
        return self.clip(x)

    def clip(self, x: np.ndarray) -> np.ndarray:
        """Euclidean projection of a float array, unchecked: NaN passes
        through."""
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

    Subclasses set ``layout`` and ``feasible`` and implement ``draw_noise``,
    ``operator_rows`` and, where players have objectives,
    ``objective_rows``.  These are the only formulas a game has: the
    solvers and the residuals pre-draw with ``draw_noise`` and evaluate
    with ``operator_rows``, and every ``*_sample*`` method below is built
    on them.
    """

    layout: PlayerLayout
    feasible: FeasibleSet

    def draw_noise(self, stream: RandomStream, shape: tuple[int, ...]) -> np.ndarray:
        """Realizations of the noise for ``shape`` samples, as an array of
        shape ``shape + event`` (``event`` is game-specific, possibly empty).

        The last axis of ``shape`` holds the samples of one step; a draw of
        shape ``(C, S)`` equals ``C`` consecutive draws of shape ``(S,)``.
        """
        raise NotImplementedError

    def operator_rows(self, z: np.ndarray, noise: np.ndarray) -> np.ndarray:
        """Operator realizations at points ``z`` (shape ``(..., dim)``) under
        ``noise`` from :meth:`draw_noise`; the leading axes of ``z``
        broadcast against those of ``noise`` and the result has shape
        ``broadcast + (dim,)``."""
        raise NotImplementedError

    def objective_rows(
        self, i: int, own: np.ndarray, x: np.ndarray, noise: np.ndarray
    ) -> np.ndarray:
        """Player ``i``'s objective realizations, shape ``(count,)``.

        Row j of ``own`` (shape ``(count, n_i)``, or ``(count,)`` for scalar
        players) is player i's own variable; rivals stay at ``x``.  Row j is
        evaluated under ``noise[j]``, with ``noise`` of shape
        ``(count,) + event`` from :meth:`draw_noise`.
        """
        raise NotImplementedError

    def operator_sample(self, x: np.ndarray, stream: RandomStream) -> np.ndarray:
        return self.operator_rows(np.asarray(x, dtype=float), self.draw_noise(stream, (1,)))[0]

    def operator_sample_batch(self, x: np.ndarray, count: int, stream: RandomStream) -> np.ndarray:
        """``count`` operator realizations at ``x``, shape ``(count, dim)``."""
        return self.operator_rows(np.asarray(x, dtype=float), self.draw_noise(stream, (count,)))

    def objective_sample(self, i: int, x: np.ndarray, stream: RandomStream) -> float:
        x = np.asarray(x, dtype=float)
        own = x[self.layout.slice_of(i)][None, :]
        return float(self.objective_rows(i, own, x, self.draw_noise(stream, (1,)))[0])

    def objective_sample_batch(
        self, i: int, own: np.ndarray, x: np.ndarray, stream: RandomStream
    ) -> np.ndarray:
        """Objective realizations at per-row own variables ``own`` (see
        :meth:`objective_rows`), each row under a fresh noise draw."""
        own = np.asarray(own, dtype=float)
        noise = self.draw_noise(stream, (len(own),))
        return self.objective_rows(i, own, np.asarray(x, dtype=float), noise)

    def objective_pair_sample_batch(
        self, i: int, own_a: np.ndarray, own_b: np.ndarray, x: np.ndarray, stream: RandomStream
    ) -> tuple[np.ndarray, np.ndarray]:
        """Row-wise objective realizations at two own-variable arrays under
        one noise draw per row (common random numbers within the pair)."""
        own_a = np.asarray(own_a, dtype=float)
        count = len(own_a)
        noise = self.draw_noise(stream, (count,))
        own = np.concatenate([own_a, np.asarray(own_b, dtype=float)])
        f = self.objective_rows(i, own, np.asarray(x, dtype=float), np.concatenate([noise, noise]))
        return f[:count], f[count:]


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

    def draw_noise(self, stream, shape):
        return self.base.draw_noise(stream, shape)

    def operator_rows(self, z, noise):
        return self.base.operator_rows(z, noise) + self.mu * z

    def objective_rows(self, i, own, x, noise):
        rows = own.reshape(len(own), -1)
        return self.base.objective_rows(i, own, x, noise) + 0.5 * self.mu * np.sum(rows**2, axis=1)
