"""Deterministic, splittable randomness.

Every stochastic quantity in this package (demand intercepts, constraint
noise, smoothing directions, player selection, ...) is drawn through a
:class:`RandomStream`.  A stream is identified by a 64-bit root seed plus a
path of derivation labels, so the same (seed, label path) always replays the
same draws regardless of platform or of what sibling streams consumed.  The
underlying generator is Philox, a counter-based generator, which makes
derivation O(1) and collision-free without coordination between workers.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _label_to_int(label: int | str) -> int:
    if isinstance(label, (int, np.integer)):
        return int(label) & _MASK64
    if isinstance(label, str):
        digest = hashlib.sha256(label.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")
    raise TypeError(f"stream labels must be int or str, got {type(label)!r}")


class RandomStream:
    """Value-like random source: derivable by label, cloneable by state.

    ``derive(label)`` returns a child whose draws depend only on
    (root seed, lineage + label); it never consumes parent state, so
    derivation order and prior draws on the parent are irrelevant.
    ``clone()`` copies the current position, so a clone replays exactly the
    draws this stream would produce next (used for common-random-number
    comparisons).  A single instance must not be shared mutably across
    threads; pass clones or derived children instead.
    """

    __slots__ = ("seed", "lineage", "_gen")

    def __init__(self, seed: int, lineage: tuple[int, ...] = ()):
        self.seed = int(seed) & _MASK64
        self.lineage = tuple(_label_to_int(lab) for lab in lineage)
        self._gen: np.random.Generator | None = None

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, lineage={self.lineage})"

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            ss = np.random.SeedSequence([self.seed, *self.lineage])
            self._gen = np.random.Generator(np.random.Philox(ss))
        return self._gen

    def derive(self, label: int | str) -> "RandomStream":
        """Child stream for ``lineage + (label,)``; independent of siblings."""
        return RandomStream(self.seed, self.lineage + (_label_to_int(label),))

    def clone(self) -> "RandomStream":
        """Positional copy: the clone replays this stream's future draws."""
        out = RandomStream(self.seed, self.lineage)
        gen = np.random.Generator(np.random.Philox())
        gen.bit_generator.state = self.generator.bit_generator.state
        out._gen = gen
        return out

    # ------------------------------------------------------------------ draws

    def uniform(self, lo, hi, size=None):
        """Uniform draw(s) on [lo, hi); scalar when ``size`` is None.  Array
        bounds broadcast against ``size``; one such call draws exactly what
        consecutive calls with the matching scalar bounds would."""
        bad = lo > hi
        if not isinstance(bad, bool):
            bad = bad.any()
        if bad:
            raise ValueError(f"uniform bounds out of order: lo={lo} > hi={hi}")
        out = self.generator.uniform(lo, hi, size)
        return float(out) if size is None else out

    def normal(self, size=None):
        return self.generator.standard_normal(size)

    def unit_sphere(self, dim: int) -> np.ndarray:
        """Uniform point on the unit sphere in R^dim (normalized Gaussian)."""
        return self.unit_sphere_batch(dim, 1)[0]

    def unit_sphere_batch(self, dim: int, count: int) -> np.ndarray:
        if dim < 1:
            raise ValueError(f"sphere dimension must be >= 1, got {dim}")
        v = self.generator.standard_normal((count, dim))
        norms = np.linalg.norm(v, axis=1)
        # A zero Gaussian vector has probability zero but would break the
        # normalization; redraw those rows.
        while np.any(norms == 0.0):
            bad = norms == 0.0
            v[bad] = self.generator.standard_normal((int(bad.sum()), dim))
            norms = np.linalg.norm(v, axis=1)
        return v / norms[:, None]

    def unit_ball(self, dim: int) -> np.ndarray:
        """Uniform point in the closed unit ball in R^dim."""
        return self.unit_ball_batch(dim, 1)[0]

    def unit_ball_batch(self, dim: int, count: int) -> np.ndarray:
        sphere = self.unit_sphere_batch(dim, count)
        radii = self.generator.uniform(0.0, 1.0, count) ** (1.0 / dim)
        return sphere * radii[:, None]

    def choice_index(self, probs: np.ndarray) -> int:
        """Categorical draw over ``len(probs)`` indices."""
        return int(self.generator.choice(len(probs), p=probs))
