"""Solvers and benchmarks for stochastic hierarchical convex games."""

from .games.base import (
    FeasibleSet,
    GameOracle,
    NumericError,
    PlayerLayout,
    RidgedGame,
    UnsupportedCaseError,
)
from .report import RunReport
from .rng import RandomStream

__all__ = [
    "FeasibleSet",
    "GameOracle",
    "NumericError",
    "PlayerLayout",
    "RandomStream",
    "RidgedGame",
    "RunReport",
    "UnsupportedCaseError",
]
