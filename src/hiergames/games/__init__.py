from .base import FeasibleSet, GameOracle, PlayerLayout, RidgedGame, estimate_mean_operator
from .bilevel import BilevelGame, BilevelParams, direct_equilibrium, lower_level_solution
from .cournot import (
    ConstrainedMlmfCournotGame,
    DualPoint,
    FollowerSolution,
    MlmfCournotGame,
    MlmfParams,
    follower_equilibrium,
)

__all__ = [
    "BilevelGame",
    "BilevelParams",
    "ConstrainedMlmfCournotGame",
    "DualPoint",
    "FeasibleSet",
    "FollowerSolution",
    "GameOracle",
    "MlmfCournotGame",
    "MlmfParams",
    "PlayerLayout",
    "RidgedGame",
    "direct_equilibrium",
    "estimate_mean_operator",
    "follower_equilibrium",
    "lower_level_solution",
]
