from .base import FeasibleSet, GameOracle, PlayerLayout, RidgedGame
from .bilevel import BilevelGame, BilevelParams, direct_equilibrium
from .cournot import (
    ConstrainedMlmfCournotGame,
    FollowerSolution,
    MlmfCournotGame,
    MlmfParams,
    follower_equilibrium,
)

__all__ = [
    "BilevelGame",
    "BilevelParams",
    "ConstrainedMlmfCournotGame",
    "FeasibleSet",
    "FollowerSolution",
    "GameOracle",
    "MlmfCournotGame",
    "MlmfParams",
    "PlayerLayout",
    "RidgedGame",
    "direct_equilibrium",
    "follower_equilibrium",
]
