"""Workload definitions: the experiment specs each workload runs.

A workload is an ordered list of ``(label, spec)`` pairs.  Every spec runs
through ``hiergames run`` with the workload's seed; the label names the
output directory.  Specs that must share one game instance share a spec
name and have no sweep, because the runner derives the instance from the
root seed and the spec's sweep key (the spec name when there is no sweep).
This module imports nothing from ``hiergames``.
"""

from __future__ import annotations

import hashlib

DEFAULT_ROOT_SEED = 0

MLMF_GAME = {
    "family": "mlmf",
    "n_leaders": 13,
    "n_followers": 10,
    "demand_slope": 7.0,
    "a_range": [33.0, 37.0],
    "leader_cost_range": [0.0, 100.0],
    "follower_cost": 50.0,
}
MLMF_CONSTRAINED_GAME = dict(
    MLMF_GAME, family="mlmf-constrained", cap=5.0, constraint_noise_halfwidth=1.0
)
VRSPP_SOLVER = {
    "kind": "vr-spp",
    "lam": 0.1,
    "theta": 0.1,
    "schedule": {"kind": "geometric-base", "param": 1.1},
}
VRSPP_OUTER_ITERS = 110
VRSPP_MIN_INNER_STEPS = 10  # runner default, kept explicit for the budget check
MATCHED_BUDGET = 393_264  # sum_{k<110} max(10, floor(1.1^(k+1))); the checks recompute it
YOSIDA_FINAL = {
    "kind": "yosida",
    "lam": 0.1,
    "theta": 0.2,
    "inner_steps": 5000,
    "samples_per_step": 16,
    "repeats": 5,
    "cadence": "final",
}

# Kinked bilevel game.  The slope ranges keep every player's kink gap
# |b_i / q_i - l_i| at most 0.4, so every drawn instance meets the inner
# steplength's stability precondition zeta (c + d_i + 6 + abar gap / (2 eta))
# < 2 (at most 1.77 here); outside it the unrelaxed scheme oscillates.  The
# curvature floor of 10 bounds the conditioning of the coupled player
# updates, so the power relaxation's shrinking steps converge within 4000
# steps; from curvature 0 some instances end 3.6 eta from the minimiser.
BILEVEL_GAME = {
    "family": "bilevel",
    "n_players": 13,
    "lower_quad": 3.0,
    "curvature_range": [10.0, 100.0],
    "lower_slope_range": [0.9, 2.1],
    "bound_slope_range": [0.3, 0.7],
    "a_range": [33.0, 37.0],
}
SMOOTHING = {"eta": 0.1, "prox_weight": 1.0, "zeta": 0.01, "batch_base": 1.5}
ARSPBR_STEPS = 4000
BR_EVAL = {"kind": "br", "extra_steps": 8, "eval_zeta_scale": 0.2}


def _market_pair(name: str, game: dict, tag: str) -> list[tuple[str, dict]]:
    vr = {
        "name": name,
        "game": game,
        "solver": dict(VRSPP_SOLVER, min_inner_steps=VRSPP_MIN_INNER_STEPS),
        "budget": {"outer_iters": VRSPP_OUTER_ITERS},
        "seeds": [0],
        "residual": YOSIDA_FINAL,
    }
    sg = {
        "name": name,
        "game": game,
        "solver": {"kind": "sg", "alpha0": 0.1, "record_every": MATCHED_BUDGET},
        "budget": {"total_iters": MATCHED_BUDGET},
        "seeds": [0],
        "residual": YOSIDA_FINAL,
    }
    return [(f"vr-spp{tag}", vr), (f"sg{tag}", sg)]


def _arspbr(name: str, game: dict, relaxation: str, record_every: int, cadence) -> dict:
    return {
        "name": name,
        "game": game,
        "solver": {
            "kind": "arspbr",
            "smoothing": SMOOTHING,
            "relaxation": relaxation,
            "record_every": record_every,
        },
        "budget": {"outer_iters": ARSPBR_STEPS},
        "seeds": [0],
        "residual": dict(BR_EVAL, cadence=cadence),
    }


WORKLOADS: dict[str, list[tuple[str, dict]]] = {
    "market-monotone": _market_pair("mm13", MLMF_GAME, "")
    + _market_pair("mm13con", MLMF_CONSTRAINED_GAME, "-con"),
    "market-rate-trace": [
        (
            "vr-spp-poly",
            {
                "name": "rate13",
                "game": MLMF_GAME,
                "solver": dict(VRSPP_SOLVER, schedule={"kind": "polynomial", "param": 1.5}),
                "budget": {"outer_iters": 30},
                "seeds": [0],
                "residual": {
                    "kind": "yosida",
                    "lam": 0.1,
                    "theta": 0.2,
                    "inner_steps": 3000,
                    "samples_per_step": 8,
                    "repeats": 3,
                    "cadence": 1,
                },
            },
        )
    ],
    "bilevel-potential": [
        ("arspbr-constant", _arspbr("bp13", BILEVEL_GAME, "constant", 500, 500)),
        ("arspbr-power", _arspbr("bp13", BILEVEL_GAME, "power", 500, 500)),
        (
            "arspbr-coincident",
            _arspbr("bp13coin", dict(BILEVEL_GAME, coincident=True), "power",
                    ARSPBR_STEPS, "final"),
        ),
    ],
}


def workload_seed(workload: str, root_seed: int) -> int:
    """Seed passed to ``hiergames run --seed`` for one workload: the first
    eight bytes of sha256("<workload>/<root seed>"), little-endian, so each
    workload draws its own instances from one root seed."""
    digest = hashlib.sha256(f"{workload}/{root_seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def operations(workload: str) -> int:
    """(sweep point x seed) runs in one pass of the workload."""
    return sum(len(spec["seeds"]) for _, spec in WORKLOADS[workload])
