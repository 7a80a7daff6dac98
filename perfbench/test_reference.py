"""Fast tests of the benchmark's reference computations.

    python3 -m pytest perfbench -q

The reference module does not import ``hiergames``; these tests do, to
show that the references and the program describe the same games.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402
from hiergames import RandomStream  # noqa: E402
from hiergames.games.bilevel import BilevelGame, BilevelParams, direct_equilibrium  # noqa: E402
from hiergames.games.cournot import MlmfCournotGame, MlmfParams  # noqa: E402
from hiergames.solvers.smoothing import ArspbrConfig, SmoothingParams, arspbr_run  # noqa: E402
from hiergames.solvers.vr_spp import SampleSchedule, VrSppConfig  # noqa: E402


def _market(seed, leader_cost_range=(0.0, 100.0), a_range=(33.0, 37.0)):
    return MlmfParams.sample(13, 10, 7.0, a_range, leader_cost_range, 50.0,
                             RandomStream(seed).derive("params"))


def _cournot_star(p):
    return ref.cournot_equilibrium(p.leader_costs, p.follower_costs, p.demand_slope,
                                   p.a_lo, p.a_hi)


@pytest.mark.parametrize("seed", range(5))
def test_cournot_equilibrium_zeroes_the_mean_operator(seed):
    p = _market(seed)
    star = _cournot_star(p)
    # Every follower is active for every intercept, so the operator is
    # affine in the intercept and its mean is its value at the mean.
    game = MlmfCournotGame(p)
    assert p.demand_slope * star.sum() < p.a_lo
    np.testing.assert_allclose(game.operator_value(star, 0.5 * (p.a_lo + p.a_hi)), 0.0,
                               atol=1e-12)


def test_cournot_equilibrium_rejects_the_inactive_regime():
    p = _market(0, leader_cost_range=(0.0, 0.01), a_range=(1.0, 40.0))
    with pytest.raises(ValueError, match="always-active"):
        _cournot_star(p)


def test_matched_budget_is_recomputed_exactly():
    budget = ref.geometric_base_budget(11, 10, 110, 10)
    assert budget == wl.MATCHED_BUDGET == 393_264
    config = VrSppConfig(lam=0.1, theta=0.1, schedule=SampleSchedule("geometric-base", 1.1),
                         outer_iters=110)
    assert budget == sum(config.inner_steps(k) for k in range(110))
    assert checks.vrspp_budget(30, {"kind": "polynomial", "param": 1.5}, 10) == sum(
        VrSppConfig(lam=0.1, theta=0.1, schedule=SampleSchedule("polynomial", 1.5),
                    outer_iters=30).inner_steps(k) for k in range(30))


def test_arspbr_budget_matches_a_run():
    params = BilevelParams.sample(5, RandomStream(1).derive("params"))
    game = BilevelGame(params)
    report = arspbr_run(game, SmoothingParams(), ArspbrConfig(outer_iters=60, record_every=60),
                        np.zeros(5), RandomStream(1).derive("solve"))
    assert report.total_samples == checks.arspbr_budget(60, 1.5)


@pytest.mark.parametrize("seed", range(5))
def test_linear_solve_matches_direct_equilibrium(seed):
    params = BilevelParams.sample(13, RandomStream(seed).derive("p"), coincident=True)
    ours = ref.bilevel_linear_equilibrium(params.curvature, params.bound_slope,
                                          params.a_lo, params.a_hi)
    np.testing.assert_allclose(ours, direct_equilibrium(params), rtol=0, atol=1e-10)


@pytest.mark.parametrize("seed", range(5))
def test_potential_minimiser_on_coincident_instances(seed):
    params = BilevelParams.sample(13, RandomStream(seed).derive("p"), coincident=True)
    ours = ref.bilevel_potential_minimiser(params.curvature, params.kink_slopes,
                                           params.bound_slope, params.a_lo, params.a_hi)
    np.testing.assert_allclose(ours, direct_equilibrium(params), rtol=0, atol=1e-8)


@pytest.mark.parametrize("seed", range(10))
def test_potential_minimiser_is_stationary_and_matches_the_split(seed):
    params = BilevelParams.sample(13, RandomStream(seed).derive("p"))
    args = (params.curvature, params.kink_slopes, params.bound_slope, params.a_lo, params.a_hi)
    x = ref.bilevel_potential_minimiser(*args)
    np.testing.assert_allclose(x, ref.bilevel_potential_split(*args), rtol=0, atol=1e-6)
    # Optimality: 0 in (d + w) x + w sum(x) + abar * [lo, hi] at each kink.
    hi = np.maximum(params.kink_slopes, params.bound_slope)
    lo = np.minimum(params.kink_slopes, params.bound_slope)
    a_bar = 0.5 * (params.a_lo + params.a_hi)
    g = (params.curvature + ref.INTERACTION_WEIGHT) * x + ref.INTERACTION_WEIGHT * x.sum()
    for gi, xi, h, l in zip(g, x, hi, lo):
        if xi > 0:
            assert gi + a_bar * h == pytest.approx(0.0, abs=1e-9)
        elif xi < 0:
            assert gi + a_bar * l == pytest.approx(0.0, abs=1e-9)
        else:
            assert a_bar * l - 1e-9 <= -gi <= a_bar * h + 1e-9
    # The potential is linear in the intercepts, so with the intercept range
    # collapsed to its mean the program's potential sample is the mean
    # potential; no nearby point is lower.
    mean_game = BilevelGame(BilevelParams(params.curvature, params.lower_quad, params.lower_slope,
                                          params.bound_slope, a_bar, a_bar))
    stream = RandomStream(seed)
    best = mean_game.potential_sample(x, stream)
    for j in range(13):
        for step in (-1e-4, 1e-4):
            y = x.copy()
            y[j] += step
            assert mean_game.potential_sample(y, stream) >= best - 1e-12


def test_loglog_slope():
    ks = np.arange(1, 20)
    assert ref.loglog_slope(ks, 3.0 / ks**2) == pytest.approx(-2.0)
    assert math.isnan(ref.loglog_slope(ks, np.zeros(19)))


def test_workload_seeds_are_distinct_and_pinned():
    seeds = {wl.workload_seed(w, 0) for w in wl.WORKLOADS}
    assert len(seeds) == len(wl.WORKLOADS)
    # The values the README lists for the default root seed.
    assert wl.workload_seed("market-monotone", 0) == 4374258915231259777
    assert wl.workload_seed("market-rate-trace", 0) == 8311181044944472254
    assert wl.workload_seed("bilevel-potential", 0) == 840424149180128748
