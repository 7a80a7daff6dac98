from fractions import Fraction

import numpy as np
import pytest

from hiergames import RidgedGame, UnsupportedCaseError
from hiergames.games.bilevel import (
    BilevelGame,
    BilevelParams,
    _lower_slopes,
    _lower_values,
    direct_equilibrium,
)
from hiergames.games.cournot import MlmfCournotGame

from conftest import make_bilevel_params, make_mlmf_params, mean_operator


def manual_params(d, slope, bound, q=3.0, a_lo=33.0, a_hi=37.0):
    d = np.atleast_1d(np.asarray(d, float))
    return BilevelParams(
        curvature=d,
        lower_quad=np.full(d.size, q),
        lower_slope=np.atleast_1d(np.asarray(slope, float)),
        bound_slope=np.atleast_1d(np.asarray(bound, float)),
        a_lo=a_lo,
        a_hi=a_hi,
    )


def test_lower_level_solution_formula():
    p = manual_params([1.0, 1.0], [2.0, 2.0], [0.5, 0.5])
    values = _lower_values(p, np.array([1.0, 0.0]))
    assert values[0] == pytest.approx(2.0 / 3.0)
    assert values[1] == 0.0


def test_lower_level_coincident_branches_agree():
    xs = np.array([-2.0, -0.5, 0.0, 0.7, 4.0])
    p = manual_params(np.ones(5), np.full(5, 3.0), np.ones(5))
    assert np.allclose(_lower_values(p, xs), xs)
    assert np.array_equal(_lower_slopes(p, xs), np.ones(5))


def test_subgradient_picks_steeper_branch_and_tie_break():
    p = manual_params(np.ones(3), np.full(3, 2.0), np.full(3, 0.5))  # kink slope 2/3 vs bound 1/2
    slopes = _lower_slopes(p, np.array([1.0, -1.0, 0.0]))
    assert slopes[0] == pytest.approx(2.0 / 3.0)
    assert slopes[1] == pytest.approx(0.5)
    # tie at the kink: first-branch slope by convention
    assert slopes[2] == pytest.approx(2.0 / 3.0)


def test_operator_coincident_is_affine():
    p = manual_params([10.0, 20.0], [3.0, 3.0], [1.0, 1.0])
    game = BilevelGame(p)
    x = np.array([0.4, -1.3])
    val = game.operator_rows(x, np.array([35.0, 35.0]))
    expect = (p.curvature + 3.0) * x + 3.0 * x.sum() + 35.0
    assert np.allclose(val, expect, atol=1e-12)


def test_operator_at_origin_uses_tie_break():
    p = manual_params([10.0], [2.0], [0.5])
    game = BilevelGame(p)
    val = game.operator_rows(np.zeros(1), np.array([35.0]))
    assert val[0] == pytest.approx(35.0 * (2.0 / 3.0))


def test_operator_matches_objective_finite_differences(stream):
    # Away from kinks the per-realization objective is differentiable in the
    # own variable, and central differences under the operator's noise
    # recover its component: right of every bilevel kink, and on the market
    # where x in [0, 0.3]^13 keeps the followers active.
    h = 1e-5
    cases = [
        (BilevelGame(make_bilevel_params()), stream.uniform(0.5, 2.0, 13)),
        (MlmfCournotGame(make_mlmf_params()), stream.uniform(0.0, 0.3, 13)),
    ]
    for game, x in cases:
        noise = game.draw_noise(stream.derive("fd"), (200,))
        ops = game.operator_rows(x, noise)
        for i in (0, 4, 9):
            f_hi = game.objective_rows(i, np.full(200, x[i] + h), x, noise)
            f_lo = game.objective_rows(i, np.full(200, x[i] - h), x, noise)
            fd = (f_hi - f_lo) / (2 * h)
            assert np.max(np.abs(fd - ops[:, i])) <= 1e-6


def test_objective_zero_at_origin(stream):
    game = BilevelGame(make_bilevel_params())
    assert game.objective_sample(3, np.zeros(13), stream) == 0.0


def test_potential_zero_at_origin(stream):
    game = BilevelGame(make_bilevel_params())
    assert game.potential_sample(np.zeros(13), stream) == 0.0


def test_single_player_potential_equals_objective(stream):
    game = BilevelGame(make_bilevel_params(n_players=1))
    for t in range(20):
        s = stream.derive(t)
        x = np.array([s.uniform(-3.0, 3.0)])
        w = s.derive("w")
        assert game.potential_sample(x, w.clone()) == pytest.approx(
            game.objective_sample(0, x, w.clone()), abs=1e-12
        )


def potential_identity_check(game, stream, n_triples=1000, tol=1e-12):
    """Per-realization identity: the potential difference along one player's
    deviation equals that player's objective difference (common draws)."""
    n = game.layout.n_players
    worst = 0.0
    for t in range(n_triples):
        s = stream.derive(t)
        i = int(s.uniform(0, n))
        x = s.uniform(-2.0, 2.0, n)
        x_new = x.copy()
        x_new[i] = s.uniform(-2.0, 2.0)
        w = s.derive("w")
        dp = game.potential_sample(x_new, w.clone()) - game.potential_sample(x, w.clone())
        df = game.objective_sample(i, x_new, w.clone()) - game.objective_sample(i, x, w.clone())
        worst = max(worst, abs(dp - df) / max(1.0, abs(df)))
        if worst > tol:
            return False, worst
    return True, worst


def test_potential_identity(stream):
    ok, worst = potential_identity_check(BilevelGame(make_bilevel_params()), stream)
    assert ok, f"worst relative gap {worst:.2e}"


def test_direct_equilibrium_single_player():
    p = manual_params([10.0], [3.0], [1.0])
    x = direct_equilibrium(p)
    assert x[0] == pytest.approx(-35.0 / 16.0, abs=1e-12)


def test_direct_equilibrium_two_players():
    p = manual_params([10.0, 20.0], [3.0, 3.0], [1.0, 1.0])
    x = direct_equilibrium(p)
    # 16 x1 + 3 x2 = -35 ; 3 x1 + 26 x2 = -35 (dense solve, verified by hand)
    assert x[0] == pytest.approx(float(Fraction(-805, 407)), abs=1e-10)
    assert x[1] == pytest.approx(float(Fraction(-455, 407)), abs=1e-10)
    assert 16 * x[0] + 3 * x[1] == pytest.approx(-35.0, abs=1e-10)
    assert 3 * x[0] + 26 * x[1] == pytest.approx(-35.0, abs=1e-10)


def test_direct_equilibrium_rejects_non_coincident():
    p = manual_params([10.0], [2.0], [0.5])
    with pytest.raises(UnsupportedCaseError):
        direct_equilibrium(p)


def test_direct_equilibrium_is_stationary(stream):
    params = make_bilevel_params(coincident=True)
    game = BilevelGame(params)
    star = direct_equilibrium(params)
    mean, se = mean_operator(game, star, 10**6, stream)
    assert np.all(np.abs(mean) <= 3.0 * se)


def test_direct_equilibrium_with_ridge(stream):
    params = make_bilevel_params(coincident=True)
    game = RidgedGame(BilevelGame(params), mu=1.0)
    star = direct_equilibrium(params, ridge=1.0)
    mean, se = mean_operator(game, star, 10**5, stream)
    assert np.all(np.abs(mean) <= 3.0 * se)


def test_params_validation():
    with pytest.raises(ValueError):
        manual_params([1.0], [1.0], [1.0], q=0.0)
    with pytest.raises(ValueError):
        manual_params([-1.0], [1.0], [1.0])
    with pytest.raises(ValueError):
        manual_params([1.0], [1.0], [1.0], a_lo=40.0, a_hi=33.0)
