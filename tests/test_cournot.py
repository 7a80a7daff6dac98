from fractions import Fraction

import numpy as np
import pytest

from hiergames import NumericError
from hiergames.games.cournot import (
    ConstrainedMlmfCournotGame,
    MlmfCournotGame,
    MlmfParams,
    follower_complementarity,
    follower_equilibrium,
)

from conftest import make_mlmf_params


def symmetric_params(c=50.0, b=7.0, m=10, n=13):
    return MlmfParams(
        demand_slope=b,
        a_lo=33.0,
        a_hi=37.0,
        leader_costs=np.ones(n),
        follower_costs=np.full(m, c),
    )


def pg_lcp_oracle(costs, b, X, a, tol=1e-13, max_iter=200_000):
    """Projected-gradient solve of the follower complementarity system
    (independent of the active-set route)."""
    m = costs.size
    mat = np.diag(costs + b) + b * np.ones((m, m))
    q = a - b * X
    step = 1.0 / (costs.max() + b * (m + 1))
    y = np.zeros(m)
    for _ in range(max_iter):
        grad = mat @ y - q
        y_new = np.maximum(y - step * grad, 0.0)
        if np.max(np.abs(y_new - y)) < tol * step:
            return y_new
        y = y_new
    return y


def test_symmetric_follower_solution_closed_form():
    p = symmetric_params()
    sol = follower_equilibrium(p, X=0.0, a=35.0)
    # Y = M a / (c + b (M + 1)) for identical costs.
    assert sol.total == pytest.approx(float(Fraction(350, 127)), abs=1e-12)
    assert np.allclose(sol.y, float(Fraction(35, 127)), atol=1e-12)
    assert sol.dY_dX == pytest.approx(float(Fraction(-70, 127)), abs=1e-12)
    y_pg = pg_lcp_oracle(p.follower_costs, 7.0, 0.0, 35.0)
    assert np.allclose(sol.y, y_pg, atol=1e-8)


def test_follower_demand_exhausted():
    p = symmetric_params()
    sol = follower_equilibrium(p, X=6.0, a=35.0)
    assert np.all(sol.y == 0.0)
    assert sol.total == 0.0
    assert sol.dY_dX == 0.0


def test_follower_tie_uses_closed_active_set():
    p = symmetric_params()
    sol = follower_equilibrium(p, X=5.0, a=35.0)  # a == b X exactly
    assert sol.total == 0.0
    assert sol.dY_dX == pytest.approx(float(Fraction(-70, 127)))


def test_follower_heterogeneous_complementarity():
    p = MlmfParams(
        demand_slope=7.0,
        a_lo=33.0,
        a_hi=37.0,
        leader_costs=np.ones(2),
        follower_costs=np.array([10.0, 1000.0]),
    )
    sol = follower_equilibrium(p, X=0.0, a=35.0)
    assert follower_complementarity(p, sol, 0.0, 35.0) <= 1e-10
    y_pg = pg_lcp_oracle(p.follower_costs, 7.0, 0.0, 35.0, tol=1e-14)
    assert np.allclose(sol.y, y_pg, atol=1e-12)


def test_follower_rejects_non_finite():
    with pytest.raises(NumericError):
        follower_equilibrium(symmetric_params(), X=np.nan, a=35.0)


def test_follower_aggregate_nonincreasing_in_x(stream):
    p = make_mlmf_params()
    for _ in range(100):
        x1 = stream.uniform(0.0, 8.0)
        x2 = stream.uniform(0.0, 8.0)
        a = stream.uniform(33.0, 37.0)
        lo, hi = min(x1, x2), max(x1, x2)
        assert follower_equilibrium(p, hi, a).total <= follower_equilibrium(p, lo, a).total + 1e-12


def follower_random_instance_check(stream, n_instances=1000):
    """Complementarity <= 1e-10, dY/dX in (-1, 0], and agreement with the
    projected-gradient oracle to 1e-8 on random instances with M <= 20."""
    for t in range(n_instances):
        s = stream.derive(t)
        m = 1 + int(s.uniform(0, 20))
        costs = s.uniform(0.0, 100.0, m)
        b = s.uniform(0.5, 10.0)
        a = s.uniform(0.0, 50.0)
        X = s.uniform(0.0, 10.0)
        p = MlmfParams(
            demand_slope=b, a_lo=33.0, a_hi=37.0,
            leader_costs=np.ones(2), follower_costs=costs,
        )
        sol = follower_equilibrium(p, X, a)
        if follower_complementarity(p, sol, X, a) > 1e-10:
            return False, "complementarity", t
        if not (-1.0 < sol.dY_dX <= 0.0):
            return False, "derivative range", t
        y_pg = pg_lcp_oracle(costs, b, X, a)
        if np.max(np.abs(sol.y - y_pg)) > 1e-8:
            return False, "oracle mismatch", t
    return True, "", -1


def test_follower_random_instances_match_lcp_oracle(stream):
    ok, why, t = follower_random_instance_check(stream, n_instances=1000)
    assert ok, f"{why} at instance {t}"


def test_operator_value_at_origin_midpoint_intercept():
    game = MlmfCournotGame(symmetric_params())
    vals = game.operator_value(np.zeros(13), 35.0)
    assert np.allclose(vals, float(Fraction(-1995, 127)), atol=1e-12)


def test_operator_dominated_by_large_quadratic_cost():
    p = MlmfParams(
        demand_slope=7.0, a_lo=33.0, a_hi=37.0,
        leader_costs=np.array([1e8, 1.0]), follower_costs=np.full(10, 50.0),
    )
    game = MlmfCournotGame(p)
    x = np.array([0.5, 0.5])
    val = game.operator_value(x, 35.0)
    assert val[0] == pytest.approx(1e8 * 0.5, rel=1e-5)


def test_operator_mean_equals_midpoint_value(stream):
    # The sampled operator is affine in the intercept draw, so the mean over
    # draws matches the value at the midpoint intercept.
    game = MlmfCournotGame(make_mlmf_params())
    x = stream.uniform(0.0, 1.0, 13)
    samples = game.operator_sample_batch(x, 10**5, stream.derive("s"))
    se = samples.std(axis=0, ddof=1) / np.sqrt(samples.shape[0])
    midpoint = game.operator_value(x, 35.0)
    assert np.all(np.abs(samples.mean(axis=0) - midpoint) <= 3.0 * se + 1e-12)


def test_constrained_reduces_to_unconstrained_at_zero_multiplier(stream):
    params = make_mlmf_params(caps=5.0)
    con = ConstrainedMlmfCournotGame(params)
    x = stream.uniform(0.0, 1.0, 13)
    z = np.concatenate([x, np.zeros(13)])
    s = stream.derive("crn")
    both = con.operator_sample(z, s.clone())
    plain = con.inner.operator_sample(x, s.clone())
    assert np.array_equal(both[:13], plain)


def test_constrained_dual_zero_on_boundary_without_noise(stream):
    params = make_mlmf_params(caps=5.0)
    params = MlmfParams(
        demand_slope=params.demand_slope, a_lo=params.a_lo, a_hi=params.a_hi,
        leader_costs=params.leader_costs, follower_costs=params.follower_costs,
        caps=params.caps, constraint_noise_halfwidth=0.0,
    )
    con = ConstrainedMlmfCournotGame(params)
    z = np.concatenate([np.full(13, 5.0), np.zeros(13)])
    out = con.operator_sample(z, stream)
    assert np.all(out[13:] == 0.0)


def test_constrained_dual_mean(stream):
    params = make_mlmf_params(caps=5.0)
    con = ConstrainedMlmfCournotGame(params)
    x = stream.uniform(0.0, 2.0, 13)
    z = np.concatenate([x, np.zeros(13)])
    samples = con.operator_sample_batch(z, 10**5, stream.derive("d"))
    dual = samples[:, 13:]
    se = dual.std(axis=0, ddof=1) / np.sqrt(dual.shape[0])
    assert np.all(np.abs(dual.mean(axis=0) - (5.0 - x)) <= 3.0 * se)


def test_constrained_batch_draws_intercepts_then_constraint_noise(stream):
    # Per step: all S intercepts first, then the S x n constraint noises;
    # the Yosida residual's recorded values depend on this order.
    params = make_mlmf_params(caps=5.0)
    con = ConstrainedMlmfCournotGame(params)
    s = stream.derive("order")
    noise = con.draw_noise(s.clone(), (2, 4))
    h = params.constraint_noise_halfwidth
    for step in range(2):
        a = s.uniform(params.a_lo, params.a_hi, 4)
        w = s.uniform(-h, h, (4, 13))
        assert np.array_equal(noise[step, :, 0], a)
        assert np.array_equal(noise[step, :, 1:], w)


def test_constraint_sample_batch_mean(stream):
    con = ConstrainedMlmfCournotGame(make_mlmf_params(caps=5.0))
    vals = con.constraint_sample_batch(3, 1.25, 10**5, stream)
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - (1.25 - 5.0)) <= 3.0 * se
    one = con.constraint_sample(3, 1.25, stream)
    assert one.shape == (1,)


def test_constrained_requires_caps():
    with pytest.raises(ValueError, match="caps"):
        ConstrainedMlmfCournotGame(make_mlmf_params())


def test_params_validation():
    with pytest.raises(ValueError):
        MlmfParams(demand_slope=0.0, a_lo=33, a_hi=37,
                   leader_costs=np.ones(2), follower_costs=np.ones(2))
    with pytest.raises(ValueError):
        MlmfParams(demand_slope=7.0, a_lo=37, a_hi=33,
                   leader_costs=np.ones(2), follower_costs=np.ones(2))
    with pytest.raises(ValueError):
        MlmfParams(demand_slope=7.0, a_lo=33, a_hi=37,
                   leader_costs=-np.ones(2), follower_costs=np.ones(2))
