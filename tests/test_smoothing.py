import math

import numpy as np
import pytest

from hiergames import RandomStream
from hiergames.games.bilevel import BilevelGame
from hiergames.solvers.smoothing import (
    ArspbrConfig,
    SmoothingParams,
    arspbr_run,
    zo_gradient_batch,
    zsol_contraction_factor,
    zsol_solve,
)

from conftest import QuadraticToy, LinearToy, make_bilevel_params


def test_params_validation():
    with pytest.raises(ValueError):
        SmoothingParams(eta=0.0)
    with pytest.raises(ValueError):
        SmoothingParams(batch_base=1.0)
    with pytest.raises(ValueError):
        SmoothingParams(steps_rule="weekly")
    with pytest.raises(ValueError):
        ArspbrConfig(outer_iters=10, relaxation="linear")


def test_inner_batch_schedule_values():
    sp = SmoothingParams(batch_base=1.5)
    assert sp.inner_batch(3) == 6  # ceil(1.5^4)
    assert sp.inner_batch(0) == 2


def test_inner_steps_rule():
    sp = SmoothingParams()
    assert sp.inner_steps(1) == 1  # floored at one
    assert sp.inner_steps(3) == int(np.ceil(1.5 * np.log(3)))
    assert SmoothingParams(steps_rule=7).inner_steps(123) == 7


def test_relaxation_sequences():
    assert ArspbrConfig(outer_iters=1).gamma_at(17) == 1.0
    power = ArspbrConfig(outer_iters=1, relaxation="power")
    assert power.gamma_at(1) == 1.0
    assert power.gamma_at(16) == pytest.approx(16.0**-0.51)


def test_contraction_factor_spot_value():
    assert zsol_contraction_factor(1.0, 5.0, 0.01) == pytest.approx(0.985)


def smoothed_values(game, sp, x, count, stream):
    """``count`` realizations of player 0's smoothed objective at x, from
    one batched draw: ball perturbations of radius eta, then one noise draw
    per row (as ``_phi_eta_mc`` below)."""
    points = x + sp.eta * stream.unit_ball_batch(x.size, count)
    return game.objective_sample_batch(0, points, x, stream)


def test_smoothed_value_abs_at_origin():
    # E |eta u| over the 1-d unit ball is eta / 2.
    game = QuadraticToy(kappa=0.0, abs_weight=1.0)
    sp = SmoothingParams(eta=0.1)
    vals = smoothed_values(game, sp, np.zeros(1), 10_000, RandomStream(31))
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - 0.05) <= 3.5 * se


def test_smoothed_value_vanishing_radius_matches_unsmoothed():
    game = QuadraticToy(kappa=3.0, m=0.5, noise=1.0)
    sp = SmoothingParams(eta=1e-8)
    s = RandomStream(32)
    x = np.array([1.2])
    smoothed = smoothed_values(game, sp, x, 10_000, s)
    plain = game.objective_sample_batch(0, np.full(10_000, 1.2), x, s.derive("plain"))
    se = np.sqrt(smoothed.var(ddof=1) / smoothed.size + plain.var(ddof=1) / plain.size)
    assert abs(smoothed.mean() - plain.mean()) <= 3.0 * se


def test_smoothed_value_linear_mean_unchanged():
    game = LinearToy(slope=0.0, offset=2.0)  # objective 2 v
    sp = SmoothingParams(eta=0.3)
    x = np.array([0.7])
    vals = smoothed_values(game, sp, x, 20_000, RandomStream(33))
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - 1.4) <= 3.0 * se


def test_zo_gradient_constant_objective_is_exact_zero():
    game = QuadraticToy(kappa=0.0)  # objective identically zero
    sp = SmoothingParams(eta=0.1, prox_weight=1.0)
    v = np.array([0.4])
    g = zo_gradient_batch(game, sp, 0, v, v, 64, RandomStream(34))
    # antithetic pairing cancels the constant and the centered prox exactly
    assert abs(g[0]) <= 1e-12


def test_zo_gradient_quadratic_exact():
    # phi(v) = v^2 / 2: the smoothed gradient equals v; pairing makes the
    # estimator exact for quadratics regardless of batch size.
    game = QuadraticToy(kappa=1.0, m=0.0)
    sp = SmoothingParams(eta=0.1, prox_weight=0.5)
    for v0 in (-1.2, 0.0, 0.8):
        v = np.array([v0])
        g = zo_gradient_batch(game, sp, 0, v, v, 500, RandomStream(35))
        assert g[0] == pytest.approx(v0, abs=1e-10)


def _phi_eta_mc(game, sp, i, w, x, count, stream):
    """Monte-Carlo value of the smoothed proximal objective at own-value w."""
    u = stream.unit_ball_batch(1, count)[:, 0]
    pts = w + sp.eta * u
    f = game.objective_sample_batch(i, pts, x, stream)
    prox = 0.5 * sp.prox_weight * (pts - x[i]) ** 2
    return float((f + prox).mean())


def test_zo_gradient_matches_smoothed_finite_differences(stream):
    game = BilevelGame(make_bilevel_params())
    sp = SmoothingParams(eta=0.1, prox_weight=1.0)
    x = stream.uniform(-1.0, 1.0, 13)
    i = 4
    v = float(x[i]) + 0.03
    delta = 1e-4
    crn = stream.derive("crn")
    hi = _phi_eta_mc(game, sp, i, v + delta, x, 10**6, crn.clone())
    lo = _phi_eta_mc(game, sp, i, v - delta, x, 10**6, crn.clone())
    reference = (hi - lo) / (2 * delta)
    g = zo_gradient_batch(game, sp, i, np.array([v]), x, 10**6, stream.derive("zo"))
    assert abs(g[0] - reference) <= 0.05 * max(1.0, abs(reference))


def test_zo_gradient_unbiasedness_rate(stream):
    # Estimator error vs batch size decays like 1/sqrt(batch): regression
    # slope over three decades at or below -0.4.
    game = BilevelGame(make_bilevel_params())
    sp = SmoothingParams(eta=0.1, prox_weight=1.0)
    x = stream.uniform(-1.0, 1.0, 13)
    i = 7
    v = np.array([float(x[i]) + 0.2])
    reference = zo_gradient_batch(game, sp, i, v, x, 400_000, stream.derive("ref"))[0]
    batches = [4, 40, 400, 4000]
    errs = []
    for b in batches:
        reps = [
            zo_gradient_batch(game, sp, i, v, x, b, stream.derive(f"b{b}-{r}"))[0]
            for r in range(40)
        ]
        errs.append(np.mean(np.abs(np.array(reps) - reference)))
    slope = np.polyfit(np.log(batches), np.log(errs), 1)[0]
    assert slope <= -0.4, (errs, slope)


def test_zsol_contraction_matches_rate_factor():
    # Strongly convex scalar test with known smoothness: kappa + c.
    kappa, c, zeta = 5.0, 1.0, 0.05
    alpha = kappa + c
    q = zsol_contraction_factor(alpha, alpha, zeta)
    assert q < 1
    game = QuadraticToy(kappa=kappa, m=1.0, noise=0.5)
    sp = SmoothingParams(eta=0.1, prox_weight=c, zeta=zeta, batch_base=1.75)
    x = np.zeros(1)
    star = game.prox_best_response(c, 0.0)
    root = RandomStream(36)
    reps = 300
    ts = np.arange(1, 16)
    sq = np.zeros((reps, ts.size))
    for r in range(reps):
        for j, t in enumerate(ts):
            v = zsol_solve(game, sp, 0, x, int(t), root.derive(r).derive(int(t)))
            sq[r, j] = (v[0] - star) ** 2
    mean_sq = sq.mean(axis=0)
    window = slice(2, 15)  # t in [3, 15]
    slope = np.polyfit(ts[window], np.log(mean_sq[window]), 1)[0]
    assert np.exp(slope) <= q + 0.05, (np.exp(slope), q)


def test_zsol_converges_on_deterministic_quadratic():
    game = QuadraticToy(kappa=4.0, m=1.3)
    sp = SmoothingParams(eta=0.05, prox_weight=1.0, zeta=0.1, batch_base=1.5)
    x = np.zeros(1)
    star = game.prox_best_response(1.0, 0.0)
    v = zsol_solve(game, sp, 0, x, 40, RandomStream(37))
    assert v[0] == pytest.approx(star, abs=1e-6)


def test_arspbr_unrelaxed_step_is_best_response():
    game = BilevelGame(make_bilevel_params(n_players=3))
    sp = SmoothingParams(steps_rule=5)
    x0 = np.array([0.2, 0.4, 0.6])
    solve = RandomStream(38).derive("solve")
    probe = solve.clone()
    cfg = ArspbrConfig(outer_iters=1, relaxation="constant")
    rep = arspbr_run(game, sp, cfg, x0, solve)
    i_k = probe.choice_index(np.full(3, 1 / 3))
    manual = zsol_solve(game, sp, i_k, x0, 5, probe.derive(1))
    expect = x0.copy()
    expect[i_k] = manual[0]
    assert np.array_equal(rep.final_iterate, expect)


def test_arspbr_single_player_reaches_minimizer():
    game = QuadraticToy(kappa=4.0, m=1.3)
    sp = SmoothingParams(eta=0.05, prox_weight=1.0, zeta=0.1, steps_rule=40)
    cfg = ArspbrConfig(outer_iters=25, relaxation="constant")
    rep = arspbr_run(game, sp, cfg, np.zeros(1), RandomStream(39))
    assert rep.final_iterate[0] == pytest.approx(1.3, abs=1e-3)


def test_arspbr_determinism():
    game = BilevelGame(make_bilevel_params(n_players=5))
    sp = SmoothingParams()
    cfg = ArspbrConfig(outer_iters=60, relaxation="power", record_every=20)
    x0 = np.full(5, 0.5)
    r1 = arspbr_run(game, sp, cfg, x0, RandomStream(40).derive("a"))
    r2 = arspbr_run(game, sp, cfg, x0, RandomStream(40).derive("a"))
    for a, b in zip(r1.iterates, r2.iterates):
        assert np.array_equal(a, b)
    assert r1.samples_used == r2.samples_used


def sandwich_check(game, sp, stream, n_points=50, count=4000):
    """f <= f_eta <= f + eta * (empirical subgradient bound), statistically.
    Returns (ok, point, mean gap, slack) at the first violation, or else at
    the point with the least slack to either side of the band."""
    n = game.layout.total_dim
    worst = (-1, 0.0, math.inf)
    for t in range(n_points):
        s = stream.derive(t)
        i = int(s.uniform(0, game.layout.n_players))
        x = s.uniform(-2.0, 2.0, n)
        w = s.derive("w")
        u = w.unit_ball_batch(1, count)[:, 0]
        pts = x[i] + sp.eta * u
        f_smooth = game.objective_sample_batch(i, pts, x, w.clone())
        f_plain = game.objective_sample_batch(i, np.full(count, x[i]), x, w.clone())
        diffs = f_smooth - f_plain  # paired draws
        mean = diffs.mean()
        se = diffs.std(ddof=1) / np.sqrt(count)
        grad_bound = np.abs(
            game.operator_sample_batch(x, 500, s.derive("g"))[:, i]
        ).max() + sp.eta * 10.0
        lower, upper = -3.0 * se, sp.eta * grad_bound + 3.0 * se
        slack = min(mean - lower, upper - mean)
        if mean < lower or mean > upper:
            return False, t, mean, slack
        if slack < worst[2]:
            worst = (t, mean, slack)
    return (True, *worst)


def test_smoothing_sandwich_bound(stream):
    game = BilevelGame(make_bilevel_params())
    ok, t, mean, slack = sandwich_check(game, SmoothingParams(eta=0.1), stream)
    assert ok, f"point {t} violated the sandwich bound ({mean}, slack {slack})"


def test_best_response_proximity_in_radius():
    # 1-d instance where both the exact and the smoothed proximal best
    # responses have closed forms: quadratic plus a scaled absolute value.
    kappa, a, c, x = 2.0, 1.5, 1.0, 0.9

    def smoothed_best_response(eta):
        v1 = np.sign(c * x) * max(abs(c * x) - a, 0.0) / (kappa + c)
        if abs(v1) >= eta:
            return v1
        return c * x / (kappa + c + a / eta)

    game = QuadraticToy(kappa=kappa, abs_weight=a)
    exact = game.prox_best_response(c, x)
    for eta in (0.2, 0.1, 0.01):
        b_eta = smoothed_best_response(eta)
        # dense-grid cross-check of the closed form
        grid = np.linspace(-2.0, 2.0, 400_001)
        abs_eta = np.where(np.abs(grid) >= eta, np.abs(grid), (grid**2 + eta**2) / (2 * eta))
        phi = 0.5 * kappa * grid**2 + a * abs_eta + 0.5 * c * (grid - x) ** 2
        assert abs(grid[np.argmin(phi)] - b_eta) <= 2e-5
        radius = max(abs(x), abs(exact), abs(b_eta)) + eta
        beta = kappa * radius + a
        assert (exact - b_eta) ** 2 <= 2 * eta * beta / c


def test_potential_descent_trend(stream):
    game = BilevelGame(make_bilevel_params(n_players=5))
    sp = SmoothingParams()
    eval_stream = RandomStream(41).derive("pe")

    def estimate_potential(x, s, count=3000):
        u = s.unit_ball_batch(5, count)
        vals = np.empty(count)
        for j in range(count):
            vals[j] = game.potential_sample(x + sp.eta * u[j], s)
        return vals.mean(), vals.std(ddof=1) / np.sqrt(count)

    cfg = ArspbrConfig(outer_iters=600, relaxation="constant", record_every=1)
    report = arspbr_run(game, sp, cfg, np.full(5, 0.5), stream.derive("run"))
    checkpoints = {
        k: estimate_potential(x, eval_stream.derive(k))
        for k, x in zip(report.recorded_iters, report.iterates)
        if k >= 100 and k % 50 == 0
    }
    ks = sorted(checkpoints)
    assert len(ks) >= 8
    for k0, k1 in zip(ks, ks[1:]):
        m0, se0 = checkpoints[k0]
        m1, se1 = checkpoints[k1]
        allowance = 3.0 * np.hypot(se0, se1)
        assert m1 <= m0 + allowance, f"potential rose between {k0} and {k1}"

