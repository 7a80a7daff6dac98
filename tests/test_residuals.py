import math
import tracemalloc

import numpy as np
import pytest

from hiergames import NumericError, RandomStream
from hiergames import residuals
from hiergames.games.base import chunk_steps
from hiergames.games.bilevel import BilevelGame, direct_equilibrium
from hiergames.games.cournot import ConstrainedMlmfCournotGame, MlmfCournotGame
from hiergames.residuals import ResidualConfig, br_residual, yosida_residual
from hiergames.solvers.smoothing import SmoothingParams, zsol_solve

from conftest import (
    LinearToy,
    QuadraticToy,
    make_bilevel_params,
    make_mlmf_params,
    oracle_cases,
)


def test_config_validation():
    with pytest.raises(ValueError):
        ResidualConfig(lam=0.0)
    with pytest.raises(ValueError):
        ResidualConfig(repeats=0)


def test_residual_zero_at_noise_free_solution(stream):
    game = LinearToy(slope=1.0)
    cfg = ResidualConfig(lam=1.0, theta=1.0, inner_steps=2000, repeats=3)
    est, _ = yosida_residual(game, np.zeros(1), cfg, stream)
    assert est <= 1e-3


def test_residual_zero_operator(stream):
    game = LinearToy(slope=0.0)
    cfg = ResidualConfig(lam=1.0, theta=2.0, inner_steps=10_000, repeats=3)
    est, _ = yosida_residual(game, np.array([3.7]), cfg, stream)
    assert est <= 1e-6


def test_residual_scales_with_distance(stream):
    # T(x) = x: res(x) = |x| / (1 + lam), up to estimation error.
    game = LinearToy(slope=1.0)
    cfg = ResidualConfig(lam=1.0, theta=1.0, inner_steps=5000, repeats=3)
    est, _ = yosida_residual(game, np.array([2.0]), cfg, stream)
    assert est == pytest.approx(1.0, abs=0.01)


def test_residual_statistically_zero_at_direct_equilibrium(stream):
    params = make_bilevel_params(coincident=True)
    game = BilevelGame(params)
    star = direct_equilibrium(params)
    cfg = ResidualConfig(lam=0.1, theta=0.2, inner_steps=5000, samples_per_step=16, repeats=5)
    est, stderr = yosida_residual(game, star, cfg, stream)
    assert est <= 3.0 * stderr, (est, stderr)


def lipschitz_pairs_check(game, stream, cfg, n_pairs=50, lo=0.0, hi=2.0):
    """|res(x) - res(x')| <= ||x - x'|| / lam + 6 combined stderr.  All
    2 n_pairs points are measured in one stacked call.  Returns (ok, pair,
    gap, allowance) at the first violation, or else at the pair with the
    least headroom."""
    n = game.layout.total_dim
    pairs = [stream.derive(t) for t in range(n_pairs)]
    points = np.array([s.uniform(lo, hi, n) for s in pairs for _ in range(2)])
    res = yosida_residual(game, points, cfg, [s.derive(lab) for s in pairs for lab in ("rx", "ry")])
    worst, headroom = (-1, 0.0, 0.0), math.inf
    for t in range(n_pairs):
        (rx, ex), (ry, ey) = res[2 * t], res[2 * t + 1]
        allowance = np.linalg.norm(points[2 * t] - points[2 * t + 1]) / cfg.lam + 6.0 * np.hypot(ex, ey)
        gap = abs(rx - ry)
        if gap > allowance:
            return False, t, gap, allowance
        if allowance - gap < headroom:
            worst, headroom = (t, gap, allowance), allowance - gap
    return (True, *worst)


def test_residual_lipschitz_pairs(stream):
    game = MlmfCournotGame(make_mlmf_params())
    cfg = ResidualConfig(lam=0.1, theta=0.2, inner_steps=1500, samples_per_step=8, repeats=3)
    ok, t, gap, allow = lipschitz_pairs_check(game, stream, cfg)
    assert ok, f"pair {t}: gap {gap:.3f} > allowance {allow:.3f}"


def test_br_residual_matches_closed_form_gap(stream):
    # Deterministic quadratic: the best response is exact, so the measured
    # per-player gap must match |x - B(x)|.
    game = QuadraticToy(kappa=5.0, m=1.0)
    sp = SmoothingParams(eta=0.05, prox_weight=1.0, zeta=0.15, batch_base=1.5)
    x = np.array([0.3])
    exact = game.prox_best_response(1.0, 0.3)
    measured = br_residual(game, sp, x, 22, stream, eval_zeta=0.15)
    assert measured == pytest.approx(abs(0.3 - exact), abs=1e-4)


def test_br_residual_detects_perturbation(stream):
    game = QuadraticToy(kappa=5.0, m=1.0)
    sp = SmoothingParams(eta=0.05, prox_weight=1.0, zeta=0.15)
    star = game.prox_best_response(1.0, 1.0)  # fixed point: the minimizer m
    assert star == pytest.approx(1.0)
    delta = 0.05
    x = np.array([1.0 + delta])
    measured = br_residual(game, sp, x, 22, stream, eval_zeta=0.15)
    # moving the prox center moves B by c/(kappa+c) of it: gap is
    # delta * kappa / (kappa + c) = 5/6 delta >= delta / 2
    assert measured >= delta / 2 - 1e-3


def test_br_residual_small_at_smoothed_fixed_point(stream):
    # Assemble the fixed point of the smoothed proximal best response on a
    # small instance by iterating accurate inner solves, then measure it.
    game = BilevelGame(make_bilevel_params(n_players=3))
    sp = SmoothingParams(eta=0.1, prox_weight=1.0, zeta=0.002, batch_base=1.5)
    x = np.full(3, 0.5)
    for sweep in range(40):
        for i in range(3):
            x[i] = zsol_solve(game, sp, i, x, 22, stream.derive(sweep).derive(i))[0]
    res = br_residual(game, sp, x, 24, stream.derive("eval"), eval_zeta=0.002)
    assert res <= 1e-3


# ------------------------------------------------------ lanes vs. repeat loop


def sequential_resolvents(game, centres, config, streams, first_lane=0):
    """Reference for ``resolvent_lanes``: one resolvent loop per lane, run
    one after another with one oracle call and one draw per step."""
    out = []
    for x, stream in zip(centres, streams):
        z = x.copy()
        for j in range(1, config.inner_steps + 1):
            if config.samples_per_step == 1:
                v = game.operator_sample(z, stream)
            else:
                v = game.operator_sample_batch(z, config.samples_per_step, stream).mean(axis=0)
            z = game.feasible.project(z - (config.theta / j) * (v + (z - x) / config.lam))
        out.append(z)
    return np.stack(out)


CASES = oracle_cases()


def nearby_points(game, x, m, stream):
    """``m`` feasible points around ``x`` (the first is ``x`` itself)."""
    shifts = stream.uniform(-0.1, 0.1, (m, x.size))
    shifts[0] = 0.0
    return game.feasible.project(x + shifts)


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("repeats", [1, 2, 5])
@pytest.mark.parametrize("samples", [1, 3, 16])
@pytest.mark.parametrize("steps", ["one", "chunk-1", "chunk+1"])
def test_lanes_match_sequential_repeats_bitwise(monkeypatch, name, repeats, samples, steps):
    game, x = CASES[name]
    chunk = chunk_steps(samples, x.size)
    n_steps = {"one": 1, "chunk-1": max(1, chunk - 1), "chunk+1": chunk + 1}[steps]
    cfg = ResidualConfig(lam=0.1, theta=0.2, inner_steps=n_steps, samples_per_step=samples,
                         repeats=repeats)
    stream = RandomStream(99).derive(name)
    # Points form: each point's pair is bitwise its own one-point call.  The
    # last case has more lanes than one resolvent_lanes call takes; the split
    # does not depend on the cap's value, and a cap of 4 lanes keeps every
    # point's own call cheap.
    for m, cap in ((1, None), (2, None), (7, None), (5, 4)):
        xs = nearby_points(game, x, m, stream.derive("points"))
        streams = [stream.derive(p) for p in range(m)]
        with monkeypatch.context() as patch:
            if cap is not None:
                patch.setattr(residuals, "MAX_LANES", cap)
            stacked = yosida_residual(game, xs, cfg, streams)
        assert stacked == [yosida_residual(game, p, cfg, s) for p, s in zip(xs, streams)], m
    lanes = yosida_residual(game, x, cfg, stream)
    monkeypatch.setattr(residuals, "resolvent_lanes", sequential_resolvents)
    assert yosida_residual(game, x, cfg, stream) == lanes


def test_lanes_reject_nan_and_name_the_step(stream):
    cfg = ResidualConfig(lam=1.0, theta=1.0, inner_steps=3, repeats=2)
    with pytest.raises(NumericError, match="NaN"):
        yosida_residual(LinearToy(offset=np.nan), np.zeros(1), cfg, stream)
    with pytest.raises(NumericError, match="step 1"):
        yosida_residual(LinearToy(slope=np.inf), np.ones(1), cfg, stream)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the lanes overflow on purpose
def test_non_finite_lane_names_point_repeat_and_step(stream):
    # slope 1e308 overflows at step 2 from x = 1 and stays finite for two
    # steps from a subnormal x, so only the lanes at x = 1 go non-finite.
    game = LinearToy(slope=1e308)
    cfg = ResidualConfig(lam=1.0, theta=1.0, inner_steps=2, repeats=2)
    tiny = 1e-310
    m = residuals.MAX_LANES // 2 + 3  # the point at x = 1 is in the second resolvent_lanes call
    xs = np.full((m, 1), tiny)
    xs[-2] = 1.0
    streams = [stream.derive(p) for p in range(m)]
    with pytest.raises(NumericError, match=f"point {m - 2}, repeat 0 .* step 2$"):
        yosida_residual(game, xs, cfg, streams)
    centres = np.array([[tiny], [tiny], [tiny], [1.0]])
    with pytest.raises(NumericError, match="point 1, repeat 1 .* step 2$"):
        residuals.resolvent_lanes(game, centres, cfg, [stream.derive(r) for r in range(4)])


def test_constrained_residual_memory_stays_flat(stream):
    # Noise is pre-drawn in chunks, not for the whole loop: 5000 steps x 16
    # samples x 5 lanes of the 13-leader constrained market would be 45 MB.
    game = ConstrainedMlmfCournotGame(make_mlmf_params(caps=5.0))
    x = np.concatenate([stream.uniform(0.0, 1.0, 13), np.zeros(13)])
    cfg = ResidualConfig(lam=0.1, theta=0.2, inner_steps=5000, samples_per_step=16, repeats=5)
    tracemalloc.start()
    try:
        yosida_residual(game, x, cfg, stream)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def test_stacked_residual_memory_does_not_grow_with_points(stream):
    # 300 points x 5 repeats are 1500 lanes; run at once, they would peak at
    # about 50 MB.  Lanes run MAX_LANES at a time instead: about 6.4 MB from
    # 26 points on.
    game = ConstrainedMlmfCournotGame(make_mlmf_params(caps=5.0))
    m = 300
    xs = np.concatenate([stream.uniform(0.0, 1.0, (m, 13)), np.zeros((m, 13))], axis=1)
    cfg = ResidualConfig(lam=0.1, theta=0.2, inner_steps=20, samples_per_step=16, repeats=5)
    streams = [stream.derive(p) for p in range(m)]
    tracemalloc.start()
    try:
        yosida_residual(game, xs, cfg, streams)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000, peak
