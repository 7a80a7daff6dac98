import tracemalloc

import numpy as np
import pytest

from hiergames import NumericError, RandomStream
from hiergames import residuals
from hiergames.games.bilevel import BilevelGame, direct_equilibrium
from hiergames.games.cournot import ConstrainedMlmfCournotGame, MlmfCournotGame
from hiergames.residuals import ResidualConfig, br_residual, chunk_steps, yosida_residual
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
    """|res(x) - res(x')| <= ||x - x'|| / lam + 6 combined stderr."""
    n = game.layout.total_dim
    for t in range(n_pairs):
        s = stream.derive(t)
        x = s.uniform(lo, hi, n)
        y = s.uniform(lo, hi, n)
        rx, ex = yosida_residual(game, x, cfg, s.derive("rx"))
        ry, ey = yosida_residual(game, y, cfg, s.derive("ry"))
        allowance = np.linalg.norm(x - y) / cfg.lam + 6.0 * np.hypot(ex, ey)
        if abs(rx - ry) > allowance:
            return False, t, abs(rx - ry), allowance
    return True, -1, 0.0, 0.0


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


def sequential_resolvents(game, x, config, streams):
    """Reference for ``resolvent_lanes``: one resolvent loop per repeat, run
    one after another with one oracle call and one draw per step."""
    out = []
    for stream in streams:
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
    lanes = yosida_residual(game, x, cfg, stream)
    monkeypatch.setattr(residuals, "resolvent_lanes", sequential_resolvents)
    assert yosida_residual(game, x, cfg, stream) == lanes


def test_lanes_reject_nan_and_name_the_step(stream):
    cfg = ResidualConfig(lam=1.0, theta=1.0, inner_steps=3, repeats=2)
    with pytest.raises(NumericError, match="NaN"):
        yosida_residual(LinearToy(offset=np.nan), np.zeros(1), cfg, stream)
    with pytest.raises(NumericError, match="step 1"):
        yosida_residual(LinearToy(slope=np.inf), np.ones(1), cfg, stream)


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
