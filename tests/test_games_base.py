import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiergames import (
    FeasibleSet,
    NumericError,
    PlayerLayout,
    RandomStream,
    RidgedGame,
    estimate_mean_operator,
)
from hiergames.games.bilevel import BilevelGame
from hiergames.games.cournot import MlmfCournotGame

from conftest import LinearToy, make_bilevel_params, make_mlmf_params, oracle_cases


def test_layout_slices():
    layout = PlayerLayout((2, 1, 3))
    assert layout.n_players == 3
    assert layout.total_dim == 6
    assert layout.slice_of(1) == slice(2, 3)
    with pytest.raises(ValueError):
        PlayerLayout((0, 1))


def test_project_nonneg_clamps():
    fs = FeasibleSet.nonneg(2)
    assert np.array_equal(fs.project(np.array([-1.0, 2.0])), [0.0, 2.0])


def test_project_free_is_identity():
    fs = FeasibleSet.free(3)
    x = np.array([-4.0, 0.0, 9.5])
    assert np.array_equal(fs.project(x), x)


def test_project_box_clamps():
    fs = FeasibleSet.box([0.0, 0.0], [5.0, 5.0])
    assert np.array_equal(fs.project(np.array([7.0, -3.0])), [5.0, 0.0])


def test_project_rejects_nan():
    fs = FeasibleSet.nonneg(2)
    with pytest.raises(NumericError):
        fs.project(np.array([np.nan, 1.0]))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=3, max_size=3))
def test_project_idempotent_and_inside(values):
    fs = FeasibleSet.box([-1.0, 0.0, 2.0], [1.0, 10.0, 2.0])
    out = fs.project(np.array(values))
    assert fs.contains(out)
    assert np.array_equal(fs.project(out), out)


def test_restrict_projects_player_block():
    fs = FeasibleSet.box([0.0, -1.0], [1.0, 1.0])
    sub = fs.restrict(slice(1, 2))
    assert np.array_equal(sub.project(np.array([5.0])), [1.0])


def test_estimate_mean_single_sample_equals_draw(stream):
    game = MlmfCournotGame(make_mlmf_params())
    x = np.full(13, 0.3)
    mean, stderr = estimate_mean_operator(game, x, 1, stream.clone())
    assert np.array_equal(mean, game.operator_sample(x, stream.clone()))
    assert np.all(stderr == 0.0)


def test_estimate_mean_zero_variance_game():
    game = LinearToy(slope=2.0, offset=1.0)
    x = np.array([1.5])
    m1, _ = estimate_mean_operator(game, x, 50, RandomStream(1))
    m2, _ = estimate_mean_operator(game, x, 50, RandomStream(2))
    assert np.array_equal(m1, m2)
    assert m1[0] == pytest.approx(4.0)


def test_estimate_mean_against_large_sample_oracle():
    game = MlmfCournotGame(make_mlmf_params())
    x = np.zeros(13)
    root = RandomStream(99)
    mean, stderr = estimate_mean_operator(game, x, 20_000, root.derive("small"))
    oracle, oracle_se = estimate_mean_operator(game, x, 10**6, root.derive("big"))
    combined = np.sqrt(stderr**2 + oracle_se**2)
    assert np.all(np.abs(mean - oracle) <= 3.0 * combined)


def test_operator_sample_purity_both_families(stream):
    for game in (MlmfCournotGame(make_mlmf_params()), BilevelGame(make_bilevel_params())):
        x = stream.uniform(0, 1, game.layout.total_dim)
        s = stream.derive("purity")
        assert np.array_equal(game.operator_sample(x, s.clone()), game.operator_sample(x, s.clone()))


def test_objective_sample_purity(stream):
    game = BilevelGame(make_bilevel_params())
    x = stream.uniform(0, 1, 13)
    s = stream.derive("purity2")
    assert game.objective_sample(2, x, s.clone()) == game.objective_sample(2, x, s.clone())


def _midpoint_convexity(game, stream, n_triples=300, tol=1e-9):
    """Per-realization midpoint test on the own-variable section, with
    common random numbers across the three evaluations."""
    n = game.layout.total_dim
    for t in range(n_triples):
        s = stream.derive(t)
        i = int(s.uniform(0, game.layout.n_players))
        x = s.uniform(-2.0, 2.0, n)
        lo = s.uniform(-3.0, 3.0)
        hi = s.uniform(-3.0, 3.0)
        mid = 0.5 * (lo + hi)
        crn = s.derive("w")
        f_lo = game.objective_sample_batch(i, np.array([lo]), x, crn.clone())[0]
        f_mid = game.objective_sample_batch(i, np.array([mid]), x, crn.clone())[0]
        f_hi = game.objective_sample_batch(i, np.array([hi]), x, crn.clone())[0]
        assert f_mid <= 0.5 * (f_lo + f_hi) + tol


def test_midpoint_convexity_bilevel(stream):
    _midpoint_convexity(BilevelGame(make_bilevel_params()), stream.derive("bl"))


def test_midpoint_convexity_mlmf(stream):
    _midpoint_convexity(MlmfCournotGame(make_mlmf_params()), stream.derive("ml"))


def monotone_pair_check(game, stream, n_pairs=100, n_samples=10_000, lo=0.0, hi=2.0):
    """(T(x) - T(x'))^T (x - x') >= -3 (combined standard error) with common
    random numbers, over random feasible pairs.  Shared with acceptance."""
    n = game.layout.total_dim
    worst = np.inf
    for t in range(n_pairs):
        s = stream.derive(t)
        x = s.uniform(lo, hi, n)
        y = s.uniform(lo, hi, n)
        crn = s.derive("w")
        sx = game.operator_sample_batch(x, n_samples, crn.clone())
        sy = game.operator_sample_batch(y, n_samples, crn.clone())
        gaps = (sx - sy) @ (x - y)
        mean = gaps.mean()
        se = gaps.std(ddof=1) / np.sqrt(n_samples)
        worst = min(worst, mean + 3.0 * se)
        if mean < -3.0 * se:
            return False, mean, se
    return True, worst, 0.0


def test_monotone_pairs_mlmf(stream):
    ok, val, se = monotone_pair_check(MlmfCournotGame(make_mlmf_params()), stream.derive("m"))
    assert ok, (val, se)


def test_monotone_pairs_bilevel(stream):
    ok, val, se = monotone_pair_check(
        BilevelGame(make_bilevel_params()), stream.derive("b"), lo=-2.0, hi=2.0
    )
    assert ok, (val, se)


def test_ridged_game_shifts_operator(stream):
    base = BilevelGame(make_bilevel_params())
    ridged = RidgedGame(base, mu=1.0)
    x = stream.uniform(-1, 1, 13)
    s = stream.derive("r")
    shifted = ridged.operator_sample(x, s.clone())
    plain = base.operator_sample(x, s.clone())
    assert np.allclose(shifted - plain, x)


@pytest.mark.parametrize("name", sorted(oracle_cases()))
def test_operator_noise_is_chunk_invariant(name):
    game, x = oracle_cases()[name]
    block = RandomStream(3).derive(name)
    steps = RandomStream(3).derive(name)
    chunk = game.operator_noise(block, (4, 3))
    assert np.array_equal(chunk, np.stack([game.operator_noise(steps, (3,)) for _ in range(4)]))
    # both streams stand at the same position afterwards
    assert np.array_equal(game.operator_noise(block, (2,)), game.operator_noise(steps, (2,)))


@pytest.mark.parametrize("name", sorted(oracle_cases()))
def test_batch_of_one_equals_operator_sample(name):
    game, x = oracle_cases()[name]
    s = RandomStream(4).derive(name)
    for _ in range(3):
        one = game.operator_sample_batch(x, 1, s.clone())
        assert one.shape == (1, x.size)
        assert np.array_equal(one[0], game.operator_sample(x, s))
    # rows at stacked points under one noise block equal rows point by point
    pts = np.stack([x, 0.5 * x])
    noise = game.operator_noise(s, (2, 5))
    rows = game.operator_rows(pts[:, None, :], noise)
    assert rows.shape == (2, 5, x.size)
    for k in range(2):
        assert np.array_equal(rows[k], game.operator_rows(pts[k], noise[k]))
