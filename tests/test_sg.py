import numpy as np
import pytest

from hiergames import RandomStream
from hiergames.games.cournot import ConstrainedMlmfCournotGame, MlmfCournotGame
from hiergames.solvers.sg import SgConfig, run

from conftest import LinearToy, make_mlmf_params


def test_zero_operator_keeps_start(stream):
    game = LinearToy(slope=0.0)
    report = run(game, SgConfig(alpha0=0.1, total_iters=50), np.array([0.4]), stream)
    assert all(it[0] == 0.4 for it in report.iterates)


def test_deterministic_contraction_toward_zero(stream):
    game = LinearToy(slope=1.0)
    report = run(game, SgConfig(alpha0=0.05, total_iters=400), np.array([1.0]), stream)
    vals = np.array([it[0] for it in report.iterates])
    assert np.all(np.diff(vals) <= 0)
    assert vals[-1] < 0.2


def test_one_sample_per_iteration(stream):
    game = LinearToy(slope=1.0)
    report = run(game, SgConfig(alpha0=0.1, total_iters=7), np.array([1.0]), stream)
    assert report.samples_used == list(range(8))


def test_record_every_thins_iterates(stream):
    game = LinearToy(slope=1.0)
    report = run(game, SgConfig(alpha0=0.1, total_iters=10, record_every=4),
                 np.array([1.0]), stream)
    assert report.recorded_iters == [0, 4, 8, 10]


def test_determinism_per_seed():
    game = MlmfCournotGame(make_mlmf_params())
    cfg = SgConfig(alpha0=0.1, total_iters=500, record_every=100)
    x0 = np.full(13, 0.5)
    rep1 = run(game, cfg, x0, RandomStream(5).derive("sg"))
    rep2 = run(game, cfg, x0, RandomStream(5).derive("sg"))
    for a, b in zip(rep1.iterates, rep2.iterates):
        assert np.array_equal(a, b)


def test_constrained_iterates_stay_on_orthant(stream):
    game = ConstrainedMlmfCournotGame(make_mlmf_params(caps=5.0))
    x0 = np.concatenate([np.full(13, 0.5), np.zeros(13)])
    report = run(game, SgConfig(alpha0=0.1, total_iters=2000, record_every=500), x0, stream)
    for it in report.iterates:
        assert np.all(it >= 0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        SgConfig(alpha0=0.0, total_iters=10)
    with pytest.raises(ValueError):
        SgConfig(alpha0=0.1, total_iters=-1)
