"""The solvers' loops against sample-at-a-time references.

``vr_spp.inner_resolvent`` and ``sg.run`` pre-draw their noise in chunks
and evaluate one ``operator_rows`` call per step.  The references here draw
and evaluate one sample per step through ``GameOracle.operator_sample``;
both must produce the same bits and leave the stream at the same position.
"""

import math

import numpy as np
import pytest

from hiergames import RandomStream
from hiergames.games.base import GameOracle, chunk_steps
from hiergames.games.cournot import MlmfCournotGame
from hiergames.report import RunReport
from hiergames.solvers import sg, vr_spp

from conftest import make_mlmf_params, oracle_cases

CASES = oracle_cases()


def reference_resolvent(game, x_k, lam, theta, n_steps, stream):
    z = x_k.copy()
    for j in range(1, n_steps + 1):
        v = GameOracle.operator_sample(game, z, stream)
        z = game.feasible.project(z - (theta / j) * (v + (z - x_k) / lam))
    return z


def reference_sg(game, config, x0, stream):
    x = x0.copy()
    report = RunReport()
    report.record(0, x, 0)
    for k in range(1, config.total_iters + 1):
        v = GameOracle.operator_sample(game, x, stream)
        x = game.feasible.project(x - (config.alpha0 / math.sqrt(k)) * v)
        if k % config.record_every == 0 or k == config.total_iters:
            report.record(k, x, k)
    return report


def assert_same_report(got, want):
    assert got.recorded_iters == want.recorded_iters
    assert got.samples_used == want.samples_used
    assert len(got.iterates) == len(want.iterates)
    for a, b in zip(got.iterates, want.iterates):
        assert np.array_equal(a, b)


def step_counts(x):
    chunk = chunk_steps(1, x.size)
    return {"one": 1, "chunk-1": chunk - 1, "chunk": chunk, "chunk+1": chunk + 1}


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("steps", ["one", "chunk-1", "chunk", "chunk+1"])
def test_inner_resolvent_matches_sample_at_a_time_bitwise(name, steps):
    game, x = CASES[name]
    n = step_counts(x)[steps]
    stream = RandomStream(21).derive(name)
    want_stream = RandomStream(21).derive(name)
    got = vr_spp.inner_resolvent(game, x, 0.1, 0.2, n, stream)
    want = reference_resolvent(game, x, 0.1, 0.2, n, want_stream)
    assert np.array_equal(got, want)
    assert np.array_equal(stream.uniform(0.0, 1.0, 4), want_stream.uniform(0.0, 1.0, 4))


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("steps", ["one", "chunk-1", "chunk", "chunk+1", "record-across-chunks"])
def test_sg_matches_sample_at_a_time_bitwise(name, steps):
    game, x = CASES[name]
    chunk = chunk_steps(1, x.size)
    if steps == "record-across-chunks":
        # records at chunk - 2 and 2 chunk - 4 (one chunk boundary between
        # them) and at the final step, in the third chunk
        cfg = sg.SgConfig(alpha0=0.05, total_iters=2 * chunk + 3, record_every=chunk - 2)
    else:
        cfg = sg.SgConfig(alpha0=0.05, total_iters=step_counts(x)[steps])
    stream = RandomStream(22).derive(name)
    want_stream = RandomStream(22).derive(name)
    got = sg.run(game, cfg, x, stream)
    assert_same_report(got, reference_sg(game, cfg, x, want_stream))
    assert np.array_equal(stream.uniform(0.0, 1.0, 4), want_stream.uniform(0.0, 1.0, 4))


@pytest.mark.parametrize("name", ["mlmf", "mlmf-constrained"])
def test_vr_spp_run_matches_reference_resolvent(monkeypatch, name):
    game, x = CASES[name]
    # 20, 400 and 8000 inner steps: the last two span several noise chunks
    cfg = vr_spp.VrSppConfig(lam=0.1, theta=0.2, outer_iters=3,
                             schedule=vr_spp.SampleSchedule("geometric-base", 20.0))
    got = vr_spp.run(game, cfg, x, RandomStream(23).derive(name))
    monkeypatch.setattr(vr_spp, "inner_resolvent", reference_resolvent)
    assert_same_report(got, vr_spp.run(game, cfg, x, RandomStream(23).derive(name)))
    assert got.samples_used == [0, 20, 420, 8420]


def test_one_point_operator_rows_equals_batch_of_one():
    game = MlmfCournotGame(make_mlmf_params())
    x = RandomStream(24).uniform(0.0, 1.0, 13)
    b = game.params.demand_slope
    # margins a - b sum(x) above, below and exactly at zero: the followers
    # are active, inactive, and at the tie that keeps the active derivative
    for a in (b * x.sum() + 1.0, b * x.sum() - 1.0, b * x.sum()):
        one = game.operator_rows(x, np.float64(a))
        assert np.array_equal(one, game.operator_rows(x, np.array([a]))[0]), a
        assert np.array_equal(one, game.operator_value(x, a)), a
