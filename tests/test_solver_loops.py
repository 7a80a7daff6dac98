"""The solvers' loops against sample-at-a-time references.

``vr_spp.inner_resolvent`` and ``sg.run`` pre-draw their noise in chunks,
evaluate one ``operator_rows`` call per step and check their iterate once
per chunk.  The references here draw and evaluate one sample per step
through ``GameOracle.operator_sample`` and check every step; both must
produce the same bits, leave the stream at the same position, and fail
with the same error.
"""

import math
import re
import warnings

import numpy as np
import pytest

from hiergames import FeasibleSet, NumericError, RandomStream
from hiergames.games.base import GameOracle, chunk_steps
from hiergames.games.cournot import MlmfCournotGame
from hiergames.report import RunReport
from hiergames.solvers import sg, vr_spp

from conftest import LinearToy, QuadraticToy, make_mlmf_params, oracle_cases

CASES = oracle_cases()


def reference_resolvent(game, x_k, lam, theta, n_steps, stream):
    z = x_k.copy()
    for j in range(1, n_steps + 1):
        v = GameOracle.operator_sample(game, z, stream)
        z = game.feasible.project(z - (theta / j) * (v + (z - x_k) / lam))
        if not math.isfinite(z.sum()):
            raise NumericError(f"inner SA produced a non-finite iterate at step {j}")
    return z


def reference_sg(game, config, x0, stream):
    x = x0.copy()
    report = RunReport()
    report.record(0, x, 0)
    for k in range(1, config.total_iters + 1):
        v = GameOracle.operator_sample(game, x, stream)
        x = game.feasible.project(x - (config.alpha0 / math.sqrt(k)) * v)
        if not math.isfinite(x.sum()):
            raise NumericError(f"subgradient iterate became non-finite at step {k}")
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


# ------------------------------------------------------------ failing loops

CHUNK_1D = chunk_steps(1, 1)
LAM, THETA = 0.1, 0.2
# QuadraticToy with kappa < 0 has the noisy operator kappa z + w, which
# pushes the iterates away from 0 until they overflow: with the resolvent
# at (LAM, THETA) and SG at the given alpha0, within the first noise chunk
# or in the second one.  Each run is three chunks long.
DIVERGENT = {"first-chunk": (-1600.0, 0.0125), "later-chunk": (-800.0, 0.00625)}
# The free set diverges to -inf from below 0; nonneg and the box with a
# finite lower bound diverge to +inf, their infinite side.
SETS = {
    "nonneg": (FeasibleSet.nonneg(1), 0.5),
    "free": (FeasibleSet.free(1), -0.5),
    "box": (FeasibleSet.box([-1.0], [np.inf]), 0.5),
}
FAILURES = [(case, kind) for case in (*DIVERGENT, "nan-offset") for kind in SETS]


def failing_case(case, kind):
    feasible, x0 = SETS[kind]
    if case == "nan-offset":
        game, alpha0 = LinearToy(offset=float("nan")), 0.05
    else:
        kappa, alpha0 = DIVERGENT[case]
        game = QuadraticToy(kappa=kappa, noise=1.0)
    game.feasible = feasible
    return game, np.array([x0]), alpha0


def error_of(solve):
    """The error ``solve`` raises and the floating-point warnings it emits."""
    with warnings.catch_warnings(record=True) as caught, pytest.raises(NumericError) as info:
        warnings.simplefilter("always")
        solve()
    return type(info.value), str(info.value), [(w.category, str(w.message)) for w in caught]


def assert_fails_like_reference(case, got, want):
    assert got == want
    message = got[1]
    if case == "nan-offset":
        assert message.endswith("cannot project NaN")
    else:
        step = int(re.search(r"at step (\d+)$", message).group(1))
        assert (step <= CHUNK_1D) == (case == "first-chunk"), message


@pytest.mark.parametrize("case,kind", FAILURES)
def test_inner_resolvent_fails_like_per_step_checks(case, kind):
    game, x, _ = failing_case(case, kind)
    n = 3 * CHUNK_1D
    got = error_of(lambda: vr_spp.inner_resolvent(game, x, LAM, THETA, n, RandomStream(25)))
    want = error_of(lambda: reference_resolvent(game, x, LAM, THETA, n, RandomStream(25)))
    assert_fails_like_reference(case, got, want)


@pytest.mark.parametrize("case,kind", FAILURES)
def test_vr_spp_run_fails_like_per_step_checks(monkeypatch, case, kind):
    game, x, _ = failing_case(case, kind)
    # N_0 = 3 chunks: outer iteration 0 fails
    cfg = vr_spp.VrSppConfig(lam=LAM, theta=THETA, outer_iters=2,
                             schedule=vr_spp.SampleSchedule("geometric-base", 3.0 * CHUNK_1D))
    got = error_of(lambda: vr_spp.run(game, cfg, x, RandomStream(26)))
    monkeypatch.setattr(vr_spp, "inner_resolvent", reference_resolvent)
    want = error_of(lambda: vr_spp.run(game, cfg, x, RandomStream(26)))
    assert want[1].startswith("outer iteration 0: ")
    assert_fails_like_reference(case, got, want)


@pytest.mark.parametrize("case,kind", FAILURES)
def test_sg_fails_like_per_step_checks(case, kind):
    game, x, alpha0 = failing_case(case, kind)
    # records inside the failing chunk, before the failure
    cfg = sg.SgConfig(alpha0=alpha0, total_iters=3 * CHUNK_1D, record_every=100)
    got = error_of(lambda: sg.run(game, cfg, x, RandomStream(27)))
    want = error_of(lambda: reference_sg(game, cfg, x, RandomStream(27)))
    assert_fails_like_reference(case, got, want)
