import math

import numpy as np
import pytest

from hiergames import RandomStream
from hiergames.games.cournot import MlmfCournotGame
from hiergames.solvers.vr_spp import (
    SampleSchedule,
    VrSppConfig,
    inner_resolvent,
    run,
)

from conftest import LinearToy, make_mlmf_params


def config(schedule, outer=5, lam=1.0, theta=1.0, **kw):
    return VrSppConfig(lam=lam, theta=theta, schedule=schedule, outer_iters=outer, **kw)


def test_schedule_polynomial():
    sched = SampleSchedule("polynomial", 1.5)
    assert sched.size(2) == 27  # ceil(3^3)


def test_schedule_geometric_base():
    sched = SampleSchedule("geometric-base", 1.1)
    assert sched.size(0) == 1  # floor(1.1)
    assert sched.size(24) == 10  # floor(1.1^25)


def test_schedule_geometric():
    sched = SampleSchedule("geometric", 0.5)
    assert sched.size(3) == 16  # floor(2^4)


def test_schedule_cap_and_floor():
    assert SampleSchedule("geometric", 0.5, cap=10).size(20) == 10
    assert SampleSchedule("geometric-base", 1.01).size(0) == 1


@pytest.mark.parametrize("kind,param,k", [
    ("polynomial", 600, 1),  # 2^1200
    ("geometric", 0.5, 1100),  # 2^1101
    ("geometric-base", 1e6, 60),  # 10^366
    ("geometric-base", 1.1, 7500),  # 10^310
])
def test_schedule_beyond_float_range_is_cap(kind, param, k):
    assert SampleSchedule(kind, param).size(k) == 1_000_000
    assert SampleSchedule(kind, param, cap=7).size(k) == 7


def test_schedule_validation():
    with pytest.raises(ValueError):
        SampleSchedule("polynomial", 1.0)
    with pytest.raises(ValueError):
        SampleSchedule("geometric", 1.5)
    with pytest.raises(ValueError):
        SampleSchedule("geometric-base", 0.9)
    with pytest.raises(ValueError):
        SampleSchedule("fibonacci", 2.0)


def test_sample_schedule_op():
    cfg = config(SampleSchedule("geometric-base", 1.1))
    assert cfg.schedule.size(0) == 1
    assert cfg.inner_steps(0) == 10  # min_inner_steps floor applies


def test_inner_resolvent_noise_free_quadratic(stream):
    # T(z) = z, lam = theta = 1: the resolvent is x / 2.
    game = LinearToy(slope=1.0)
    out = inner_resolvent(game, np.array([1.0]), 1.0, 1.0, 10_000, stream)
    assert abs(out[0] - 0.5) <= 1e-3


def test_inner_resolvent_zero_operator_returns_center(stream):
    game = LinearToy(slope=0.0)
    out = inner_resolvent(game, np.array([0.7]), 1.0, 2.0, 200, stream)
    assert abs(out[0] - 0.7) <= 1e-6


def test_inner_resolvent_error_decay_slope(stream):
    # Noise-free error vs step count decays at least like 1/j in log-log.
    game = LinearToy(slope=1.0)
    x = np.array([1.0])
    target = 0.5
    steps = np.array([10, 20, 50, 100, 200, 500, 1000])
    errs = []
    for n in steps:
        out = inner_resolvent(game, x, 1.0, 0.75, int(n), stream)
        errs.append((out[0] - target) ** 2)
    slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
    assert slope <= -0.9


def test_run_zero_iters_records_initial_point(stream):
    game = LinearToy(slope=1.0)
    report = run(game, config(SampleSchedule("geometric", 0.5), outer=0), np.array([2.0]), stream)
    assert len(report.iterates) == 1
    assert report.iterates[0][0] == 2.0
    assert report.total_samples == 0


def test_run_noise_free_geometric_contraction(stream):
    # Exact proximal-point on T(z) = z contracts by 1 / (1 + lam) per step.
    game = LinearToy(slope=1.0)
    cfg = config(SampleSchedule("geometric", 0.5), outer=6, lam=1.0, theta=1.0,
                 min_inner_steps=4000)
    report = run(game, cfg, np.array([8.0]), stream)
    vals = np.array([it[0] for it in report.iterates])
    ratios = vals[1:] / vals[:-1]
    assert np.all(np.abs(ratios - 0.5) <= 0.005)


def test_run_requires_feasible_start(stream):
    game = LinearToy(slope=1.0, nonneg=True)
    with pytest.raises(ValueError, match="feasible"):
        run(game, config(SampleSchedule("geometric", 0.5)), np.array([-1.0]), stream)


def test_run_is_deterministic_per_seed():
    game = MlmfCournotGame(make_mlmf_params())
    cfg = VrSppConfig(lam=0.1, theta=0.1, schedule=SampleSchedule("geometric-base", 1.1),
                      outer_iters=12)
    x0 = np.full(13, 0.5)
    rep1 = run(game, cfg, x0, RandomStream(5).derive("solve"))
    rep2 = run(game, cfg, x0, RandomStream(5).derive("solve"))
    for a, b in zip(rep1.iterates, rep2.iterates):
        assert np.array_equal(a, b)
    assert rep1.samples_used == rep2.samples_used


def recursion_bound_check(stream, n_instances=100, horizon=10_000):
    """Scalar recursion A_{j+1} = (1 - 2 c theta / j) A_j + (theta/j)^2 M^2/2,
    started at J = max(1, ceil(2 c theta)), stays under the closed-form
    envelope (M^2 theta^2 / (2 (2 c theta - 1)) + J (A_start + B M^2)) / j
    with B = theta^2 pi^2 / 12.  Returns (ok, instance, j, A_j / envelope)
    at the first violation, or else where that ratio peaks."""
    worst = (-1, -1, -math.inf)
    for t in range(n_instances):
        s = stream.derive(t)
        c = s.uniform(0.2, 5.0)
        big_m = s.uniform(0.1, 10.0)
        theta = s.uniform((1.0 / (2 * c)) * 1.05, (1.0 / (2 * c)) * 1.05 + 3.0)
        a_start = s.uniform(0.0, 10.0)
        start = max(1, int(np.ceil(2 * c * theta)))
        envelope_b = theta**2 * np.pi**2 / 12.0
        num = big_m**2 * theta**2 / (2 * (2 * c * theta - 1)) + start * (a_start + envelope_b * big_m**2)
        a = a_start
        for j in range(start, horizon):
            bound = num / j
            if a > bound * (1 + 1e-12):
                return False, t, j, a / bound
            if a > worst[2] * bound:
                worst = (t, j, a / bound)
            a = (1 - 2 * c * theta / j) * a + (theta / j) ** 2 * big_m**2 / 2
    return (True, *worst)


def test_recursion_envelope(stream):
    ok, inst, j, ratio = recursion_bound_check(stream)
    assert ok, f"instance {inst} violated the envelope at j={j} (A_j / envelope {ratio})"
