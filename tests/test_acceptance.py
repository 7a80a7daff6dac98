"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see all of
them).  Tolerances are fixed here; every stochastic check runs from the
fixed root seed below so the whole gate is reproducible bit for bit.  Every
test here carries the ``acceptance`` marker, so ``pytest -m "not
acceptance"`` runs the rest of the suite alone.
"""

import numpy as np
import pytest

from hiergames import RandomStream, RidgedGame
from hiergames.bench.runner import run_experiment
from hiergames.bench.spec import spec_from_dict
from hiergames.games.bilevel import BilevelGame, BilevelParams, direct_equilibrium
from hiergames.games.cournot import MlmfCournotGame, MlmfParams
from hiergames.residuals import ResidualConfig, br_residual, yosida_residual
from hiergames.solvers.sg import SgConfig
from hiergames.solvers.sg import run as sg_run
from hiergames.solvers.smoothing import (
    ArspbrConfig,
    SmoothingParams,
    arspbr_run,
    zsol_contraction_factor,
    zsol_solve,
)
from hiergames.solvers.vr_spp import SampleSchedule, VrSppConfig
from hiergames.solvers.vr_spp import run as vr_run

from conftest import QuadraticToy, make_bilevel_params, make_mlmf_params
from test_bilevel import potential_identity_check
from test_cournot import follower_random_instance_check
from test_games_base import monotone_pair_check
from test_residuals import lipschitz_pairs_check
from test_smoothing import sandwich_check
from test_vr_spp import recursion_bound_check

pytestmark = pytest.mark.acceptance

ROOT_SEED = 0
SEEDS_20 = list(range(20))

MLMF_GAME = {
    "family": "mlmf",
    "n_leaders": 13,
    "n_followers": 10,
    "demand_slope": 7.0,
    "a_range": [33.0, 37.0],
    "leader_cost_range": [0.0, 100.0],
    "follower_cost": 50.0,
}
VRSPP_SOLVER = {
    "kind": "vr-spp",
    "lam": 0.1,
    "theta": 0.1,
    "schedule": {"kind": "geometric-base", "param": 1.1},
}
YOSIDA_EVAL = {
    "kind": "yosida",
    "lam": 0.1,
    "theta": 0.2,
    "inner_steps": 5000,
    "samples_per_step": 16,
    "repeats": 5,
    "cadence": "final",
}
MATCHED_BUDGET = 393_264  # samples consumed by the proximal solver at 110 outer steps


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _mlmf_pair_specs(name: str, game: dict, vr_iters: int, budget: int):
    vr = spec_from_dict(
        {
            "name": name,
            "game": dict(game),
            "solver": dict(VRSPP_SOLVER),
            "budget": {"outer_iters": vr_iters},
            "seeds": SEEDS_20,
            "residual": dict(YOSIDA_EVAL),
        }
    )
    sg = spec_from_dict(
        {
            "name": name,  # same name => same drawn market instance
            "game": dict(game),
            "solver": {"kind": "sg", "alpha0": 0.1, "record_every": budget},
            "budget": {"total_iters": budget},
            "seeds": SEEDS_20,
            "residual": dict(YOSIDA_EVAL),
        }
    )
    return vr, sg


def test_c1_mlmf_solver_comparison():
    vr_spec, sg_spec = _mlmf_pair_specs("mlmf13", MLMF_GAME, 110, MATCHED_BUDGET)
    vr_agg, _, vr_reports = run_experiment(vr_spec, ROOT_SEED)
    sg_agg, _, _ = run_experiment(sg_spec, ROOT_SEED)
    vr_res = vr_agg[0].mean_final_residual
    sg_res = sg_agg[0].mean_final_residual
    budgets_match = all(r.total_samples == MATCHED_BUDGET for r in vr_reports.values())
    ok = vr_res <= 5e-3 and 5e-3 <= sg_res <= 5e-2 and vr_res <= sg_res / 5.0 and budgets_match
    _report(
        "mlmf comparison (matched budgets)",
        ok,
        f"vr={vr_res:.2e} sg={sg_res:.2e} ratio={sg_res / vr_res:.1f} budget={MATCHED_BUDGET}",
    )


def test_c2_mlmf_leader_count_sweep():
    spec = spec_from_dict(
        {
            "name": "mlmf_nsweep",
            "game": dict(MLMF_GAME),
            "solver": dict(VRSPP_SOLVER),
            "sweep": {"path": "game.n_leaders", "values": [13, 23, 33, 43]},
            "budget": {"outer_iters": 95},
            "seeds": SEEDS_20,
            "residual": dict(YOSIDA_EVAL),
        }
    )
    aggregates, _, _ = run_experiment(spec, ROOT_SEED)
    finals = np.array([a.mean_final_residual for a in aggregates])
    spread = finals.max() / finals.min()
    ok = bool(spread <= 3.0)
    detail = " ".join(f"{a.sweep_key.split('=')[-1]}:{a.mean_final_residual:.2e}" for a in aggregates)
    _report("mlmf leader-count sweep", ok, f"{detail} spread={spread:.2f}")


def test_c3_constrained_mlmf_comparison():
    game = dict(MLMF_GAME, family="mlmf-constrained", cap=5.0, constraint_noise_halfwidth=1.0)
    budget = 393_264  # proximal solver total at 110 outer steps
    vr_spec, sg_spec = _mlmf_pair_specs("mlmf13con", game, 110, budget)
    vr_agg, _, vr_reports = run_experiment(vr_spec, ROOT_SEED)
    sg_agg, _, _ = run_experiment(sg_spec, ROOT_SEED)
    vr_res = vr_agg[0].mean_final_residual
    sg_res = sg_agg[0].mean_final_residual

    # Feasibility at every final iterate: Monte-Carlo estimate of the
    # constraint mean is nonpositive up to three standard errors.
    from hiergames.bench.runner import build_game

    con = build_game(game, RandomStream(ROOT_SEED).derive("mlmf13con").derive("params"))
    feas_ok = True
    worst = -np.inf
    for (key, seed), report in vr_reports.items():
        x = report.final_iterate[:13]
        ev = RandomStream(ROOT_SEED).derive("feas").derive(seed)
        for i in range(13):
            vals = con.constraint_sample_batch(i, x[i], 20_000, ev)
            margin = vals.mean() - 3.0 * vals.std(ddof=1) / np.sqrt(vals.size)
            worst = max(worst, margin)
            feas_ok = feas_ok and margin <= 0.0
    ok = vr_res <= 5e-3 and 5e-3 <= sg_res <= 5e-2 and vr_res <= sg_res / 5.0 and feas_ok
    _report(
        "constrained mlmf comparison",
        ok,
        f"vr={vr_res:.2e} sg={sg_res:.2e} ratio={sg_res / vr_res:.1f} worst_feas={worst:.2e}",
    )


def test_c4_sublinear_rate_slope():
    sweep = RandomStream(ROOT_SEED).derive("rate-poly")
    params = MlmfParams.sample(13, 10, 7.0, (33, 37), (0, 100), 50.0, sweep.derive("params"))
    game = MlmfCournotGame(params)
    rc = ResidualConfig(lam=0.1, theta=0.2, inner_steps=2500, samples_per_step=8, repeats=3)
    res_by_seed = []
    for seed in range(10):
        rs = sweep.derive(seed)
        x0 = rs.derive("x0").uniform(0, 1, 13)
        ev = rs.derive("eval")

        def hook(k, x, ev=ev):
            if k < 5:
                return None
            return yosida_residual(game, x, rc, ev.derive(k))

        cfg = VrSppConfig(lam=0.1, theta=0.1, schedule=SampleSchedule("polynomial", 1.5),
                          outer_iters=30)
        rep = vr_run(game, cfg, x0, rs.derive("solve"), hook)
        res_by_seed.append([v for _, v, _ in rep.residuals])
    mean_res = np.mean(np.array(res_by_seed), axis=0)
    ks = np.arange(5, 31)
    slope = np.polyfit(np.log(ks), np.log(mean_res**2), 1)[0]
    ok = slope <= -0.8
    _report("sublinear rate fit", ok, f"log-log slope of squared residual = {slope:.2f}")


def test_c5_linear_rate_under_strong_monotonicity():
    sweep = RandomStream(ROOT_SEED).derive("strmono")
    params = BilevelParams.sample(13, sweep.derive("params"), coincident=True)
    star = direct_equilibrium(params, ridge=1.0)
    game = RidgedGame(BilevelGame(params), 1.0)
    errs = []
    for seed in range(10):
        rs = sweep.derive(seed)
        x0 = rs.derive("x0").uniform(0, 1, 13)
        cfg = VrSppConfig(lam=0.015, theta=0.018, schedule=SampleSchedule("geometric", 0.5),
                          outer_iters=12)
        rep = vr_run(game, cfg, x0, rs.derive("solve"))
        errs.append([float(np.sum((x - star) ** 2)) for x in rep.iterates])
    mean_err = np.mean(np.array(errs), axis=0)
    ratios = mean_err[1:] / mean_err[:-1]
    worst = float(ratios[3:12].max())  # per-iteration ratio for k in [3, 12]
    ok = worst <= 0.95
    _report("linear rate under strong monotonicity", ok, f"max per-iteration ratio = {worst:.3f}")


def test_c6_zeroth_order_contraction():
    kappa, c, zeta = 5.0, 1.0, 0.05
    alpha = kappa + c  # exact smoothness of the quadratic surrogate
    q = zsol_contraction_factor(alpha, alpha, zeta)
    game = QuadraticToy(kappa=kappa, m=1.0, noise=0.5)
    sp = SmoothingParams(eta=0.1, prox_weight=c, zeta=zeta, batch_base=1.75)
    x = np.zeros(1)
    star = game.prox_best_response(c, 0.0)
    root = RandomStream(ROOT_SEED).derive("zsol-rate")
    reps, ts = 300, np.arange(1, 16)
    sq = np.zeros((reps, ts.size))
    for r in range(reps):
        for j, t in enumerate(ts):
            v = zsol_solve(game, sp, 0, x, int(t), root.derive(r).derive(int(t)))
            sq[r, j] = (v[0] - star) ** 2
    mean_sq = sq.mean(axis=0)
    slope = np.polyfit(ts[2:15], np.log(mean_sq[2:15]), 1)[0]
    ratio = float(np.exp(slope))
    ok = ratio <= q + 0.05
    _report("zeroth-order geometric decay", ok, f"ratio={ratio:.3f} bound={q + 0.05:.3f}")


def _steplength_stable_bilevel(root_label: str, n_players=13, zeta=0.01, eta=0.1, c=1.0):
    """Draw instances until the pinned inner steplength satisfies its own
    stability precondition for every player: zeta * (c + curvature bound)
    < 2, with the curvature bound d_i + 6 + mean_a |kink gap| / (2 eta).
    The scheme's rate theory presumes a stable steplength; instances outside
    that regime are exercised separately below."""
    for attempt in range(50):
        stream = RandomStream(ROOT_SEED).derive(root_label).derive(attempt)
        params = BilevelParams.sample(n_players, stream.derive("params"))
        gap = np.abs(params.kink_slopes - params.bound_slope)
        curv = params.curvature + 6.0 + 35.0 * gap / (2.0 * eta)
        if zeta * (c + curv.max()) < 2.0:
            return params, stream, attempt
    raise AssertionError("no steplength-stable instance within 50 draws")


def test_c7_arspbr_relaxations():
    params, stream, attempt = _steplength_stable_bilevel("arspbr")
    game = BilevelGame(params)
    sp = SmoothingParams(eta=0.1, prox_weight=1.0, zeta=0.01, batch_base=1.5)
    K = 4000
    checkpoints = range(3000, K + 1, 500)  # final quarter of the run

    results = {}
    for relax in ("constant", "power"):
        finals, trajs = [], []
        for seed in SEEDS_20:
            rs = stream.derive(seed)
            x0 = rs.derive("x0").uniform(0, 1, 13)
            ev = rs.derive("eval-" + relax)

            def hook(k, x, ev=ev):
                if k in checkpoints:
                    steps = sp.inner_steps(K) + 8
                    return br_residual(game, sp, x, steps, ev.derive(k)), 0.0
                return None

            cfg = ArspbrConfig(outer_iters=K, relaxation=relax, record_every=500)
            rep = arspbr_run(game, sp, cfg, x0, rs.derive("solve-" + relax), hook)
            finals.append(rep.residuals[-1][1])
            trajs.append([v for _, v, _ in rep.residuals])
        results[relax] = (np.mean(finals), np.array(trajs))

    unrelaxed, relaxed = results["constant"][0], results["power"][0]
    ok = unrelaxed <= 5e-3 and relaxed <= unrelaxed
    _report(
        "asynchronous relaxed best response",
        ok,
        f"unrelaxed={unrelaxed:.2e} relaxed={relaxed:.2e} (instance draw {attempt})",
    )

    # Late-run stability: the relaxed scheme's across-seed spread over the
    # final quarter of checkpoints does not exceed the unrelaxed one's.
    std_unrelaxed = results["constant"][1].std(axis=0, ddof=1).mean()
    std_relaxed = results["power"][1].std(axis=0, ddof=1).mean()
    ok_std = std_relaxed <= std_unrelaxed
    _report(
        "relaxation stabilizes the tail",
        ok_std,
        f"spread relaxed={std_relaxed:.2e} unrelaxed={std_unrelaxed:.2e}",
    )


def test_c7b_relaxation_helps_on_stiff_kink_instance():
    # Companion check on an instance that violates the steplength stability
    # precondition: the unrelaxed iteration keeps being kicked by the
    # oscillating inner solve, while averaging damps it.
    for attempt in range(50):
        stream = RandomStream(ROOT_SEED).derive("arspbr-stiff").derive(attempt)
        params = BilevelParams.sample(13, stream.derive("params"))
        gap = np.abs(params.kink_slopes - params.bound_slope)
        curv = params.curvature + 6.0 + 35.0 * gap / 0.2
        if 0.01 * (1.0 + curv.max()) >= 2.0:
            break
    game = BilevelGame(params)
    sp = SmoothingParams()
    K = 2500
    finals = {}
    for relax in ("constant", "power"):
        vals = []
        for seed in range(6):
            rs = stream.derive(seed)
            x0 = rs.derive("x0").uniform(0, 1, 13)
            cfg = ArspbrConfig(outer_iters=K, relaxation=relax, record_every=K)
            rep = arspbr_run(game, sp, cfg, x0, rs.derive("solve-" + relax))
            vals.append(
                br_residual(game, sp, rep.final_iterate, sp.inner_steps(K) + 8,
                            rs.derive("ev-" + relax))
            )
        finals[relax] = np.mean(vals)
    ok = finals["power"] <= finals["constant"]
    _report(
        "relaxation on a stiff-kink instance",
        ok,
        f"relaxed={finals['power']:.2e} unrelaxed={finals['constant']:.2e}",
    )


def test_c8_smoothing_radius_sweep():
    sweep = RandomStream(ROOT_SEED).derive("eta-sweep")
    params = BilevelParams.sample(13, sweep.derive("params"), coincident=True)
    game = BilevelGame(params)
    star = direct_equilibrium(params)
    dists = []
    for eta, K in ((0.2, 1000), (0.1, 2000), (0.01, 4000)):
        per_seed = []
        for seed in range(5):
            rs = sweep.derive(seed)
            x0 = rs.derive("x0").uniform(0, 1, 13)
            sp = SmoothingParams(eta=eta)
            cfg = ArspbrConfig(outer_iters=K, relaxation="power", record_every=K)
            rep = arspbr_run(game, sp, cfg, x0, rs.derive(f"solve{eta}"))
            per_seed.append(float(np.linalg.norm(rep.final_iterate - star)))
        dists.append(np.mean(per_seed))
    ok = dists[0] >= dists[1] >= dists[2] and dists[2] <= 1e-2
    _report(
        "smoothing radius sweep",
        ok,
        "dist(eta): " + " >= ".join(f"{d:.2e}" for d in dists),
    )


def test_c9_property_suites():
    results = []

    ok, inst, j, ratio = recursion_bound_check(RandomStream(ROOT_SEED).derive("rec"), n_instances=100)
    results.append(("recursion envelope (100 draws)", ok,
                    f"instance={inst} j={j} A/envelope={ratio:.4f}"))

    ok, why, t = follower_random_instance_check(
        RandomStream(ROOT_SEED).derive("lcp"), n_instances=1000
    )
    results.append(("follower complementarity (1000 draws)", ok, why or "max gap <= 1e-10"))

    ok, worst = potential_identity_check(
        BilevelGame(make_bilevel_params()), RandomStream(ROOT_SEED).derive("pot"), n_triples=1000
    )
    results.append(("per-draw potential identity (1000 triples)", ok, f"worst rel gap {worst:.1e}"))

    game = BilevelGame(make_bilevel_params())
    sp = SmoothingParams(eta=0.1, prox_weight=1.0)
    st = RandomStream(ROOT_SEED).derive("zo-rate")
    x = st.uniform(-1.0, 1.0, 13)
    v = np.array([float(x[7]) + 0.2])
    from hiergames.solvers.smoothing import zo_gradient_batch

    reference = zo_gradient_batch(game, sp, 7, v, x, 400_000, st.derive("ref"))[0]
    batches = [4, 40, 400, 4000]
    errs = []
    for b in batches:
        reps = [
            zo_gradient_batch(game, sp, 7, v, x, b, st.derive(f"{b}-{r}"))[0] for r in range(40)
        ]
        errs.append(np.mean(np.abs(np.array(reps) - reference)))
    slope = float(np.polyfit(np.log(batches), np.log(errs), 1)[0])
    results.append(("zeroth-order estimator rate", slope <= -0.4, f"slope={slope:.2f}"))

    ok, t, mean, slack = sandwich_check(game, sp, RandomStream(ROOT_SEED).derive("sand"), n_points=50)
    results.append(("smoothing sandwich (50 points)", ok,
                    f"point={t} mean={mean:.2e} slack={slack:.2e}"))

    rc = ResidualConfig(lam=0.1, theta=0.2, inner_steps=1500, samples_per_step=8, repeats=3)
    ok, t, gap, allow = lipschitz_pairs_check(
        MlmfCournotGame(make_mlmf_params()), RandomStream(ROOT_SEED).derive("lip"), rc, n_pairs=50
    )
    results.append(("residual Lipschitz (50 pairs)", ok, f"pair={t} gap={gap:.2e} allow={allow:.2e}"))

    ok, val, _ = monotone_pair_check(
        MlmfCournotGame(make_mlmf_params()), RandomStream(ROOT_SEED).derive("monm"), n_pairs=100
    )
    results.append(("monotone pairs, market game (100)", ok, f"worst margin {val:.2e}"))
    ok, val, _ = monotone_pair_check(
        BilevelGame(make_bilevel_params()), RandomStream(ROOT_SEED).derive("monb"),
        n_pairs=100, lo=-2.0, hi=2.0
    )
    results.append(("monotone pairs, bilevel game (100)", ok, f"worst margin {val:.2e}"))

    results.append(_determinism_checks())

    all_ok = all(ok for _, ok, _ in results)
    for name, ok, detail in results:
        print(f"    {'ok' if ok else 'FAIL'} - {name}: {detail}")
    _report("property suites", all_ok, f"{sum(ok for _, ok, _ in results)}/{len(results)} green")


def _determinism_checks():
    mlmf = MlmfCournotGame(make_mlmf_params())
    x0 = np.full(13, 0.5)
    cfg = VrSppConfig(lam=0.1, theta=0.1, schedule=SampleSchedule("geometric-base", 1.1),
                      outer_iters=15)
    a = vr_run(mlmf, cfg, x0, RandomStream(ROOT_SEED).derive("d1"))
    b = vr_run(mlmf, cfg, x0, RandomStream(ROOT_SEED).derive("d1"))
    vr_ok = all(np.array_equal(p, q) for p, q in zip(a.iterates, b.iterates))

    sg_cfg = SgConfig(alpha0=0.1, total_iters=2000, record_every=500)
    a = sg_run(mlmf, sg_cfg, x0, RandomStream(ROOT_SEED).derive("d2"))
    b = sg_run(mlmf, sg_cfg, x0, RandomStream(ROOT_SEED).derive("d2"))
    sg_ok = all(np.array_equal(p, q) for p, q in zip(a.iterates, b.iterates))

    game = BilevelGame(make_bilevel_params(n_players=5))
    ar_cfg = ArspbrConfig(outer_iters=80, relaxation="power", record_every=20)
    a = arspbr_run(game, SmoothingParams(), ar_cfg, np.full(5, 0.5),
                   RandomStream(ROOT_SEED).derive("d3"))
    b = arspbr_run(game, SmoothingParams(), ar_cfg, np.full(5, 0.5),
                   RandomStream(ROOT_SEED).derive("d3"))
    ar_ok = all(np.array_equal(p, q) for p, q in zip(a.iterates, b.iterates))

    ok = vr_ok and sg_ok and ar_ok
    return ("bitwise determinism, all solvers", ok, f"vr={vr_ok} sg={sg_ok} arspbr={ar_ok}")
