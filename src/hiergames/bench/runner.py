"""Experiment executor: sweep x seeds -> trajectory rows and aggregates.

Each run derives its randomness as (root seed, sweep key, seed value), so
a whole experiment is reproducible from the CLI seed alone and independent
runs can execute on a worker pool; results come back in task order, so the
output never depends on scheduling order.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, fields
from pathlib import Path

import numpy as np

from ..games.base import GameOracle, NumericError
from ..games.bilevel import direct_equilibrium
from ..report import RunReport
from ..residuals import BrResidualConfig, br_residual, yosida_residual
from ..rng import RandomStream
from ..solvers import sg, vr_spp
from ..solvers.smoothing import arspbr_run
from ..solvers.vr_spp import VrSppConfig
from .spec import ExperimentSpec, RunPlan, SpecValidationError, build_game, build_run

CSV_COLUMNS = ("sweep_key", "seed", "iter", "residual", "residual_stderr", "samples_cum", "wall_ms")

# Stream derivation labels within one run.
_L_PARAMS, _L_X0, _L_SOLVE, _L_EVAL = "params", "x0", "solve", "eval"


@dataclass(frozen=True)
class RunRow:
    sweep_key: str
    seed: int
    iter: int
    residual: float
    residual_stderr: float
    samples_cum: int
    wall_ms: float
    failure: str = ""  # why a failed run (iter -1) stopped; not a CSV column


@dataclass(frozen=True)
class AggregateRow:
    sweep_key: str
    n_seeds: int
    mean_final_residual: float
    residual_std: float
    mean_wall_ms: float
    mean_samples: float
    mean_equilibrium_distance: float  # NaN unless an exact equilibrium exists


def _draw_x0(game: GameOracle, spec: ExperimentSpec, stream: RandomStream) -> np.ndarray:
    family = spec.game["family"]
    if family == "mlmf-constrained":
        n = spec.game["n_leaders"]
        # Leaders start in [0, 1]; multipliers start at zero.
        return np.concatenate([stream.uniform(0.0, 1.0, n), np.zeros(n)])
    return stream.uniform(0.0, 1.0, game.layout.total_dim)


def _measure(plan: RunPlan, report: RunReport, eval_root: RandomStream) -> None:
    """Fill ``report.residuals`` at the recorded iterates where the residual
    is due: every ``cadence`` iterations and at the final one.  Runs after
    the solve, so none of it reaches the solver's clock; all of it goes
    through ``yosida_residual`` and ``br_residual``, which the benchmark
    times as measurement."""
    game, cfg, total_iters = plan.game, plan.residual, plan.iters
    due = [
        (k, x) for k, x in zip(report.recorded_iters, report.iterates)
        if k == total_iters or (plan.cadence != "final" and k % plan.cadence == 0)
    ]
    if not due:
        return
    if isinstance(cfg, BrResidualConfig):
        smoothing = plan.smoothing
        steps = smoothing.inner_steps(max(total_iters, 1)) + cfg.extra_steps
        eval_zeta = cfg.eval_zeta_scale * smoothing.zeta
        values = [
            (br_residual(game, smoothing, x, steps, eval_root.derive(k), eval_zeta=eval_zeta), 0.0)
            for k, x in due
        ]
    else:
        xs = np.stack([x for _, x in due])
        values = yosida_residual(game, xs, cfg, [eval_root.derive(k) for k, _ in due])
    report.residuals = [(k, v, e) for (k, _), (v, e) in zip(due, values)]


def run_single(spec: ExperimentSpec, sweep_key: str, seed: int, root_seed: int) -> tuple[list[RunRow], RunReport, float]:
    """One (sweep point, seed) run; returns rows, the report, and the
    distance to the exact equilibrium when one is available (else NaN).

    Instance parameters derive from the sweep key of a ``game.*`` sweep and
    from the spec name otherwise, so the seed list averages algorithmic
    randomness over one fixed game, and points of a solver, budget or
    residual sweep compare on that same game.
    """
    root = RandomStream(root_seed)
    instance_key = sweep_key if sweep_key.startswith("game.") else spec.name
    plan = build_run(spec, root.derive(instance_key).derive(_L_PARAMS), build_game)
    game, config = plan.game, plan.solver
    run_stream = root.derive(sweep_key).derive(seed)
    x0 = _draw_x0(game, spec, run_stream.derive(_L_X0))
    solve_stream = run_stream.derive(_L_SOLVE)
    if isinstance(config, VrSppConfig):
        report = vr_spp.run(game, config, x0, solve_stream)
    elif isinstance(config, sg.SgConfig):
        report = sg.run(game, config, x0, solve_stream)
    else:
        report = arspbr_run(game, plan.smoothing, config, x0, solve_stream)
    _measure(plan, report, run_stream.derive(_L_EVAL))

    eq_dist = float("nan")
    if spec.game["family"] == "bilevel" and spec.game.get("coincident", False):
        star = direct_equilibrium(game.params)
        eq_dist = float(np.linalg.norm(report.final_iterate - star))

    lookup = dict(zip(report.recorded_iters, zip(report.samples_used, report.wall_ms)))
    rows = [RunRow(sweep_key, seed, k, val, err, *lookup[k]) for (k, val, err) in report.residuals]
    return rows, report, eq_dist


def _run_job(args) -> tuple[list[RunRow], RunReport | None, float]:
    spec, sweep_key, seed, root_seed = args
    try:
        return run_single(spec, sweep_key, seed, root_seed)
    except NumericError as err:
        # Mark the run failed (NaN residual at iteration -1) instead of
        # aborting the sweep; the CLI reports any failed row with its
        # message and exits with code 2.
        row = RunRow(sweep_key, seed, -1, float("nan"), float("nan"), 0, 0.0, str(err))
        return [row], None, float("nan")


def run_experiment(
    spec: ExperimentSpec, root_seed: int, jobs: int = 1
) -> tuple[list[AggregateRow], list[RunRow], dict[tuple[str, int], RunReport]]:
    """Execute every (sweep point x seed) run; deterministic in root_seed.

    Returns aggregates, trajectory rows, and the per-run reports keyed by
    (sweep key, seed).
    """
    tasks = []
    for sweep_idx in range(len(spec.sweep_values)):
        resolved, key = spec.resolved(sweep_idx), spec.sweep_key(sweep_idx)
        tasks += [(resolved, key, seed, root_seed) for seed in spec.seeds]

    # The pool starts all its workers on first submit; never more than runs.
    # Both maps return results in task order.
    workers = min(jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_job, tasks))
    else:
        results = list(map(_run_job, tasks))

    rows = [row for run_rows, _, _ in results for row in run_rows]
    runs = [(key, seed) for _, key, seed, _ in tasks]
    reports = {run: report for run, (_, report, _) in zip(runs, results) if report is not None}
    eq_dists = {run: eq for run, (_, _, eq) in zip(runs, results)}
    return aggregate_rows(rows, eq_dists), rows, reports


def emit_csv(rows: list[RunRow], path: str | Path) -> None:
    """Write trajectory rows (UTF-8, '.' decimal, exact column set)."""
    if not rows:
        raise SpecValidationError(["rows: nothing to emit (no residual points recorded)"])
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in rows:
            writer.writerow(
                [
                    r.sweep_key,
                    r.seed,
                    r.iter,
                    _fmt(r.residual),
                    _fmt(r.residual_stderr),
                    r.samples_cum,
                    _fmt(r.wall_ms),
                ]
            )


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def read_csv_rows(path: str | Path) -> list[RunRow]:
    """Parse a ``runs.csv``; a malformed header or row is a
    :class:`SpecValidationError` naming the file and line."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = []
        try:
            if tuple(reader.fieldnames or ()) != CSV_COLUMNS:
                raise ValueError(f"unexpected columns {reader.fieldnames}")
            for row in reader:
                if None in row or None in row.values():
                    raise ValueError(f"expected {len(CSV_COLUMNS)} fields")
                rows.append(
                    RunRow(
                        sweep_key=row["sweep_key"],
                        seed=int(row["seed"]),
                        iter=int(row["iter"]),
                        residual=float(row["residual"]),
                        residual_stderr=float(row["residual_stderr"]),
                        samples_cum=int(row["samples_cum"]),
                        wall_ms=float(row["wall_ms"]),
                    )
                )
        except (csv.Error, ValueError) as err:
            raise SpecValidationError([f"{path}, line {reader.line_num}: {err}"]) from None
        return rows


def aggregate_rows(
    rows: list[RunRow], eq_dists: dict[tuple[str, int], float] | None = None
) -> list[AggregateRow]:
    """Per-sweep aggregates over the final row (highest iter) of each
    (sweep_key, seed) run, with the run's distance to the exact equilibrium
    from ``eq_dists`` (NaN when absent)."""
    finals: dict[str, dict[int, RunRow]] = {}
    for row in rows:
        per_seed = finals.setdefault(row.sweep_key, {})
        if row.seed not in per_seed or row.iter > per_seed[row.seed].iter:
            per_seed[row.seed] = row
    eq_dists = eq_dists or {}
    out = []
    for key, per_seed in finals.items():
        res = np.array([r.residual for r in per_seed.values()])
        out.append(AggregateRow(
            sweep_key=key,
            n_seeds=len(res),
            mean_final_residual=float(res.mean()),
            residual_std=float(res.std(ddof=1)) if len(res) > 1 else 0.0,
            mean_wall_ms=float(np.mean([r.wall_ms for r in per_seed.values()])),
            mean_samples=float(np.mean([r.samples_cum for r in per_seed.values()])),
            mean_equilibrium_distance=float(np.mean(
                [eq_dists.get((key, seed), float("nan")) for seed in per_seed])),
        ))
    return out


def markdown_table(aggregates: list[AggregateRow]) -> str:
    lines = [
        "| sweep | seeds | mean final residual | residual std | mean wall ms | mean samples | mean dist. to exact eq. |",
        "| --- | --- | --- | --- | --- | --- | --- |",
    ]
    for a in aggregates:
        eq = "-" if math.isnan(a.mean_equilibrium_distance) else f"{a.mean_equilibrium_distance:.3e}"
        lines.append(
            f"| {a.sweep_key} | {a.n_seeds} | {a.mean_final_residual:.3e} | "
            f"{a.residual_std:.3e} | {a.mean_wall_ms:.1f} | {a.mean_samples:.0f} | {eq} |"
        )
    return "\n".join(lines) + "\n"


def write_summary(aggregates: list[AggregateRow], out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "summary.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in fields(AggregateRow)])
        for a in aggregates:
            key, n_seeds, *values = astuple(a)
            writer.writerow([key, n_seeds, *map(_fmt, values)])
    (out / "summary.md").write_text(markdown_table(aggregates), encoding="utf-8")
