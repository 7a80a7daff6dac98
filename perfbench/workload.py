"""One pass of one workload, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/workload.py --specs DIR --out DIR --seed U64 \
        --t-spawn T --result FILE [--trace]

Runs every spec listed in ``DIR/manifest.json`` through ``hiergames run``
in this process (``hiergames.bench.cli.main``, one job) and writes a JSON
result: the end-to-end timings, what each (sweep point x seed) run produced,
the instance parameters it ran on and, with ``--trace``, the per-layer
metrics.  ``--t-spawn`` is the parent's ``time.monotonic()`` just before it
started this process, so set-up time includes interpreter start-up.

The end-to-end timers wrap only functions called once per run or per
residual evaluation, so they cost nothing measurable; the per-layer trace
wraps the inner loops and is installed only with ``--trace``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--specs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t-spawn", type=float, required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true",
                   help="stop at the first call into the runner; report setup_s alone")
    return p.parse_args(argv)


class _SetupDone(Exception):
    pass


def _params(game) -> dict:
    params = game.params
    fields = ("demand_slope", "a_lo", "a_hi", "leader_costs", "follower_costs", "caps",
              "curvature", "lower_quad", "lower_slope", "bound_slope", "kink_slopes")
    out = {}
    for name in fields:
        value = getattr(params, name, None)
        if value is not None:
            out[name] = value.tolist() if hasattr(value, "tolist") else value
    return out


def peak_rss_mb() -> float:
    """Peak resident set of this process image.  ``VmHWM`` is reset by
    exec; ``ru_maxrss`` is not, and would report the parent's size at fork
    when that is larger."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = _parse(argv)
    from hiergames.bench import cli, runner

    tracer = None
    if args.trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import tracing

        tracer = tracing.install()

    clock = time.monotonic
    state = {"first_runner_call": None, "residual_s": 0.0, "ops": [], "spec": None}

    run_experiment = cli.run_experiment

    def timed_run_experiment(spec, root_seed, jobs=1):
        if state["first_runner_call"] is None:
            state["first_runner_call"] = clock()
            if args.setup_only:
                raise _SetupDone
        return run_experiment(spec, root_seed, jobs)

    run_single, build_game = runner.run_single, runner.build_game

    def timed_run_single(spec, sweep_key, seed, root_seed):
        op = {"label": state["spec"], "sweep_key": sweep_key, "seed": seed, "residual_s": 0.0}
        state["ops"].append(op)
        t0 = clock()
        try:
            rows, report, eq = run_single(spec, sweep_key, seed, root_seed)
        finally:
            op["seconds"] = clock() - t0
        op["total_samples"] = report.total_samples
        op["final_iterate"] = report.final_iterate.tolist()
        op["residuals"] = [[k, v, e] for k, v, e in report.residuals]
        return rows, report, eq

    def capturing_build_game(game_cfg, stream):
        game = build_game(game_cfg, stream)
        state["ops"][-1]["params"] = _params(game)
        return game

    def timed(residual_fn):
        def wrapped(*a, **kw):
            t0 = clock()
            try:
                return residual_fn(*a, **kw)
            finally:
                dt = clock() - t0
                state["residual_s"] += dt
                state["ops"][-1]["residual_s"] += dt
        return wrapped

    cli.run_experiment = timed_run_experiment
    runner.run_single = timed_run_single
    runner.build_game = capturing_build_game
    runner.yosida_residual = timed(runner.yosida_residual)
    runner.br_residual = timed(runner.br_residual)

    specs_dir = Path(args.specs)
    labels = json.loads((specs_dir / "manifest.json").read_text(encoding="utf-8"))
    if args.setup_only:
        try:
            cli.main(["run", "--spec", str(specs_dir / f"{labels[0]}.json"),
                      "--out", str(Path(args.out) / labels[0]), "--seed", str(args.seed)])
        except _SetupDone:
            setup = {"setup_s": state["first_runner_call"] - args.t_spawn}
            Path(args.result).write_text(json.dumps({"metrics": setup}), encoding="utf-8")
            return 0
        raise RuntimeError("the runner was never called")
    cli_s = 0.0
    for label in labels:
        state["spec"] = label
        t0 = clock()
        cli.main([
            "run", "--spec", str(specs_dir / f"{label}.json"),
            "--out", str(Path(args.out) / label), "--seed", str(args.seed), "--jobs", "1",
        ])
        cli_s += clock() - t0
    t_end = clock()

    first = state["first_runner_call"] if state["first_runner_call"] is not None else t_end
    solver_s = sum(op.get("seconds", 0.0) - op["residual_s"] for op in state["ops"])
    samples = sum(op.get("total_samples", 0) for op in state["ops"])
    result = {
        "ops": state["ops"],
        "metrics": {
            "setup_s": first - args.t_spawn,
            "wall_s": t_end - first,
            "solver_samples_per_s": samples / solver_s if solver_s > 0 else 0.0,
            "residual_s": state["residual_s"],
            "peak_rss_mb": peak_rss_mb(),
        },
    }
    if tracer is not None:
        layers = tracing.layer_metrics(tracer)
        layers["cli_s"] = cli_s
        layers["covered_s"] = tracer.covered_s()
        result["layers"] = layers
        result["layer_self_s"] = dict(tracer.self_s)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
