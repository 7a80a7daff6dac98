"""Benchmark command for hiergames.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --steady RUNS [--seed N] [--workload NAME ...]

Run from the root of a checkout.  One measurement runs passes of the
workload, each in a fresh interpreter (``perfbench/workload.py``) through
``hiergames run`` with one job, until ``--seconds`` have passed and at least
two passes are done; every pass repeats the same inputs, drawn from
``--seed``.  Each pass is checked (``checks.py``), and every pass's
``runs.csv`` must equal the first pass's apart from ``wall_ms``.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the medians over passes of the end-to-end
metrics with ``--trace 0``; with ``--trace 1``, passes alternate untraced
and traced and the metrics are the per-layer ones.

``--steady`` runs RUNS measurements per workload in each of two sets, one
seed per measurement starting at ``--seed``, and reports median, quartiles
and spread per metric, and whether the sets agree within the bounds of
``BENCHMARK.json`` (see ``steady.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
TRACE_OUT = HERE / "trace"
PASS_TIMEOUT_S = 150
SETUP_PROBES = 20  # extra set-ups per measurement, so setup_s is a median of 22 or more

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import workloads as wl  # noqa: E402


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _write_specs(workload: str, specs_dir: Path) -> None:
    specs_dir.mkdir(parents=True)
    labels = []
    for label, spec in wl.WORKLOADS[workload]:
        (specs_dir / f"{label}.json").write_text(json.dumps(spec, indent=2), encoding="utf-8")
        labels.append(label)
    (specs_dir / "manifest.json").write_text(json.dumps(labels), encoding="utf-8")


def run_pass(specs_dir: Path, pass_dir: Path, seed: int, traced: bool, setup_only=False):
    """One workload pass in a fresh interpreter; (result or None, error text).
    With ``setup_only`` the process stops at the first call into the runner."""
    pass_dir.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result_path = pass_dir / "result.json"
    t_spawn = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "workload.py"), "--specs", str(specs_dir),
        "--out", str(pass_dir), "--seed", str(seed), "--t-spawn", repr(t_spawn),
        "--result", str(result_path),
    ] + (["--trace"] if traced else []) + (["--setup-only"] if setup_only else [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"workload process timed out after {PASS_TIMEOUT_S} s"
    (pass_dir / "stdout.txt").write_text(proc.stdout, encoding="utf-8")
    (pass_dir / "stderr.txt").write_text(proc.stderr, encoding="utf-8")
    if proc.returncode != 0 or not result_path.exists():
        tail = proc.stderr.strip().splitlines()[-3:]
        return None, f"workload process exited {proc.returncode}: {' | '.join(tail)}"
    return json.loads(result_path.read_text(encoding="utf-8")), ""


def measure(workload: str, root_seed: int, seconds: float, trace: bool) -> dict:
    seed = wl.workload_seed(workload, root_seed)
    run_dir = OUT / f"{workload}-{root_seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    specs_dir = run_dir / "specs"
    _write_specs(workload, specs_dir)
    labels = [label for label, _ in wl.WORKLOADS[workload]]
    per_pass_ops = wl.operations(workload)

    passes, problems = [], []
    attempted = failed = 0
    start = time.monotonic()
    while True:
        index = len(passes)
        traced = trace and index % 2 == 1
        pass_dir = run_dir / f"pass{index}"
        result, error = run_pass(specs_dir, pass_dir, seed, traced)
        attempted += per_pass_ops
        if result is None:
            failed += per_pass_ops
            problems.append(f"pass {index}: {error}")
        else:
            bad, found = checks.check_pass(workload, result)
            failed += bad
            problems += [f"pass {index}: {p}" for p in found]
            problems += [f"pass {index}: {p}" for p in _compare_csv(run_dir, index, labels)]
            m = result["metrics"]
            print(f"pass {index}{' (traced)' if traced else ''}: "
                  + " ".join(f"{k}={v:.4g}" for k, v in m.items()), flush=True)
        passes.append((traced, result))
        done = len(passes) >= 2 and time.monotonic() - start >= seconds
        if done and not (trace and len(passes) % 2):
            break
    setups = [r["metrics"]["setup_s"] for t, r in passes if r is not None and not t]
    for probe in range(0 if trace else SETUP_PROBES):
        result, error = run_pass(specs_dir, run_dir / f"setup{probe}", seed, False, True)
        if result is None:
            problems.append(f"setup probe {probe}: {error}")
        else:
            setups.append(result["metrics"]["setup_s"])
    return {"seed": seed, "passes": passes, "problems": problems, "setups": setups,
            "attempted": attempted, "failed": failed}


def _compare_csv(run_dir: Path, index: int, labels: list[str]) -> list[str]:
    """runs.csv of pass ``index`` against pass 0, wall_ms dropped."""
    if index == 0:
        return []
    out = []
    for label in labels:
        first = run_dir / "pass0" / label / "runs.csv"
        this = run_dir / f"pass{index}" / label / "runs.csv"
        if not (first.exists() and this.exists()):
            out.append(f"{label}: runs.csv missing")
        elif checks.read_runs_csv(first) != checks.read_runs_csv(this):
            out.append(f"{label}: runs.csv differs from pass 0 beyond wall_ms")
    return out


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(run: dict) -> dict[str, float]:
    results = [r for traced, r in run["passes"] if r is not None and not traced]
    names = results[0]["metrics"] if results else {}
    out = {name: _median([r["metrics"][name] for r in results]) for name in names}
    out["setup_s"] = _median(run["setups"])
    return out


def layer_metrics(passes) -> dict[str, float]:
    traced = [r for t, r in passes if r is not None and t]
    plain = [r for t, r in passes if r is not None and not t]
    if not traced:
        return {}
    out = {name: _median([r["layers"][name] for r in traced])
           for name in traced[0]["layers"] if name not in ("cli_s", "covered_s")}
    wall_traced = _median([r["metrics"]["wall_s"] for r in traced])
    wall_plain = _median([r["metrics"]["wall_s"] for r in plain])
    out["trace.overhead_s"] = wall_traced - wall_plain
    out["trace.covered_share"] = _median(
        [r["layers"]["covered_s"] / r["layers"]["cli_s"] for r in traced])
    return out


def main(argv=None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_ROOT_SEED)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="RUNS")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hiergames" / "__init__.py").is_file():
        print(f"error: no hiergames sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.steady is not None:
        import steady

        return steady.main(bench, args.workload or names, args.seed, args.steady)
    if not args.workload or len(args.workload) != 1:
        parser.error("give exactly one --workload")
    workload = args.workload[0]

    run = measure(workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        wanted = bench["per_layer"]
        values = layer_metrics(run["passes"])
        TRACE_OUT.mkdir(exist_ok=True)
        trace_file = TRACE_OUT / f"{workload}-{args.seed}.json"
        trace_file.write_text(json.dumps(
            {"workload": workload, "seed": args.seed, "metrics": values,
             "self_s": [r["layer_self_s"] for t, r in run["passes"] if t and r is not None]},
            indent=2), encoding="utf-8")
    else:
        wanted = bench["end_to_end"]
        values = end_to_end_metrics(run)
    metrics = {}
    for m in wanted:
        value = values.get(m["name"])
        if value is None:
            run["problems"].append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']}: {value:.6g} {m['unit']}")
    for p in run["problems"]:
        print(f"CHECK FAILED: {p}")
    correct = not run["problems"]
    print(f"workload {workload}, seed {args.seed} (runs with --seed {run['seed']}): "
          f"{len(run['passes'])} passes, {run['attempted']} operations, "
          f"{run['failed']} failed, {'correct' if correct else 'NOT correct'}")
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
