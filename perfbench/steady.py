"""Steadiness mode of the benchmark command (``run.py --steady RUNS``).

Runs ``RUNS`` measurements of each workload in each of two sets, each
measurement a fresh ``run.py --workload W --seed S --trace 0`` with its own
seed (set k, run i uses root seed + k * RUNS + i, so a later check can start
from a seed no earlier run used).  Measurements interleave the workloads so
that drift in the machine's load reaches all of them alike.

For every workload, set and end-to-end metric it reports the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
quartile distance as a share of the median.  It then checks that the two
sets agree:

* each spread is within the metric's bound (and flags spreads above a
  third of it as not steady);
* the second set's median differs from the first set's, in either
  direction, by at most the bound;
* the share of failed operations is identical in both sets, and every
  measurement reported correct outputs.

The summary goes to standard output and ``perfbench/out/steady-<seed>.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MEASURE_TIMEOUT_S = 600
SETS = 2


def _measure(workload: str, seed: int, seconds) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=MEASURE_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("inf"),
            "values": values}


def drift(first: float, later: float) -> float:
    """Signed change of ``later`` against ``first``, as a share of ``first``."""
    return (later - first) / first if first else float("inf")


def main(bench: dict, workloads: list[str], root_seed: int, runs: int) -> int:
    if runs < 2:
        print("error: --steady needs at least 2 runs", file=sys.stderr)
        return 2
    metrics = bench["end_to_end"]
    seconds = bench["run_seconds"]
    raw: dict[str, list[list[dict]]] = {w: [[] for _ in range(SETS)] for w in workloads}
    started = time.monotonic()
    for k in range(SETS):
        for i in range(runs):
            seed = root_seed + k * runs + i
            for w in workloads:
                res = _measure(w, seed, seconds)
                raw[w][k].append(res)
                print(f"set {k} run {i} {w} seed {seed}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} "
                      + " ".join(f"{n}={m['value']:.4g}" for n, m in res["metrics"].items())
                      + f" [{time.monotonic() - started:.0f} s]", flush=True)

    ok = True
    report: dict[str, dict] = {}
    for w in workloads:
        entry: dict = {"sets": []}
        shares = []
        for k in range(SETS):
            results = raw[w][k]
            shares.append(sum(r["failed"] for r in results) / sum(r["attempted"] for r in results))
            entry["sets"].append({
                m["name"]: summarise([r["metrics"][m["name"]]["value"] for r in results])
                for m in metrics
            })
            if not all(r["correct"] for r in results):
                ok = False
                print(f"{w}: set {k} has a measurement with incorrect outputs")
        entry["failed_share"] = shares
        if len(set(shares)) != 1:
            ok = False
            print(f"{w}: failed share differs between sets: {shares}")
        print(f"\n{w}")
        print(f"  {'metric':<22}{'set':>4}{'median':>13}{'q1':>13}{'q3':>13}{'spread':>9}"
              f"{'bound':>8}{'vs set 0':>10}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            first = entry["sets"][0][name]["median"]
            for k in range(SETS):
                s = entry["sets"][k][name]
                verdict = []
                if s["spread"] > bound:
                    verdict.append("SPREAD ABOVE BOUND")
                    ok = False
                elif s["spread"] >= bound / 3:
                    verdict.append("not steady (spread >= bound/3)")
                change = drift(first, s["median"]) if k else 0.0
                if abs(change) > bound:
                    verdict.append("DIFFERS FROM SET 0 BY MORE THAN BOUND")
                    ok = False
                print(f"  {name:<22}{k:>4}{s['median']:>13.5g}{s['q1']:>13.5g}{s['q3']:>13.5g}"
                      f"{s['spread']:>9.2%}{bound:>8.0%}{change:>+10.2%}  "
                      f"{'; '.join(verdict) or 'ok'}")
        report[w] = entry
    out = HERE / "out" / f"steady-{root_seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"root_seed": root_seed, "runs": runs, "sets": SETS,
                               "ok": ok, "workloads": report}, indent=2), encoding="utf-8")
    print(f"\n{'ALL WITHIN BOUNDS' if ok else 'OUTSIDE BOUNDS'}; summary in {out}")
    return 0 if ok else 1
