"""Correctness checks on one workload pass.

Each check compares what ``hiergames run`` produced against a computation
made in :mod:`reference` (which does not import the package), or against a
property the method must have.  None compares against stored output.
``check_pass`` returns the failed operations and a list of failed checks
(empty when every check holds).
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

import reference as ref
import workloads as wl

CAP_TOLERANCE = 1e-9  # on x_i - cap, the exact mean of the zero-mean constraint noise
BR_RESIDUAL_MAX = 5e-3
# Smoothing moves the equilibrium of a player at its kink by up to eta, and
# the others through the coupling term; the kinked runs must end within
# one radius of the unsmoothed minimiser (Euclidean norm over all players).
KINK_DISTANCE_ETAS = 1.0
COINCIDENT_DISTANCE_MAX = 1e-2
MIN_RATE_SLOPE = -1.0  # squared residual decays at least like 1/k


def _op_failed(op: dict) -> bool:
    return (
        "total_samples" not in op
        or not op["residuals"]
        or any(not math.isfinite(v) for _, v, _ in op["residuals"])
    )


def _ops_by_label(result: dict) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for op in result["ops"]:
        out.setdefault(op["label"], []).append(op)
    return out


def vrspp_budget(outer_iters: int, schedule: dict, floor: int) -> int:
    """Samples VR-SPP spends, recomputed from the schedule's definition for
    the two schedules the workloads use."""
    if schedule == {"kind": "geometric-base", "param": 1.1}:
        return ref.geometric_base_budget(11, 10, outer_iters, floor)
    if schedule == {"kind": "polynomial", "param": 1.5}:  # N_k = (k+1)^3
        return sum(max(floor, (k + 1) ** 3) for k in range(outer_iters))
    raise ValueError(f"no exact budget for schedule {schedule}")


def arspbr_budget(outer_iters: int, batch_base: float) -> int:
    """Function evaluations ARSPBR spends: T_k = max(1, ceil(1.5 ln k))
    inner steps at step k, batch N_t = ceil(base^(t+1)) rounded up to
    whole antithetic pairs."""
    total = 0
    for k in range(1, outer_iters + 1):
        steps = max(1, math.ceil(1.5 * math.log(k)))
        for t in range(steps):
            batch = math.ceil(batch_base ** (t + 1))
            total += 2 * ((batch + 1) // 2)
    return total


def read_runs_csv(path: Path) -> list[list[str]]:
    """runs.csv rows with the wall_ms column dropped."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    idx = rows[0].index("wall_ms")
    return [r[:idx] + r[idx + 1:] for r in rows]


def check_pass(workload: str, result: dict) -> tuple[int, list[str]]:
    """(number of failed operations, failed checks) for one pass."""
    specs = dict(wl.WORKLOADS[workload])
    by_label = _ops_by_label(result)
    problems: list[str] = []
    failed = 0
    for label, spec in specs.items():
        ops = by_label.get(label, [])
        expected = len(spec["seeds"])
        bad = sum(_op_failed(op) for op in ops)
        failed += bad + max(0, expected - len(ops))
        if len(ops) != expected:
            problems.append(f"{label}: {len(ops)} runs, expected {expected}")
    if failed:
        return failed, problems  # the output checks need every run's output
    check = {
        "market-monotone": _check_market,
        "market-rate-trace": _check_rate,
        "bilevel-potential": _check_bilevel,
    }[workload]
    problems += check(specs, by_label)
    return failed, problems


def _check_budget(problems, label, spec, ops):
    solver = spec["solver"]
    if solver["kind"] == "vr-spp":
        want = vrspp_budget(spec["budget"]["outer_iters"], solver["schedule"],
                            solver.get("min_inner_steps", 10))
    elif solver["kind"] == "sg":
        want = spec["budget"]["total_iters"]
    else:
        want = arspbr_budget(spec["budget"]["outer_iters"], solver["smoothing"]["batch_base"])
    for op in ops:
        if op["total_samples"] != want:
            problems.append(f"{label}: spent {op['total_samples']} samples, expected {want}")


def _check_market(specs, by_label) -> list[str]:
    problems: list[str] = []
    dist = {"vr-spp": [], "sg": []}
    residual = {"vr-spp": [], "sg": []}
    for label, spec in specs.items():
        ops = by_label[label]
        _check_budget(problems, label, spec, ops)
        if spec["solver"]["kind"] == "sg" and spec["budget"]["total_iters"] != wl.MATCHED_BUDGET:
            problems.append(f"{label}: SG budget is not the matched budget")
        kind = spec["solver"]["kind"]
        for op in ops:
            p = op["params"]
            star = ref.cournot_equilibrium(
                p["leader_costs"], p["follower_costs"], p["demand_slope"], p["a_lo"], p["a_hi"])
            z = np.asarray(op["final_iterate"])
            n = star.size
            if "caps" in p:
                caps = np.asarray(p["caps"])
                if np.any(star >= caps):
                    problems.append(f"{label}: a cap binds; the closed form does not apply")
                    continue
                if np.any(z < 0):
                    problems.append(f"{label}: negative entry in the final primal-dual iterate")
                worst = float(np.max(z[:n] - caps))
                if worst > CAP_TOLERANCE:
                    problems.append(f"{label}: mean constraint x_i - cap = {worst:.3e} > 0")
                star = np.concatenate([star, np.zeros(n)])  # caps slack: zero multipliers
            elif np.any(z < 0):
                problems.append(f"{label}: negative entry in the final iterate")
            dist[kind].append(float(np.linalg.norm(z - star)))
            residual[kind].append(op["residuals"][-1][1])
    vr_d, sg_d = np.mean(dist["vr-spp"]), np.mean(dist["sg"])
    if not vr_d < sg_d:
        problems.append(f"VR-SPP mean distance {vr_d:.3e} not below SG's {sg_d:.3e}")
    vr_r, sg_r = np.mean(residual["vr-spp"]), np.mean(residual["sg"])
    if not vr_r < sg_r:
        problems.append(f"VR-SPP mean Yosida residual {vr_r:.3e} not below SG's {sg_r:.3e}")
    return problems


def _check_rate(specs, by_label) -> list[str]:
    problems: list[str] = []
    for label, spec in specs.items():
        ops = by_label[label]
        _check_budget(problems, label, spec, ops)
        outer = spec["budget"]["outer_iters"]
        for op in ops:
            ks = [k for k, _, _ in op["residuals"]]
            if ks != list(range(outer + 1)):
                problems.append(f"{label}: residual recorded at {ks[:5]}..., expected every step")
                continue
            # A bias-corrected estimate clipped to zero is statistically zero
            # and has no logarithm; fit the points above it.
            pts = [(k, v * v) for k, v, _ in op["residuals"] if k >= 1 and v > 0]
            if len(pts) < 2:
                problems.append(f"{label}: {len(pts)} positive residuals, too few to fit a slope")
                continue
            slope = ref.loglog_slope([k for k, _ in pts], [v for _, v in pts])
            if not slope <= MIN_RATE_SLOPE:
                problems.append(f"{label}: log-log slope of squared residual {slope:.2f} "
                                f"> {MIN_RATE_SLOPE}")
    return problems


def _check_bilevel(specs, by_label) -> list[str]:
    problems: list[str] = []
    for label, spec in specs.items():
        ops = by_label[label]
        _check_budget(problems, label, spec, ops)
        eta = spec["solver"]["smoothing"]["eta"]
        for op in ops:
            p = op["params"]
            x = np.asarray(op["final_iterate"])
            if spec["game"].get("coincident"):
                star = ref.bilevel_linear_equilibrium(
                    p["curvature"], p["bound_slope"], p["a_lo"], p["a_hi"])
                d = float(np.linalg.norm(x - star))
                if not d <= COINCIDENT_DISTANCE_MAX:
                    problems.append(f"{label}: distance to the linear-solve equilibrium "
                                    f"{d:.3e} > {COINCIDENT_DISTANCE_MAX}")
                continue
            star = ref.bilevel_potential_minimiser(
                p["curvature"], p["kink_slopes"], p["bound_slope"], p["a_lo"], p["a_hi"])
            d = float(np.linalg.norm(x - star))
            if not d <= KINK_DISTANCE_ETAS * eta:
                problems.append(f"{label}: distance to the potential minimiser {d:.3e} "
                                f"> {KINK_DISTANCE_ETAS:g} eta")
            final = op["residuals"][-1][1]
            if not final <= BR_RESIDUAL_MAX:
                problems.append(f"{label}: final best-response residual {final:.3e} "
                                f"> {BR_RESIDUAL_MAX}")
    return problems
