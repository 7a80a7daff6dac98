"""Reference solutions computed apart from ``hiergames``.

Nothing here imports the package under test: each function takes the
instance parameters as plain arrays and solves the mean game by its own
method, so a benchmark check that compares solver output against these
values is not comparing the program with itself.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq, minimize

INTERACTION_WEIGHT = 3.0  # w in the bilevel objective d x^2/2 + w x sum(x) + a max(...)


def geometric_base_budget(base_num: int, base_den: int, outer_iters: int, floor: int) -> int:
    """Samples spent by VR-SPP with N_k = max(floor, floor(r^(k+1))), r = num/den,
    summed over k < outer_iters in exact integer arithmetic."""
    return sum(
        max(floor, base_num ** (k + 1) // base_den ** (k + 1)) for k in range(outer_iters)
    )


def cournot_equilibrium(
    leader_costs, follower_costs, demand_slope: float, a_lo: float, a_hi: float
) -> np.ndarray:
    """Closed-form equilibrium of the mean leader game, always-active regime.

    When b * X < a_lo every follower is active under every intercept draw,
    so the mean operator is affine: (C_i + (1 + dY/dX) b) x_i = P with
    P = abar / (1 + b s + b sum_i 1 / (C_i + (1 + dY/dX) b)),
    s = sum_j 1 / (c_j + b) and dY/dX = -b s / (1 + b s).  Raises
    ValueError when the solution leaves that regime, where the formula
    does not hold.
    """
    costs = np.asarray(leader_costs, dtype=float)
    b = float(demand_slope)
    s = float(np.sum(1.0 / (np.asarray(follower_costs, dtype=float) + b)))
    dy_dx = -b * s / (1.0 + b * s)
    coef = costs + (1.0 + dy_dx) * b
    a_bar = 0.5 * (a_lo + a_hi)
    price = a_bar / (1.0 + b * s + b * float(np.sum(1.0 / coef)))
    x = price / coef
    if not b * float(x.sum()) < a_lo:
        raise ValueError("equilibrium leaves the always-active regime: b * sum(x) >= a_lo")
    return x


def bilevel_linear_equilibrium(curvature, bound_slope, a_lo: float, a_hi: float) -> np.ndarray:
    """Equilibrium of the coincident-slope bilevel game, where the lower
    level is linear: solve (d_i + w) x_i + w sum_j x_j = -abar * l_i."""
    d = np.asarray(curvature, dtype=float)
    n = d.size
    w = INTERACTION_WEIGHT
    mat = np.diag(d + w) + w * np.ones((n, n))
    rhs = -0.5 * (a_lo + a_hi) * np.asarray(bound_slope, dtype=float)
    return np.linalg.solve(mat, rhs)


def bilevel_potential_minimiser(
    curvature, kink_slope, bound_slope, a_lo: float, a_hi: float
) -> np.ndarray:
    """Minimiser of the mean potential of the kinked bilevel game,

        sum_i d_i x_i^2 / 2 + w (sum x)^2 / 2 + w |x|^2 / 2
            + abar sum_i max(beta_i x_i, l_i x_i),

    which is convex, so its minimiser is the Nash equilibrium.  Every kink
    sits at x_i = 0, where the subdifferential of the last term is
    abar [lo_i, hi_i] (lo, hi the smaller and larger slope).  For a fixed
    total S = sum x the optimality condition (d_i + w) x_i + w S + abar g_i = 0
    has the soft-threshold solution x_i(S) below, and S - sum_i x_i(S) is
    strictly increasing, so a scalar root find gives the exact minimiser.
    """
    d = np.asarray(curvature, dtype=float)
    beta = np.asarray(kink_slope, dtype=float)
    lam = np.asarray(bound_slope, dtype=float)
    hi, lo = np.maximum(beta, lam), np.minimum(beta, lam)
    a_bar = 0.5 * (a_lo + a_hi)
    w = INTERACTION_WEIGHT

    def x_of(total):
        pull = -w * total
        return np.where(pull > a_bar * hi, (pull - a_bar * hi) / (d + w),
                        np.where(pull < a_bar * lo, (pull - a_bar * lo) / (d + w), 0.0))

    def gap(total):
        return total - float(np.sum(x_of(total)))

    span = 1.0
    while gap(-span) > 0 or gap(span) < 0:
        span *= 2.0
    total = brentq(gap, -span, span, xtol=1e-15, rtol=4 * np.finfo(float).eps, maxiter=500)
    return x_of(total)


def bilevel_potential_split(curvature, kink_slope, bound_slope, a_lo, a_hi) -> np.ndarray:
    """The same minimiser by bound-constrained minimisation on the split
    x = p - n, p, n >= 0, where max(beta x, l x) = hi p - lo n is smooth.
    Slower and less exact than the root find; kept as its cross-check."""
    d = np.asarray(curvature, dtype=float)
    hi = np.maximum(kink_slope, bound_slope)
    lo = np.minimum(kink_slope, bound_slope)
    a_bar = 0.5 * (a_lo + a_hi)
    w = INTERACTION_WEIGHT
    n = d.size

    def fun(z):
        p, m = z[:n], z[n:]
        x = p - m
        total = float(x.sum())
        value = 0.5 * float(d @ x**2) + 0.5 * w * total**2 + 0.5 * w * float(x @ x)
        value += a_bar * float(hi @ p - lo @ m)
        grad_x = d * x + w * total + w * x
        return value, np.concatenate([grad_x + a_bar * hi, -grad_x - a_bar * lo])

    res = minimize(fun, np.zeros(2 * n), jac=True, method="L-BFGS-B",
                   bounds=[(0.0, None)] * (2 * n),
                   options={"maxiter": 10_000, "ftol": 1e-15, "gtol": 1e-12})
    return res.x[:n] - res.x[n:]


def loglog_slope(ks, values) -> float:
    """Least-squares slope of log(values) against log(ks)."""
    ks = np.asarray(ks, dtype=float)
    values = np.asarray(values, dtype=float)
    if np.any(values <= 0) or not np.all(np.isfinite(values)):
        return math.nan
    return float(np.polyfit(np.log(ks), np.log(values), 1)[0])
