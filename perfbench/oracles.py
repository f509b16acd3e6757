"""Reference values the benchmark checks hermkit's outputs against.

Everything here is computed from closed forms with numpy/scipy alone, never
through hermkit, so a wrong constant inside the package cannot also move its
reference.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import beta as beta_fn


def kernel_norm_sq(hurst: float, order: int) -> float:
    """||K_1||^2 = B(1+g, -1-2g)^k / (H(2H-1)), g = (H-1)/k - 1/2, any k."""
    g = (hurst - 1.0) / order - 0.5
    return beta_fn(1.0 + g, -1.0 - 2.0 * g) ** order / (hurst * (2.0 * hurst - 1.0))


def d_const(hurst: float, order: int) -> float:
    """D = ||K_1|| / sqrt(k!)."""
    return math.sqrt(kernel_norm_sq(hurst, order) / math.factorial(order))


def c_norm(hurst: float, order: int) -> float:
    """C = (sqrt(k!) ||K_1||)^(-1)."""
    return 1.0 / math.sqrt(math.factorial(order) * kernel_norm_sq(hurst, order))


def basic_rate(kind: str, params, t):
    """A basic rate evaluated independently of ``hermkit.BasicRate``."""
    t = np.asarray(t, dtype=float)
    if kind == "constant":
        return np.full_like(t, params[0])
    if kind == "polynomial":
        return sum(c * t**j for j, c in enumerate(params))
    times, values = params
    return np.interp(t, times, values)


def cumulative(hurst: float, order: int, kind: str, params, t):
    """Cumulative rate D * r(t) * t^(2H)."""
    t = np.asarray(t, dtype=float)
    return d_const(hurst, order) * basic_rate(kind, params, t) * t ** (2.0 * hurst)


def instantaneous_constant(hurst: float, order: int, r: float, t):
    """d/dt of D r t^(2H) for a constant basic rate."""
    t = np.asarray(t, dtype=float)
    return d_const(hurst, order) * r * 2.0 * hurst * t ** (2.0 * hurst - 1.0)


def regime_exponent(hurst: float, order: int) -> float:
    """Limit growth exponent of the QV scale delta^(N) in N.

    1/2 for order 1 with H <= 3/4, 2H - 1 for order 1 above, and
    1 - 2(1-H)/k for orders k > 1.
    """
    if order == 1:
        return 0.5 if hurst <= 0.75 else 2.0 * hurst - 1.0
    return 1.0 - 2.0 * (1.0 - hurst) / order


def slope_z(blocks, deltas, errors, target: float) -> tuple[float, float, float]:
    """Least-squares slope of log delta on log N, its standard error and z.

    The standard error propagates each cell's delta standard error through
    the log (se(log d) = se(d)/d) and the fixed least-squares weights.
    """
    x = np.log(np.asarray(blocks, dtype=float))
    y = np.log(np.asarray(deltas, dtype=float))
    slope = float(np.polyfit(x, y, 1)[0])
    w = (x - x.mean()) / float(((x - x.mean()) ** 2).sum())
    rel = np.asarray(errors, dtype=float) / np.asarray(deltas, dtype=float)
    se = float(math.sqrt(float(((w * rel) ** 2).sum())))
    return slope, se, (slope - target) / se


def hurst_regression(values, scales) -> float:
    """Increment-variance Hurst estimate: half the log-log slope."""
    x = np.asarray(values, dtype=float)
    log_s = [math.log(s) for s in scales]
    log_v = [math.log(float(np.mean((x[s:] - x[:-s]) ** 2))) for s in scales]
    return float(np.polyfit(log_s, log_v, 1)[0]) / 2.0


def rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)
