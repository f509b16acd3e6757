"""Hermite moving-average kernel: evaluation, L2 norms, normalizing constants.

The order-``k`` kernel with Hurst index ``H`` in (1/2, 1) is the time integral

    K_t(v) = integral_0^t  prod_j (s - v_j)_+^gamma  ds,
    gamma = (H - 1)/k - 1/2  in (-1, -1/2),

over coordinates ``v`` in R^k.  Driving k-fold white-noise integrals with this
kernel produces the Hermite motion family: k=1 gives fractional Brownian
motion, k=2 the Rosenblatt process.  Everything downstream (simulation
normalizers, fractional rates, pricing constants) consumes the three numbers
bundled in :class:`KernelConstants`:

* ``c_norm``  — the constant C making the process variance one at t=1,
  i.e. C = (sqrt(k!) * ||K_1||)^(-1);
* ``l2_norm_at_1`` — the L2 norm ||K_1|| itself;
* ``d_const`` — D = ||K_1|| / sqrt(k!) = C * ||K_1||^2, the factor that turns
  a basic rate r(t) into the cumulative fractional rate D * r(t) * t^(2H).

All three are exact for every order.  The beta-integral identity
``integral (s-y)_+^g (s'-y)_+^g dy = B(1+g, -1-2g) |s-s'|^(1+2g)``, applied
to each of the k factors and then integrated over [0, t]^2, gives

    ||K_t||^2 = B(1+gamma, -1-2gamma)^k * t^(2H) / (H(2H-1))

(Maejima & Tudor 2007).  For large k (or H very close to 1) this exceeds the
double range, and the constants raise OverflowError rather than return inf.
The independent reference route for the identity, an adaptive quadrature of
the order-1 norm, lives with the tests (``tests/kernel_quadrature.py``).

Pointwise values K_t(v) take one route for every order, described at
:func:`eval_kernel`.  Nothing in this module needs scipy.

Beware that several other normalization conventions circulate for the same
processes (for k=1 the two-sided moving-average kernel
``(t-v)_+^(H-1/2) - (-v)_+^(H-1/2)`` is common and differs from the kernel
here by the factor H - 1/2); constants quoted for those conventions are not
interchangeable with ``c_norm``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np


def _is_integer(x) -> bool:
    """True for Python and numpy integers, False for bools and all else."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _integer(value, name: str, low: int | None = None) -> int:
    """``value`` as an int: the one integer rule of every layer.

    Raises ValueError naming it unless :func:`_is_integer`, or if it is
    below ``low``.  Integral floats are not integers here.
    """
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer; got {value!r}")
    value = int(value)
    if low is not None and value < low:
        raise ValueError(f"{name} must be at least {low}; got {value}")
    return value


@dataclass(frozen=True)
class HermiteSpec:
    """Parameter pair (Hurst index, Hermite order) of a Hermite motion.

    ``hurst`` must lie strictly inside (1/2, 1); the boundary values are
    rejected because the kernel exponent degenerates there.  ``order`` is the
    number of white-noise factors: 1 for fractional Brownian motion, 2 for
    the Rosenblatt process, and so on; a Python or numpy integer >= 1
    (:func:`_integer`: a bool or an integral float is not an order).
    """

    hurst: float
    order: int

    def __post_init__(self) -> None:
        h = float(self.hurst)
        if not (0.5 < h < 1.0):
            raise ValueError(
                f"hurst must lie strictly in (0.5, 1); got {self.hurst!r}"
            )
        object.__setattr__(self, "hurst", h)
        object.__setattr__(self, "order", _integer(self.order, "order", 1))

    @property
    def gamma(self) -> float:
        """Kernel exponent (H - 1)/k - 1/2, always in (-1, -1/2)."""
        return (self.hurst - 1.0) / self.order - 0.5

    @property
    def hurst_prime(self) -> float:
        """Hurst index 1 + (H - 1)/k of the Gaussian sequence whose order-k
        Hermite transform has partial sums converging to this motion."""
        return 1.0 + (self.hurst - 1.0) / self.order


class QuadResult(NamedTuple):
    value: float
    error: float


@dataclass(frozen=True)
class KernelConstants:
    """The exact constants (C, D, ||K_1||).

    Invariants: c_norm * sqrt(k!) * l2_norm_at_1 = 1 and
    d_const = l2_norm_at_1 / sqrt(k!).
    """

    c_norm: float
    d_const: float
    l2_norm_at_1: float


# eval_kernel's fixed rule: _NODES-point Gauss-Legendre on panels at most
# _PANEL wide in u = log(s - m), starting _TAIL below the smallest scale.
_NODES = 16
_PANEL = 2.0
_TAIL = 40.0


@lru_cache(maxsize=1)
def _gauss_rule() -> tuple[np.ndarray, np.ndarray]:
    # Built on first use: importing numpy.polynomial takes about 4 ms
    # (python -X importtime), paid by every cold start of the command line,
    # which never evaluates the kernel.
    return np.polynomial.legendre.leggauss(_NODES)


def _check_coords(spec: HermiteSpec, v) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.ndim != 1 or arr.size != spec.order:
        raise ValueError(
            f"coordinate vector has length {arr.size}, expected {spec.order}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"coordinates must be finite; got {arr.tolist()}")
    return arr


def eval_kernel(spec: HermiteSpec, t: float, v) -> float:
    """Evaluate K_t(v) = integral_0^t prod_j (s - v_j)_+^gamma ds.

    One route serves every order.  With m the largest coordinate and
    delta_j = m - v_j for the others, the substitution s = m + e^u turns the
    integrand into

        exp((1 + gamma) u + gamma * sum_j logaddexp(u, log delta_j)),

    which absorbs the power singularity at s = m and is analytic in the strip
    |Im u| < pi: each logaddexp is singular only where e^u = -delta_j.  On
    panels at most 2 wide that strip is far enough away for a fixed 16-point
    Gauss-Legendre rule to be exact to rounding, however close the
    coordinates lie to each other.  The u-range runs up to log(t - m) from
    log(-m) when m < 0 (its length log1p(t / -m) stays exact for t far
    below -m); when m >= 0 it starts 40 below the smallest of
    log delta_j and log(t - m), and the part beneath has the closed form
    prod_j delta_j^gamma * e^((1 + gamma) u) / (1 + gamma), exact at k = 1
    and exact to rounding otherwise.

    The value is symmetric under permutations of ``v`` (coordinates are
    canonically sorted first, so equality is exact) and finite for
    almost-every ``v``.  When two or more coordinates tie for the maximum
    inside [0, t) the defining integral diverges and ``inf`` is returned;
    such inputs form a measure-zero set that integrating callers may ignore.
    Raises ValueError for a negative or non-finite ``t`` or a non-finite
    coordinate.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be nonnegative and finite; got {t}")
    # Canonical descending order makes the result exactly permutation-invariant.
    coords = np.sort(_check_coords(spec, v))[::-1]
    g = spec.gamma
    p = 1.0 + g
    m = coords[0]
    if max(m, 0.0) >= t:
        return 0.0
    delta = m - coords[1:]
    if m >= 0 and np.any(delta == 0):
        # Tied maximum inside the integration range: the local factor
        # (s-m)^(k*gamma) has k*gamma <= 2*gamma < -1, not integrable.  A tie
        # strictly below zero is harmless because integration starts at 0.
        return math.inf
    with np.errstate(divide="ignore"):  # a tie below zero has log delta = -inf
        log_delta = np.log(delta)
    if m < 0:
        # The span log((t - m) / -m) without forming t - m, which cancels for
        # t far below -m (down to an empty span) and may overflow; t / -m
        # may overflow too, so above -m the span is split at log(t).
        start, tail = math.log(-m), 0.0
        if t < -m:
            span = math.log1p(t / -m)
        else:
            span = math.log(t) - start + math.log1p(-m / t)
    else:
        stop = math.log(t - m)
        start = log_delta.min(initial=stop) - _TAIL
        span = stop - start
        tail = math.exp(p * start + g * log_delta.sum()) / p
    n = max(1, math.ceil(span / _PANEL))
    width = span / n
    x, w = _gauss_rule()
    u = start + width * (np.arange(n)[:, None] + 0.5 * (x + 1.0))
    log_f = p * u + g * np.logaddexp(u[..., None], log_delta).sum(axis=-1)
    return tail + 0.5 * width * float(np.exp(log_f).sum(axis=0) @ w)


def eval_kernel_batch(spec: HermiteSpec, t: float, coords: np.ndarray) -> np.ndarray:
    """K_t over the rows of ``coords`` (shape (n, order)), one
    :func:`eval_kernel` call per row."""
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[1] != spec.order:
        raise ValueError(
            f"coords must have shape (n, {spec.order}); got {coords.shape}"
        )
    return np.array([eval_kernel(spec, t, row) for row in coords])


@lru_cache(maxsize=256)
def _constants(spec: HermiteSpec) -> KernelConstants:
    """(C, D, ||K_1||) from ||K_1||^2 = B(1+gamma, -1-2gamma)^k / (H(2H-1)).

    The one home of the kernel constants; cached, so the rate code's many
    ``d_constant`` calls are dictionary lookups.  Raises OverflowError when
    ||K_1||^2 is not a finite double (large k, or H very close to 1).  A
    finite ||K_1||^2 implies k < 144, because B(a, b) > 1/b = k/(2(1-H)) > k,
    so sqrt(k!) below never overflows.

    B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b) needs no sign handling: every
    admissible spec has a = 1 + gamma in (0, 1/2) and b = 2(1-H)/k in
    (0, 1/k), so all three gammas are of positive arguments below 1.
    """
    h, k, g = spec.hurst, spec.order, spec.gamma
    a, b = 1.0 + g, -1.0 - 2.0 * g
    try:
        beta = math.gamma(a) * math.gamma(b) / math.gamma(a + b)
        norm_sq = beta**k / (h * (2.0 * h - 1.0))
    except OverflowError:
        norm_sq = math.inf
    if not math.isfinite(norm_sq):
        raise OverflowError(
            f"||K_1||^2 is not a finite double for hurst={h}, order={k}"
        )
    l2 = math.sqrt(norm_sq)
    sqrt_fact = math.sqrt(math.factorial(k))
    return KernelConstants(
        c_norm=1.0 / (sqrt_fact * l2),
        d_const=l2 / sqrt_fact,
        l2_norm_at_1=l2,
    )


def kernel_l2_norm_sq(spec: HermiteSpec, t: float) -> float:
    """Squared L2 norm ||K_t||^2 = ||K_1||^2 * t^(2H) over R^order, exact for
    every order.  Raises OverflowError when the value is not a finite double.
    """
    if not 0.0 < t < math.inf:
        raise ValueError(f"t must be positive and finite; got {t}")
    norm_sq_at_1 = _constants(spec).l2_norm_at_1 ** 2
    try:
        value = norm_sq_at_1 * t ** (2.0 * spec.hurst)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise OverflowError(
            f"||K_t||^2 at t={t} is not a finite double for hurst={spec.hurst}, "
            f"order={spec.order}"
        )
    return value


def d_constant(spec: HermiteSpec) -> float:
    """The rate multiplier D = ||K_1|| / sqrt(k!) = 1/(k! * C)."""
    return _constants(spec).d_const


def normalizing_constant(spec: HermiteSpec) -> KernelConstants:
    """Return (C, D, ||K_1||) for the spec, exact for every order.

    All three come from the beta identity for ||K_1||^2 (see the module
    docstring).  Raises OverflowError when ||K_1||^2 is not a finite double.
    """
    return _constants(spec)


def covariance(spec: HermiteSpec, s, t):
    """Covariance (t^(2H) + s^(2H) - |t-s|^(2H)) / 2 of the unit-variance motion.

    Accepts scalars or arrays (broadcasting); symmetric in (s, t), equals
    t^(2H) on the diagonal and 0 whenever either argument is 0.  Raises
    ValueError on a negative or non-finite time.
    """
    s_arr = np.asarray(s, dtype=float)
    t_arr = np.asarray(t, dtype=float)
    for name, arr in (("s", s_arr), ("t", t_arr)):
        bad = arr[~((arr >= 0) & (arr < np.inf))]
        if bad.size:
            raise ValueError(
                f"covariance requires nonnegative finite times; got {name}={bad[0]}"
            )
    h2 = 2.0 * spec.hurst
    out = 0.5 * (t_arr**h2 + s_arr**h2 - np.abs(t_arr - s_arr) ** h2)
    if np.isscalar(s) and np.isscalar(t):
        return float(out)
    return out
