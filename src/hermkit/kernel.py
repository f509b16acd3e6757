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


@dataclass(frozen=True)
class HermiteSpec:
    """Parameter pair (Hurst index, Hermite order) of a Hermite motion.

    ``hurst`` must lie strictly inside (1/2, 1); the boundary values are
    rejected because the kernel exponent degenerates there.  ``order`` is the
    number of white-noise factors: 1 for fractional Brownian motion, 2 for
    the Rosenblatt process, and so on.
    """

    hurst: float
    order: int

    def __post_init__(self) -> None:
        h = float(self.hurst)
        if not (0.5 < h < 1.0):
            raise ValueError(
                f"hurst must lie strictly in (0.5, 1); got {self.hurst!r}"
            )
        if int(self.order) != self.order or self.order < 1:
            raise ValueError(f"order must be a positive integer; got {self.order!r}")
        object.__setattr__(self, "hurst", h)
        object.__setattr__(self, "order", int(self.order))

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


@lru_cache(maxsize=64)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _G_primitive(g: float, z: np.ndarray) -> np.ndarray:
    """G(z) = integral_0^z y^g (1+y)^g dy for z >= 0, via Gauss 2F1.

    Monotone from 0 to the beta value B(1+g, -1-2g) as z -> inf; scipy's
    hypergeometric is machine-accurate over the whole range, so the only
    care needed is clamping z before it overflows inside the ufunc.  Only
    this order-2 route needs scipy, so it is imported here and nowhere on
    the package's import path.
    """
    from scipy.special import hyp2f1

    z = np.minimum(z, 1e300)
    return z ** (1.0 + g) / (1.0 + g) * hyp2f1(-g, 1.0 + g, 2.0 + g, -z)


def _pair_kernel_exact(g: float, t: float, a: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Exact order-2 kernel K_t(a, a - delta) with a the larger coordinate.

    Reduction: with x = s - a the defining integral becomes
    delta^(1+2g) * [G(x_hi/delta) - G(x_lo/delta)], x_hi = t - a,
    x_lo = max(a,0) - a.  Evaluating through G keeps full accuracy down to
    (and below) floating-point coordinate resolution, which fixed-node
    quadrature on the raw integrand cannot do near coordinate ties; passing
    ``delta`` explicitly keeps sub-ulp separations meaningful.  Branches:

    * delta == 0, a >= 0: the integral diverges -> inf;
    * delta == 0, a < 0:  exact antiderivative of (s-a)^(2g), written with
      expm1/log1p so nearly cancelling powers lose nothing;
    * a >= 0: x_lo = 0, a single G evaluation (no cancellation);
    * a < 0, x_lo/delta < 1: difference of two G values, switching to a
      short linear Gauss panel when the interval is narrow relative to its
      distance from 0;
    * a < 0, x_lo/delta >= 1: G-difference would cancel badly, so integrate
      y^g (1+y)^g over [x_lo/delta, x_hi/delta] in log space, where the
      integrand is analytic and a fixed Gauss rule is essentially exact.
    """
    a = np.asarray(a, dtype=float)
    delta = np.asarray(delta, dtype=float)
    if np.any(delta < 0):
        raise ValueError("pair separation delta must be nonnegative")
    q = 1.0 + 2.0 * g
    lo = np.maximum(a, 0.0)
    out = np.zeros_like(a)
    act = lo < t
    x_hi = t - a
    x_lo = lo - a

    tie = act & (delta == 0)
    out[tie & (a >= 0)] = np.inf
    neg_tie = tie & (a < 0)
    if np.any(neg_tie):
        xl = x_lo[neg_tie]
        out[neg_tie] = xl**q * np.expm1(q * np.log1p(t / xl)) / q

    pos = act & (delta > 0) & (a >= 0)
    if np.any(pos):
        with np.errstate(over="ignore"):
            z = x_hi[pos] / delta[pos]
        out[pos] = delta[pos] ** q * _G_primitive(g, z)

    neg = act & (delta > 0) & (a < 0)
    if np.any(neg):
        xl = x_lo[neg]
        dd = delta[neg]
        with np.errstate(over="ignore"):
            zl = xl / dd
            zh = x_hi[neg] / dd
        res = np.empty(xl.shape)
        big = zl >= 1.0
        narrow = ~big & (zh - zl < 1e-3 * zl)
        plain = ~big & ~narrow
        if np.any(plain):
            res[plain] = _G_primitive(g, zh[plain]) - _G_primitive(g, zl[plain])
        if np.any(narrow):
            xg, wg = _leggauss(24)
            half = 0.5 * t / dd[narrow]  # x_hi - x_lo = t exactly when a < 0
            mid = zl[narrow] + half
            y = mid[:, None] + half[:, None] * xg[None, :]
            res[narrow] = half * ((y**g * (1.0 + y) ** g) @ wg)
        if np.any(big):
            xg, wg = _leggauss(128)
            half = 0.5 * np.log1p(t / xl[big])
            mid = (np.log(xl[big]) - np.log(dd[big])) + half
            x = mid[:, None] + half[:, None] * xg[None, :]
            val = np.exp((1.0 + g) * x + g * np.logaddexp(0.0, x))
            res[big] = half * (val @ wg)
        out[neg] = dd**q * res
    return out


def _check_coords(spec: HermiteSpec, v) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.ndim != 1 or arr.size != spec.order:
        raise ValueError(
            f"coordinate vector has length {arr.size}, expected {spec.order}"
        )
    return arr


def eval_kernel(spec: HermiteSpec, t: float, v) -> float:
    """Evaluate K_t(v) = integral_0^t prod_j (s - v_j)_+^gamma ds.

    The integrand has an integrable power singularity where s meets the
    largest coordinate; the substitution u = (s - m)^(1+gamma) (m the largest
    coordinate) absorbs it exactly, leaving a smooth integrand handled by
    Gauss-Legendre panels with adaptive order doubling.

    The value is symmetric under permutations of ``v`` (coordinates are
    canonically sorted first, so equality is exact) and finite for
    almost-every ``v``.  When two or more coordinates tie for the maximum
    inside [0, t) the defining integral diverges and ``inf`` is returned;
    such inputs form a measure-zero set that integrating callers may ignore.
    """
    if t < 0:
        raise ValueError(f"t must be nonnegative; got {t}")
    coords = _check_coords(spec, v)
    # Canonical descending order makes the result exactly permutation-invariant.
    coords = np.sort(coords)[::-1]
    g = spec.gamma
    p = 1.0 + g
    m = coords[0]
    lo = max(m, 0.0)
    if lo >= t:
        return 0.0
    if spec.order >= 2 and coords[1] == m and m >= 0:
        # Tied maximum inside the integration range: the local factor
        # (s-m)^(k*gamma) has k*gamma <= 2*gamma < -1, not integrable.  A tie
        # strictly below zero is harmless because integration starts at 0.
        return math.inf
    if spec.order == 2:
        return float(
            _pair_kernel_exact(g, t, np.array([m]), np.array([m - coords[1]]))[0]
        )

    u_hi = (t - m) ** p
    u_lo = (lo - m) ** p  # zero when m >= 0
    rest = coords[1:]

    def transformed(u: np.ndarray) -> np.ndarray:
        s = m + u ** (1.0 / p)
        out = np.ones_like(u)
        for vj in rest:
            out *= (s - vj) ** g
        return out

    # Adaptive order doubling on the (smooth) transformed integrand.
    half = 0.5 * (u_hi - u_lo)
    mid = 0.5 * (u_hi + u_lo)
    prev = None
    for n in (32, 64, 128, 256, 512, 1024, 2048):
        x, w = _leggauss(n)
        val = half * float(w @ transformed(mid + half * x)) / p
        if prev is not None and abs(val - prev) <= 1e-12 * max(abs(val), 1.0):
            return val
        prev = val
    return prev


def eval_kernel_batch(spec: HermiteSpec, t: float, coords: np.ndarray) -> np.ndarray:
    """K_t over the rows of ``coords`` (shape (n, order)).

    Order 2 evaluates the exact hypergeometric reduction vectorised over the
    rows; other orders evaluate each row with :func:`eval_kernel`, so every
    row gets the same accuracy as a pointwise call.
    """
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[1] != spec.order:
        raise ValueError(
            f"coords must have shape (n, {spec.order}); got {coords.shape}"
        )
    if spec.order == 2:
        srt = np.sort(coords, axis=1)[:, ::-1]
        return _pair_kernel_exact(spec.gamma, t, srt[:, 0], srt[:, 0] - srt[:, 1])
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
    t^(2H) on the diagonal and 0 whenever either argument is 0.
    """
    s_arr = np.asarray(s, dtype=float)
    t_arr = np.asarray(t, dtype=float)
    if np.any(s_arr < 0) or np.any(t_arr < 0):
        raise ValueError("covariance requires nonnegative times")
    h2 = 2.0 * spec.hurst
    out = 0.5 * (t_arr**h2 + s_arr**h2 - np.abs(t_arr - s_arr) ** h2)
    if np.isscalar(s) and np.isscalar(t):
        return float(out)
    return out
