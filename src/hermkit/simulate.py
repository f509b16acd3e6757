"""Sample-path generation for Hermite motions and pathwise integration.

One path engine, one time change, one integration tool:

* :func:`simulate_paths` — any order k via the invariance-principle
  construction: partial sums of the order-k Hermite polynomial applied to a
  Gaussian sequence with Hurst index H' = 1 + (H-1)/k, normalized by the
  exact partial-sum standard deviation so Var(X(1)) = 1; at k = 1 this is
  exact fractional Brownian motion.  One row per seed, drawn in chunks of
  at most _CHUNK_POINTS embedded points that share one FFT call, with the
  circulant spectrum cached per (H', length); circulant embedding is the
  only fGn route, and a spectrum negative beyond roundoff raises
  FloatingPointError.  :func:`gen_fgn` is one row of that noise as an
  array; :func:`simulate_hermite_path` (and :func:`simulate_fbm_exact` at
  k = 1) is the one-row path as a :class:`SamplePath`;
* :func:`subordinate` — the market-time process S(t) = X(t^(1/2H)), whose
  variance is exactly t (self-similarity index 1/2, increments not
  stationary);
* :func:`stratonovich_integral` / :func:`chain_rule_residual` — forward-type
  Riemann sums with the integrand evaluated at an arbitrary point
  (1-delta)*t_k + delta*t_{k+1} of each subinterval, and the first-order
  chain-rule defect computed with them.

Paths are deterministic functions of (inputs, seed): each row draws from a
generator of its own seed, so it is bit-identical whichever batch or chunk
it is drawn in.  Monte Carlo callers seed the paths of a run from its root
seed with :func:`_run_seeds`, the one home of that rule and its limits.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .kernel import HermiteSpec

_METHODS = ("exact_fbm", "invariance_principle", "subordinated")


@dataclass(frozen=True)
class SamplePath:
    """A simulated path on a strictly increasing time grid starting at 0."""

    times: np.ndarray
    values: np.ndarray
    spec: HermiteSpec
    method: str
    seed: int

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or times.size != values.size or times.size < 2:
            raise ValueError("times/values must be equal-length 1-D arrays, length >= 2")
        if times[0] != 0.0 or values[0] != 0.0:
            raise ValueError("paths start at t=0 with value 0")
        if not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}; got {self.method!r}")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class StratonovichConfig:
    """Where in each subinterval the integrand is read, and how finely.

    ``evaluation_point`` is the delta in [0, 1] of the sampling site
    (1-delta)*t_k + delta*t_{k+1}, the midpoint by default; the limit does
    not depend on it for Hurst > 1/2, which the integrator's callers verify
    by refinement.
    ``refinement`` is the number of subintervals actually used; it must
    divide the driver's interval count.
    """

    evaluation_point: float = 0.5
    refinement: int | None = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.evaluation_point <= 1.0):
            raise ValueError("evaluation_point must lie in [0, 1]")
        if self.refinement is not None and self.refinement < 1:
            raise ValueError("refinement must be a positive integer")


def _rng(seed: int) -> np.random.Generator:
    """Generator for a nonnegative integer seed (NumPy rejects negative ones)."""
    return np.random.default_rng(np.random.SeedSequence([int(seed)]))


_MAX_PATHS = 1 << 20
_MAX_ROOT = 1 << 44


def _run_seeds(root: int, count: int) -> range:
    """Seeds (root << 20) ^ i of the paths i < count of a run.

    Distinct over all (root, i) and below 2^64 for root in [0, 2^44) and
    1 <= count <= 2^20, both checked here; the xor fills only the low 20
    bits, so it is the sum (root << 20) + i.
    """
    if not 0 <= root < _MAX_ROOT:
        raise ValueError(f"root seed must lie in [0, 2^44); got {root}")
    if not 1 <= count <= _MAX_PATHS:
        raise ValueError(f"need at least 1 and at most {_MAX_PATHS} paths; got {count}")
    first = int(root) << 20
    return range(first, first + count)


def fgn_covariance(hurst_prime: float, lags) -> np.ndarray:
    """Autocovariance rho(k) = 0.5*(|k+1|^2H' - 2|k|^2H' + |k-1|^2H')."""
    k = np.abs(np.asarray(lags, dtype=float))
    h2 = 2.0 * hurst_prime
    return 0.5 * ((k + 1.0) ** h2 - 2.0 * k**h2 + np.abs(k - 1.0) ** h2)


@lru_cache(maxsize=32)
def _circulant_scales(hurst_prime: float, n: int) -> np.ndarray:
    """Per-frequency scales of the size-2n circulant embedding, read-only.

    sqrt(lam_0/2n), sqrt(lam_k/4n) for 0 < k < n and sqrt(lam_n/2n), where
    lam is the FFT of the reflected covariance row rho_0..rho_{n-1},
    rho_n..rho_1.  The minimal embedding of fGn is nonnegative definite
    (Dietrich & Newsam 1997; Craigmile 2003): eigenvalues down to
    -1e-9 * lam_max are roundoff and clipped to 0, lower ones raise
    FloatingPointError.
    """
    rho = fgn_covariance(hurst_prime, np.arange(n + 1))
    row = np.concatenate([rho[:-1], rho[:0:-1]])
    lam = np.fft.fft(row).real
    tol = 1e-9 * lam.max()
    if lam.min() < -tol:
        raise FloatingPointError(
            f"circulant embedding of fGn at H'={hurst_prime!r}, n={n} has "
            f"eigenvalue lambda_min={lam.min():.3e} below the roundoff "
            f"tolerance -{tol:.3e} (1e-9 * lambda_max)"
        )
    lam = np.maximum(lam[: n + 1], 0.0)
    m = 2 * n
    scales = np.sqrt(lam / (2.0 * m))
    scales[0] = math.sqrt(lam[0] / m)
    scales[n] = math.sqrt(lam[n] / m)
    scales.flags.writeable = False
    return scales


def _fgn_rows(hurst_prime: float, n: int, seeds) -> np.ndarray:
    """One row of n fGn draws per seed, each exactly :func:`gen_fgn`'s."""
    if not (0.5 < hurst_prime < 1.0):
        raise ValueError(f"hurst_prime must lie in (1/2, 1); got {hurst_prime}")
    if n < 2:
        raise ValueError(f"need n >= 2 draws; got {n}")
    scales = _circulant_scales(hurst_prime, n)
    # Each row draws a (length m) then b, and the embedding reads b only
    # below n, so b's tail is never drawn.  w is Hermitian: w_0 and w_n are
    # real, w_k = s_k (a_k + i b_k) and w_{m-k} its conjugate for 0 < k < n.
    m = 2 * n
    normals = np.empty((len(seeds), m + n))
    for row, seed in zip(normals, seeds):
        _rng(seed).standard_normal(out=row)
    w = np.zeros((len(seeds), m), dtype=complex)
    re, im = w.real, w.imag
    np.multiply(scales, normals[:, : n + 1], out=re[:, : n + 1])
    np.multiply(scales[1:n], normals[:, m + 1 :], out=im[:, 1:n])
    re[:, m - 1 : n : -1] = re[:, 1:n]
    np.negative(im[:, 1:n], out=im[:, m - 1 : n : -1])
    return np.fft.fft(w, axis=1).real[:, :n]


def gen_fgn(hurst_prime: float, n: int, seed: int) -> np.ndarray:
    """n draws of fractional Gaussian noise by circulant embedding.

    The covariance sequence rho(0..n) is reflected into a circulant of size
    2n whose eigenvalues (an FFT of the first row) are nonnegative for all
    H' in (1/2, 1); two independent standard-normal vectors then produce an
    exact sample in O(n log n).  This is the only fGn route: an eigenvalue
    negative beyond roundoff raises FloatingPointError before any normal is
    drawn.
    """
    return _fgn_rows(hurst_prime, n, [seed])[0]


def hermite_polynomial(m: int, x):
    """Probabilists' Hermite polynomial He_m(x) by the three-term recurrence.

    He_0 = 1, He_1 = x, He_{m+1} = x*He_m - m*He_{m-1}; orthogonal under the
    standard Gaussian with E[He_l(Z) He_m(Z)] = m! * [l == m].  Accepts
    scalars or arrays.
    """
    if int(m) != m or m < 0:
        raise ValueError(f"order must be a nonnegative integer; got {m!r}")
    m = int(m)
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if m == 0:
        return prev if prev.ndim else float(prev)
    cur = x.copy()
    for j in range(1, m):
        prev, cur = cur, x * cur - j * prev
    return cur if cur.ndim else float(cur)


@lru_cache(maxsize=256)
def partial_sum_std(spec: HermiteSpec, n: int) -> float:
    """Exact standard deviation of sum_{j<n} He_k(xi_j) for fGn xi at H'.

    Uses E[He_k(xi_0) He_k(xi_i)] = k! * rho(i)^k, so the variance is
    k! * sum_{|i|<n} (n - |i|) rho(i)^k — an O(n) computation that replaces
    the asymptotic normalizer and pins Var at one path-unit exactly.
    """
    k = spec.order
    rho = fgn_covariance(spec.hurst_prime, np.arange(n))
    weights = n - np.arange(n, dtype=float)
    var = math.factorial(k) * (n * 1.0 + 2.0 * float(weights[1:] @ rho[1:] ** k))
    return math.sqrt(var)


_CHUNK_POINTS = 1 << 15


def _grid_steps(n: int, horizon: float) -> int:
    """The step count ceil(n*T) of the grid k/n covering [0, T]; raises
    unless n is a positive integer and T positive and finite."""
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite; got {horizon}")
    if not (n > 0 and float(n).is_integer()):
        raise ValueError(f"steps per unit time must be a positive integer; got {n}")
    return math.ceil(n * horizon)


def _path_chunks(spec: HermiteSpec, n: int, horizon: float, seeds):
    """The rows of :func:`simulate_paths`, in blocks of consecutive seeds.

    Each block holds at most _CHUNK_POINTS embedded points (at least one
    row), so a caller reducing block by block never holds more.
    """
    m = _grid_steps(n, horizon)
    if len(seeds) == 0:
        raise ValueError("need at least one seed")
    if n < 64 and spec.order > 1:
        warnings.warn(
            f"n={n} steps per unit time is small; the invariance-principle "
            "law is asymptotic and finite-n bias will be noticeable",
            RuntimeWarning,
        )
    rows = max(1, _CHUNK_POINTS // (2 * m))
    norm = partial_sum_std(spec, n)
    for start in range(0, len(seeds), rows):
        xi = _fgn_rows(spec.hurst_prime, m, seeds[start : start + rows])
        paths = np.empty((xi.shape[0], m + 1))
        paths[:, 0] = 0.0
        np.cumsum(hermite_polynomial(spec.order, xi), axis=1, out=paths[:, 1:])
        paths /= norm
        yield paths


def simulate_paths(spec: HermiteSpec, n: int, horizon: float, seeds) -> np.ndarray:
    """Values of one :func:`simulate_hermite_path` per seed, as a (P, m+1) array.

    Row i is bit-identical to ``simulate_hermite_path(spec, n, horizon,
    seeds[i]).values`` on the grid k/n, k = 0..m = ceil(n*T); the circulant
    spectrum is computed once per (H', m) and the rows share the FFTs.
    """
    return np.concatenate(list(_path_chunks(spec, n, horizon, seeds)))


def simulate_hermite_path(
    spec: HermiteSpec, n: int, horizon: float, seed: int
) -> SamplePath:
    """Invariance-principle Hermite path on the grid k/n, k = 0..ceil(n*T).

    Draws fractional Gaussian noise at H' = 1 + (H-1)/k (so the correlation
    decay exponent 2H'-2 equals (2H-2)/k), applies the order-k Hermite
    polynomial, and cumulates, dividing by the exact n-term partial-sum
    standard deviation: the value at t=1 has unit variance by construction,
    and the process converges in law to the unit-variance Hermite motion.
    At order 1 nothing is asymptotic: H' = H, He_1 is the identity and the
    normalizer is n^H, so the path is fBm with the exact grid law
    (method ``"exact_fbm"``) for every n.
    """
    values = simulate_paths(spec, n, horizon, [seed])[0]
    times = np.arange(values.size) / n
    method = "exact_fbm" if spec.order == 1 else "invariance_principle"
    return SamplePath(times, values, spec, method, seed)


def simulate_fbm_exact(hurst: float, n: int, horizon: float, seed: int) -> SamplePath:
    """Fractional Brownian motion with the exact grid law: the order-1 path."""
    return simulate_hermite_path(HermiteSpec(hurst, 1), n, horizon, seed)


_OVERSAMPLE = 8


def subordinate(spec: HermiteSpec, n: int, horizon: float, seed: int) -> SamplePath:
    """Market-time process S(t) = X(t^(1/2H)) on the uniform t-grid k/n.

    The driver X is simulated on a fine uniform grid covering the warped
    horizon T^(1/2H), _OVERSAMPLE times denser than the output grid needs,
    and each output time reads the nearest fine-grid sample.  Var S(t) = t
    exactly in law, but increments are not stationary.
    """
    times = np.arange(_grid_steps(n, horizon) + 1) / n
    warped_horizon = horizon ** (1.0 / (2.0 * spec.hurst))
    fine_n = max(64, math.ceil(_OVERSAMPLE * n * horizon / warped_horizon))
    driver = simulate_hermite_path(spec, fine_n, warped_horizon, seed)
    warped = times ** (1.0 / (2.0 * spec.hurst))
    if warped[-1] > driver.times[-1] * (1.0 + 1e-12):
        raise ValueError("driver path is shorter than the warped horizon")
    # searched, not computed as floor(w * fine_n + 1/2): the product's
    # rounding picks a different sample in about 2 of 10^6 lookups
    idx = np.clip(
        np.searchsorted(driver.times, warped, side="left"), 0, driver.times.size - 1
    )
    back = np.maximum(idx - 1, 0)
    use_back = np.abs(driver.times[back] - warped) < np.abs(driver.times[idx] - warped)
    idx = np.where(use_back, back, idx)
    values = driver.values[idx].copy()
    values[0] = 0.0  # warped[0] = 0 maps to the driver origin exactly
    return SamplePath(times, values, spec, "subordinated", seed)


def _riemann_sites(f: np.ndarray, x: np.ndarray, config: StratonovichConfig):
    """The Riemann-Stratonovich sites and increments over ``config.refinement``
    equal subintervals of the grid (all of its intervals by default).

    Returns the site values (1-d) f_k + d f_{k+1}, d the evaluation point,
    and the increments x_{k+1} - x_k, both along the last axis; f and x
    share the grid's length there.
    """
    intervals = x.shape[-1] - 1
    n = intervals if config.refinement is None else config.refinement
    if n < 1 or intervals % n != 0:
        raise ValueError(
            f"refinement {n} does not divide the {intervals} driver intervals"
        )
    idx = np.arange(0, intervals + 1, intervals // n)
    d = config.evaluation_point
    fk = f[..., idx]
    return (1.0 - d) * fk[..., :-1] + d * fk[..., 1:], np.diff(x[..., idx], axis=-1)


def stratonovich_integral(
    f, driver: SamplePath, config: StratonovichConfig | None = None
) -> float:
    """Riemann sum sum_k f((1-d)t_k + d t_{k+1}) (X_{k+1} - X_k).

    ``f`` holds integrand values on the driver grid; off-node evaluation
    sites are read by linear interpolation, i.e. the k-th summand weight is
    (1-d) f_k + d f_{k+1}.  The sum is taken over ``config.refinement``
    equal subintervals of the grid (all of it by default); convergence as
    the refinement grows is the caller's concern.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != driver.times.shape:
        raise ValueError(
            f"integrand has shape {f.shape}, driver grid {driver.times.shape}"
        )
    site, dx = _riemann_sites(f, driver.values, config or StratonovichConfig())
    return float(site @ dx)


def chain_rule_residual(
    g: Callable[[np.ndarray, np.ndarray], np.ndarray],
    dg_dx: Callable[[np.ndarray, np.ndarray], np.ndarray],
    dg_dt: Callable[[np.ndarray, np.ndarray], np.ndarray],
    driver: SamplePath,
    config: StratonovichConfig | None = None,
) -> float:
    """First-order chain-rule defect of G along the driver path.

    Returns |G(X_T, T) - G(X_0, 0) - int dG/dx * dX - int dG/dt dt| with the
    stochastic term a Stratonovich-type sum and the time term the matching
    deterministic Riemann sum on the same subgrid.  For Hurst > 1/2 the
    defect vanishes under refinement (no second-order correction term).
    """
    cfg = config or StratonovichConfig()
    t, x = driver.times, driver.values
    fx = dg_dx(x, t)
    residual = (
        float(g(x[-1], t[-1]) - g(x[0], t[0]))
        - stratonovich_integral(fx, driver, cfg)
    )
    site, dt = _riemann_sites(dg_dt(x, t), t, cfg)
    residual -= float(site @ dt)
    return abs(residual)
