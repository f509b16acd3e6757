"""Quadratic-variation statistics, scaling regimes, and dependence diagnostics.

The centered quadratic variation of a path X over N+1 blocks of length g is

    V = sum_{n=0}^{N} [ (X((n+1)g) - X(ng))^2 - g^(2H) ],

whose mean is zero when H matches the path's index (increment variance is
g^(2H)).  Its natural scale delta = sqrt(E[V^2]) obeys power laws in N whose
exponent separates three regimes: 1/2 for order 1 with H <= 3/4 (Gaussian
central limit), 2H-1 with a logarithmic correction for order 1 with H > 3/4,
and 1 - 2(1-H)/k for orders k > 1 (non-central limits); see
:func:`qv_regime_exponent`.  The module also provides an increment-variance
Hurst estimator and the long-range-dependence coefficient sequence
n^(2-2H) * E[increment(n) * increment(0)] -> H(2H-1), whose partial sums
diverge — the defining symptom of long memory.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .kernel import HermiteSpec, QuadResult, _integer, _real
from .simulate import (
    _MAX_ROOT,
    SamplePath,
    _map_blocks,
    _run_seeds,
    fgn_covariance,
)


@dataclass(frozen=True)
class QVReport:
    """Centered quadratic variation V of one path.

    ``n_blocks`` is the N of the N+1 summed blocks; the scale
    delta = sqrt(E[V^2]) that normalizes V is :func:`qv_normalizer`'s.
    """

    v_stat: float
    n_blocks: int
    block_length: float

    def __post_init__(self) -> None:
        if self.block_length <= 0:
            raise ValueError("block_length must be positive")


@dataclass(frozen=True)
class HurstEstimate:
    h_hat: float
    std_error: float
    scales_used: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")


def _uniform_step(times: np.ndarray) -> float:
    """The step of a uniform time grid.  Every step must match the first to
    the relative 1e-9 of :func:`_block_stride`; raises naming the first one
    that does not."""
    steps = np.diff(times)
    dt = steps[0]
    uneven = np.flatnonzero(np.abs(steps - dt) > 1e-9 * dt)
    if uneven.size:
        k = uneven[0]
        raise ValueError(f"time grid is not uniform: the step from t={times[k]} to "
                         f"t={times[k + 1]} is {steps[k]}, the first step is {dt}")
    return float(dt)


def _block_stride(dt: float, block: float) -> int:
    """Grid stride covering one block; raises on a block length that is not
    positive and finite or not a multiple of the grid step."""
    _real(block, "block length", "positive")
    stride = block / dt
    if abs(stride - round(stride)) > 1e-9 * max(stride, 1.0) or round(stride) < 1:
        raise ValueError(
            f"block length {block} is not a multiple of the grid step {dt}"
        )
    return int(round(stride))


def _centered_qv_rows(values: np.ndarray, stride: int, block: float, h: float):
    """V of each path along the last axis of ``values``, and the block count."""
    count = (values.shape[-1] - 1) // stride
    if count < 1:
        raise ValueError("path is shorter than one block")
    increments = np.diff(values[..., : count * stride + 1 : stride], axis=-1)
    return (increments**2 - block ** (2.0 * h)).sum(axis=-1), count


def centered_qv(path: SamplePath, h_for_centering: float, block: float) -> QVReport:
    """V = sum over blocks of (squared increment - block^(2H)).

    The centering constant block^(2H) is the exact increment variance of the
    unit-variance motion with index ``h_for_centering``; for a matching path
    the statistic has mean zero.
    """
    _real(h_for_centering, "h_for_centering")
    stride = _block_stride(_uniform_step(path.times), block)
    v, count = _centered_qv_rows(path.values, stride, block, h_for_centering)
    return QVReport(v_stat=float(v), n_blocks=count - 1, block_length=block)


def _qv_paths(
    spec: HermiteSpec,
    n_blocks: int,
    block: float,
    mc_paths: int,
    seed: int,
    steps_per_unit: int,
) -> np.ndarray:
    """Per-path QV statistics from fresh simulations, one block at a time.

    Order 1 is exact on any grid, so it runs on the coarsest block-aligned
    one; higher orders need the finer ``steps_per_unit`` grid for the
    invariance principle to hold (the block must remain grid-aligned).
    """
    horizon = (n_blocks + 1) * _real(block, "block length", "positive")
    n = steps_per_unit
    if spec.order == 1:
        coarse = max(1, round(1.0 / block))
        if abs(coarse * block - round(coarse * block)) <= 1e-9:
            n = coarse
    stride = _block_stride(1.0 / n, block)
    seeds = _run_seeds(seed, mc_paths)
    return np.concatenate(_map_blocks(
        spec, n, horizon, seeds,
        lambda start, paths: _centered_qv_rows(paths, stride, block, spec.hurst)[0]))


def qv_normalizer(
    spec: HermiteSpec,
    n_blocks: int,
    block: float,
    mc_paths: int,
    seed: int,
    steps_per_unit: int = 64,
) -> QuadResult:
    """Monte Carlo delta = sqrt(E[V^2]) with its standard error.

    ``error`` is the delta-method propagation of the second-moment standard
    error through the square root.
    """
    n_blocks = _integer(n_blocks, "n_blocks", 1)
    mc_paths = _integer(mc_paths, "mc_paths", 100)  # fewer give no usable normalizer
    steps_per_unit = _integer(steps_per_unit, "steps_per_unit", 1)
    v = _qv_paths(spec, n_blocks, block, mc_paths, seed, steps_per_unit)
    second = float(np.mean(v**2))
    se_second = float(np.std(v**2, ddof=1)) / math.sqrt(mc_paths)
    delta = math.sqrt(second)
    return QuadResult(delta, 0.5 * se_second / delta)


def qv_regime_exponent(spec: HermiteSpec) -> float:
    """The limiting growth exponent of delta^(N) in N.

    1/2 in the central-limit regime (order 1, H <= 3/4); 2H - 1 for order 1
    with H > 3/4 (times a log factor not captured here); 1 - 2(1-H)/k for
    orders k > 1.
    """
    if spec.order == 1:
        return 0.5 if spec.hurst <= 0.75 else 2.0 * spec.hurst - 1.0
    return 1.0 - 2.0 * (1.0 - spec.hurst) / spec.order


_LADDER_STEP = 7919


def qv_ladder(
    spec: HermiteSpec,
    n_blocks_list,
    block: float,
    mc_paths: int,
    seed: int,
    steps_per_unit: int = 64,
) -> list[QuadResult]:
    """delta^(N) for each block count N, in ascending order of N.

    Cell j of the sorted ladder runs :func:`qv_normalizer` with its own root
    seed (``seed`` plus j times a fixed prime), so cells share no paths.
    Every cell's root and block count is checked before the first cell draws.
    """
    n_list = sorted(_integer(n, "n_blocks") for n in n_blocks_list)
    seed = _integer(seed, "root seed")
    offset = _LADDER_STEP * (len(n_list) - 1)
    if not 0 <= seed < _MAX_ROOT - offset:
        raise ValueError(
            f"root seed must lie in [0, 2^44 - {offset}) for a {len(n_list)}-cell "
            f"ladder, whose cell j uses seed + {_LADDER_STEP}*j; got {seed}"
        )
    return [
        qv_normalizer(spec, n, block, mc_paths, seed + _LADDER_STEP * j, steps_per_unit)
        for j, n in enumerate(n_list)
    ]


def qv_scaling_exponent(
    spec: HermiteSpec,
    n_blocks_list,
    block: float,
    mc_paths: int,
    seed: int,
    steps_per_unit: int = 64,
) -> float:
    """Least-squares slope of log delta^(N) against log N over :func:`qv_ladder`.

    Compare with :func:`qv_regime_exponent`; in the order-1, H > 3/4 regime
    the neglected log N factor inflates the fitted slope slightly.
    """
    n_list = sorted(_integer(n, "n_blocks") for n in n_blocks_list)
    if len(set(n_list)) < 3 or n_list[-1] < 8 * n_list[0]:
        raise ValueError("need >= 3 distinct block counts spanning a factor of 8")
    ladder = qv_ladder(spec, n_list, block, mc_paths, seed, steps_per_unit)
    return _qv_slope_fit(n_list, [delta.value for delta in ladder])[0]


def _qv_slope_fit(n_blocks, deltas) -> tuple[float, float]:
    """Least-squares (slope, intercept) of log delta^(N) against log N.

    The one fit behind :func:`qv_scaling_exponent` and ``hermkit qv``; each
    caller decides which block-count ladders it accepts.
    """
    slope, intercept = np.polyfit(np.log(n_blocks), np.log(deltas), 1)
    return float(slope), float(intercept)


def estimate_hurst(path: SamplePath, scales) -> HurstEstimate:
    """Increment-variance regression estimate of the Hurst index.

    E[(X(t+s) - X(t))^2] = s^(2H) for the unit-variance motion, so the slope
    of log mean-squared-increment against log scale is 2H.  Scales are whole
    steps of the path's uniform time grid (an uneven grid raises); each must
    leave at least 8 increments.  Warns when the estimate comes within
    sampling distance of the boundary of (1/2, 1), outside which no
    admissible spec exists; the guard uses the regression standard error
    with a floor of 0.02, since the regression se understates dispersion
    under dependent increments.
    """
    scales = tuple(_integer(s, "scale", 1) for s in scales)
    if len(scales) < 3:
        raise ValueError("need at least 3 scales")
    _uniform_step(path.times)
    x = path.values
    if float(np.ptp(x)) == 0.0:
        raise ValueError("degenerate (constant) path")
    log_s, log_v = [], []
    for s in scales:
        inc = x[s:] - x[:-s]
        if inc.size < 8:
            raise ValueError(f"scale {s} leaves fewer than 8 increments")
        log_s.append(math.log(s))
        log_v.append(math.log(float(np.mean(inc**2))))
    coef, cov = np.polyfit(log_s, log_v, 1, cov=True)
    h_hat = float(coef[0]) / 2.0
    std_error = math.sqrt(float(cov[0, 0])) / 2.0
    guard = max(2.0 * std_error, 0.02)
    if h_hat - guard <= 0.5 or h_hat + guard >= 1.0:
        warnings.warn(
            f"estimated Hurst index {h_hat:.3f} (se {std_error:.3f}) is "
            "consistent with values outside (1/2, 1), where no Hermite "
            "motion exists",
            RuntimeWarning,
        )
    return HurstEstimate(h_hat=h_hat, std_error=std_error, scales_used=scales)


def lrd_coefficient(spec: HermiteSpec, max_lag: int) -> np.ndarray:
    """Scaled unit-increment covariances n^(2-2H) * E[D(n) D(0)], n = 1..max_lag.

    D(n) = X(n+1) - X(n); the sequence converges to H(2H-1) (see
    :func:`lrd_limit`), i.e. covariances decay like n^(2H-2), slowly enough
    that their partial sums diverge.
    """
    lags = np.arange(1, _integer(max_lag, "max_lag", 1) + 1)
    return lags ** (2.0 - 2.0 * spec.hurst) * fgn_covariance(spec.hurst, lags)


def lrd_limit(spec: HermiteSpec) -> float:
    """Limit H(2H-1) of the scaled covariance sequence."""
    return spec.hurst * (2.0 * spec.hurst - 1.0)
