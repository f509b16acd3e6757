"""Fractional rate machinery and asset dynamics.

A *basic rate* is an ordinary continuous, bounded rate function r(t).  In a
market driven by an order-k Hermite motion with Hurst index H, every basic
rate generates a *cumulative* rate D * r(t) * t^(2H) (D the kernel constant
``d_constant``) and an *instantaneous* rate, its time derivative.  The
riskless asset compounds to exp(cumulative); risky assets carry their own
drift and dividend basic rates plus a volatility loading on a vector of
independent driver paths.

The market price of risk solves the pointwise linear system
sigma(t) z(v) = (mu(t) - r(t)) K_t(v) coordinate-vector by coordinate-vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .kernel import HermiteSpec, _real, d_constant, eval_kernel
from .simulate import SamplePath, StratonovichConfig, _riemann_sites

_RATE_KINDS = ("constant", "polynomial", "table")


@dataclass(frozen=True)
class BasicRate:
    """Continuous bounded rate function of one of three kinds.

    ``constant``: parameters = (value,).
    ``polynomial``: parameters = coefficients, low order first, on the
    working horizon [0, ``horizon``] (the one kind that takes a horizon);
    evaluating it, or its derivative, past the horizon raises.
    ``table``: parameters = (times, values), linearly interpolated and
    clamped outside the tabulated range.

    Parameters must be finite.  :attr:`bounds` is derived from them; a
    riskless rate must have a strictly positive lower bound (the rate stays
    bounded away from zero).
    """

    kind: str
    parameters: tuple
    horizon: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _RATE_KINDS:
            raise ValueError(f"kind must be one of {_RATE_KINDS}; got {self.kind!r}")
        if self.kind == "table":
            times, values = self.parameters
            t = np.asarray(times, dtype=float)
            if t.ndim != 1 or t.size < 2 or not np.all(np.diff(t) > 0):
                raise ValueError("table times must be strictly increasing, length >= 2")
            if len(values) != t.size:
                raise ValueError("table times and values must have equal length")
        if len(self.parameters) == 0:
            raise ValueError(f"{self.kind} rate parameters must be nonempty")
        _real(self.parameters, f"{self.kind} rate parameters")
        if (self.horizon is None) == (self.kind == "polynomial"):
            raise ValueError("a polynomial rate needs a horizon, and no other kind "
                             f"takes one; got {self.kind} with horizon {self.horizon}")
        if self.horizon is not None:
            horizon = _real(self.horizon, "polynomial horizon", "positive")
            object.__setattr__(self, "horizon", float(horizon))

    @classmethod
    def constant(cls, value: float) -> "BasicRate":
        return cls(kind="constant", parameters=(float(value),))

    @classmethod
    def polynomial(cls, coefficients: Sequence[float], horizon: float = 10.0) -> "BasicRate":
        """Polynomial rate on the working horizon [0, horizon]."""
        return cls(kind="polynomial", parameters=tuple(float(c) for c in coefficients),
                   horizon=horizon)

    @classmethod
    def table(cls, times: Sequence[float], values: Sequence[float]) -> "BasicRate":
        return cls(kind="table", parameters=(tuple(float(t) for t in times),
                                             tuple(float(v) for v in values)))

    @property
    def bounds(self) -> tuple[float, float]:
        """Exact (lower, upper) range of the rate: its value for a constant,
        the extreme node values for a table, and for a polynomial the
        extremes over [0, horizon], which lie at the ends or at real roots
        of the derivative (every root's real part inside (0, horizon) is
        evaluated, so none is missed)."""
        if self.kind == "constant":
            value = float(self.parameters[0])
            return value, value
        if self.kind == "table":
            values = self.parameters[1]
            return float(min(values)), float(max(values))
        poly = np.polynomial.polynomial
        crit = poly.polyroots(poly.polyder(self.parameters)).real
        vals = self(np.concatenate(([0.0, self.horizon],
                                    crit[(crit > 0.0) & (crit < self.horizon)])))
        return float(vals.min()), float(vals.max())

    def __call__(self, t):
        t_arr = self._on_horizon(t)
        if self.kind == "constant":
            out = np.full_like(t_arr, self.parameters[0])
        elif self.kind == "polynomial":
            out = np.polynomial.polynomial.polyval(t_arr, self.parameters)
        else:
            times, values = self.parameters
            out = np.interp(t_arr, times, values)
        return float(out) if np.isscalar(t) else out

    def derivative(self, t):
        """Exact d(rate)/dt.  A table rate has the slope of the segment that
        starts at t: the right derivative at a node, and 0 where the table
        is clamped (before its first node, and from its last one on)."""
        t_arr = self._on_horizon(t)
        if self.kind == "constant":
            out = np.zeros_like(t_arr)
        elif self.kind == "polynomial":
            der = np.polynomial.polynomial.polyder(self.parameters)
            out = np.polynomial.polynomial.polyval(t_arr, der)
        else:
            times, values = (np.asarray(p, dtype=float) for p in self.parameters)
            slopes = np.diff(values) / np.diff(times)
            seg = np.searchsorted(times, t_arr, side="right") - 1
            inside = (seg >= 0) & (seg < slopes.size)
            out = np.where(inside, slopes[np.clip(seg, 0, slopes.size - 1)], 0.0)
        return float(out) if np.isscalar(t) else out

    def _on_horizon(self, t) -> np.ndarray:
        """``t`` as a float array.  A polynomial rate raises ``ValueError``
        naming the first time past its horizon (or NaN): its bounds hold
        only on [0, horizon], and times before 0 are rejected by every
        rate integral that reads it."""
        t_arr = np.asarray(t, dtype=float)
        if self.horizon is not None and not (t_arr <= self.horizon).all():
            late = t_arr[~(t_arr <= self.horizon)][0]
            raise ValueError(f"polynomial rate holds up to its horizon {self.horizon}; "
                             f"got t={late}")
        return t_arr


def cumulative_rate(spec: HermiteSpec, rate: BasicRate, t):
    """Cumulative rate D * rate(t) * t^(2H) generated by a basic rate.

    This is the full integral of the kernel-weighted rate field against the
    kernel, collapsed by the norm identity ||K_t||^2 = ||K_1||^2 t^(2H).
    Takes a time t, scalar or array, finite and >= 0 (:func:`kernel._real`
    raises ``ValueError`` naming ``t``); exactly 0 at t = 0.  Raises
    ``ValueError`` past a polynomial rate's horizon too.
    """
    out = _cumulative(spec, rate, np.asarray(_real(t, "t", "nonnegative"), dtype=float))
    return float(out) if np.isscalar(t) else out


def _cumulative(spec: HermiteSpec, rate: BasicRate, t_arr: np.ndarray) -> np.ndarray:
    """:func:`cumulative_rate` of checked times.  t^(2H) is numpy's array
    power even for one time (a 0-d array), so a time gives the same bits
    alone and inside an array: Python's scalar power differs from it in the
    last bit for about 5 % of inputs."""
    return d_constant(spec) * rate(t_arr) * t_arr ** (2.0 * spec.hurst)


def _rate_rise(spec: HermiteSpec, rate: BasicRate, t: float, u: float) -> float:
    """The cumulative-rate rise cumulative_rate(u) - cumulative_rate(t)
    from time t to time u, as a Python float, from one :func:`_cumulative`
    call on the pair (t, u): the same bits as two scalar calls, with one
    call's fixed numpy cost.  The caller checks t and u."""
    ends = _cumulative(spec, rate, np.array((t, u), dtype=float))
    return float(ends[1] - ends[0])


def instantaneous_rate(spec: HermiteSpec, rate: BasicRate, t):
    """Time derivative of :func:`cumulative_rate`.

    Exact product rule D*(rate'(t) t^(2H) + 2H rate(t) t^(2H-1)) for every
    kind, with :meth:`BasicRate.derivative` giving rate'(t) (a table rate's
    right derivative at its nodes).  Returns 0 at t = 0 (the continuous
    extension: 2H > 1 makes t^(2H-1) vanish there).  t is checked as in
    :func:`cumulative_rate`.
    """
    t_arr = np.asarray(_real(t, "t", "nonnegative"), dtype=float)
    h2 = 2.0 * spec.hurst
    with np.errstate(invalid="ignore"):
        out = d_constant(spec) * (
            rate.derivative(t_arr) * t_arr**h2
            + h2 * rate(t_arr) * t_arr ** (h2 - 1.0)
        )
    out = np.where(t_arr == 0.0, 0.0, out)
    return float(out) if np.isscalar(t) else out


def riskless_price(spec: HermiteSpec, r: BasicRate, t):
    """Riskless asset price M(t) = exp(cumulative rate); M(0) = 1."""
    out = np.exp(cumulative_rate(spec, r, t))
    return float(out) if np.isscalar(t) else out


@dataclass(frozen=True)
class AssetPath:
    """A strictly positive price path on a strictly increasing grid of times
    >= 0."""

    times: np.ndarray
    prices: np.ndarray
    label: str = "asset"

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        prices = np.asarray(self.prices, dtype=float)
        if times.ndim != 1 or times.size != prices.size or times.size < 1:
            raise ValueError("times/prices must be equal-length 1-D arrays")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        _real(times, "times", "nonnegative")
        _real(prices, "prices", "positive")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "prices", prices)

    def at(self, u: float) -> float:
        """Price at time u, linearly interpolated; u must lie on the grid span."""
        if not self.times[0] <= u <= self.times[-1]:
            raise ValueError(f"time {u} outside the path span "
                             f"[{self.times[0]}, {self.times[-1]}]")
        return float(np.interp(u, self.times, self.prices))


@dataclass(frozen=True)
class MarketSpec:
    """A d-asset market: process spec, riskless rate, per-asset drifts,
    dividends, a volatility matrix and initial prices.

    ``volatility`` is either a constant (d, d) matrix or a (m, d, d) stack
    tabulated at ``volatility_times`` (linearly interpolated entrywise,
    clamped).  The riskless basic rate must be bounded away from zero.
    """

    spec: HermiteSpec
    riskless: BasicRate
    drifts: tuple
    volatility: np.ndarray
    initial_prices: tuple
    dividends: tuple | None = None
    volatility_times: np.ndarray | None = None

    def __post_init__(self) -> None:
        drifts = tuple(self.drifts)
        d = len(drifts)
        if d < 1:
            raise ValueError("a market needs at least one risky asset")
        if self.riskless.bounds[0] <= 0.0:
            raise ValueError("riskless basic rate must be bounded away from zero "
                             f"(lower bound {self.riskless.bounds[0]})")
        prices = tuple(float(p) for p in _real(self.initial_prices, "initial price", "positive"))
        if len(prices) != d:
            raise ValueError(f"initial_prices must supply one price per asset ({d}); "
                             f"got {len(prices)}")
        dividends = self.dividends
        if dividends is None:
            dividends = tuple(BasicRate.constant(0.0) for _ in range(d))
        dividends = tuple(dividends)
        if len(dividends) != d:
            raise ValueError(f"dividends must supply one rate per asset ({d})")
        vol = np.asarray(_real(self.volatility, "volatility entry"), dtype=float)
        if self.volatility_times is None:
            if vol.shape != (d, d):
                raise ValueError(f"constant volatility must have shape ({d}, {d}); "
                                 f"got {vol.shape}")
        else:
            vt = np.asarray(_real(self.volatility_times, "volatility time", "nonnegative"),
                            dtype=float)
            if vt.ndim != 1 or np.any(np.diff(vt) <= 0):
                raise ValueError("volatility_times must be strictly increasing")
            if vol.shape != (vt.size, d, d):
                raise ValueError(f"tabulated volatility must have shape "
                                 f"({vt.size}, {d}, {d}); got {vol.shape}")
            object.__setattr__(self, "volatility_times", vt)
        object.__setattr__(self, "drifts", drifts)
        object.__setattr__(self, "dividends", dividends)
        object.__setattr__(self, "volatility", vol)
        object.__setattr__(self, "initial_prices", prices)

    @property
    def d(self) -> int:
        return len(self.drifts)

    @property
    def constant_volatility(self) -> bool:
        return self.volatility_times is None

    def sigma(self, t: float) -> np.ndarray:
        """Volatility matrix at time t (finite, >= 0)."""
        _real(t, "volatility time", "nonnegative")
        if self.volatility_times is None:
            return self.volatility
        vt = self.volatility_times
        idx = np.clip(np.searchsorted(vt, t, side="right"), 1, vt.size - 1)
        w = (t - vt[idx - 1]) / (vt[idx] - vt[idx - 1])
        w = min(max(w, 0.0), 1.0)
        return (1.0 - w) * self.volatility[idx - 1] + w * self.volatility[idx]


def _shared_grid(drivers: Sequence[SamplePath]) -> np.ndarray:
    times = drivers[0].times
    for p in drivers[1:]:
        if not np.array_equal(p.times, times):
            raise ValueError("driver paths must share one time grid")
    return times


def riskless_path(market: MarketSpec, times) -> AssetPath:
    """The riskless asset M(t) sampled on a time grid."""
    times = np.asarray(times, dtype=float)
    return AssetPath(times=times,
                     prices=riskless_price(market.spec, market.riskless, times),
                     label="riskless")


def _asset_paths(market: MarketSpec, times: np.ndarray, driven: np.ndarray) -> list[AssetPath]:
    """S_j(t) = S_j(0) exp(mu_j^cum(t) - delta_j^cum(t) + driven[j]) on ``times``."""
    spec = market.spec
    out = []
    for j, (s0, mu, delta, x_j) in enumerate(
            zip(market.initial_prices, market.drifts, market.dividends, driven)):
        log_s = (
            math.log(s0)
            + cumulative_rate(spec, mu, times)
            - cumulative_rate(spec, delta, times)
            + x_j
        )
        out.append(AssetPath(times=times, prices=np.exp(log_s), label=f"asset_{j + 1}"))
    return out


def stock_paths(market: MarketSpec, drivers: Sequence[SamplePath]) -> list[AssetPath]:
    """Risky asset paths from the explicit exponential representation.

    S_j(t) = S_j(0) exp(mu_j^cum(t) - delta_j^cum(t) + sum_m sigma_jm H_m(t)).
    Requires constant volatility (the exponent is only valid then); use
    :func:`stock_paths_sde` for time-dependent loadings.
    """
    if not market.constant_volatility:
        raise ValueError("explicit representation requires constant volatility; "
                         "use stock_paths_sde")
    if len(drivers) != market.d:
        raise ValueError(f"need {market.d} driver paths; got {len(drivers)}")
    times = _shared_grid(drivers)
    return _asset_paths(market, times, market.volatility @ np.stack([p.values for p in drivers]))


def stock_paths_sde(
    market: MarketSpec,
    drivers: Sequence[SamplePath],
    config: StratonovichConfig | None = None,
) -> list[AssetPath]:
    """Risky asset paths by pathwise integration of the log-price dynamics.

    d log S_j = (mu_j^H - delta_j^H) dt + sum_m sigma_jm(t) o dH_m; the rate
    part integrates exactly to cumulative-rate differences, the stochastic
    part accumulates Riemann-Stratonovich sums with the volatility read at
    the configured evaluation point on every interval of the drivers' grid
    (the paths live on that grid, so ``config.refinement`` does not apply).
    For constant volatility the sums telescope and the result matches
    :func:`stock_paths` to rounding.
    """
    if len(drivers) != market.d:
        raise ValueError(f"need {market.d} driver paths; got {len(drivers)}")
    cfg = replace(config or StratonovichConfig(), refinement=None)
    times = _shared_grid(drivers)
    sites, dx = _riemann_sites(times, np.stack([p.values for p in drivers]), cfg)
    sig = np.stack([market.sigma(float(s)) for s in sites])  # (n, d, d)
    stoch = np.zeros((market.d, times.size))
    np.cumsum(np.einsum("kjm,mk->jk", sig, dx), axis=1, out=stoch[:, 1:])
    return _asset_paths(market, times, stoch)


def deflate(asset_paths, market: MarketSpec):
    """Divide prices by the riskless asset M(t) (the fractional deflator).

    Accepts a single :class:`AssetPath` or a sequence; the deflated riskless
    path is identically 1.
    """
    single = isinstance(asset_paths, AssetPath)
    paths = [asset_paths] if single else list(asset_paths)
    out = []
    for p in paths:
        m = riskless_price(market.spec, market.riskless, p.times)
        out.append(AssetPath(times=p.times, prices=p.prices / m, label=p.label))
    return out[0] if single else out


def solve_market_price_of_risk(market: MarketSpec, t: float, v) -> np.ndarray:
    """Solve sigma(t) z = (mu_j(t) - r(t)) K_t(v) for the d-vector z.

    The right-hand side uses the basic (not fractional) rates; the kernel
    factor is common to every equation.  Raises on a singular volatility
    matrix, naming the offending time, and (through :func:`eval_kernel`) on
    a negative or non-finite time or a non-finite coordinate.
    """
    k_val = eval_kernel(market.spec, t, v)
    rhs = np.array(
        [(mu(t) - market.riskless(t)) * k_val for mu in market.drifts], dtype=float
    )
    sig = market.sigma(t)
    try:
        z = np.linalg.solve(sig, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"volatility matrix is singular at t={t}") from exc
    if not np.all(np.isfinite(z)):
        raise ValueError(f"volatility matrix is numerically singular at t={t}")
    return z


def market_price_of_risk(
    market: MarketSpec, t: float
) -> Callable[[Sequence[float]], np.ndarray]:
    """The market price of risk at time t as a callable over coordinate
    vectors (see :func:`solve_market_price_of_risk`)."""
    return partial(solve_market_price_of_risk, market, t)


def risk_price_consistency(market: MarketSpec, v, times) -> float:
    """Relative spread of z(v) across a grid of evaluation times.

    The solved z depends on t through K_t (and any time-varying inputs), so
    a single z rarely satisfies the pricing system at every t; this
    diagnostic reports max_j (max_t z_j - min_t z_j) / max_t |z_j| so the
    caller can see how badly time-consistency fails.
    """
    times = np.asarray(times, dtype=float)
    if times.size < 2:
        raise ValueError("need at least two evaluation times")
    zs = np.stack([solve_market_price_of_risk(market, float(t), v) for t in times])
    spread = zs.max(axis=0) - zs.min(axis=0)
    scale = np.maximum(np.abs(zs).max(axis=0), 1e-300)
    return float(np.max(spread / scale))


def combine_drivers(sigma_row, drivers: Sequence[SamplePath]) -> tuple[float, SamplePath]:
    """Collapse a d-vector volatility row onto a single effective driver.

    Returns (sigma_s, combined path) with sigma_s the Euclidean norm of the
    row and the combined path the weighted sum with unit-norm weights
    sigma_k / sigma_s.  The reduction acts on the driving Gaussian bases:
    it is exact in law for order-1 drivers (sums of independent fractional
    Brownian motions); for higher orders combine the order-1 bases before
    building the motion.
    """
    row = np.asarray(sigma_row, dtype=float)
    sigma_s = float(np.linalg.norm(row))
    if sigma_s == 0.0:
        raise ValueError("volatility row is identically zero")
    if len(drivers) != row.size:
        raise ValueError(f"need {row.size} driver paths; got {len(drivers)}")
    times = _shared_grid(drivers)
    weights = row / sigma_s
    values = np.zeros_like(times)
    for w, p in zip(weights, drivers):
        values = values + w * p.values
    lead = drivers[int(np.argmax(np.abs(row)))]
    combined = SamplePath(times=times, values=values, spec=lead.spec,
                          method=lead.method, seed=lead.seed)
    return sigma_s, combined
