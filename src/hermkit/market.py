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
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .kernel import HermiteSpec, d_constant, eval_kernel
from .simulate import SamplePath, StratonovichConfig

_RATE_KINDS = ("constant", "polynomial", "table")


@dataclass(frozen=True)
class BasicRate:
    """Continuous bounded rate function of one of three kinds.

    ``constant``: parameters = (value,).
    ``polynomial``: parameters = coefficients, low order first.
    ``table``: parameters = (times, values), linearly interpolated and
    clamped outside the tabulated range.

    ``bounds`` is the declared (lower, upper) envelope of the rate on the
    working horizon; a riskless rate must have a strictly positive lower
    bound (the rate stays bounded away from zero).
    """

    kind: str
    parameters: tuple
    bounds: tuple[float, float]

    def __post_init__(self) -> None:
        if self.kind not in _RATE_KINDS:
            raise ValueError(f"kind must be one of {_RATE_KINDS}; got {self.kind!r}")
        lo, hi = self.bounds
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ValueError(f"bounds must be a finite (lower, upper) pair; got {self.bounds}")
        if self.kind == "table":
            times, values = self.parameters
            t = np.asarray(times, dtype=float)
            if t.ndim != 1 or t.size < 2 or not np.all(np.diff(t) > 0):
                raise ValueError("table times must be strictly increasing, length >= 2")
            if len(values) != t.size:
                raise ValueError("table times and values must have equal length")

    @classmethod
    def constant(cls, value: float) -> "BasicRate":
        v = float(value)
        return cls(kind="constant", parameters=(v,), bounds=(v, v))

    @classmethod
    def polynomial(cls, coefficients: Sequence[float], horizon: float = 10.0) -> "BasicRate":
        """Polynomial rate with bounds sampled on [0, horizon]."""
        coeffs = tuple(float(c) for c in coefficients)
        grid = np.linspace(0.0, float(horizon), 4097)
        vals = np.polynomial.polynomial.polyval(grid, coeffs)
        return cls(kind="polynomial", parameters=coeffs,
                   bounds=(float(vals.min()), float(vals.max())))

    @classmethod
    def table(cls, times: Sequence[float], values: Sequence[float]) -> "BasicRate":
        vals = tuple(float(v) for v in values)
        return cls(kind="table", parameters=(tuple(float(t) for t in times), vals),
                   bounds=(float(np.min(vals)), float(np.max(vals))))

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
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
        t_arr = np.asarray(t, dtype=float)
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


def cumulative_rate(spec: HermiteSpec, rate: BasicRate, t):
    """Cumulative rate D * rate(t) * t^(2H) generated by a basic rate.

    This is the full integral of the kernel-weighted rate field against the
    kernel, collapsed by the norm identity ||K_t||^2 = ||K_1||^2 t^(2H).
    Accepts scalar or array t >= 0; exactly 0 at t = 0.
    """
    t_arr = np.asarray(t, dtype=float)
    if not np.all(t_arr >= 0):
        raise ValueError("cumulative rate requires t >= 0")
    out = d_constant(spec) * rate(t_arr) * t_arr ** (2.0 * spec.hurst)
    return float(out) if np.isscalar(t) else out


def instantaneous_rate(spec: HermiteSpec, rate: BasicRate, t):
    """Time derivative of :func:`cumulative_rate`.

    Exact product rule D*(rate'(t) t^(2H) + 2H rate(t) t^(2H-1)) for every
    kind, with :meth:`BasicRate.derivative` giving rate'(t) (a table rate's
    right derivative at its nodes).  Returns 0 at t = 0 (the continuous
    extension: 2H > 1 makes t^(2H-1) vanish there).
    """
    t_arr = np.asarray(t, dtype=float)
    if not np.all(t_arr >= 0):
        raise ValueError("instantaneous rate requires t >= 0")
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
    """A strictly positive price path on a strictly increasing time grid."""

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
        if not np.all(prices > 0):
            raise ValueError("prices must be strictly positive")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "prices", prices)

    def at(self, u: float) -> float:
        """Price at time u, linearly interpolated; u must lie on the grid span."""
        if u < self.times[0] or u > self.times[-1]:
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
        prices = tuple(float(p) for p in self.initial_prices)
        if len(prices) != d or not all(p > 0 for p in prices):
            raise ValueError(f"initial_prices must be {d} positive reals")
        dividends = self.dividends
        if dividends is None:
            dividends = tuple(BasicRate.constant(0.0) for _ in range(d))
        dividends = tuple(dividends)
        if len(dividends) != d:
            raise ValueError(f"dividends must supply one rate per asset ({d})")
        vol = np.asarray(self.volatility, dtype=float)
        if self.volatility_times is None:
            if vol.shape != (d, d):
                raise ValueError(f"constant volatility must have shape ({d}, {d}); "
                                 f"got {vol.shape}")
        else:
            vt = np.asarray(self.volatility_times, dtype=float)
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
        """Volatility matrix at time t."""
        if self.volatility_times is None:
            return self.volatility
        vt = self.volatility_times
        idx = np.clip(np.searchsorted(vt, t, side="right"), 1, vt.size - 1)
        w = (t - vt[idx - 1]) / (vt[idx] - vt[idx - 1])
        w = min(max(w, 0.0), 1.0)
        return (1.0 - w) * self.volatility[idx - 1] + w * self.volatility[idx]


@dataclass(frozen=True)
class RiskPrice:
    """Market price of risk: a map from coordinate vectors to d-vectors,
    solved at a fixed evaluation time."""

    z: Callable[[Sequence[float]], np.ndarray]
    evaluation_time: float


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
    driven = np.stack([p.values for p in drivers])
    out = []
    for j in range(market.d):
        log_s = (
            math.log(market.initial_prices[j])
            + cumulative_rate(market.spec, market.drifts[j], times)
            - cumulative_rate(market.spec, market.dividends[j], times)
            + market.volatility[j] @ driven
        )
        out.append(AssetPath(times=times, prices=np.exp(log_s), label=f"asset_{j + 1}"))
    return out


def stock_paths_sde(
    market: MarketSpec,
    drivers: Sequence[SamplePath],
    config: StratonovichConfig | None = None,
) -> list[AssetPath]:
    """Risky asset paths by pathwise integration of the log-price dynamics.

    d log S_j = (mu_j^H - delta_j^H) dt + sum_m sigma_jm(t) o dH_m; the rate
    part integrates exactly to cumulative-rate differences, the stochastic
    part accumulates Riemann-Stratonovich sums with the volatility read at
    the configured evaluation point.  For constant volatility the sums
    telescope and the result matches :func:`stock_paths` to rounding.
    """
    if len(drivers) != market.d:
        raise ValueError(f"need {market.d} driver paths; got {len(drivers)}")
    cfg = config or StratonovichConfig(evaluation_point=0.5)
    times = _shared_grid(drivers)
    sites = (1.0 - cfg.evaluation_point) * times[:-1] + cfg.evaluation_point * times[1:]
    sig = np.stack([market.sigma(float(s)) for s in sites])  # (n, d, d)
    out = []
    for j in range(market.d):
        stoch = np.zeros_like(times)
        for m in range(market.d):
            stoch[1:] += np.cumsum(sig[:, j, m] * np.diff(drivers[m].values))
        log_s = (
            math.log(market.initial_prices[j])
            + cumulative_rate(market.spec, market.drifts[j], times)
            - cumulative_rate(market.spec, market.dividends[j], times)
            + stoch
        )
        out.append(AssetPath(times=times, prices=np.exp(log_s), label=f"asset_{j + 1}"))
    return out


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
    matrix, naming the offending time.
    """
    if t < 0:
        raise ValueError("evaluation time must be nonnegative")
    k_val = 0.0 if t == 0 else eval_kernel(market.spec, t, v)
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


def market_price_of_risk(market: MarketSpec, t: float) -> RiskPrice:
    """The market price of risk at time t as a callable over coordinate
    vectors (see :func:`solve_market_price_of_risk`)."""
    return RiskPrice(z=lambda v: solve_market_price_of_risk(market, t, v),
                     evaluation_time=t)


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
