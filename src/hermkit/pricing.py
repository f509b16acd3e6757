"""Replication pricing: transport PDE, bonds, forwards, futures.

The pricing equation here is first order (pathwise calculus contributes no
diffusion term):

    dg/dt + sum_j x_j (r(t) - delta_j(t)) dg/dx_j - r(t) g = 0,

with r and delta_j the instantaneous fractional rates.  Characteristics
integrate in closed form through cumulative-rate differences, which the
solvers use exactly; the finite-difference route works in log-price
coordinates with first-order upwinding, where the advection speed loses its
x dependence.

Bonds are ratios of riskless prices, forwards are the static replication
short-stock/long-bond portfolio, and the futures payoff-rate field solves a
path-conditional integro-differential identity by explicit marching on a
uniform time grid, each row exact along the characteristics of the
cumulative-rate clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .kernel import _integer, _real
from .market import (
    AssetPath,
    BasicRate,
    MarketSpec,
    _rate_rise,
    cumulative_rate,
    instantaneous_rate,
)
from .simulate import _CHUNK_POINTS

def __getattr__(name: str):
    """``CubicSpline`` and ``brentq``, imported from scipy on first lookup.

    Nothing here calls them: perfbench's tracer looks both up (its
    ``FOREIGN`` table) as pricing.spline_build and pricing.rate_inversion.
    Loading them lazily keeps scipy off the import path; ROADMAP item 1
    deletes this hook together with ``FOREIGN``.
    """
    if name == "CubicSpline":
        from scipy.interpolate import CubicSpline

        return CubicSpline
    if name == "brentq":
        from scipy.optimize import brentq

        return brentq
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class Payoff:
    """Payoff over positive price vectors: one vectorised function ``fn``,
    built by :meth:`power`, :meth:`from_table` or :meth:`from_callable`."""

    fn: Callable

    @classmethod
    def power(cls, exponents) -> "Payoff":
        """prod_j x_j^alpha_j over the trailing (asset) axis when more than
        one exponent is given, else x^alpha elementwise."""
        a = np.array([float(e) for e in np.atleast_1d(_real(exponents, "power exponents"))])
        if a.size == 0:
            raise ValueError("power payoff needs at least one exponent")
        if a.size == 1:
            return cls(lambda x: x ** a[0])
        return cls(lambda x: np.prod(x ** a, axis=-1))

    @classmethod
    def from_callable(cls, fn: Callable) -> "Payoff":
        if not callable(fn):
            raise ValueError(f"payoff fn must be callable; got {fn!r}")
        return cls(fn)

    @classmethod
    def from_table(cls, nodes, values) -> "Payoff":
        """1-d linear interpolation of (nodes, values), clamped beyond the
        nodes, which must be finite and strictly increasing."""
        xs = np.asarray(_real(nodes, "payoff table nodes"), dtype=float)
        ys = np.asarray(_real(values, "payoff table values"), dtype=float)
        if xs.ndim != 1 or xs.size < 1 or not np.all(np.diff(xs) > 0):
            raise ValueError(f"payoff table nodes must be strictly increasing; got {xs.tolist()}")
        if ys.shape != xs.shape:
            raise ValueError(f"payoff table needs one value per node; got {ys.tolist()}")
        return cls(lambda x: np.interp(x, xs, ys))

    def __call__(self, x):
        """Evaluate at price vector(s)."""
        out = np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SmoothField:
    """A scalar field g(t, x) with partials; missing partials fall back to
    central finite differences (relative step 1e-6)."""

    value: Callable
    d_t: Callable | None = None
    d_x: Callable | None = None

    def time_derivative(self, t: float, x: np.ndarray) -> float:
        if self.d_t is not None:
            return float(self.d_t(t, x))
        h = 1e-6 * max(abs(t), 1.0)
        lo = max(t - h, 0.0)
        return (self.value(t + h, x) - self.value(lo, x)) / (t + h - lo)

    def space_gradient(self, t: float, x: np.ndarray) -> np.ndarray:
        if self.d_x is not None:
            return np.atleast_1d(np.asarray(self.d_x(t, x), dtype=float))
        grad = np.empty_like(x)
        for j in range(x.size):
            h = 1e-6 * max(abs(x[j]), 1.0)
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            grad[j] = (self.value(t, xp) - self.value(t, xm)) / (2.0 * h)
        return grad


@dataclass(frozen=True)
class TermStructure:
    """Discount factors Lambda(t, T) on an anchors x maturities grid plus
    the instantaneous rate curve at the anchors."""

    anchors: np.ndarray
    maturities: np.ndarray
    discounts: np.ndarray
    rates: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.anchors, dtype=float)
        m = np.asarray(self.maturities, dtype=float)
        d = np.asarray(self.discounts, dtype=float)
        r = np.asarray(self.rates, dtype=float)
        if d.shape != (a.size, m.size) or r.shape != (a.size,):
            raise ValueError("discounts must be (anchors, maturities); rates per anchor")
        object.__setattr__(self, "anchors", a)
        object.__setattr__(self, "maturities", m)
        object.__setattr__(self, "discounts", d)
        object.__setattr__(self, "rates", r)


@dataclass(frozen=True)
class PricingGrid:
    """Price x time grid for the d=1 grid solvers.

    ``x_lo``/``x_hi`` bound the price coordinate (positive, finite); ``nx``
    price nodes, ``nt`` time steps (integers) between the finite times
    ``t_start`` and ``t_end`` (equal endpoints yield the trivial single-row
    field).
    """

    x_lo: float
    x_hi: float
    nx: int
    nt: int
    t_start: float = 0.0
    t_end: float = 1.0

    def __post_init__(self) -> None:
        for name in ("x_lo", "x_hi", "t_start", "t_end"):
            _real(getattr(self, name), name)
        for name, low in (("nx", 2), ("nt", 1)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, low))
        if not (0.0 < self.x_lo < self.x_hi):
            raise ValueError("need 0 < x_lo < x_hi")
        if not (0.0 <= self.t_start <= self.t_end):
            raise ValueError("need 0 <= t_start <= t_end")


@dataclass(frozen=True)
class PriceField:
    """Tabulated solution g(t, x) of the pricing transport equation."""

    times: np.ndarray
    prices: np.ndarray
    values: np.ndarray

    def at(self, t: float, x: float) -> float:
        """Bilinear interpolation on the field grid, clamped outside it.
        A NaN time or price raises ``ValueError``."""
        if math.isnan(t) or math.isnan(x):
            raise ValueError(f"price field lookup needs a time and a price; got t={t}, x={x}")
        row = np.array([np.interp(t, self.times, self.values[:, j])
                        for j in range(self.prices.size)])
        return float(np.interp(x, self.prices, row))


@dataclass(frozen=True)
class FuturesField:
    """Payoff-rate field psi(x, t) tabulated on an (x, t) grid along with
    the underlying path values x(t_k) and, when produced by the marching
    solver, the accumulated integral I(t_k) and a residual report."""

    x_grid: np.ndarray
    t_grid: np.ndarray
    psi: np.ndarray
    path_values: np.ndarray
    integral: np.ndarray | None = None
    residual: np.ndarray | None = None

    def __post_init__(self) -> None:
        x = np.asarray(self.x_grid, dtype=float)
        t = np.asarray(self.t_grid, dtype=float)
        p = np.asarray(self.psi, dtype=float)
        pv = np.asarray(self.path_values, dtype=float)
        if p.shape != (t.size, x.size) or pv.shape != (t.size,):
            raise ValueError("psi must be (t_grid, x_grid); path_values per time")
        object.__setattr__(self, "x_grid", x)
        object.__setattr__(self, "t_grid", t)
        object.__setattr__(self, "psi", p)
        object.__setattr__(self, "path_values", pv)


def perpetual_pde_residual(g: SmoothField, market: MarketSpec, sample_points) -> np.ndarray:
    """Residual of the pricing transport equation at (t, x) samples.

    Zero (to the accuracy of the supplied partials) exactly when g is a
    replicable perpetual-derivative price field.
    """
    spec = market.spec
    out = []
    for t, x in sample_points:
        x_vec = np.atleast_1d(np.asarray(_real(x, "price coordinate", "positive"), dtype=float))
        if x_vec.size != market.d:
            raise ValueError(f"sample point has {x_vec.size} coordinates; need {market.d}")
        r = instantaneous_rate(spec, market.riskless, t)
        grad = g.space_gradient(t, x_vec)
        res = g.time_derivative(t, x_vec) - r * g.value(t, x_vec)
        for j in range(market.d):
            dj = instantaneous_rate(spec, market.dividends[j], t)
            res += x_vec[j] * (r - dj) * grad[j]
        out.append(res)
    return np.asarray(out, dtype=float)


def price_characteristics(
    payoff: Payoff, market: MarketSpec, t: float, horizon: float, x
) -> float:
    """Exact transport solution: discounted payoff along the characteristic.

    Returns Lambda(t, T) * payoff(x_j * exp(int_t^T (r - delta_j))), with
    every rate integral taken as an exact cumulative-rate rise from t to the
    horizon.  A one-asset market hands the payoff one Python float.
    """
    _real(t, "t", "nonnegative")
    if _real(horizon, "horizon", "nonnegative") < t:
        raise ValueError("horizon must not precede the valuation time")
    x_vec = np.atleast_1d(np.asarray(_real(x, "price coordinate", "positive"), dtype=float))
    if x_vec.size != market.d:
        raise ValueError(f"price vector has {x_vec.size} coordinates; need {market.d}")
    dr, *dd = (_rate_rise(market.spec, q, t, horizon)
               for q in (market.riskless, *market.dividends))
    if market.d == 1:
        args = float(x_vec[0]) * math.exp(dr - dd[0])
    else:
        args = x_vec * np.array([math.exp(dr - d) for d in dd])
    return math.exp(-dr) * float(payoff(args))


def price_fd(payoff: Payoff, market: MarketSpec, grid: PricingGrid) -> PriceField:
    """Upwind finite-difference transport solve in log-price, backward from
    the terminal payoff at ``grid.t_end``.

    Per-step advection shifts and discounts are exact cumulative-rate
    differences, and each new row is the discounted linear interpolation of
    the previous one at the departure point (with the unit Courant number an
    exact shift, below it the standard first-order upwind).  Every value is
    a discounted convex combination, so any step size is stable.

    Characteristics entering through a boundary take their exact discounted
    payoff values.  Those departures do not depend on the field, so they
    are found and priced before the march, in blocks of rows of at most
    2^15 grid points with one payoff call per block; in each row they form
    a run at one end of the grid, and the march interpolates only between
    them.  Only single-asset markets are supported on the grid route.
    """
    if market.d != 1:
        raise ValueError("grid pricing works in one price dimension; "
                         "got a market with d > 1")
    spec = market.spec
    y = np.linspace(math.log(grid.x_lo), math.log(grid.x_hi), grid.nx)
    if grid.t_end == grid.t_start:
        vals = payoff(np.exp(y))
        return PriceField(times=np.array([grid.t_start]), prices=np.exp(y),
                          values=np.atleast_2d(vals))

    nt, nx = grid.nt, grid.nx
    times = np.linspace(grid.t_start, grid.t_end, nt + 1)
    rc = cumulative_rate(spec, market.riskless, times)
    dc = cumulative_rate(spec, market.dividends[0], times)
    shifts = np.diff(rc - dc)

    g = np.empty((nt + 1, nx))
    g[nt] = payoff(np.exp(y))
    # the departures y + shifts[k] rise with the node index, so those below
    # y[0] form a prefix [0, lo[k]) of row k and those above y[-1] a suffix
    # [hi[k], nx); both take the payoff at the foot, discounted over the
    # whole rise from t_k to the horizon
    lo, hi = np.empty(nt, dtype=np.intp), np.empty(nt, dtype=np.intp)
    rise_r, rise_d = rc[nt] - rc[:nt], dc[nt] - dc[:nt]
    disc_end = np.array([math.exp(-r) for r in rise_r.tolist()])
    block = max(1, _CHUNK_POINTS // nx)
    for a in range(0, nt, block):
        dep = y + shifts[a:a + block, None]
        below, above = dep < y[0], dep > y[-1]
        lo[a:a + block] = below.sum(axis=1)
        hi[a:a + block] = nx - above.sum(axis=1)
        rows, cols = np.nonzero(below | above)
        if rows.size:
            rows += a
            g[rows, cols] = disc_end[rows] * payoff(
                np.exp(y[cols] + (rise_r[rows] - rise_d[rows])))
    disc_step = [math.exp(-r) for r in np.diff(rc).tolist()]
    for k in range(nt - 1, -1, -1):
        i, j = lo[k], hi[k]
        g[k, i:j] = disc_step[k] * np.interp(y[i:j] + shifts[k], y, g[k + 1])
    return PriceField(times=times, prices=np.exp(y), values=g)


@dataclass(frozen=True)
class PowerBeta:
    """Bond exponent beta(t) making x^alpha * M(t)^beta(t) tradable."""

    beta: Callable[[float], float]
    constant: float | None


def power_derivative_beta(alpha, market: MarketSpec) -> PowerBeta:
    """Solve the tradability condition for the bond exponent beta.

    d[beta(t) r_cum(t)]/dt = r(t) - sum_j alpha_j (r(t) - delta_j(t)) with a
    vanishing initial product integrates exactly to

        beta(t) = 1 - sum_j alpha_j + sum_j alpha_j delta_cum_j(t)/r_cum(t),

    which is the constant (1 - sum alpha) + sum alpha_j delta_j / r for
    constant basic rates (and 1 - alpha with no dividends).  Every kind's
    cumulative rate is D * rate(t) * t^(2H), so the ratio delta_cum_j/r_cum
    is the basic-rate ratio delta_j(t)/r(t) at every t > 0, and its t -> 0
    limit too: beta(t) takes that form for every t >= 0.
    """
    a = np.atleast_1d(np.asarray(_real(alpha, "alpha"), dtype=float))
    if a.size != market.d:
        raise ValueError(f"alpha has {a.size} entries; need {market.d}")
    base = 1.0 - float(a.sum())

    def beta(t: float) -> float:
        r = market.riskless(_real(t, "t", "nonnegative"))
        return base + sum(float(ai) * dv(t) / r for ai, dv in zip(a, market.dividends))

    constant = all(q.kind == "constant" for q in (market.riskless, *market.dividends))
    return PowerBeta(beta=beta, constant=beta(0.0) if constant else None)


def bond_price(market: MarketSpec, t: float, maturity: float) -> float:
    """Zero-coupon discount Lambda(t, T) = M(t)/M(T) = exp(-(r_cum(T) - r_cum(t)))."""
    _real(t, "t", "nonnegative")
    if _real(maturity, "maturity", "nonnegative") < t:
        raise ValueError("maturity precedes the anchor time")
    return math.exp(-_rate_rise(market.spec, market.riskless, t, maturity))


def term_structure(market: MarketSpec, anchors, maturities) -> TermStructure:
    """Fill the discount matrix Lambda(t_i, T_j) plus the instantaneous
    rate curve at the anchors.

    The matrix uses the ratio form M(t)/M(T) for every pair, so entries
    with T < t exceed 1; the multiplicativity identity holds across the
    whole grid.
    """
    a = np.asarray(_real(anchors, "anchor", "nonnegative"), dtype=float)
    m = np.asarray(_real(maturities, "maturity", "nonnegative"), dtype=float)
    spec = market.spec
    rc_a = cumulative_rate(spec, market.riskless, a)
    rc_m = cumulative_rate(spec, market.riskless, m)
    discounts = np.exp(rc_a[:, None] - rc_m[None, :])
    rates = instantaneous_rate(spec, market.riskless, a)
    return TermStructure(anchors=a, maturities=m, discounts=discounts, rates=rates)


def forward_price(market: MarketSpec, s_t: float, t: float, maturity: float) -> float:
    """Forward delivery price F(t, T) = S(t)/Lambda(t, T) (unit bond at 0)."""
    _real(s_t, "spot", "positive")
    return s_t / bond_price(market, t, maturity)


def forward_value(
    market: MarketSpec, path: AssetPath, t: float, maturity: float, u: float
) -> float:
    """Value at time u of the forward portfolio formed at time t.

    P(u) = -S(u) + F(t,T) Lambda(u,T); extending Lambda(u,T) by the
    exponential for u > T collapses the maturity entirely, leaving the
    perpetual form -S(u) + S(t) exp(r_cum(u) - r_cum(t)) valid for every
    u >= t (and exactly 0 at inception u = t).
    """
    _real(t, "t", "nonnegative")
    if _real(u, "u", "nonnegative") < t:
        raise ValueError("valuation time precedes the inception time")
    if _real(maturity, "maturity", "nonnegative") < t:
        raise ValueError("maturity precedes the inception time")
    growth = math.exp(_rate_rise(market.spec, market.riskless, t, u))
    return -path.at(u) + path.at(t) * growth


def _interp_at_path(x_grid: np.ndarray, xp: np.ndarray, j: np.ndarray,
                    pair: np.ndarray) -> np.ndarray:
    """``np.interp(xp[k], x_grid, row_k)`` for every k, from the two bracketing
    values ``pair = (row_k[j_k], row_k[j_k + 1])``, with np.interp's arithmetic
    and its clamping outside the grid."""
    f0, f1 = pair
    slope = (f1 - f0) / (x_grid[j + 1] - x_grid[j])
    inside = slope * (xp - x_grid[j]) + f0
    return np.where(xp >= x_grid[-1], f1, np.where(xp <= x_grid[0], f0, inside))


def _gradient_at(f: np.ndarray, coords: np.ndarray, axis: int, rows, cols) -> np.ndarray:
    """``np.gradient(f, coords, axis=axis, edge_order=2)`` (edge order 1 on
    two points) read only at the entries ``f[rows, cols]``.

    Each entry takes numpy's formula for its position, with the same
    arithmetic: the uniform-spacing forms when every spacing is equal, the
    coordinate-array forms otherwise."""
    n = coords.size
    pos = np.broadcast_to(rows if axis == 0 else cols, np.broadcast(rows, cols).shape)

    def at(q):
        return f[q, cols] if axis == 0 else f[rows, q]

    d = np.diff(coords)
    s = np.clip(pos - 1, 0, max(n - 3, 0))
    if n == 2:
        return (at(s + 1) - at(s)) / d[0]
    g0, g1, g2 = at(s), at(s + 1), at(s + 2)
    left, right = pos == 0, pos == n - 1

    def weighted(first, inner, last):
        a, b, c = (np.select([left, right], [w0, w2], w1)
                   for w0, w1, w2 in zip(first, inner, last))
        return a * g0 + b * g1 + c * g2

    if np.all(d == d[0]):
        h = d[0]
        edges = weighted((-1.5 / h, 2.0 / h, -0.5 / h), (0.0, 0.0, 0.0),
                         (0.5 / h, -2.0 / h, 1.5 / h))
        return np.where(left | right, edges, (g2 - g0) / (2.0 * h))
    d1, d2 = d[s], d[s + 1]
    return weighted(
        (-(2.0 * d1 + d2) / (d1 * (d1 + d2)), (d1 + d2) / (d1 * d2), -d1 / (d2 * (d1 + d2))),
        (-d2 / (d1 * (d1 + d2)), (d2 - d1) / (d1 * d2), d1 / (d2 * (d1 + d2))),
        (d2 / (d1 * (d1 + d2)), -(d2 + d1) / (d1 * d2), (2.0 * d2 + d1) / (d2 * (d1 + d2))),
    )


def futures_residual(field: FuturesField, market: MarketSpec) -> np.ndarray:
    """Residual series of the futures payoff-rate identity along the path.

    R(t) = int_0^t psi(x(u), u) du - psi psi_x - (1/r(t)) psi psi_t at
    (x(t), t), the integral by trapezoid on the path grid and the partials
    by finite differences of the tabulated field.  The last term is
    evaluated as psi * dpsi/drho with rho the cumulative riskless rate —
    the chain rule makes (1/r) dpsi/dt and dpsi/drho the same function,
    and the rho form stays finite at t = 0 where r vanishes.

    The partials are ``np.gradient``'s (second order inside and at the
    edges, first order on a two-point axis) and every value at x(t_k) is
    ``np.interp``'s, but both are taken only at the two grid columns that
    bracket x(t_k): no full partial-derivative field is built.
    """
    t = field.t_grid
    if t.size < 2:
        return np.zeros(t.size)
    x_grid, xp = field.x_grid, field.path_values
    j = np.clip(np.searchsorted(x_grid, xp, side="right") - 1, 0, x_grid.size - 2)
    rows, cols = np.arange(t.size), np.stack((j, j + 1))
    rho = cumulative_rate(market.spec, market.riskless, t)
    psi_path = _interp_at_path(x_grid, xp, j, field.psi[rows, cols])
    px = _interp_at_path(x_grid, xp, j, _gradient_at(field.psi, x_grid, 1, rows, cols))
    prho = _interp_at_path(x_grid, xp, j, _gradient_at(field.psi, rho, 0, rows, cols))
    integral = np.concatenate(
        ([0.0], np.cumsum(np.diff(t) * (psi_path[1:] + psi_path[:-1]) / 2.0)))
    return integral - psi_path * px - psi_path * prho


def _profile_at(profile: Callable, feet: np.ndarray, t) -> np.ndarray:
    """Initial-profile values at characteristic feet reached at times ``t``
    (broadcastable to ``feet``), each checked finite and above the zero
    threshold 1e-8.  The profile sees the feet as one 1-D array in row-major
    order, and the first bad value in that order is the one reported."""
    flat = feet.ravel()
    vals = np.asarray(profile(flat), dtype=float)
    if vals.shape != flat.shape:
        raise ValueError("initial profile must evaluate vectorised over the x grid")
    bad = np.flatnonzero(~(np.isfinite(vals) & (vals > 1e-8)))
    if bad.size:
        i, t_i = bad[0], np.broadcast_to(t, feet.shape).flat[bad[0]]
        raise ValueError("initial profile must be finite and bounded away from zero; "
                         f"got {vals[i]:.6g} at foot x={flat[i]:.6g}, t={t_i:.6g}")
    return vals.reshape(feet.shape)


def futures_march(
    initial_profile: Callable,
    path,
    market: MarketSpec,
    grid: PricingGrid,
) -> FuturesField:
    """Explicit march of dpsi/dt = r(t) [I(t) - psi psi_x] / psi along the
    given underlying path.

    In the cumulative riskless rate rho the equation reads
    dpsi/drho + psi_x = I/psi: a unit-speed advection of psi^2 with source
    2I, so along any rho path every row is exactly

        psi(x, rho)^2 = psi0(x - rho)^2 + 2 J(rho),

    J the rho-antiderivative of I.  The march steps uniformly in t, on
    ``np.linspace(0, horizon, nt + 1)``, with rows at rho_n = rho(t_n) and
    steps drho_n = rho_{n+1} - rho_n.  Only I (by trapezoid in t along the
    path) and J (by trapezoid in rho) are marched, a scalar recurrence that
    converges at second order; psi at the new path point solves a quadratic
    exactly.  The residual differentiates in rho, so the cumulative riskless
    rate must increase on [0, horizon]: it is checked at the path's time
    nodes, and ``ValueError`` names the first node after which it does not.
    The rows are then filled in blocks of at most 2^15 grid points, one
    profile call per block.

    The initial profile psi0 must accept points left of the grid, and every
    value of it used must be finite and above 1e-8, else ``ValueError``
    names the first such foot (the path's feet first, then the rows in
    order) and its time.  The returned field carries the accumulated
    integral and the residual report of :func:`futures_residual`.
    """
    if grid.t_start != 0.0:
        raise ValueError("the futures integral starts at t = 0; grid.t_start must be 0")
    if not isinstance(path, AssetPath):
        raise TypeError(f"path must be an AssetPath; got {type(path).__name__}")
    times_p, values_p = path.times, path.prices
    x_grid = np.linspace(grid.x_lo, grid.x_hi, grid.nx)
    psi0 = _profile_at(initial_profile, x_grid, 0.0)

    horizon = grid.t_end
    if horizon == 0.0:
        x0 = float(np.interp(0.0, times_p, values_p))
        return FuturesField(x_grid=x_grid, t_grid=np.array([0.0]),
                            psi=psi0[None, :], path_values=np.array([x0]),
                            integral=np.zeros(1), residual=np.zeros(1))
    if times_p[-1] < horizon:
        raise ValueError("path does not cover the marching horizon")

    spec = market.spec
    nodes = np.concatenate(([0.0], times_p[(times_p > 0.0) & (times_p < horizon)], [horizon]))
    stalls = np.flatnonzero(np.diff(cumulative_rate(spec, market.riskless, nodes)) <= 0.0)
    if stalls.size:
        raise ValueError("the cumulative riskless rate must increase on the marching "
                         f"horizon; it stops increasing after t={nodes[stalls[0]]:.6g}")
    nt = grid.nt
    t_grid = np.linspace(0.0, horizon, nt + 1)
    rho = cumulative_rate(spec, market.riskless, t_grid)
    xp = np.interp(t_grid, times_p, values_p)
    if np.any(xp < x_grid[0]) or np.any(xp > x_grid[-1]):
        k_bad = int(np.argmax((xp < x_grid[0]) | (xp > x_grid[-1])))
        raise ValueError(f"underlying path leaves the x grid at t={t_grid[k_bad]:.6g}")

    sq_path = _profile_at(initial_profile, xp - rho, t_grid) ** 2
    integral = np.zeros(nt + 1)
    j_acc = np.zeros(nt + 1)
    for n in range(nt):
        dt_n = t_grid[n + 1] - t_grid[n]
        drho = rho[n + 1] - rho[n]
        p_n = math.sqrt(sq_path[n] + 2.0 * j_acc[n])
        # psi^2 at the new path point is q + 2 (J_{n+1} - J_n), a quadratic in psi
        q = sq_path[n + 1] + 2.0 * j_acc[n]
        c = 0.5 * drho * dt_n
        y = 0.5 * (c + math.sqrt(c * c + 4.0 * (q + 2.0 * drho * integral[n] + c * p_n)))
        integral[n + 1] = integral[n] + 0.5 * dt_n * (p_n + y)
        j_acc[n + 1] = j_acc[n] + 0.5 * drho * (integral[n] + integral[n + 1])

    psi = np.empty((nt + 1, grid.nx))
    psi[0] = psi0
    block = max(1, _CHUNK_POINTS // grid.nx)
    for a in range(1, nt + 1, block):
        b = min(a + block, nt + 1)
        rows = psi[a:b]
        np.square(_profile_at(initial_profile, x_grid - rho[a:b, None], t_grid[a:b, None]),
                  out=rows)
        rows += 2.0 * j_acc[a:b, None]
        np.sqrt(rows, out=rows)

    field = FuturesField(x_grid=x_grid, t_grid=t_grid, psi=psi, path_values=xp,
                         integral=integral)
    return replace(field, residual=futures_residual(field, market))
