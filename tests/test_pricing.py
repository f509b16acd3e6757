"""Perpetual derivatives, bonds, forwards and the futures field solver."""

import hashlib
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import beta as beta_fn

from hermkit import (
    AssetPath,
    BasicRate,
    FuturesField,
    HermiteSpec,
    MarketSpec,
    Payoff,
    PricingGrid,
    SamplePath,
    bond_price,
    cumulative_rate,
    forward_price,
    forward_value,
    futures_march,
    futures_residual,
    instantaneous_rate,
    price_characteristics,
    price_fd,
    perpetual_pde_residual,
    power_derivative_beta,
    riskless_price,
    term_structure,
)
from hermkit.pricing import PriceField, SmoothField

SPEC = HermiteSpec(0.7, 2)


def _market(mu=0.08, r=0.05, sigma=0.2, s0=1.0, delta=0.0, spec=SPEC):
    return MarketSpec(
        spec=spec,
        riskless=BasicRate.constant(r),
        drifts=(BasicRate.constant(mu),),
        volatility=np.array([[sigma]]),
        initial_prices=(s0,),
        dividends=(BasicRate.constant(delta),),
    )


# --- payoffs and grids ----------------------------------------------------


def test_payoff_constructors_and_eval():
    p = Payoff.power(0.5)
    assert p(4.0) == 2.0
    multi = Payoff.power([0.5, 2.0])
    assert multi(np.array([4.0, 3.0])) == pytest.approx(18.0)
    tab = Payoff.from_table([1.0, 2.0], [0.0, 1.0])
    assert tab(1.25) == pytest.approx(0.25)
    fn = Payoff.from_callable(lambda x: np.maximum(x - 1.0, 0.0))
    assert fn(1.5) == 0.5
    with pytest.raises(TypeError):
        Payoff(kind="lookback")
    with pytest.raises(ValueError, match="at least one exponent"):
        Payoff.power([])
    with pytest.raises(ValueError, match="fn must be callable"):
        Payoff.from_callable(None)
    with pytest.raises(ValueError, match="one value per node"):
        Payoff.from_table([1.0, 2.0], [0.0])


@pytest.mark.parametrize("nodes", [[1.0, np.nan], [2.0, 1.0], [1.0, 1.0], []])
def test_payoff_table_nodes_must_be_finite_and_increasing(nodes):
    rule = "finite; got nan" if np.isnan(nodes).any() else "strictly increasing; got ["
    with pytest.raises(ValueError, match=f"^payoff table nodes must be {re.escape(rule)}"):
        Payoff.from_table(nodes, [0.0, 1.0][: len(nodes)])


def test_pricing_grid_validation():
    with pytest.raises(ValueError):
        PricingGrid(-1.0, 2.0, 8, 8)
    with pytest.raises(ValueError):
        PricingGrid(1.0, 2.0, 1, 8)
    with pytest.raises(ValueError):
        PricingGrid(1.0, 2.0, 8, 8, t_start=0.5, t_end=0.2)
    # infinite bounds or times and fractional counts are named, not priced
    for args, message in [((0.5, math.inf, 8, 8), "x_hi must be finite; got inf"),
                          ((0.5, 2.0, 8, 8, 0.0, math.inf), "t_end must be finite; got inf"),
                          ((0.5, 2.0, 8.5, 8), "nx must be an integer; got 8.5"),
                          ((0.5, 2.0, 8, 2.5), "nt must be an integer; got 2.5")]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PricingGrid(*args)


def test_price_field_bilinear_lookup():
    field = PriceField(
        times=np.array([0.0, 1.0]),
        prices=np.array([1.0, 3.0]),
        values=np.array([[0.0, 2.0], [4.0, 6.0]]),
    )
    assert field.at(0.5, 2.0) == pytest.approx(3.0)
    # a NaN time or price used to give NaN without complaint
    for t, x in ((np.nan, 2.0), (0.5, np.nan)):
        with pytest.raises(ValueError, match="price field lookup"):
            field.at(t, x)


# --- transport equation ----------------------------------------------------


def _power_field(market, alpha, beta):
    """x^alpha * M(t)^beta with exact partial derivatives."""
    spec = market.spec

    def value(t, x):
        return float(x[0]) ** alpha * riskless_price(spec, market.riskless, t) ** beta

    def d_t(t, x):
        return beta * instantaneous_rate(spec, market.riskless, t) * value(t, x)

    def d_x(t, x):
        return np.array([alpha * value(t, x) / float(x[0])])

    return SmoothField(value=value, d_t=d_t, d_x=d_x)


def test_pde_residual_on_tradables():
    m = _market(delta=0.0)
    pts = [(0.5, 1.3), (1.0, 0.7), (2.0, 2.4)]
    # the money market account and the stock itself both solve the equation
    bank = _power_field(m, 0.0, 1.0)
    stock = _power_field(m, 1.0, 0.0)
    assert np.max(np.abs(perpetual_pde_residual(bank, m, pts))) < 1e-12
    assert np.max(np.abs(perpetual_pde_residual(stock, m, pts))) < 1e-12


def test_pde_residual_power_derivative_with_dividends():
    m = _market(r=0.08, delta=0.03)
    beta = power_derivative_beta(0.4, m)
    assert beta.constant == pytest.approx(1.0 - 0.4 + 0.4 * 0.03 / 0.08)
    field = _power_field(m, 0.4, beta.constant)
    res = perpetual_pde_residual(field, m, [(0.3, 0.9), (1.4, 1.8)])
    assert np.max(np.abs(res)) < 1e-12


def test_pde_residual_finite_difference_fallback():
    m = _market()
    field = SmoothField(value=_power_field(m, 0.3, 0.7).value)
    res = perpetual_pde_residual(field, m, [(0.8, 1.1)])
    assert abs(res[0]) < 1e-8


def test_pde_residual_detects_wrong_bond_exponent():
    m = _market(r=0.08, delta=0.0)
    bad = _power_field(m, 0.3, 0.75)  # tradable exponent is 0.7
    res = perpetual_pde_residual(bad, m, [(0.8, 1.2)])
    assert abs(res[0]) > 1e-4


def test_pde_residual_dimension_check():
    m = _market()
    with pytest.raises(ValueError, match="coordinates"):
        perpetual_pde_residual(_power_field(m, 1.0, 0.0), m, [(0.5, [1.0, 2.0])])


# --- characteristics and the grid solver -----------------------------------


def test_characteristics_bond_and_stock():
    m = _market(r=0.05, delta=0.02)
    one = Payoff.from_callable(lambda x: np.ones_like(x))
    assert price_characteristics(one, m, 0.3, 1.7, 1.0) == pytest.approx(
        bond_price(m, 0.3, 1.7), rel=1e-15
    )
    ident = Payoff.power(1.0)
    dd = cumulative_rate(SPEC, m.dividends[0], 1.7) - cumulative_rate(
        SPEC, m.dividends[0], 0.3
    )
    assert price_characteristics(ident, m, 0.3, 1.7, 2.0) == pytest.approx(
        2.0 * math.exp(-dd), rel=1e-14
    )
    with pytest.raises(ValueError, match="horizon"):
        price_characteristics(ident, m, 1.0, 0.5, 1.0)
    with pytest.raises(ValueError, match="positive"):
        price_characteristics(ident, m, 0.0, 1.0, -2.0)


def test_price_fd_bond_payoff_is_exact_discount():
    m = _market(r=0.06, mu=0.09, delta=0.02, sigma=0.25)
    grid = PricingGrid(0.5, 2.0, 64, 64, t_start=0.0, t_end=1.0)
    one = Payoff.from_callable(lambda x: np.ones_like(x))
    field = price_fd(one, m, grid)
    lam = bond_price(m, 0.0, 1.0)
    assert np.max(np.abs(field.values[0] - lam)) < 1e-14


def test_price_fd_matches_characteristics_on_smooth_payoff():
    m = _market(r=0.06, mu=0.09, delta=0.02, sigma=0.25)
    payoff = Payoff.from_callable(
        lambda x: np.exp(-0.5 * (np.log(x) - 0.1) ** 2 / 0.36)
    )
    errors = []
    for n in (128, 256):
        grid = PricingGrid(0.5, 2.0, n, n, t_start=0.0, t_end=1.0)
        field = price_fd(payoff, m, grid)
        exact = np.array(
            [price_characteristics(payoff, m, 0.0, 1.0, x) for x in field.prices]
        )
        errors.append(np.max(np.abs(field.values[0] - exact)))
    assert errors[1] < 5e-3
    # first-order upwind transport: error roughly halves with the grid
    assert 1.5 < errors[0] / errors[1] < 2.6


def test_price_fd_keeps_the_requested_steps_beyond_unit_courant():
    # per-step advection 0.31 to 0.71 against dy = 0.022 (Courant numbers up
    # to 32): each row is a discounted convex combination of the one before,
    # so no step needs halving
    m = _market(r=0.3, delta=0.01)
    grid = PricingGrid(0.5, 2.0, 64, 4, t_start=0.0, t_end=1.0)
    bump = Payoff.from_callable(
        lambda x: np.exp(-0.5 * (np.log(x) - 0.1) ** 2 / 0.36)
    )
    call = Payoff.from_callable(lambda x: np.maximum(x - 1.0, 0.0))
    for payoff in (bump, call):
        field = price_fd(payoff, m, grid)
        assert field.times.size == 5
        exact = np.array(
            [price_characteristics(payoff, m, 0.0, 1.0, x) for x in field.prices]
        )
        assert np.max(np.abs(field.values[0] - exact)) < 1e-4


def test_price_fd_rejects_multi_asset_and_degenerate_window():
    m = MarketSpec(
        spec=SPEC,
        riskless=BasicRate.constant(0.05),
        drifts=(BasicRate.constant(0.08), BasicRate.constant(0.06)),
        volatility=np.array([[0.2, 0.0], [0.0, 0.3]]),
        initial_prices=(1.0, 1.0),
    )
    with pytest.raises(ValueError, match="one price dimension"):
        price_fd(Payoff.power(1.0), m, PricingGrid(0.5, 2.0, 8, 8))
    flat = price_fd(
        Payoff.power(1.0), _market(), PricingGrid(0.5, 2.0, 8, 8, 0.5, 0.5)
    )
    assert flat.values.shape == (1, 8)
    assert np.allclose(flat.values[0], flat.prices)


def _bump(x):
    return np.exp(-0.5 * (np.log(x) - 0.1) ** 2 / 0.36)


def _price_fd_oracle(payoff, market, grid):
    # the per-step loop price_fd ran before it priced the departures that
    # leave the grid in blocks ahead of the march
    y = np.linspace(math.log(grid.x_lo), math.log(grid.x_hi), grid.nx)
    nt = grid.nt
    times = np.linspace(grid.t_start, grid.t_end, nt + 1)
    rc = cumulative_rate(market.spec, market.riskless, times)
    dc = cumulative_rate(market.spec, market.dividends[0], times)
    shifts = np.diff(rc - dc)
    g = np.empty((nt + 1, grid.nx))
    g[nt] = payoff(np.exp(y))
    for k in range(nt - 1, -1, -1):
        dep = y + shifts[k]
        g[k] = math.exp(-(rc[k + 1] - rc[k])) * np.interp(dep, y, g[k + 1])
        outside = (dep < y[0]) | (dep > y[-1])
        if np.any(outside):
            full_shift = (rc[nt] - rc[k]) - (dc[nt] - dc[k])
            g[k][outside] = math.exp(-(rc[nt] - rc[k])) * payoff(
                np.exp(y[outside] + full_shift))
    return g


def _unit_courant_grid(market, nx, nt):
    # a price grid whose spacing is the first step's log-price shift
    t = np.linspace(0.0, 1.0, nt + 1)[:2]
    rc = cumulative_rate(market.spec, market.riskless, t)
    dc = cumulative_rate(market.spec, market.dividends[0], t)
    shift = abs(float(np.diff(rc - dc)[0]))
    return PricingGrid(0.5, 0.5 * math.exp(shift * (nx - 1)), nx, nt, 0.0, 1.0)


@pytest.mark.parametrize("payoff", [
    pytest.param(Payoff.from_callable(_bump), id="callable"),
    pytest.param(Payoff.power(1.5), id="power"),
    pytest.param(Payoff.from_table([0.6, 0.9, 1.4, 2.5], [0.0, 1.0, 0.3, 2.0]), id="table"),
])
@pytest.mark.parametrize("delta, grid", [
    pytest.param(0.02, PricingGrid(0.5, 2.0, 300, 400, 0.0, 1.0), id="four-blocks-upper"),
    pytest.param(0.3, PricingGrid(0.5, 2.0, 300, 400, 0.2, 1.3), id="four-blocks-lower"),
    pytest.param(0.3, PricingGrid(0.5, 2.0, 64, 4, 0.0, 1.0), id="courant-above-one"),
    pytest.param(0.02, PricingGrid(0.5, 2.0, 2, 3, 0.0, 1.0), id="two-nodes"),
    pytest.param(0.02, None, id="unit-courant-one-step"),
    pytest.param(0.3, None, id="unit-courant-three-steps"),
])
def test_price_fd_blocks_match_the_per_step_loop(payoff, delta, grid):
    m = _market(r=0.06, delta=delta, spec=HermiteSpec(0.8, 2))
    if grid is None:
        grid = _unit_courant_grid(m, 40, 1 if delta < 0.06 else 3)
    calls = []

    def counted(x):
        calls.append(np.size(x))
        return payoff(x)

    field = price_fd(Payoff.from_callable(counted), m, grid)
    assert np.array_equal(field.values, _price_fd_oracle(payoff, m, grid))
    # the terminal row, then at most one call per block of rows
    rows_per_block = max(1, (1 << 15) // grid.nx)
    assert 2 <= len(calls) <= 1 + -(-grid.nt // rows_per_block)
    assert calls[0] == grid.nx


def test_pricing_outputs_are_frozen():
    # every output bit of the characteristic, bond, forward and grid prices
    # for three rate kinds, two Hurst indices and two orders, with dividends
    # below the rate (departures leave the grid at its top) and above it
    # (at its bottom); the digest was taken before any of these solvers was
    # tuned for speed, so a faster route must reproduce it exactly.  It was
    # frozen with numpy 2.4.6 on an x86-64 CPU with AVX-512: numpy's SIMD
    # exp, power and interp loops may round a last bit differently on other
    # CPUs or numpy versions, where a new digest alone is no regression
    # (test_price_fd_blocks_match_the_per_step_loop checks price_fd against
    # an in-test oracle on any machine)
    digest = hashlib.sha256()

    def feed(values):
        digest.update(np.ascontiguousarray(values, dtype=float).tobytes())

    rates = (
        BasicRate.constant(0.05),
        BasicRate.polynomial((0.05, 0.01, -0.002), horizon=2.0),
        BasicRate.table((0.0, 0.5, 1.0, 2.0), (0.05, 0.06, 0.055, 0.065)),
    )
    bump, root = Payoff.from_callable(_bump), Payoff.power(0.5)
    path = AssetPath(times=np.linspace(0.0, 2.0, 9), prices=np.linspace(1.0, 1.4, 9))
    for hurst in (0.6, 0.9):
        for order in (1, 2):
            for rate in rates:
                for delta in (0.01, 0.12):
                    m = MarketSpec(spec=HermiteSpec(hurst, order), riskless=rate,
                                   drifts=(BasicRate.constant(0.08),),
                                   volatility=np.array([[0.2]]), initial_prices=(1.0,),
                                   dividends=(BasicRate.constant(delta),))
                    field = price_fd(bump, m, PricingGrid(0.5, 2.0, 33, 24, 0.3, 1.7))
                    feed(field.values)
                    feed([price_characteristics(p, m, 0.3, 1.7, x)
                          for p in (bump, root) for x in field.prices])
                    feed([bond_price(m, 0.3, 1.7), bond_price(m, 0.0, 1.7),
                          forward_value(m, path, 0.3, 1.5, 1.1),
                          forward_value(m, path, 0.3, 1.5, 1.9)])
    two = MarketSpec(spec=SPEC, riskless=rates[2],
                     drifts=(BasicRate.constant(0.08), BasicRate.constant(0.07)),
                     volatility=np.eye(2) * 0.2, initial_prices=(1.0, 1.0),
                     dividends=(BasicRate.constant(0.01), rates[1]))
    feed([price_characteristics(Payoff.power([0.5, 1.5]), two, 0.3, 1.7, [x, 2.0 - x])
          for x in np.linspace(0.5, 1.5, 11)])
    assert digest.hexdigest() == (
        "c83da50c99d6ae22c8ed18066f5ffc44680af6d36426a6ca1e896cc5beab8c24")


# --- bond exponent ----------------------------------------------------------


def test_power_beta_no_dividends_complements_alpha():
    m = _market(delta=0.0)
    beta = power_derivative_beta(0.35, m)
    assert beta.constant == 0.65


def test_power_beta_time_varying_satisfies_budget_identity():
    m = MarketSpec(
        spec=SPEC,
        riskless=BasicRate.constant(0.1),
        drifts=(BasicRate.constant(0.08),),
        volatility=np.array([[0.2]]),
        initial_prices=(1.0,),
        dividends=(BasicRate.polynomial([0.02, 0.01], horizon=4.0),),
    )
    a = 0.4
    beta = power_derivative_beta(a, m)
    assert beta.constant is None
    # beta(t) r_cum(t) must equal (1-a) r_cum(t) + a delta_cum(t) identically
    for t in (0.3, 1.0, 2.5):
        lhs = beta.beta(t) * cumulative_rate(SPEC, m.riskless, t)
        rhs = (1 - a) * cumulative_rate(SPEC, m.riskless, t) + a * cumulative_rate(
            SPEC, m.dividends[0], t
        )
        assert lhs == pytest.approx(rhs, rel=1e-14)
    # short-time limit uses the basic-rate ratio
    assert beta.beta(0.0) == pytest.approx(1 - a + a * 0.02 / 0.1)
    assert beta.beta(1e-9) == pytest.approx(beta.beta(0.0), rel=1e-6)
    # where both cumulative rates underflow to 0, beta is still their exact
    # ratio, the basic-rate one
    assert beta.beta(1e-300) == beta.beta(5e-324) == beta.beta(0.0)


def test_power_beta_validation():
    m = _market()
    with pytest.raises(ValueError, match="entries"):
        power_derivative_beta([0.2, 0.3], m)


# --- bonds and the term structure -------------------------------------------


@pytest.mark.parametrize("hurst", [0.6, 0.75, 0.9])
@pytest.mark.parametrize("order", [3, 4])
def test_bond_price_higher_orders(order, hurst):
    # D from the beta identity, computed here without hermkit
    g = (hurst - 1.0) / order - 0.5
    norm_sq = beta_fn(1.0 + g, -1.0 - 2.0 * g) ** order / (hurst * (2.0 * hurst - 1.0))
    d = math.sqrt(norm_sq / math.factorial(order))
    lam = bond_price(_market(r=0.05, spec=HermiteSpec(hurst, order)), 0.0, 1.0)
    assert math.isfinite(lam)
    assert lam == pytest.approx(math.exp(-0.05 * d), rel=1e-12)


def test_bond_price_identities():
    m = _market(r=0.04)
    assert bond_price(m, 1.3, 1.3) == 1.0
    lam = bond_price(m, 0.2, 1.5)
    assert lam == pytest.approx(
        math.exp(-(cumulative_rate(SPEC, m.riskless, 1.5)
                   - cumulative_rate(SPEC, m.riskless, 0.2))),
        rel=1e-15,
    )
    # multiplicative splicing through an interior date
    assert bond_price(m, 0.2, 0.8) * bond_price(m, 0.8, 1.5) == pytest.approx(
        lam, rel=1e-14
    )
    # discounts fall as maturity grows
    mats = np.linspace(0.5, 3.0, 6)
    discounts = [bond_price(m, 0.5, T) for T in mats]
    assert all(d1 > d2 for d1, d2 in zip(discounts, discounts[1:]))
    with pytest.raises(ValueError):
        bond_price(m, -0.1, 1.0)
    with pytest.raises(ValueError):
        bond_price(m, 1.0, 0.5)


def test_polynomial_riskless_rate_past_its_horizon_raises():
    # accepted as riskless on [0, 2], but r(t) < 0 past t = 5: bonds to
    # t = 10 and 20 used to read 314.7 and 6.0e19
    rate = BasicRate.polynomial([0.05, -0.01], horizon=2.0)
    m = replace(_market(spec=HermiteSpec(0.7, 1)), riskless=rate)
    assert 0.0 < bond_price(m, 0.0, 2.0) < 1.0
    for maturity in (10, 20):
        with pytest.raises(ValueError, match=rf"horizon 2\.0; got t={maturity}\.0"):
            bond_price(m, 0, maturity)
    with pytest.raises(ValueError, match="horizon 2.0"):
        price_fd(Payoff.power(1.0), m, PricingGrid(0.5, 2.0, 8, 8, 0.0, 2.5))


def test_term_structure_grid():
    m = _market(r=0.04)
    anchors = np.array([0.0, 0.5, 1.0])
    mats = np.array([0.5, 1.0, 2.0])
    ts = term_structure(m, anchors, mats)
    assert ts.discounts.shape == (3, 3)
    assert ts.discounts[1, 0] == 1.0  # anchor equals maturity
    assert ts.discounts[2, 0] > 1.0  # maturity before the anchor: ratio form
    for i, t in enumerate(anchors):
        for j, T in enumerate(mats):
            if T >= t:
                assert ts.discounts[i, j] == pytest.approx(
                    bond_price(m, t, T), rel=1e-14
                )
        assert ts.rates[i] == instantaneous_rate(SPEC, m.riskless, t)
    with pytest.raises(ValueError):
        term_structure(m, [-1.0], [1.0])


# --- forwards ----------------------------------------------------------------


def _drift_skeleton(market, horizon=2.0, n=257):
    times = np.linspace(0.0, horizon, n)
    prices = market.initial_prices[0] * np.exp(
        cumulative_rate(market.spec, market.drifts[0], times)
    )
    return AssetPath(times=times, prices=prices)


def test_forward_price_and_replication():
    m = _market(r=0.05, mu=0.07)
    path = _drift_skeleton(m)
    t, T = 0.4, 1.6
    f = forward_price(m, path.at(t), t, T)
    assert f == pytest.approx(path.at(t) / bond_price(m, t, T), rel=1e-15)
    # zero value at inception, exact by construction
    assert forward_value(m, path, t, T, t) == 0.0
    # at any later date the value is the replication portfolio's
    for u in (0.9, T, 1.9):  # including the post-maturity continuation
        expected = -path.at(u) + f * math.exp(
            -(cumulative_rate(SPEC, m.riskless, T)
              - cumulative_rate(SPEC, m.riskless, u))
        ) * bond_price(m, 0.0, 0.0)
        got = forward_value(m, path, t, T, u)
        assert got == pytest.approx(expected, abs=1e-12)
    # at maturity the portfolio is worth F - S(T) in bond terms
    assert forward_value(m, path, t, T, T) == pytest.approx(
        (f - path.at(T) / bond_price(m, T, T)) * bond_price(m, T, T), abs=1e-12
    )


def test_forward_validation():
    m = _market()
    path = _drift_skeleton(m)
    with pytest.raises(ValueError, match="positive"):
        forward_price(m, 0.0, 0.2, 1.0)
    with pytest.raises(ValueError):
        forward_value(m, path, 1.0, 1.5, 0.5)
    with pytest.raises(ValueError):
        forward_value(m, path, 1.0, 0.5, 1.2)


# --- futures -----------------------------------------------------------------


def _futures_market():
    return _rate_market(BasicRate.constant(0.15), SPEC)


def _futures_path(market, n=4097):
    times = np.linspace(0.0, 1.0, n)
    prices = np.exp(cumulative_rate(market.spec, market.drifts[0], times))
    return AssetPath(times=times, prices=prices)


def _profile(x):
    return 0.75 + 0.5 * np.tanh((np.asarray(x, dtype=float) - 1.9) / 0.25)


def _rate_market(rate, spec):
    return MarketSpec(spec=spec, riskless=rate, drifts=(BasicRate.constant(0.05),),
                      volatility=np.array([[0.2]]), initial_prices=(1.0,))


# one riskless rate per basic-rate kind, at the futures market's level 0.15
_RATES = {
    "constant": BasicRate.constant(0.15),
    "polynomial": BasicRate.polynomial((0.15, 0.03, -0.006), horizon=2.0),
    "table": BasicRate.table((0.0, 0.5, 1.0, 2.0), (0.15, 0.18, 0.165, 0.195)),
}


def test_futures_residual_degenerate_fields():
    m = _futures_market()
    x = np.linspace(0.5, 2.0, 11)
    t = np.linspace(0.0, 1.0, 9)
    path_vals = np.full(t.size, 1.2)
    zero = FuturesField(x_grid=x, t_grid=t, psi=np.zeros((9, 11)),
                        path_values=path_vals)
    assert np.all(futures_residual(zero, m) == 0.0)
    c = 0.8
    const = FuturesField(x_grid=x, t_grid=t, psi=np.full((9, 11), c),
                         path_values=path_vals)
    # gradients of a constant vanish identically, leaving the time integral
    assert np.allclose(futures_residual(const, m), c * t, atol=1e-12)
    single = FuturesField(x_grid=x, t_grid=t[:1], psi=np.full((1, 11), c),
                          path_values=path_vals[:1])
    assert np.all(futures_residual(single, m) == 0.0)


def test_futures_march_residual_and_consistency():
    for kind, rate in _RATES.items():
        m = _rate_market(rate, SPEC)
        path = _futures_path(m)
        grid = PricingGrid(0.4, 3.4, 128, 128, t_start=0.0, t_end=1.0)
        field = futures_march(_profile, path, m, grid)
        assert field.t_grid[0] == 0.0 and field.t_grid[-1] == 1.0
        assert np.allclose(field.psi[0], _profile(field.x_grid))
        assert field.integral is not None and field.integral[0] == 0.0
        assert np.all(np.diff(field.integral) > 0)
        assert np.max(np.abs(field.residual)) < 5e-4, kind
        recomputed = futures_residual(field, m)
        assert np.array_equal(recomputed, field.residual)


def test_futures_march_zero_horizon_returns_profile():
    m = _futures_market()
    path = _futures_path(m, n=65)
    grid = PricingGrid(0.4, 3.4, 33, 8, t_start=0.0, t_end=0.0)
    field = futures_march(_profile, path, m, grid)
    assert field.psi.shape == (1, 33)
    assert np.allclose(field.psi[0], _profile(field.x_grid))
    assert np.all(field.residual == 0.0)


def test_futures_march_guards():
    m = _futures_market()
    path = _futures_path(m)
    with pytest.raises(ValueError, match="t_start"):
        futures_march(_profile, path, m,
                      PricingGrid(0.4, 3.4, 16, 16, t_start=0.1, t_end=1.0))
    with pytest.raises(ValueError, match="bounded away from zero"):
        futures_march(lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                      path, m, PricingGrid(0.4, 3.4, 16, 16, 0.0, 1.0))
    short = AssetPath(times=np.linspace(0.0, 0.5, 33),
                      prices=np.ones(33))
    with pytest.raises(ValueError, match="horizon"):
        futures_march(_profile, short, m, PricingGrid(0.4, 3.4, 16, 16, 0.0, 1.0))
    # the path must stay inside the price grid, and the error names the time
    with pytest.raises(ValueError, match="leaves the x grid at t=0"):
        futures_march(_profile, path, m, PricingGrid(1.2, 3.4, 16, 16, 0.0, 1.0))


def _assert_rows_on_characteristics(field, profile, market):
    # every row is exactly psi(x, rho_n)^2 = profile(x - rho_n)^2 + 2 J_n, with
    # J the trapezoid rho-antiderivative of the marched integral I
    nt = field.t_grid.size - 1
    rho = cumulative_rate(market.spec, market.riskless, field.t_grid)
    j_acc = np.zeros(nt + 1)
    for n in range(nt):
        j_acc[n + 1] = j_acc[n] + 0.5 * (rho[n + 1] - rho[n]) * (
            field.integral[n] + field.integral[n + 1])
    for n in range(nt + 1):
        sq = field.psi[n] ** 2
        feet = field.x_grid - rho[n]
        assert np.all(np.abs(sq - 2.0 * j_acc[n] - profile(feet) ** 2) <= 1e-12 * sq)


def test_futures_march_rows_follow_the_characteristics():
    m = _futures_market()
    field = futures_march(_profile, _futures_path(m), m,
                          PricingGrid(0.4, 3.4, 128, 128, 0.0, 1.0))
    _assert_rows_on_characteristics(field, _profile, m)


def test_futures_march_zero_threshold_abort():
    # a step profile that sits just above the zero threshold: the exact field
    # is at least the profile everywhere, so the march goes through
    m = _futures_market()
    path = _futures_path(m, n=257)

    def spiky(x):
        x = np.asarray(x, dtype=float)
        return 2e-8 + 1.0 * (x > 2.0)

    field = futures_march(spiky, path, m, PricingGrid(0.4, 3.4, 64, 64, 0.0, 1.0))
    assert np.min(field.psi) >= 2e-8
    _assert_rows_on_characteristics(field, spiky, m)


@pytest.mark.parametrize("inflow, shown", [
    pytest.param(np.nan, "nan", id="nan"),
    pytest.param(-1.0, "-1", id="negative"),
])
def test_futures_march_rejects_bad_profile_left_of_grid(inflow, shown):
    # the characteristic feet of the inflow cells lie left of x_lo = 0.4
    m = _futures_market()

    def profile(x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.4, inflow, _profile(x))

    with pytest.raises(ValueError, match=rf"got {shown} at foot x=0\.\d+, t=0\.\d+"):
        futures_march(profile, _futures_path(m), m, PricingGrid(0.4, 3.4, 32, 32, 0.0, 1.0))


@pytest.mark.parametrize("kind", sorted(_RATES))
def test_futures_march_steps_uniformly_in_time(kind):
    m = _rate_market(_RATES[kind], SPEC)
    nt, horizon = 64, 0.75
    field = futures_march(_profile, _futures_path(m, n=257), m,
                          PricingGrid(0.4, 3.4, 16, nt, 0.0, horizon))
    assert np.array_equal(field.t_grid, np.linspace(0.0, horizon, nt + 1))
    _assert_rows_on_characteristics(field, _profile, m)


@pytest.mark.parametrize("kind", sorted(_RATES))
def test_futures_integral_converges_at_second_order(kind):
    # I(T) does not depend on the x grid, so two columns do; the path's
    # nodes hold every march's time nodes, so its interpolation adds no error
    m = _rate_market(_RATES[kind], SPEC)
    path = _futures_path(m, n=2 ** 14 + 1)

    def integral_at(nt):
        grid = PricingGrid(0.4, 3.4, 2, nt, 0.0, 1.0)
        return futures_march(_profile, path, m, grid).integral[-1]

    ref = integral_at(2 ** 14)
    errs = np.array([abs(integral_at(nt) - ref) for nt in (64, 128, 256, 512, 1024)])
    ratios = errs[:-1] / errs[1:]
    assert np.all(ratios >= 3.8), ratios


def test_futures_march_rejects_a_falling_cumulative_rate():
    # r(t) = 0.1 - 0.09 t stays in [0.01, 0.1], but D r(t) t^1.2 peaks at
    # t = 0.12 / 0.198 = 0.606 and falls after it
    rate = BasicRate.polynomial((0.1, -0.09), horizon=1.0)
    m = _rate_market(rate, HermiteSpec(0.6, 1))
    times = np.linspace(0.0, 1.0, 2049)
    path = AssetPath(times=times, prices=np.exp(0.05 * times))
    with pytest.raises(ValueError, match=r"stops increasing after t=0\.60"):
        futures_march(_profile, path, m, PricingGrid(0.4, 3.4, 64, 64, 0.0, 1.0))
    # the same rate is fine on a horizon where it still increases, and the
    # residual's rho differences stay nonzero there
    field = futures_march(_profile, path, m, PricingGrid(0.4, 3.4, 64, 64, 0.0, 0.5))
    assert np.all(np.isfinite(field.residual))


def test_futures_march_takes_an_asset_path_only():
    # a SamplePath starts at 0, below every admissible x grid (x_lo > 0)
    m = _futures_market()
    path = _futures_path(m)
    sample = SamplePath(path.times, path.prices - path.prices[0], SPEC, "exact_fbm", 0)
    with pytest.raises(TypeError, match="^path must be an AssetPath; got SamplePath$"):
        futures_march(_profile, sample, m, PricingGrid(0.4, 3.4, 16, 16, 0.0, 1.0))


def _residual_oracle(field, market):
    # the per-row np.interp of full np.gradient fields that futures_residual
    # read from before it gathered the stencils at the path
    from scipy.integrate import cumulative_trapezoid

    t, x, xp = field.t_grid, field.x_grid, field.path_values
    if t.size < 2:
        return np.zeros(t.size)
    psi_path = np.array([np.interp(xp[k], x, field.psi[k]) for k in range(t.size)])
    integral = cumulative_trapezoid(psi_path, t, initial=0.0)
    rho = cumulative_rate(market.spec, market.riskless, t)
    psi_x = np.gradient(field.psi, x, axis=1, edge_order=2 if x.size >= 3 else 1)
    psi_rho = np.gradient(field.psi, rho, axis=0, edge_order=2 if t.size >= 3 else 1)
    px = np.array([np.interp(xp[k], x, psi_x[k]) for k in range(t.size)])
    prho = np.array([np.interp(xp[k], x, psi_rho[k]) for k in range(t.size)])
    return integral - psi_path * px - psi_path * prho


@pytest.mark.parametrize("nt, nx, uniform", [
    (2, 11, False), (3, 11, False), (9, 2, True), (9, 3, False),
    (9, 9, True), (40, 17, False), (2, 2, True),
])
def test_futures_residual_matches_full_gradient_fields(nt, nx, uniform):
    rng = np.random.default_rng(1000 * nt + nx)
    m = _futures_market()
    x = np.linspace(0.5, 2.5, nx)  # 0.25-spaced at nx = 9: equal spacings
    if not uniform:
        x = np.sort(np.concatenate(([0.5, 2.5], rng.uniform(0.5, 2.5, nx - 2))))
    t = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, nt - 2)), [1.0]))
    # path values inside the grid, on grid nodes and at both ends
    path_vals = rng.uniform(x[0], x[-1], nt)
    path_vals[: min(nt, 3)] = [x[0], x[-1], x[nx // 2]][: min(nt, 3)]
    field = FuturesField(x_grid=x, t_grid=t, psi=rng.uniform(0.5, 1.5, (nt, nx)),
                         path_values=path_vals)
    got = futures_residual(field, m)
    assert np.max(np.abs(got - _residual_oracle(field, m))) <= 1e-13


def test_futures_march_fills_rows_in_blocks():
    # 512 x 130 points span three row blocks of at most 2^15 points; every
    # row stays on its characteristic, and a bad foot in a later block is
    # reported at the same place as a row-by-row scan finds it
    m = _futures_market()
    path = _futures_path(m)
    grid = PricingGrid(0.4, 3.4, 512, 130, 0.0, 1.0)
    field = futures_march(_profile, path, m, grid)
    _assert_rows_on_characteristics(field, _profile, m)
    assert np.max(np.abs(field.residual - _residual_oracle(field, m))) <= 1e-13

    rho = cumulative_rate(SPEC, m.riskless, field.t_grid)
    cut = 0.4 - 0.6 * rho[-1]
    n = next(n for n in range(1, grid.nt + 1) if field.x_grid[0] - rho[n] < cut)
    assert n > 64  # beyond the first block

    def profile(x):
        x = np.asarray(x, dtype=float)
        return np.where(x < cut, -1.0, _profile(x))

    shown = rf"foot x={field.x_grid[0] - rho[n]:.6g}, t={field.t_grid[n]:.6g}"
    with pytest.raises(ValueError, match=shown.replace(".", r"\.")):
        futures_march(profile, path, m, grid)


_TABLE_RISKLESS = BasicRate.table([0.0, 1.0, 2.0], [0.05, 0.06, 0.055])


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda m: cumulative_rate(SPEC, m.riskless, np.array([0.5, np.nan])), "t",
                 id="cumulative_rate"),
    pytest.param(lambda m: instantaneous_rate(SPEC, m.riskless, np.nan), "t",
                 id="instantaneous_rate"),
    pytest.param(lambda m: bond_price(m, np.nan, 1.0), "t", id="bond_price"),
    pytest.param(lambda m: forward_price(m, 1.0, 0.0, np.nan), "maturity", id="forward_price"),
    pytest.param(lambda m: term_structure(m, [0.0, np.nan], [1.0]), "anchor",
                 id="term_structure"),
    pytest.param(lambda m: cumulative_rate(SPEC, m.riskless, np.inf), "t",
                 id="cumulative_rate-inf"),
    pytest.param(lambda m: instantaneous_rate(SPEC, m.riskless, np.inf), "t",
                 id="instantaneous_rate-inf"),
    pytest.param(lambda m: bond_price(m, np.inf, np.inf), "t", id="bond_price-inf"),
    # the one call that returned a number (0.0) before
    pytest.param(lambda m: bond_price(m, 0.0, np.inf), "maturity", id="bond_price-maturity-inf"),
    pytest.param(lambda m: forward_price(m, 1.0, np.inf, np.inf), "t", id="forward_price-inf"),
    pytest.param(lambda m: price_characteristics(Payoff.power([0.5]), m, 0.0, np.inf, 1.0),
                 "horizon", id="price_characteristics-inf"),
    pytest.param(lambda m: term_structure(m, [np.inf], [np.inf]), "anchor",
                 id="term_structure-inf"),
    pytest.param(lambda m: power_derivative_beta([0.5], replace(m, riskless=_TABLE_RISKLESS))
                 .beta(np.inf), "t", id="beta-inf"),
    pytest.param(lambda m: perpetual_pde_residual(
        SmoothField(value=lambda t, x: 1.0, d_t=lambda t, x: 0.0, d_x=lambda t, x: 0.0),
        m, [(np.inf, 1.0)]), "t", id="perpetual_pde_residual-inf"),
])
def test_nan_times_are_rejected(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be nonnegative and finite; got (nan|inf)$"):
        call(_market())


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda m: AssetPath(times=[0.0, 1.0], prices=[1.0, np.nan]),
                 "^prices must be positive and finite; got nan$", id="asset-price"),
    pytest.param(lambda m: AssetPath(times=[0.0, np.nan, 2.0], prices=[1.0, 1.0, 1.0]),
                 "times must be strictly increasing", id="asset-time"),
    pytest.param(lambda m: AssetPath(times=[0.0, 1.0, np.inf], prices=[1.0, 1.0, 1.0]),
                 "^times must be nonnegative and finite; got inf$", id="asset-time-inf"),
    pytest.param(lambda m: AssetPath(times=[-1.0, 1.0], prices=[1.0, 1.0]),
                 "^times must be nonnegative and finite; got -1.0$", id="asset-time-negative"),
    pytest.param(lambda m: SamplePath(np.array([0.0, np.nan, 2.0]), np.zeros(3), SPEC,
                                      "exact_fbm", 0),
                 "times must be strictly increasing", id="sample-path-time"),
    pytest.param(lambda m: replace(m, initial_prices=(np.nan,)),
                 "^initial price must be positive and finite; got nan$", id="initial-price"),
    pytest.param(lambda m: BasicRate.table([0.0, 1.0, 2.0], [np.nan, 0.05, 0.06]),
                 "table rate parameters must be finite", id="table-first-value"),
    pytest.param(lambda m: BasicRate.table([0.0, 1.0, 2.0], [0.05, np.nan, 0.06]),
                 "table rate parameters must be finite", id="table-inner-value"),
    pytest.param(lambda m: BasicRate.polynomial([0.05, np.nan]),
                 "polynomial rate parameters must be finite", id="polynomial-coefficient"),
    pytest.param(lambda m: BasicRate.polynomial([0.05, np.inf]),
                 "polynomial rate parameters must be finite", id="polynomial-infinite"),
    pytest.param(lambda m: BasicRate.polynomial([]),
                 "^polynomial rate parameters must be nonempty$",
                 id="polynomial-empty"),
    pytest.param(lambda m: AssetPath(times=[0.0, 1.0], prices=[1.0, 2.0]).at(np.nan),
                 "time nan outside the path span", id="asset-path-at"),
    pytest.param(lambda m: BasicRate.table([0.0, np.nan, 2.0], [0.05, 0.05, 0.05]),
                 "table times must be strictly increasing", id="table-time"),
    pytest.param(lambda m: price_characteristics(Payoff.power(0.4), m, 0.0, 1.0, np.nan),
                 "^price coordinate must be positive and finite; got nan$", id="spot"),
    pytest.param(lambda m: power_derivative_beta([np.nan], m),
                 "alpha must be finite", id="alpha"),
    pytest.param(lambda m: price_characteristics(Payoff.power(np.nan), m, 0.0, 1.0, 1.0),
                 "power exponents must be finite", id="power-exponent"),
    pytest.param(lambda m: replace(m, initial_prices=(np.inf,)),
                 "^initial price must be positive and finite; got inf$", id="initial-price-inf"),
    pytest.param(lambda m: replace(m, initial_prices=(1.0, 2.0)),
                 r"^initial_prices must supply one price per asset \(1\); got 2$",
                 id="initial-price-count"),
    pytest.param(lambda m: replace(m, volatility=np.array([[np.nan]])),
                 "^volatility entry must be finite; got nan$", id="volatility"),
    pytest.param(lambda m: forward_price(m, np.inf, 0.0, 1.0),
                 "^spot must be positive and finite; got inf$", id="forward-spot"),
    pytest.param(lambda m: price_characteristics(Payoff.power(0.4), m, 0.0, 1.0, np.inf),
                 "^price coordinate must be positive and finite; got inf$", id="spot-inf"),
    pytest.param(lambda m: perpetual_pde_residual(
        SmoothField(value=lambda t, x: 1.0, d_t=lambda t, x: 0.0, d_x=lambda t, x: 0.0),
        m, [(0.5, np.nan)]), "^price coordinate must be positive and finite; got nan$",
        id="perpetual_pde_residual-x"),
])
def test_nan_inputs_are_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call(_market())
