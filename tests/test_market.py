"""Rate machinery, asset dynamics, deflation, market price of risk."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from hermkit import (
    AssetPath,
    BasicRate,
    HermiteSpec,
    MarketSpec,
    StratonovichConfig,
    cumulative_rate,
    deflate,
    eval_kernel,
    instantaneous_rate,
    riskless_path,
    riskless_price,
    simulate_fbm_exact,
    solve_market_price_of_risk,
    stock_paths,
    stock_paths_sde,
)
from hermkit.kernel import d_constant
from hermkit.market import combine_drivers, market_price_of_risk, risk_price_consistency

SPEC = HermiteSpec(0.7, 2)


def _market(mu=0.08, r=0.05, sigma=0.2, s0=1.0, delta=0.0):
    return MarketSpec(
        spec=SPEC,
        riskless=BasicRate.constant(r),
        drifts=(BasicRate.constant(mu),),
        volatility=np.array([[sigma]]),
        initial_prices=(s0,),
        dividends=(BasicRate.constant(delta),),
    )


# --- basic rates ---------------------------------------------------------


def test_basic_rate_kinds_and_calls():
    c = BasicRate.constant(0.05)
    assert c(0.3) == 0.05 and c.derivative(1.2) == 0.0
    p = BasicRate.polynomial([0.02, 0.01], horizon=5.0)
    assert p(2.0) == pytest.approx(0.04)
    assert p.derivative(2.0) == pytest.approx(0.01)
    tab = BasicRate.table([0.0, 1.0, 2.0], [0.01, 0.03, 0.02])
    assert tab(0.5) == pytest.approx(0.02)
    assert tab(5.0) == pytest.approx(0.02)  # clamped beyond the table
    # segment slopes, the right one at a node, 0 where the table is clamped
    t = np.array([-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 5.0])
    assert tab.derivative(t).tolist() == pytest.approx([0.0, 0.02, 0.02, -0.01, -0.01, 0.0, 0.0])
    assert tab.derivative(0.5) == pytest.approx(0.02)


def test_basic_rate_bounds_are_derived_from_the_parameters():
    assert BasicRate.constant(0.05).bounds == (0.05, 0.05)
    assert BasicRate.table([0.0, 1.0, 2.0], [0.03, 0.01, 0.02]).bounds == (0.01, 0.03)
    # monotone on [0, 2]; the interior maximum 0.0625 at t = 2.5 on [0, 4]
    assert BasicRate.polynomial([0.05, 0.01], horizon=2.0).bounds == (0.05, 0.07)
    assert BasicRate.polynomial([0.0, 0.05, -0.01], horizon=4.0).bounds == pytest.approx(
        (0.0, 0.0625), abs=1e-15)
    # stored bounds that contradict the parameters are no longer accepted
    with pytest.raises(TypeError):
        BasicRate("constant", (-0.05,), bounds=(0.1, 0.2))
    with pytest.raises(ValueError, match="no other kind takes one"):
        BasicRate("constant", (-0.05,), (0.1, 0.2))
    with pytest.raises(ValueError, match="polynomial horizon must be positive and finite"):
        BasicRate.polynomial([0.05], horizon=np.nan)


def test_polynomial_rate_dip_between_samples_is_not_riskless():
    # r(t) = (t - a)^2 - 1e-8 dips below zero around a, between any two
    # points of a 4097-point grid on [0, 10]
    a = 5.0 + 10.0 / 8192
    rate = BasicRate.polynomial([a * a - 1e-8, -2.0 * a, 1.0], horizon=10.0)
    assert rate.bounds[0] == pytest.approx(-1e-8, rel=1e-5)
    with pytest.raises(ValueError, match="bounded away from zero"):
        MarketSpec(spec=SPEC, riskless=rate, drifts=(BasicRate.constant(0.08),),
                   volatility=np.array([[0.2]]), initial_prices=(1.0,))


def test_polynomial_rate_past_its_horizon_raises():
    # r(t) = 0.05 - 0.01 t has bounds (0.03, 0.05) on [0, 2] but turns
    # negative past t = 5, where it used to be read without complaint
    rate = BasicRate.polynomial([0.05, -0.01], horizon=2.0)
    assert rate(2.0) == pytest.approx(0.03) and rate.derivative(2.0) == -0.01
    late = r"holds up to its horizon 2\.0; got t="
    for call in (lambda: rate(2.5), lambda: rate.derivative(np.array([1.0, 3.0])),
                 lambda: cumulative_rate(SPEC, rate, np.array([0.5, 10.0])),
                 lambda: instantaneous_rate(SPEC, rate, 20.0), lambda: rate(np.nan)):
        with pytest.raises(ValueError, match=late):
            call()
    with pytest.raises(ValueError, match=late + r"3\.0"):
        rate.derivative(np.array([1.0, 3.0, 4.0]))


def test_cumulative_rate_form_and_anchor():
    r = BasicRate.constant(0.05)
    t = np.array([0.0, 0.5, 1.0, 2.0])
    cum = cumulative_rate(SPEC, r, t)
    d = d_constant(SPEC)
    assert cum[0] == 0.0
    assert np.allclose(cum, d * 0.05 * t ** (2 * SPEC.hurst))
    assert np.all(np.diff(cum) > 0)


def test_instantaneous_integrates_back_to_cumulative():
    # fundamental-theorem round trip; a table rate's kinks are panel ends
    nodes = [0.0, 0.5, 1.0, 1.3]
    table = BasicRate.table(nodes, [0.05, 0.06, 0.055, 0.065])
    for rate in (BasicRate.constant(0.05), BasicRate.polynomial([0.03, 0.02, -0.004]), table):
        target = cumulative_rate(SPEC, rate, 1.7)
        val, err = quad(lambda u: instantaneous_rate(SPEC, rate, u), 0.0, 1.7,
                        points=nodes[1:])
        assert val == pytest.approx(target, abs=max(1e-10, 10 * err))


def test_instantaneous_rate_is_the_right_derivative_at_table_nodes():
    tab = BasicRate.table([0.0, 0.5, 1.0, 2.0], [0.05, 0.06, 0.055, 0.065])
    h2, d = 2.0 * SPEC.hurst, d_constant(SPEC)
    for node, right in ((0.5, 1.0), (1.0, 2.0)):
        slope = (tab(right) - tab(node)) / (right - node)
        expected = d * (slope * node**h2 + h2 * tab(node) * node ** (h2 - 1.0))
        assert instantaneous_rate(SPEC, tab, node) == pytest.approx(expected, rel=1e-14)
        assert instantaneous_rate(SPEC, tab, [node])[0] == pytest.approx(expected, rel=1e-14)


def test_instantaneous_rate_at_zero_and_table_fallback():
    r = BasicRate.constant(0.05)
    assert instantaneous_rate(SPEC, r, 0.0) == 0.0
    tab = BasicRate.table([0.0, 1.0], [0.05, 0.05])
    assert instantaneous_rate(SPEC, tab, 0.0) == 0.0
    # a flat table is the constant rate, bit for bit
    t = np.array([0.3, 0.8, 1.0, 2.5])
    assert np.array_equal(instantaneous_rate(SPEC, tab, t), instantaneous_rate(SPEC, r, t))


def test_riskless_price_is_exp_cumulative():
    r = BasicRate.constant(0.04)
    assert riskless_price(SPEC, r, 0.0) == 1.0
    t = 1.3
    # the implementation's own exp: math.exp may differ from np.exp by an ulp
    assert riskless_price(SPEC, r, t) == float(np.exp(cumulative_rate(SPEC, r, t)))


# --- market construction -------------------------------------------------


def test_market_validation():
    with pytest.raises(ValueError, match="bounded away from zero"):
        _market(r=0.0)
    with pytest.raises(ValueError, match="positive"):
        _market(s0=-1.0)
    with pytest.raises(ValueError, match="volatility"):
        MarketSpec(
            spec=SPEC,
            riskless=BasicRate.constant(0.05),
            drifts=(BasicRate.constant(0.08),),
            volatility=np.array([[0.2, 0.1]]),
            initial_prices=(1.0,),
        )


def test_asset_path_reads():
    times = np.linspace(0.0, 2.0, 9)
    path = AssetPath(times=times, prices=np.exp(times))
    assert path.at(0.25) == pytest.approx(np.interp(0.25, times, np.exp(times)))
    with pytest.raises(ValueError):
        path.at(2.5)
    with pytest.raises(ValueError, match="positive"):
        AssetPath(times=times, prices=times - 1.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="^prices must be strictly positive and finite$"):
            AssetPath(times=times, prices=np.where(times == 1.0, bad, 1.0))


def test_riskless_path_matches_price():
    m = _market()
    times = np.linspace(0.0, 1.0, 5)
    path = riskless_path(m, times)
    assert np.allclose(path.prices, riskless_price(SPEC, m.riskless, times))


def test_stock_explicit_matches_sde_for_constant_vol():
    m = _market()
    driver = simulate_fbm_exact(0.7, 512, 1.0, 21)
    explicit = stock_paths(m, [driver])[0]
    sde = stock_paths_sde(m, [driver])[0]
    assert np.max(np.abs(explicit.prices - sde.prices)) < 1e-12
    # exponential form: log S - sigma X equals the drift part exactly
    drift_part = np.log(explicit.prices) - 0.2 * driver.values
    assert np.allclose(drift_part, cumulative_rate(SPEC, m.drifts[0], driver.times))


def test_stock_paths_requires_shared_grid():
    m = MarketSpec(
        spec=SPEC,
        riskless=BasicRate.constant(0.05),
        drifts=(BasicRate.constant(0.08), BasicRate.constant(0.06)),
        volatility=np.array([[0.2, 0.0], [0.1, 0.3]]),
        initial_prices=(1.0, 2.0),
    )
    a = simulate_fbm_exact(0.7, 64, 1.0, 0)
    b = simulate_fbm_exact(0.7, 32, 1.0, 1)
    with pytest.raises(ValueError, match="grid"):
        stock_paths(m, [a, b])


def test_stock_paths_nonconstant_vol_redirects():
    m = MarketSpec(
        spec=SPEC,
        riskless=BasicRate.constant(0.05),
        drifts=(BasicRate.constant(0.08),),
        volatility=np.array([[[0.2]], [[0.3]]]),
        initial_prices=(1.0,),
        volatility_times=np.array([0.0, 1.0]),
    )
    driver = simulate_fbm_exact(0.7, 64, 1.0, 2)
    with pytest.raises(ValueError, match="stock_paths_sde"):
        stock_paths(m, [driver])
    sde = stock_paths_sde(m, [driver], StratonovichConfig(0.5))[0]
    assert sde.prices[0] == 1.0 and np.all(sde.prices > 0)


def test_sigma_names_a_nan_time():
    tabulated = MarketSpec(
        spec=SPEC,
        riskless=BasicRate.constant(0.05),
        drifts=(BasicRate.constant(0.08),),
        volatility=np.array([[[0.2]], [[0.3]]]),
        initial_prices=(1.0,),
        volatility_times=np.array([0.0, 1.0]),
    )
    for market in (tabulated, _market()):
        with pytest.raises(ValueError, match=r"^volatility time must not be NaN; got nan$"):
            market.sigma(math.nan)
    assert np.allclose(tabulated.sigma(0.5), [[0.25]], rtol=1e-15, atol=0.0)


def test_deflation_round_trip():
    m = _market()
    driver = simulate_fbm_exact(0.7, 256, 1.0, 5)
    stock = stock_paths(m, [driver])[0]
    deflated = deflate(stock, m)
    restored = deflated.prices * riskless_price(SPEC, m.riskless, deflated.times)
    assert np.max(np.abs(restored - stock.prices)) < 1e-12
    assert deflated.prices[0] == stock.prices[0]


# --- market price of risk -------------------------------------------------


def test_market_price_of_risk_single_asset():
    m = _market(mu=0.08, r=0.05, sigma=0.2)
    t, v = 0.8, np.array([0.15, 0.35])
    z = solve_market_price_of_risk(m, t, v)
    expected = (0.08 - 0.05) * eval_kernel(SPEC, t, v) / 0.2
    assert z.shape == (1,)
    assert z[0] == pytest.approx(expected, rel=1e-12)


def test_market_price_of_risk_zero_when_drift_equals_riskless():
    m = _market(mu=0.05, r=0.05)
    z = solve_market_price_of_risk(m, 0.7, [0.1, 0.4])
    assert z[0] == 0.0
    assert risk_price_consistency(m, [0.1, 0.4], np.linspace(0.4, 1.0, 4)) == 0.0


def test_market_price_of_risk_two_assets():
    m = MarketSpec(
        spec=SPEC,
        riskless=BasicRate.constant(0.05),
        drifts=(BasicRate.constant(0.08), BasicRate.constant(0.03)),
        volatility=np.array([[0.2, 0.05], [0.0, 0.3]]),
        initial_prices=(1.0, 1.0),
    )
    t, v = 1.0, np.array([0.3, 0.6])
    z = solve_market_price_of_risk(m, t, v)
    k = eval_kernel(SPEC, t, v)
    rhs = np.array([(0.08 - 0.05) * k, (0.03 - 0.05) * k])
    assert np.allclose(m.sigma(t) @ z, rhs, rtol=1e-12, atol=1e-15)


def test_market_price_of_risk_at_time_zero_vanishes():
    m = _market()
    assert solve_market_price_of_risk(m, 0.0, [-0.5, -0.5])[0] == 0.0


def test_singular_volatility_is_reported_with_time():
    m = MarketSpec(
        spec=SPEC,
        riskless=BasicRate.constant(0.05),
        drifts=(BasicRate.constant(0.08), BasicRate.constant(0.03)),
        volatility=np.array([[0.2, 0.1], [0.4, 0.2]]),
        initial_prices=(1.0, 1.0),
    )
    with pytest.raises(ValueError, match="t=0.7"):
        solve_market_price_of_risk(m, 0.7, [0.1, 0.4])


def test_risk_price_closure_and_consistency_diagnostic():
    m = _market(mu=0.09, r=0.05)
    rp = market_price_of_risk(m, 0.9)
    v = np.array([0.2, 0.5])
    assert rp(v)[0] == pytest.approx(solve_market_price_of_risk(m, 0.9, v)[0])
    # constant-coefficient spread across evaluation times is positive but
    # finite: the system is solvable time by time, not time-consistently
    spread = risk_price_consistency(m, v, np.linspace(0.5, 1.0, 4))
    assert np.isfinite(spread) and spread > 0


def test_combine_drivers_euclidean_reduction():
    a = simulate_fbm_exact(0.7, 128, 1.0, 31)
    b = simulate_fbm_exact(0.7, 128, 1.0, 32)
    sigma_s, combined = combine_drivers([3.0, 4.0], [a, b])
    assert sigma_s == 5.0
    assert np.allclose(combined.values, (3 * a.values + 4 * b.values) / 5)
    with pytest.raises(ValueError, match="zero"):
        combine_drivers([0.0, 0.0], [a, b])
