"""The one real-number rule: every time, price, spot, exponent, coordinate,
volatility entry and rate parameter of the public API.

A real is finite, and by its floor also >= 0 (a time) or > 0 (a span, a
price).  NaN, +-inf and values below the floor (0 for a positive one) raise
ValueError naming the parameter and the first bad entry, as a Python float,
an ``np.float64`` or inside an array; a bool or a string is not a real;
valid values give the same bits as before the rule had one home.
"""

import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hermkit as hk
from hermkit.pricing import SmoothField

SPEC1 = hk.HermiteSpec(0.7, 1)
SPEC2 = hk.HermiteSpec(0.7, 2)
TABLE = hk.BasicRate.table([0.0, 0.5, 1.0, 2.0], [0.05, 0.06, 0.055, 0.065])
MARKET = hk.MarketSpec(spec=SPEC2, riskless=TABLE, drifts=(hk.BasicRate.constant(0.08),),
                       volatility=np.array([[0.2]]), initial_prices=(1.0,),
                       dividends=(hk.BasicRate.constant(0.01),))
PATH = hk.simulate_fbm_exact(0.7, 64, 4.0, 0)
ASSET = hk.AssetPath(np.linspace(0.0, 3.0, 13), np.exp(np.linspace(0.0, 0.3, 13)))
FIELD = SmoothField(value=lambda t, x: float(x[0]) ** 0.5, d_t=lambda t, x: 0.0,
                    d_x=lambda t, x: 0.5 * x**-0.5)
POWER = hk.Payoff.power(0.5)


def _tabulated(times):
    return hk.MarketSpec(spec=SPEC2, riskless=TABLE, drifts=(hk.BasicRate.constant(0.08),),
                         volatility=np.array([[[0.2]], [[0.3]]]), initial_prices=(1.0,),
                         volatility_times=times)


def _market(**changes):
    return hk.MarketSpec(**{"spec": SPEC2, "riskless": TABLE,
                            "drifts": (hk.BasicRate.constant(0.08),),
                            "volatility": np.array([[0.2]]), "initial_prices": (1.0,),
                            **changes})


def _price_fd(*grid):
    return hk.price_fd(POWER, MARKET, hk.PricingGrid(*grid)).values


TAB_MARKET = _tabulated(np.array([0.0, 1.0]))

TIMES = (0.0, 5e-324, 1e-300, 1e-9, 0.125, 0.3, 0.5, 1.0, 1.75, 3.0)
SPANS = TIMES[1:]
REALS = (-1e300, -2.5, -1e-9, 0.0, 5e-324, 0.7, 3.0, 1e300)
PRICES = (5e-324, 1e-300, 1e-9, 0.5, 1.2, 3.0, 1e300)

# parameter -> (name in the error, floor, takes an array?, the call with the
# probed value in that parameter and valid values elsewhere, valid values)
PARAMETERS = {
    "eval_kernel.t": ("t", "nonnegative", False,
                      lambda v: hk.eval_kernel(SPEC2, v, [0.1, -0.2]), TIMES),
    "eval_kernel.v": ("coordinate", None, False,
                      lambda v: hk.eval_kernel(SPEC2, 1.0, [v, -0.2]),
                      (-3.0, -0.5, 0.0, 0.3, 0.9, 1.5)),
    "kernel_l2_norm_sq.t": ("t", "positive", False,
                            lambda v: hk.kernel_l2_norm_sq(SPEC2, v), SPANS),
    "covariance.s": ("s", "nonnegative", True, lambda v: hk.covariance(SPEC2, v, 0.7), TIMES),
    "covariance.t": ("t", "nonnegative", True, lambda v: hk.covariance(SPEC2, 0.7, v), TIMES),
    "HermiteSpec.hurst": ("hurst", None, False, lambda v: hk.HermiteSpec(v, 1).hurst,
                          (0.5000001, 0.7, 0.99)),
    "simulate_paths.horizon": ("horizon", "positive", False,
                               lambda v: hk.simulate_paths(SPEC1, 8, v, [0, 1]), SPANS),
    "simulate_hermite_path.horizon": (
        "horizon", "positive", False,
        lambda v: hk.simulate_hermite_path(SPEC1, 8, v, 3).values, SPANS),
    "simulate_fbm_exact.horizon": (
        "horizon", "positive", False,
        lambda v: hk.simulate_fbm_exact(0.7, 8, v, 3).values, SPANS),
    "subordinate.horizon": ("horizon", "positive", False,
                            lambda v: hk.subordinate(SPEC1, 8, v, 3).values, SPANS),
    # NaN times fail the increasing check first, so only the values are swept
    "SamplePath.values": (
        "values", None, False,
        lambda v: hk.SamplePath(np.array([0.0, 0.5, 1.0]), np.array([0.0, v, 0.1]), None,
                                "observed", 0).values, REALS),
    "centered_qv.block": ("block length", "positive", False,
                          lambda v: hk.centered_qv(PATH, 0.7, v).v_stat,
                          (1 / 64, 0.125, 0.5, 1.0, 3.0)),
    "centered_qv.h_for_centering": ("h_for_centering", None, False,
                                    lambda v: hk.centered_qv(PATH, v, 0.125).v_stat,
                                    (-2.0, 0.0, 0.5, 0.7, 0.95, 3.0)),
    "qv_normalizer.block": ("block length", "positive", False,
                            lambda v: hk.qv_normalizer(SPEC1, 2, v, 100, 0),
                            (0.125, 0.5, 1.0, 2.0)),
    "BasicRate.constant": ("constant rate parameters", None, False,
                           lambda v: hk.BasicRate.constant(v).bounds, REALS),
    "BasicRate.polynomial.coefficients": (
        "polynomial rate parameters", None, False,
        lambda v: hk.BasicRate.polynomial([0.05, v], horizon=2.0).bounds,
        (-3.0, -0.01, 0.0, 0.01, 3.0)),
    "BasicRate.polynomial.horizon": (
        "polynomial horizon", "positive", False,
        lambda v: hk.BasicRate.polynomial([0.05, 0.01], horizon=v).bounds, SPANS),
    "BasicRate.table.values": (
        "table rate parameters", None, False,
        lambda v: np.append(hk.BasicRate.table([0.0, 1.0], [0.05, v])([0.25, 0.5]),
                            hk.BasicRate.table([0.0, 1.0], [0.05, v]).bounds),
        (-3.0, 0.0, 0.06, 3.0)),
    "cumulative_rate.t": ("t", "nonnegative", True,
                          lambda v: hk.cumulative_rate(SPEC2, TABLE, v), TIMES),
    "instantaneous_rate.t": ("t", "nonnegative", True,
                             lambda v: hk.instantaneous_rate(SPEC2, TABLE, v), TIMES),
    "riskless_price.t": ("t", "nonnegative", True,
                         lambda v: hk.riskless_price(SPEC2, TABLE, v), TIMES),
    "AssetPath.prices": ("prices", "positive", False,
                         lambda v: hk.AssetPath([0.0, 1.0, 2.0], [1.0, v, 1.5]).at(1.5),
                         PRICES),
    "MarketSpec.initial_prices": ("initial price", "positive", False,
                                  lambda v: _market(initial_prices=(v,)).initial_prices,
                                  PRICES),
    "MarketSpec.volatility": ("volatility entry", None, False,
                              lambda v: _market(volatility=np.array([[v]])).sigma(0.5),
                              (-0.3, 0.0, 0.2, 5.0)),
    "MarketSpec.sigma.t": ("volatility time", "nonnegative", False,
                           lambda v: TAB_MARKET.sigma(v), TIMES),
    "MarketSpec.volatility_times": (
        "volatility time", "nonnegative", True,
        lambda v: _tabulated(np.array([v, v + 1.0])).sigma(0.6), TIMES),
    "Payoff.power": ("power exponents", None, True, lambda v: hk.Payoff.power(v)(2.0),
                     (-2.0, 0.0, 0.5, 1.0, 3.0)),
    "Payoff.from_table.nodes": (
        "payoff table nodes", None, False,
        lambda v: hk.Payoff.from_table([v, v + 1.0], [0.0, 1.0])([v + 0.25, 1.0, 3.0]),
        (-5.0, 0.0, 0.5, 2.0)),
    "Payoff.from_table.values": (
        "payoff table values", None, False,
        lambda v: hk.Payoff.from_table([1.0, 2.0], [0.0, v])([1.5, 2.5]),
        (-3.0, 0.0, 1.0, 1e300)),
    "PricingGrid.x_lo": ("x_lo", None, False, lambda v: _price_fd(v, 4.0, 8, 4, 0.0, 1.0),
                         (1e-3, 0.5, 1.0, 3.0)),
    "PricingGrid.x_hi": ("x_hi", None, False, lambda v: _price_fd(1.0, v, 8, 4, 0.0, 1.0),
                         (1.5, 2.0, 10.0)),
    "PricingGrid.t_start": ("t_start", None, False,
                            lambda v: _price_fd(0.5, 2.0, 8, 4, v, 1.0), (0.0, 0.25, 1.0)),
    "PricingGrid.t_end": ("t_end", None, False, lambda v: _price_fd(0.5, 2.0, 8, 4, 0.0, v),
                          (0.0, 0.5, 1.0, 3.0)),
    "price_characteristics.t": (
        "t", "nonnegative", False,
        lambda v: hk.price_characteristics(POWER, MARKET, v, 3.0, 1.2), TIMES),
    "price_characteristics.horizon": (
        "horizon", "nonnegative", False,
        lambda v: hk.price_characteristics(POWER, MARKET, 0.0, v, 1.2), TIMES),
    "price_characteristics.x": (
        "price coordinate", "positive", True,
        lambda v: hk.price_characteristics(POWER, MARKET, 0.0, 3.0, v), PRICES),
    "bond_price.t": ("t", "nonnegative", False, lambda v: hk.bond_price(MARKET, v, 3.0), TIMES),
    "bond_price.maturity": ("maturity", "nonnegative", False,
                            lambda v: hk.bond_price(MARKET, 0.0, v), TIMES),
    "term_structure.anchors": (
        "anchor", "nonnegative", True,
        lambda v: hk.term_structure(MARKET, np.append(0.5, v), [1.0]).discounts, TIMES),
    "term_structure.maturities": (
        "maturity", "nonnegative", True,
        lambda v: hk.term_structure(MARKET, [0.5], np.append(1.0, v)).discounts, TIMES),
    "forward_price.t": ("t", "nonnegative", False,
                        lambda v: hk.forward_price(MARKET, 1.2, v, 3.0), TIMES),
    "forward_price.maturity": ("maturity", "nonnegative", False,
                               lambda v: hk.forward_price(MARKET, 1.2, 0.0, v), TIMES),
    "forward_price.spot": ("spot", "positive", False,
                           lambda v: hk.forward_price(MARKET, v, 0.0, 3.0), PRICES),
    "forward_value.t": ("t", "nonnegative", False,
                        lambda v: hk.forward_value(MARKET, ASSET, v, 3.0, 3.0), TIMES),
    "forward_value.maturity": ("maturity", "nonnegative", False,
                               lambda v: hk.forward_value(MARKET, ASSET, 0.0, v, 3.0), TIMES),
    "forward_value.u": ("u", "nonnegative", False,
                        lambda v: hk.forward_value(MARKET, ASSET, 0.0, 3.0, v), TIMES),
    "power_derivative_beta.alpha": (
        "alpha", None, True, lambda v: hk.power_derivative_beta(v, MARKET).beta(1.0),
        (-2.0, 0.0, 0.4, 1.0)),
    "power_derivative_beta.beta": (
        "t", "nonnegative", False, lambda v: hk.power_derivative_beta([0.5], MARKET).beta(v),
        TIMES),
    "perpetual_pde_residual.t": (
        "t", "nonnegative", False,
        lambda v: hk.perpetual_pde_residual(FIELD, MARKET, [(v, 1.2)]), TIMES),
    "perpetual_pde_residual.x": (
        "price coordinate", "positive", True,
        lambda v: hk.perpetual_pde_residual(FIELD, MARKET, [(1.0, v)]),
        (1e-9, 0.5, 1.2, 3.0)),
}

# the parameters whose call places the probed value inside a list or an
# array, where a bool is read as 0 or 1: the non-real probe skips them
EMBEDDED = {"eval_kernel.v", "SamplePath.values", "BasicRate.constant",
            "BasicRate.polynomial.coefficients", "BasicRate.table.values", "AssetPath.prices",
            "MarketSpec.initial_prices", "MarketSpec.volatility", "MarketSpec.volatility_times",
            "Payoff.from_table.nodes", "Payoff.from_table.values", "term_structure.anchors",
            "term_structure.maturities"}

# sha256 (first 16 hex digits) of the results over each parameter's valid
# values, frozen from the code before the rule had one home; the beta
# digest is the exact-ratio one, over all of TIMES
DIGESTS = {
    "eval_kernel.t": "9848802cf9651378",
    "eval_kernel.v": "d007fbd3791a4372",
    "kernel_l2_norm_sq.t": "31b853bf74821aef",
    "covariance.s": "41686fd44bd711a5",
    "covariance.t": "41686fd44bd711a5",
    "HermiteSpec.hurst": "5e036098b2904788",
    "simulate_paths.horizon": "1bda961421aa315b",
    "simulate_hermite_path.horizon": "ffecf198b68cbd92",
    "simulate_fbm_exact.horizon": "ffecf198b68cbd92",
    "subordinate.horizon": "03fdbdae7244ce52",
    "SamplePath.values": "2d6045267e4648e0",
    "centered_qv.block": "e85832682d78c79a",
    "centered_qv.h_for_centering": "0cc3a12e41303567",
    "qv_normalizer.block": "f43c10866cc609a5",
    "BasicRate.constant": "2f74f702114bc3ef",
    "BasicRate.polynomial.coefficients": "7486ec37ff3f56fc",
    "BasicRate.polynomial.horizon": "b6d89843b6bf972b",
    "BasicRate.table.values": "829ccb5a83db2162",
    "cumulative_rate.t": "a21584d5e69a442e",
    "instantaneous_rate.t": "dc1a1e118f2cfd3b",
    "riskless_price.t": "33afea8d04539f6a",
    "AssetPath.prices": "65a9b0032570792e",
    "MarketSpec.initial_prices": "a7232ee8bf163d14",
    "MarketSpec.volatility": "81a39bed28c7054e",
    "MarketSpec.sigma.t": "31bea2781a5a40c8",
    "MarketSpec.volatility_times": "34827250e0da069b",
    "Payoff.power": "d895f48d61a46330",
    "Payoff.from_table.nodes": "61ad42c81fa536b6",
    "Payoff.from_table.values": "dfdbb44a44bccf6b",
    "PricingGrid.x_lo": "615fb5129b1fefa8",
    "PricingGrid.x_hi": "cd5e0bf2ba50b32d",
    "PricingGrid.t_start": "18da3a0f1e7badaa",
    "PricingGrid.t_end": "4ce3a9ae9a86da95",
    "price_characteristics.t": "2604f27ec15e435b",
    "price_characteristics.horizon": "9936ce9e10e1a8d7",
    "price_characteristics.x": "8d0aa1049a47329b",
    "bond_price.t": "be0e71a9e3cc21a7",
    "bond_price.maturity": "3f4ffcce7744e028",
    "term_structure.anchors": "3eb342be261020e4",
    "term_structure.maturities": "ae75ae62aecae9a3",
    "forward_price.t": "114a68be57e70f26",
    "forward_price.maturity": "8d008802f4d37cc0",
    "forward_price.spot": "4e391e7ba34a49d7",
    "forward_value.t": "c791a64bbe419279",
    "forward_value.maturity": "5a6522eff1b94829",
    "forward_value.u": "86f4bb5fb74afc26",
    "power_derivative_beta.alpha": "63fb4bd72caa7c2e",
    "power_derivative_beta.beta": "c442c580346a9fd8",
    "perpetual_pde_residual.t": "37b406ce7f50af8d",
    "perpetual_pde_residual.x": "fe3e741a056e4e4f",
}


def digest(key: str) -> str:
    """sha256 over the float64 bytes of every result of ``key``'s valid values."""
    h = hashlib.sha256()
    for v in PARAMETERS[key][4]:
        h.update(np.asarray(PARAMETERS[key][3](v), dtype=float).tobytes())
    return h.hexdigest()[:16]


NOT_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
NEGATIVE = st.floats(max_value=-5e-324, allow_infinity=False, allow_nan=False)
# the values that break each floor
BREAKING = {None: NOT_FINITE, "nonnegative": st.one_of(NOT_FINITE, NEGATIVE),
            "positive": st.one_of(NOT_FINITE, NEGATIVE, st.sampled_from([0.0, -0.0]))}

RULE = settings(derandomize=True, database=None, deadline=None, max_examples=300)


@RULE
@given(data=st.data(), key=st.sampled_from(sorted(PARAMETERS)),
       form=st.sampled_from(["float", "np.float64", "array"]))
def test_non_times_are_named(data, key, form):
    name, floor, takes_array, call, _ = PARAMETERS[key]
    value = data.draw(BREAKING[floor])
    rule = f"{floor} and finite" if floor else "finite"
    message = f"^{re.escape(f'{name} must be {rule}; got {value}')}$"
    if form == "np.float64":
        value = np.float64(value)
    elif form == "array" and takes_array:
        value = np.array([0.5, value])  # the second entry is the first bad one
    with pytest.raises(ValueError, match=message):
        call(value)


@pytest.mark.parametrize("value", [True, "0.7"])
@pytest.mark.parametrize("key", sorted(set(PARAMETERS) - EMBEDDED))
def test_non_reals_are_named(key, value):
    name, _, _, call, _ = PARAMETERS[key]
    message = f"^{re.escape(f'{name} must be a real number; got {value!r}')}$"
    with pytest.raises(ValueError, match=message):
        call(value)


@pytest.mark.parametrize("key", sorted(PARAMETERS))
def test_valid_times_give_frozen_results(key):
    assert digest(key) == DIGESTS[key]
