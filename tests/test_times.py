"""The one time rule: every time, maturity, horizon and block length of the
public API.

A time is a finite real >= 0 and a span a finite real > 0.  NaN, +-inf and
negative values (and 0 for a span) raise ValueError naming the parameter
and the first bad entry, as a Python float, an ``np.float64`` or inside an
array; valid times give the same bits as before the rule had one home.
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


TAB_MARKET = _tabulated(np.array([0.0, 1.0]))

TIMES = (0.0, 5e-324, 1e-300, 1e-9, 0.125, 0.3, 0.5, 1.0, 1.75, 3.0)
SPANS = TIMES[1:]

# parameter -> (name in the error, span?, takes an array?, the call with the
# probed value in that parameter and valid values elsewhere, valid values)
PARAMETERS = {
    "eval_kernel.t": ("t", False, False,
                      lambda v: hk.eval_kernel(SPEC2, v, [0.1, -0.2]), TIMES),
    "kernel_l2_norm_sq.t": ("t", True, False, lambda v: hk.kernel_l2_norm_sq(SPEC2, v), SPANS),
    "covariance.s": ("s", False, True, lambda v: hk.covariance(SPEC2, v, 0.7), TIMES),
    "covariance.t": ("t", False, True, lambda v: hk.covariance(SPEC2, 0.7, v), TIMES),
    "simulate_paths.horizon": ("horizon", True, False,
                               lambda v: hk.simulate_paths(SPEC1, 8, v, [0, 1]), SPANS),
    "simulate_hermite_path.horizon": (
        "horizon", True, False, lambda v: hk.simulate_hermite_path(SPEC1, 8, v, 3).values, SPANS),
    "simulate_fbm_exact.horizon": (
        "horizon", True, False, lambda v: hk.simulate_fbm_exact(0.7, 8, v, 3).values, SPANS),
    "subordinate.horizon": ("horizon", True, False,
                            lambda v: hk.subordinate(SPEC1, 8, v, 3).values, SPANS),
    "centered_qv.block": ("block length", True, False,
                          lambda v: hk.centered_qv(PATH, 0.7, v).v_stat,
                          (1 / 64, 0.125, 0.5, 1.0, 3.0)),
    "qv_normalizer.block": ("block length", True, False,
                            lambda v: hk.qv_normalizer(SPEC1, 2, v, 100, 0),
                            (0.125, 0.5, 1.0, 2.0)),
    "BasicRate.polynomial.horizon": (
        "polynomial horizon", True, False,
        lambda v: hk.BasicRate.polynomial([0.05, 0.01], horizon=v).bounds, SPANS),
    "cumulative_rate.t": ("t", False, True, lambda v: hk.cumulative_rate(SPEC2, TABLE, v), TIMES),
    "instantaneous_rate.t": ("t", False, True,
                             lambda v: hk.instantaneous_rate(SPEC2, TABLE, v), TIMES),
    "riskless_price.t": ("t", False, True, lambda v: hk.riskless_price(SPEC2, TABLE, v), TIMES),
    "MarketSpec.sigma.t": ("volatility time", False, False, lambda v: TAB_MARKET.sigma(v), TIMES),
    "MarketSpec.volatility_times": (
        "volatility time", False, True, lambda v: _tabulated(np.array([v, v + 1.0])).sigma(0.6),
        TIMES),
    "price_characteristics.t": (
        "t", False, False, lambda v: hk.price_characteristics(POWER, MARKET, v, 3.0, 1.2), TIMES),
    "price_characteristics.horizon": (
        "horizon", False, False, lambda v: hk.price_characteristics(POWER, MARKET, 0.0, v, 1.2),
        TIMES),
    "bond_price.t": ("t", False, False, lambda v: hk.bond_price(MARKET, v, 3.0), TIMES),
    "bond_price.maturity": ("maturity", False, False,
                            lambda v: hk.bond_price(MARKET, 0.0, v), TIMES),
    "term_structure.anchors": (
        "anchor", False, True,
        lambda v: hk.term_structure(MARKET, np.append(0.5, v), [1.0]).discounts, TIMES),
    "term_structure.maturities": (
        "maturity", False, True,
        lambda v: hk.term_structure(MARKET, [0.5], np.append(1.0, v)).discounts, TIMES),
    "forward_price.t": ("t", False, False,
                        lambda v: hk.forward_price(MARKET, 1.2, v, 3.0), TIMES),
    "forward_price.maturity": ("maturity", False, False,
                               lambda v: hk.forward_price(MARKET, 1.2, 0.0, v), TIMES),
    "forward_value.t": ("t", False, False,
                        lambda v: hk.forward_value(MARKET, ASSET, v, 3.0, 3.0), TIMES),
    "forward_value.maturity": ("maturity", False, False,
                               lambda v: hk.forward_value(MARKET, ASSET, 0.0, v, 3.0), TIMES),
    "forward_value.u": ("u", False, False,
                        lambda v: hk.forward_value(MARKET, ASSET, 0.0, 3.0, v), TIMES),
    # below about 1e-220 the cumulative rates underflow to 0 / 0
    "power_derivative_beta.beta": (
        "t", False, False, lambda v: hk.power_derivative_beta([0.5], MARKET).beta(v),
        (0.0, *TIMES[3:])),
    "perpetual_pde_residual.t": (
        "t", False, False, lambda v: hk.perpetual_pde_residual(FIELD, MARKET, [(v, 1.2)]), TIMES),
}

# sha256 (first 16 hex digits) of the results over each parameter's valid
# values, frozen from the code before the time rule had one home
DIGESTS = {
    "eval_kernel.t": "9848802cf9651378",
    "kernel_l2_norm_sq.t": "31b853bf74821aef",
    "covariance.s": "41686fd44bd711a5",
    "covariance.t": "41686fd44bd711a5",
    "simulate_paths.horizon": "1bda961421aa315b",
    "simulate_hermite_path.horizon": "ffecf198b68cbd92",
    "simulate_fbm_exact.horizon": "ffecf198b68cbd92",
    "subordinate.horizon": "03fdbdae7244ce52",
    "centered_qv.block": "e85832682d78c79a",
    "qv_normalizer.block": "f43c10866cc609a5",
    "BasicRate.polynomial.horizon": "b6d89843b6bf972b",
    "cumulative_rate.t": "a21584d5e69a442e",
    "instantaneous_rate.t": "dc1a1e118f2cfd3b",
    "riskless_price.t": "33afea8d04539f6a",
    "MarketSpec.sigma.t": "31bea2781a5a40c8",
    "MarketSpec.volatility_times": "34827250e0da069b",
    "price_characteristics.t": "2604f27ec15e435b",
    "price_characteristics.horizon": "9936ce9e10e1a8d7",
    "bond_price.t": "be0e71a9e3cc21a7",
    "bond_price.maturity": "3f4ffcce7744e028",
    "term_structure.anchors": "3eb342be261020e4",
    "term_structure.maturities": "ae75ae62aecae9a3",
    "forward_price.t": "114a68be57e70f26",
    "forward_price.maturity": "8d008802f4d37cc0",
    "forward_value.t": "c791a64bbe419279",
    "forward_value.maturity": "5a6522eff1b94829",
    "forward_value.u": "86f4bb5fb74afc26",
    "power_derivative_beta.beta": "e6cf14b4a8a125ef",
    "perpetual_pde_residual.t": "37b406ce7f50af8d",
}


def digest(key: str) -> str:
    """sha256 over the float64 bytes of every result of ``key``'s valid values."""
    h = hashlib.sha256()
    for v in PARAMETERS[key][4]:
        h.update(np.asarray(PARAMETERS[key][3](v), dtype=float).tobytes())
    return h.hexdigest()[:16]


NEGATIVE = st.floats(max_value=-5e-324, allow_infinity=False, allow_nan=False)
NOT_TIMES = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf]), NEGATIVE)
NOT_SPANS = st.one_of(NOT_TIMES, st.sampled_from([0.0, -0.0]))

RULE = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@RULE
@given(data=st.data(), key=st.sampled_from(sorted(PARAMETERS)),
       form=st.sampled_from(["float", "np.float64", "array"]))
def test_non_times_are_named(data, key, form):
    name, span, takes_array, call, _ = PARAMETERS[key]
    value = data.draw(NOT_SPANS if span else NOT_TIMES)
    rule = "positive" if span else "nonnegative"
    message = f"^{re.escape(f'{name} must be {rule} and finite; got {value}')}$"
    if form == "np.float64":
        value = np.float64(value)
    elif form == "array" and takes_array:
        value = np.array([0.5, value])  # the second entry is the first bad one
    with pytest.raises(ValueError, match=message):
        call(value)


@pytest.mark.parametrize("key", sorted(PARAMETERS))
def test_valid_times_give_frozen_results(key):
    assert digest(key) == DIGESTS[key]
