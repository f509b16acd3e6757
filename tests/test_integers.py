"""The one integer rule: every order, count and step number of the public API.

Each integer parameter takes a Python or numpy integer and nothing else.
Bools, floats (integral or not, NaN and inf included), ``np.float64`` and
strings raise ValueError naming the parameter before any work; an integer
below its bound raises naming the bound; an integer in range, Python or
numpy, gives the same result as the equal Python int.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hermkit as hk
from hermkit.simulate import partial_sum_std

SPEC = hk.HermiteSpec(0.7, 1)
PATH = hk.simulate_fbm_exact(0.7, 64, 1.0, 0)

# parameter -> (name in the error, least valid value or None, the call
# with the probed value in that parameter and valid values elsewhere)
PARAMETERS = {
    "HermiteSpec.order": ("order", 1, lambda v: hk.HermiteSpec(0.7, v)),
    "hermite_polynomial.m": ("order", 0, lambda v: hk.hermite_polynomial(v, 0.5)),
    "gen_fgn.n": ("n", 1, lambda v: hk.gen_fgn(0.7, v, 0)),
    "gen_fgn.seed": ("seed", None, lambda v: hk.gen_fgn(0.7, 8, v)),
    "simulate_paths.n": ("steps per unit time", 1,
                         lambda v: hk.simulate_paths(SPEC, v, 1.0, [0])),
    "simulate_paths.seeds": ("seed", None, lambda v: hk.simulate_paths(SPEC, 8, 1.0, [0, v])),
    "simulate_hermite_path.n": ("steps per unit time", 1,
                                lambda v: hk.simulate_hermite_path(SPEC, v, 1.0, 0).values),
    "simulate_hermite_path.seed": ("seed", None,
                                   lambda v: hk.simulate_hermite_path(SPEC, 8, 1.0, v).values),
    "simulate_fbm_exact.n": ("steps per unit time", 1,
                             lambda v: hk.simulate_fbm_exact(0.7, v, 1.0, 0).values),
    "subordinate.n": ("steps per unit time", 1,
                      lambda v: hk.subordinate(SPEC, v, 1.0, 0).values),
    "partial_sum_std.n": ("n", 1, lambda v: partial_sum_std(SPEC, v)),
    "StratonovichConfig.refinement": ("refinement", 1,
                                      lambda v: hk.StratonovichConfig(0.5, v)),
    "qv_normalizer.n_blocks": ("n_blocks", 1, lambda v: hk.qv_normalizer(SPEC, v, 1.0, 100, 0)),
    "qv_normalizer.mc_paths": ("mc_paths", 100, lambda v: hk.qv_normalizer(SPEC, 2, 1.0, v, 0)),
    "qv_normalizer.seed": ("root seed", None, lambda v: hk.qv_normalizer(SPEC, 2, 1.0, 100, v)),
    "qv_normalizer.steps_per_unit": ("steps_per_unit", 1,
                                     lambda v: hk.qv_normalizer(SPEC, 2, 1.0, 100, 0, v)),
    "qv_scaling_exponent.n_blocks_list": (
        "n_blocks", None, lambda v: hk.qv_scaling_exponent(SPEC, [8, 16, v], 1.0, 100, 0)),
    "qv_scaling_exponent.seed": (
        "root seed", None, lambda v: hk.qv_scaling_exponent(SPEC, [1, 2, 8], 1.0, 100, v)),
    "estimate_hurst.scales": ("scale", 1, lambda v: hk.estimate_hurst(PATH, (2, 4, v))),
    "lrd_coefficient.max_lag": ("max_lag", 1, lambda v: hk.lrd_coefficient(SPEC, v)),
    "PricingGrid.nx": ("nx", 2, lambda v: hk.PricingGrid(0.5, 2.0, v, 8)),
    "PricingGrid.nt": ("nt", 1, lambda v: hk.PricingGrid(0.5, 2.0, 8, v)),
}

# valid values small enough that every call above stays cheap
IN_RANGE = {
    "HermiteSpec.order": (1, 40),
    "hermite_polynomial.m": (0, 40),
    "gen_fgn.n": (1, 64),
    "gen_fgn.seed": (0, 2**64 - 1),
    "simulate_paths.n": (1, 64),
    "simulate_paths.seeds": (0, 2**64 - 1),
    "simulate_hermite_path.n": (1, 64),
    "simulate_hermite_path.seed": (0, 2**64 - 1),
    "simulate_fbm_exact.n": (1, 64),
    "subordinate.n": (1, 64),
    "partial_sum_std.n": (1, 64),
    "StratonovichConfig.refinement": (1, 1000),
    "qv_normalizer.n_blocks": (1, 4),
    "qv_normalizer.mc_paths": (100, 120),
    "qv_normalizer.seed": (0, 2**44 - 1),
    "qv_normalizer.steps_per_unit": (1, 64),
    "estimate_hurst.scales": (1, 7),
    "lrd_coefficient.max_lag": (1, 100),
    "PricingGrid.nx": (2, 1000),
    "PricingGrid.nt": (1, 1000),
}

# floats stay small so that code which took an integral float as a count
# draws small arrays, not gigabytes, before the test sees it accepted
FLOATS = st.one_of(st.integers(-10, 10**4).map(float), st.floats(-1e4, 1e4),
                   st.sampled_from([math.nan, math.inf, -math.inf]))
NOT_INTEGERS = st.one_of(
    st.sampled_from([True, False, np.True_]),
    FLOATS,
    FLOATS.map(np.float64),
    st.text(alphabet="0123456789.-+eE _x", max_size=3),
)

RULE = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@RULE
@given(key=st.sampled_from(sorted(PARAMETERS)), value=NOT_INTEGERS)
def test_non_integers_are_named(key, value):
    name, _, call = PARAMETERS[key]
    # seeds keep their own inline check, which says what range they take
    rule = "a nonnegative integer" if name == "seed" else "an integer"
    message = f"^{re.escape(f'{name} must be {rule}; got {value!r}')}$"
    with pytest.raises(ValueError, match=message):
        call(value)


@RULE
@given(key=st.sampled_from(sorted(k for k, v in PARAMETERS.items() if v[1] is not None)),
       below=st.integers(1, 2**70), numpy=st.booleans())
def test_integers_below_their_bound_are_named(key, below, numpy):
    name, low, call = PARAMETERS[key]
    value = low - below
    if numpy:
        value = np.int64(max(value, -2**63))
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be at least {low}; "
                                         f"got {value}$"):
        call(value)


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return type(a) is type(b) and a == b


@RULE
@given(data=st.data(), key=st.sampled_from(sorted(IN_RANGE)),
       kind=st.sampled_from([np.int64, np.uint64, np.int32, np.int16, np.uint8]))
def test_numpy_integers_in_range_equal_python_ints(data, key, kind):
    lo, hi = IN_RANGE[key]
    info = np.iinfo(kind)
    value = data.draw(st.integers(max(lo, int(info.min)), min(hi, int(info.max))))
    call = PARAMETERS[key][2]
    assert _same(call(kind(value)), call(value))
