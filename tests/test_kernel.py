"""Kernel norms, normalizing constants, and pointwise kernel evaluation."""

import math

import numpy as np
import pytest
from scipy.special import beta as beta_fn

from hermkit import (
    BasicRate,
    HermiteSpec,
    MarketSpec,
    covariance,
    eval_kernel,
    kernel_l2_norm_sq,
    normalizing_constant,
    solve_market_price_of_risk,
)
from hermkit.kernel import d_constant, eval_kernel_batch

from kernel_quadrature import l2_norm_sq_quad_k1

# Independently derived gamma-function values of ||K_1||^2 and of the
# normalizing constant C, frozen as oracles.  The closed form is
# B(1+gamma, -1-2gamma)^k / (H(2H-1)) with gamma = (H-1)/k - 1/2.
NORM_SQ_ORDER1 = {0.6: 86.37166120, 0.7: 20.97232430, 0.8: 10.65019009}
NORM_SQ_ORDER2 = {0.6: 217.779, 0.7: 108.053, 0.8: 97.415}
C_ORDER1 = {0.6: 0.10760052, 0.7: 0.21836183, 0.8: 0.30642297}
C_ORDER2 = {0.6: 0.04791561, 0.7: 0.06802476, 0.8: 0.07164256}


def exact_norm_sq(spec: HermiteSpec) -> float:
    g = spec.gamma
    return beta_fn(1.0 + g, -1.0 - 2.0 * g) ** spec.order / (
        spec.hurst * (2.0 * spec.hurst - 1.0)
    )


def test_spec_domain():
    with pytest.raises(ValueError, match=r"\(0.5, 1\)"):
        HermiteSpec(1.2, 1)
    with pytest.raises(ValueError, match=r"\(0.5, 1\)"):
        HermiteSpec(0.5, 1)
    with pytest.raises(ValueError):
        HermiteSpec(0.7, 0)
    spec = HermiteSpec(0.7, 2)
    assert spec.gamma == (0.7 - 1.0) / 2 - 0.5
    assert spec.hurst_prime == 1.0 + (0.7 - 1.0) / 2


@pytest.mark.parametrize("hurst", [0.6, 0.7, 0.8])
def test_norm_sq_order1_quadrature(hurst):
    # the independent numeric route agrees with the frozen values and the
    # beta identity that the public functions use
    res = l2_norm_sq_quad_k1(HermiteSpec(hurst, 1), 1.0)
    assert res.value == pytest.approx(NORM_SQ_ORDER1[hurst], rel=1e-7)
    assert res.value == pytest.approx(exact_norm_sq(HermiteSpec(hurst, 1)), rel=1e-7)
    assert res.error < 1e-5 * res.value


@pytest.mark.parametrize("hurst", [0.6, 0.7, 0.8])
def test_norm_sq_order2_exact(hurst):
    res = kernel_l2_norm_sq(HermiteSpec(hurst, 2), 1.0)
    assert res == pytest.approx(NORM_SQ_ORDER2[hurst], rel=5e-6)
    assert res == pytest.approx(exact_norm_sq(HermiteSpec(hurst, 2)), rel=1e-12)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("hurst", [0.6, 0.7, 0.8])
def test_norm_matches_beta_closed_form(hurst, order):
    spec = HermiteSpec(hurst, order)
    res = kernel_l2_norm_sq(spec, 1.0)
    rel = abs(res - exact_norm_sq(spec)) / exact_norm_sq(spec)
    assert rel < 1e-12


@pytest.mark.parametrize("hurst,expected", sorted(C_ORDER1.items()))
def test_c_norm_closed_form_order1(hurst, expected):
    consts = normalizing_constant(HermiteSpec(hurst, 1))
    assert consts.c_norm == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize("hurst,expected", sorted(C_ORDER2.items()))
def test_c_norm_closed_form_order2(hurst, expected):
    consts = normalizing_constant(HermiteSpec(hurst, 2))
    assert consts.c_norm == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize("hurst", [0.55, 0.6, 0.75, 0.9, 0.99])
@pytest.mark.parametrize("order", range(1, 9))
def test_constants_match_beta_oracle(order, hurst):
    spec = HermiteSpec(hurst, order)
    norm_sq = exact_norm_sq(spec)
    k_fact = math.factorial(order)
    consts = normalizing_constant(spec)
    res = kernel_l2_norm_sq(spec, 1.0)
    assert res == pytest.approx(norm_sq, rel=1e-12)
    assert consts.l2_norm_at_1 == pytest.approx(math.sqrt(norm_sq), rel=1e-12)
    assert consts.c_norm == pytest.approx(1.0 / math.sqrt(k_fact * norm_sq), rel=1e-12)
    assert consts.d_const == pytest.approx(math.sqrt(norm_sq / k_fact), rel=1e-12)


def test_order3_rate_constant_at_high_hurst():
    # a frozen value, so the oracle's scipy beta is not the only reference
    assert d_constant(HermiteSpec(0.9, 3)) == pytest.approx(32.28820964047, rel=1e-11)


def test_constants_overflow_names_the_spec():
    # ||K_1||^2 ~ e^1164 at order 200: a named error, never inf or NaN
    spec = HermiteSpec(0.7, 200)
    for fn in (normalizing_constant, d_constant, lambda s: kernel_l2_norm_sq(s, 1.0)):
        with pytest.raises(OverflowError, match=r"hurst=0\.7, order=200"):
            fn(spec)
    with pytest.raises(OverflowError, match="order=2"):
        kernel_l2_norm_sq(HermiteSpec(0.7, 2), 1e300)


def test_constants_internal_consistency():
    for spec in (HermiteSpec(0.7, 1), HermiteSpec(0.7, 2), HermiteSpec(0.6, 5)):
        consts = normalizing_constant(spec)
        sqrt_fact = math.sqrt(math.factorial(spec.order))
        assert consts.c_norm * sqrt_fact * consts.l2_norm_at_1 == pytest.approx(1.0, rel=1e-14)
        assert consts.d_const == pytest.approx(consts.l2_norm_at_1 / sqrt_fact, rel=1e-14)
        assert d_constant(spec) == consts.d_const


def test_norm_time_scaling():
    # ||K_t||^2 = t^(2H) ||K_1||^2, on the numeric route and the exact one
    spec = HermiteSpec(0.65, 1)
    one = l2_norm_sq_quad_k1(spec, 1.0).value
    two = l2_norm_sq_quad_k1(spec, 2.0).value
    assert two / one == pytest.approx(2.0 ** (2 * spec.hurst), rel=1e-9)
    for order in (1, 3):
        exact = HermiteSpec(0.65, order)
        assert kernel_l2_norm_sq(exact, 2.0) == pytest.approx(
            2.0 ** (2 * exact.hurst) * exact_norm_sq(exact), rel=1e-13
        )


def test_eval_kernel_order1_analytic():
    # single coordinate: K_t(v) = ((t-v)_+^(1+g) - (-v)_+^(1+g)) / (1+g)
    spec = HermiteSpec(0.7, 1)
    g = spec.gamma
    for t, v in [(1.0, 0.3), (1.0, -0.4), (2.5, 1.1)]:
        lo = max(v, 0.0)
        expected = ((t - v) ** (1 + g) - (lo - v) ** (1 + g)) / (1 + g)
        assert eval_kernel(spec, t, [v]) == pytest.approx(expected, rel=1e-10)


def test_eval_kernel_zero_outside_support():
    spec = HermiteSpec(0.7, 2)
    assert eval_kernel(spec, 1.0, [1.0, 0.2]) == 0.0
    assert eval_kernel(spec, 1.0, [2.0, -1.0]) == 0.0
    assert eval_kernel(spec, 0.0, [-1.0, -2.0]) == 0.0


def test_eval_kernel_permutation_exact():
    spec = HermiteSpec(0.8, 2)
    a = eval_kernel(spec, 1.0, [0.3, -0.6])
    b = eval_kernel(spec, 1.0, [-0.6, 0.3])
    assert a == b and a > 0.0


def test_eval_kernel_tied_maximum_diverges():
    spec = HermiteSpec(0.7, 2)
    assert math.isinf(eval_kernel(spec, 1.0, [0.4, 0.4]))
    # a tie below zero is integrable: integration starts at 0
    assert math.isfinite(eval_kernel(spec, 1.0, [-0.4, -0.4]))


# (hurst, t, v, K_t(v)): 30-digit references; see the test's docstring
KERNEL_REFERENCE = [
    (0.505, 1.0, (0.3,), "199.643642909621428740672901712"),
    (0.99, 1.0, (-0.4,), "1.10400848747865103953457043436"),
    (0.7, 2.5, (1.1,), "5.34805187862534538215283565139"),
    (0.505, 1.0, (0.3, -0.6), "3.57484982712606467405580644290"),
    (0.7, 1.0, (0.4, 0.399999999), "2752.86199762488238592244546139"),
    (0.9, 1.0, (-0.2, -0.2), "1.92685898526106313097767360810"),
    (0.99, 1.0, (0.0, -1e-14), "39.9769256950215359309420714765"),
    (0.7, 1.0, (-1e-12, -0.5), "3.64328750967149024393546592739"),
    (0.505, 1.0, (0.37, -0.21, 0.05), "5.76664055662817099752821902496"),
    (0.7, 1.0, (-1e-30, -1e-30, -0.5), "7578573.79293751504433331602092"),
    (0.9, 1.0, (0.0, -1e-14, -0.5), "182.244489326617438917335892009"),
    (0.9, 1.0, (-1e-12, -2e-12, -3e-12), "18031967.9080038879539744782772"),
    (0.99, 1.0, (0.5, 0.4999, -0.3), "11.2213866526219660703265082410"),
    (0.505, 1.0, (0.2, -0.1, -0.5, -1.5), "3.08838936356222643782403384586"),
    (0.7, 1.0, (0.4, 0.39999999999999003, -0.3, -0.6), "1284.02499149648332128407371268"),
    (0.9, 1.0, (-0.3, -0.300000001, -0.8, -1.2), "1.13653450626280981117835133029"),
    (0.99, 2.0, (1.5, 0.0, -0.0001, -0.7), "0.559477287319785739822831628934"),
    (0.505, 1.0, (-1e-30, -0.1, -0.2, -0.3, -2.0), "14.0458921818326938508229701878"),
    (0.7, 1.0, (0.3, 0.1, -0.2, -0.5, -0.9), "4.11329791181535937822685337379"),
    (0.9, 1.0, (0.6, 0.59999999999999, 0.59999999999998, -0.1, -0.7), "177967062.781558314449751274769"),
    (0.99, 1.0, (0.2, 0.199999999, 0.1, -0.3, -0.9), "90.4331389582028465823544165108"),
    (0.9, 1.0, (0.0, -1e-09, -1e-09, -0.5, -0.5), "675500.086790971074118401002399"),
    (0.7, 0.5, (-0.25, -0.25, -0.25, -0.25, -0.5), "4.31877576257646639819949899867"),
    (0.99, 1.0, (-1e-12, -1.00000000000001e-12, -0.4), "46.9550987198670461268248639422"),
    (0.7, 1e-08, (-1.0, -2.0), "6.37280310552889565014015443951e-9"),
    (0.7, 1e-08, (-1.0, -2.0, -3.0), "3.41278749969503423829056333417e-9"),
    (0.9, 1e-08, (-1.0, -1.000000001, -2.0), "6.90956435009001698910217327542e-9"),
    (0.7, 1e-17, (-1.0,), "1.00000000000000006754242405462e-17"),
    (0.7, 1.0, (-5e-324,), "5.00000000000000111022302462516"),
    (0.7, 1e308, (-1e308,), "2.95989406869136152072067070673e61"),
]


@pytest.mark.parametrize(
    "hurst,t,v,expected",
    KERNEL_REFERENCE,
    ids=[f"H{h}-k{len(v)}-row{i}" for i, (h, _, v, _) in enumerate(KERNEL_REFERENCE)],
)
def test_eval_kernel_matches_frozen_reference(hurst, t, v, expected):
    """Frozen mpmath values (30 digits, mp.dps = 40), independent of the
    u = log(s - m) route under test.

    With m the largest coordinate and delta_j = m - v_j, the substitution
    w = (s - m)^(1+gamma) absorbs the power singularity at s = m and leaves
    the integrand prod_{j>=2} (w^(1/(1+gamma)) + delta_j)^gamma / (1+gamma)
    over [(max(m,0) - m)^(1+gamma), (t - m)^(1+gamma)].  mpmath.quad
    (tanh-sinh) integrated it with breakpoints at (c * 4^i)^(1+gamma),
    i = -8..8, for c each positive delta_j and |m|, graded towards the
    scales where the integrand bends.  Every order >= 2 value agreed with a
    second quadrature of prod_j (x + delta_j)^gamma in x = s - m, graded the
    same way, and every order-1 value with the closed form.  The rows cover
    coordinate ties and near ties (down to 1e-26 apart) above, at and below
    zero, where fixed rules on the raw integrand fail.  The last six rows
    (references at mp.dps = 60) have every coordinate negative, with t far
    below |m|, where t - m cancels, m subnormal, where t / -m overflows, or
    t and -m near the top of the double range, where t - m overflows.
    """
    spec = HermiteSpec(hurst, len(v))
    assert eval_kernel(spec, t, v) == pytest.approx(float(expected), rel=1e-13, abs=0)


def test_eval_kernel_self_similar_scaling():
    # K_{ct}(c v) = c^(H - k/2) K_t(v); power-of-two c keeps c * v exact
    cases = [
        (HermiteSpec(0.7, 1), [0.37]),
        (HermiteSpec(0.7, 2), [0.37, -0.21]),
        (HermiteSpec(0.6, 3), [0.37, -0.21, 0.05]),
        (HermiteSpec(0.9, 4), [0.37, -0.21, 0.05, -0.6]),
        (HermiteSpec(0.99, 5), [0.37, -0.21, 0.05, -0.6, -1.3]),
        (HermiteSpec(0.7, 3), [0.4, 0.4 - 1e-9, -0.3]),
    ]
    for spec, v in cases:
        base = eval_kernel(spec, 1.0, v)
        for c in (0.25, 2.0):
            scaled = eval_kernel(spec, c, c * np.array(v))
            assert scaled == pytest.approx(
                c ** (spec.hurst - spec.order / 2) * base, rel=1e-13, abs=0
            )


def test_eval_kernel_coordinate_count():
    with pytest.raises(ValueError):
        eval_kernel(HermiteSpec(0.7, 2), 1.0, [0.1])
    with pytest.raises(ValueError):
        eval_kernel(HermiteSpec(0.7, 1), -1.0, [0.1])


@pytest.mark.parametrize("hurst", [0.6, 0.9])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_eval_kernel_batch_matches_pointwise(order, hurst):
    spec = HermiteSpec(hurst, order)
    rows = np.random.default_rng(11 + order).uniform(-2.0, 0.9, size=(4, order))
    batch = eval_kernel_batch(spec, 1.0, rows)
    assert batch.shape == (4,)
    np.testing.assert_array_equal(batch, [eval_kernel(spec, 1.0, row) for row in rows])
    with pytest.raises(ValueError, match="shape"):
        eval_kernel_batch(spec, 1.0, rows[:, :-1])


_MARKET = MarketSpec(
    spec=HermiteSpec(0.7, 2),
    riskless=BasicRate.constant(0.05),
    drifts=(BasicRate.constant(0.08),),
    volatility=np.array([[0.2]]),
    initial_prices=(1.0,),
)


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda: eval_kernel(HermiteSpec(0.7, 2), math.nan, [0.1, -0.2]), "nan"),
        (lambda: eval_kernel(HermiteSpec(0.7, 2), 1.0, [math.nan, -0.2]), "nan"),
        (lambda: eval_kernel(HermiteSpec(0.7, 3), math.nan, [0.1, -0.2, 0.0]), "nan"),
        (lambda: eval_kernel(HermiteSpec(0.7, 3), 1.0, [0.1, math.nan, 0.0]), "nan"),
        (lambda: eval_kernel(HermiteSpec(0.7, 2), math.inf, [0.1, -0.2]), "inf"),
        (lambda: eval_kernel(HermiteSpec(0.7, 3), math.inf, [0.1, -0.2, 0.0]), "inf"),
        (lambda: eval_kernel_batch(HermiteSpec(0.7, 2), 1.0, [[0.1, -0.2], [math.inf, 0.0]]),
         "inf"),
        (lambda: solve_market_price_of_risk(_MARKET, math.nan, [0.1, -0.2]), "nan"),
        (lambda: solve_market_price_of_risk(_MARKET, 1.0, [0.1, math.nan]), "nan"),
        (lambda: covariance(HermiteSpec(0.7, 2), math.nan, 1.0), "s=nan"),
        (lambda: covariance(HermiteSpec(0.7, 2), 1.0, np.array([0.5, math.inf])), "t=inf"),
    ],
    ids=["t-nan-k2", "v-nan-k2", "t-nan-k3", "v-nan-k3", "t-inf-k2", "t-inf-k3",
         "batch-v-inf", "risk-t-nan", "risk-v-nan", "cov-s-nan", "cov-t-inf"],
)
def test_non_finite_kernel_inputs_are_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_covariance_basics():
    spec = HermiteSpec(0.7, 2)
    assert covariance(spec, 0.0, 1.0) == 0.0
    assert covariance(spec, 1.0, 1.0) == pytest.approx(1.0)
    s, t = 0.3, 1.2
    expected = 0.5 * (t ** 1.4 + s ** 1.4 - (t - s) ** 1.4)
    assert covariance(spec, s, t) == pytest.approx(expected, rel=1e-12)
    assert covariance(spec, s, t) == covariance(spec, t, s)
    grid = np.array([0.25, 0.5, 1.0])
    mat = covariance(spec, grid[:, None], grid[None, :])
    assert np.allclose(np.diag(mat), grid ** 1.4)
