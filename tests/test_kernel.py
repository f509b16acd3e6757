"""Kernel norms, normalizing constants, and pointwise kernel evaluation."""

import math

import numpy as np
import pytest
from scipy.special import beta as beta_fn

from hermkit import (
    HermiteSpec,
    covariance,
    eval_kernel,
    kernel_l2_norm_sq,
    normalizing_constant,
)
from hermkit.kernel import _l2_norm_sq_quad_k1, d_constant, eval_kernel_batch

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
    res = _l2_norm_sq_quad_k1(HermiteSpec(hurst, 1), 1.0)
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
    one = _l2_norm_sq_quad_k1(spec, 1.0).value
    two = _l2_norm_sq_quad_k1(spec, 2.0).value
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


def test_eval_kernel_self_similar_scaling():
    # K_{ct}(c v) = c^(H - k/2) K_t(v)
    for spec in (HermiteSpec(0.7, 1), HermiteSpec(0.7, 2), HermiteSpec(0.6, 3)):
        v = np.array([0.37, -0.21, 0.05][: spec.order])
        c = 1.7
        base = eval_kernel(spec, 1.0, v)
        scaled = eval_kernel(spec, c, c * v)
        assert scaled == pytest.approx(
            c ** (spec.hurst - spec.order / 2) * base, rel=1e-8
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
    rows = np.random.default_rng(11 + order).uniform(-2.0, 0.9, size=(200, order))
    if order == 3:
        # near tie: a fixed Gauss rule misses the steep factor (s - v_2)^gamma
        rows = np.vstack([rows, [0.5, 0.5 - 1e-9, -0.3]])
    batch = eval_kernel_batch(spec, 1.0, rows)
    single = np.array([eval_kernel(spec, 1.0, row) for row in rows])
    assert np.all(single > 0.0)
    np.testing.assert_allclose(batch, single, rtol=1e-9, atol=0.0)


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
