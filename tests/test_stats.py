"""Quadratic-variation statistics, Hurst estimation, dependence diagnostics."""

import math
import re

import numpy as np
import pytest

from hermkit import stats
from hermkit import (
    HermiteSpec,
    SamplePath,
    centered_qv,
    estimate_hurst,
    lrd_coefficient,
    lrd_limit,
    qv_normalizer,
    qv_regime_exponent,
    qv_scaling_exponent,
    simulate_fbm_exact,
    simulate_hermite_path,
)


def _flat_path(n_blocks: int, per_block: int) -> SamplePath:
    n = n_blocks * per_block
    times = np.arange(n + 1) / per_block
    return SamplePath(times, np.zeros(n + 1), None, "observed", 0)


def test_centered_qv_of_zero_path_is_minus_centering():
    # blocks of an identically-zero path contribute -E[block^2] each; with
    # unit blocks the centering is exactly 1 per block
    h = 0.7
    report = centered_qv(_flat_path(16, 8), h, 1.0)
    assert report.n_blocks == 15
    assert report.v_stat == pytest.approx(-(report.n_blocks + 1), rel=1e-14)


@pytest.mark.parametrize("block", [math.nan, math.inf, 0.0, -1.0])
def test_centered_qv_names_a_bad_block_length(block):
    with pytest.raises(ValueError,
                       match=re.escape(f"block length must be positive and finite; got {block}")):
        centered_qv(_flat_path(8, 4), 0.6, block)


@pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf])
def test_centered_qv_names_a_non_finite_centering_index(h):
    with pytest.raises(ValueError, match=f"^h_for_centering must be finite; got {h}$"):
        centered_qv(_flat_path(8, 4), h, 1.0)


def test_centered_qv_centering_is_unbiased():
    # E V = 0 under the exact grid law
    h = 0.7
    stats = []
    for seed in range(300):
        p = simulate_fbm_exact(h, 8, 16.0, 3_000 + seed)
        stats.append(centered_qv(p, h, 1.0).v_stat)
    stats = np.asarray(stats)
    se = stats.std(ddof=1) / np.sqrt(stats.size)
    assert abs(stats.mean()) < 3 * se


def test_qv_normalizer_positive_and_seeded():
    spec = HermiteSpec(0.6, 1)
    a = qv_normalizer(spec, 8, 1.0, 120, seed=5)
    b = qv_normalizer(spec, 8, 1.0, 120, seed=5)
    assert a == b
    assert a.value > 0 and a.error > 0
    with pytest.raises(ValueError, match="at least 100"):
        qv_normalizer(spec, 8, 1.0, 10, seed=5)


def test_qv_normalizer_rejects_overlapping_substreams(monkeypatch):
    # path 2^20 of root seed s would reuse path 0 of root s + 1
    def no_draws(*args):
        raise AssertionError("a path was drawn")

    monkeypatch.setattr(stats, "_map_blocks", no_draws)
    with pytest.raises(ValueError, match="at most"):
        qv_normalizer(HermiteSpec(0.6, 1), 8, 1.0, 2**20 + 1, seed=5)


@pytest.mark.parametrize("n_blocks, block, message", [
    pytest.param(8, 0.0, "block length must be positive and finite; got 0.0", id="zero-block"),
    pytest.param(8, -1.0, "block length must be positive and finite; got -1.0",
                 id="negative-block"),
    pytest.param(8, math.inf, "block length must be positive and finite; got inf",
                 id="infinite-block"),
    pytest.param(8, math.nan, "block length must be positive and finite; got nan",
                 id="nan-block"),
    pytest.param(0, 1.0, "n_blocks must be at least 1; got 0", id="zero-blocks"),
])
def test_qv_normalizer_rejects_bad_blocks(monkeypatch, n_blocks, block, message):
    def no_draws(*args):
        raise AssertionError("a path was drawn")

    monkeypatch.setattr(stats, "_map_blocks", no_draws)
    with pytest.raises(ValueError, match=re.escape(message)):
        qv_normalizer(HermiteSpec(0.6, 1), n_blocks, block, 200, seed=5)


@pytest.mark.parametrize("n_blocks, mc_paths, message", [
    pytest.param(2.5, 100, "n_blocks must be an integer; got 2.5", id="fractional-blocks"),
    pytest.param(True, 100, "n_blocks must be an integer; got True", id="bool-blocks"),
    pytest.param(8, 150.5, "mc_paths must be an integer; got 150.5", id="fractional-paths"),
    pytest.param(8, 100.0, "mc_paths must be an integer; got 100.0", id="float-paths"),
])
def test_qv_normalizer_names_non_integer_counts(monkeypatch, n_blocks, mc_paths, message):
    def no_draws(*args):
        raise AssertionError("a path was drawn")

    monkeypatch.setattr(stats, "_map_blocks", no_draws)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        qv_normalizer(HermiteSpec(0.6, 1), n_blocks, 1.0, mc_paths, seed=3)


@pytest.mark.parametrize("spec, n_blocks, mc_paths, seed, expected", [
    # order 1 on the unit-block grid: 300 paths in chunks of 127, 127, 46
    (HermiteSpec(0.6, 1), 128, 300, 3, (16.226575430636416, 0.6486668238835255)),
    # order 2 at 64 steps per unit: chunks of 15 paths
    (HermiteSpec(0.7, 2), 16, 100, 4, (20.39488771705185, 5.722218223265968)),
])
def test_qv_normalizer_is_frozen(spec, n_blocks, mc_paths, seed, expected):
    # (value, error) as computed one simulate_hermite_path + centered_qv per
    # path, before paths were drawn and reduced in chunks
    result = qv_normalizer(spec, n_blocks, 1.0, mc_paths, seed)
    assert (result.value, result.error) == expected


@pytest.mark.parametrize("seed", [-1, 2**44 - 23757, 2**44 - 1])
def test_qv_ladder_checks_every_cell_seed_before_drawing(monkeypatch, seed):
    # cell j of a 4-cell ladder draws from root seed + 7919 j, which must
    # stay below 2^44; the check names the caller's seed, not a cell's
    def no_draws(*args):
        raise AssertionError("a path was drawn")

    monkeypatch.setattr(stats, "_map_blocks", no_draws)
    message = ("root seed must lie in [0, 2^44 - 23757) for a 4-cell ladder, "
               f"whose cell j uses seed + 7919*j; got {seed}")
    with pytest.raises(ValueError, match=re.escape(message)):
        stats.qv_ladder(HermiteSpec(0.7, 2), [64, 8, 32, 16], 1.0, 100, seed)
    # the largest admissible root reaches the engine
    with pytest.raises(AssertionError, match="a path was drawn"):
        stats.qv_ladder(HermiteSpec(0.7, 2), [8, 16, 32, 64], 1.0, 100, 2**44 - 23758)


@pytest.mark.parametrize("n_blocks_list, bad", [
    ([8.7, 16.2], "8.7"),
    ([8, True, 64], "True"),
    ([8, 16, np.float64(64.0)], "np.float64(64.0)"),
])
def test_qv_ladder_names_non_integer_block_counts(monkeypatch, n_blocks_list, bad):
    # 8.7 and 16.2 were truncated to the ladder of N = 8 and 16
    def no_draws(*args):
        raise AssertionError("a path was drawn")

    monkeypatch.setattr(stats, "_map_blocks", no_draws)
    message = f"n_blocks must be an integer; got {bad}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        stats.qv_ladder(HermiteSpec(0.6, 1), n_blocks_list, 1.0, 100, 0)


def test_qv_scaling_exponent_names_non_integer_block_counts(monkeypatch):
    def no_draws(*args):
        raise AssertionError("a path was drawn")

    monkeypatch.setattr(stats, "_map_blocks", no_draws)
    with pytest.raises(ValueError, match=r"^n_blocks must be an integer; got 8\.7$"):
        qv_scaling_exponent(HermiteSpec(0.6, 1), [8.7, 16, 32, 64], 1.0, 100, 0)


def test_qv_regime_exponent_values():
    assert qv_regime_exponent(HermiteSpec(0.6, 1)) == 0.5
    assert qv_regime_exponent(HermiteSpec(0.85, 1)) == pytest.approx(0.7)
    assert qv_regime_exponent(HermiteSpec(0.7, 2)) == pytest.approx(0.7)


def test_qv_scaling_exponent_central_limit_regime():
    # a light version of the full scaling study: order 1, H = 0.6 sits in
    # the sqrt(N) regime
    slope = qv_scaling_exponent(
        HermiteSpec(0.6, 1), [8, 16, 32, 64], 1.0, mc_paths=150, seed=77
    )
    assert slope == pytest.approx(0.5, abs=0.15)


def test_qv_scaling_exponent_validation():
    spec = HermiteSpec(0.6, 1)
    with pytest.raises(ValueError, match="factor of 8"):
        qv_scaling_exponent(spec, [8, 16, 32], 1.0, 120, 0)
    with pytest.raises(ValueError, match="3 distinct"):
        qv_scaling_exponent(spec, [8, 8, 64], 1.0, 120, 0)


def test_estimate_hurst_recovers_fbm():
    for h in (0.62, 0.75):
        hats = []
        for seed in range(6):
            p = simulate_fbm_exact(h, 2 ** 14, 1.0, 400 + seed)
            hats.append(estimate_hurst(p, (2, 4, 8, 16, 32, 64)).h_hat)
        assert np.mean(hats) == pytest.approx(h, abs=0.04)


def test_estimate_hurst_rosenblatt():
    spec = HermiteSpec(0.8, 2)
    hats = []
    for seed in range(6):
        p = simulate_hermite_path(spec, 2 ** 13, 1.0, 500 + seed)
        hats.append(estimate_hurst(p, (2, 4, 8, 16, 32)).h_hat)
    assert np.mean(hats) == pytest.approx(0.8, abs=0.08)


def test_estimate_hurst_warns_at_domain_boundary():
    # cumulated white noise is H = 1/2 exactly, outside the admissible
    # open interval: the estimate must carry a domain warning
    rng = np.random.default_rng(3)
    n = 2 ** 14
    values = np.concatenate([[0.0], np.cumsum(rng.standard_normal(n))]) / np.sqrt(n)
    p = SamplePath(np.arange(n + 1) / n, values, None, "observed", 3)
    with pytest.warns(RuntimeWarning, match="no Hermite motion"):
        est = estimate_hurst(p, (2, 4, 8, 16, 32, 64))
    assert 0.45 < est.h_hat < 0.55


def test_estimate_hurst_no_warning_inside_domain():
    import warnings

    p = simulate_fbm_exact(0.7, 2 ** 14, 1.0, 9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        estimate_hurst(p, (2, 4, 8, 16, 32, 64))


def test_estimate_hurst_names_non_integer_scales():
    # 2.7 was truncated to 2 and True to 1
    p = simulate_fbm_exact(0.7, 2 ** 14, 1.0, 9)
    for scales, bad in (([2.7, 4, 8], "2.7"), ([True, 4, 8], "True")):
        with pytest.raises(ValueError, match=f"^scale must be an integer; got {bad}$"):
            estimate_hurst(p, scales)
    scales = np.array([2, 4, 8, 16, 32, 64])
    assert estimate_hurst(p, scales).scales_used == (2, 4, 8, 16, 32, 64)


def test_uneven_grids_are_rejected():
    p = simulate_fbm_exact(0.7, 1024, 1.0, 3)
    times = p.times.copy()
    times[1::2] -= 0.5 / 1024  # steps of 0.5/1024 and 1.5/1024 in turn
    uneven = SamplePath(times, p.values, None, "observed", 0)
    message = re.escape(f"time grid is not uniform: the step from t={times[1]} to t={times[2]}")
    with pytest.raises(ValueError, match=message):
        estimate_hurst(uneven, (2, 4, 8, 16, 32))
    with pytest.raises(ValueError, match=message):
        centered_qv(uneven, 0.7, 1.0 / 512)


def test_estimate_hurst_validation():
    p = simulate_fbm_exact(0.7, 64, 1.0, 0)
    with pytest.raises(ValueError, match="3 scales"):
        estimate_hurst(p, (2, 4))
    with pytest.raises(ValueError, match="fewer than 8"):
        estimate_hurst(p, (2, 4, 60))
    with pytest.raises(ValueError, match="^scale must be at least 1; got 0$"):
        estimate_hurst(p, (0, 2, 4))
    flat = SamplePath(p.times, np.zeros_like(p.values), None, "observed", 0)
    with pytest.raises(ValueError, match="degenerate"):
        estimate_hurst(flat, (2, 4, 8))


@pytest.mark.parametrize("h", [0.6, 0.7, 0.9])
def test_lrd_coefficient_approaches_limit(h):
    spec = HermiteSpec(h, 1)
    lag = 10_000
    coef = lrd_coefficient(spec, lag)
    assert coef.shape == (lag,)
    assert coef[-1] == pytest.approx(lrd_limit(spec), rel=0.01)
    assert lrd_limit(spec) == pytest.approx(h * (2 * h - 1), rel=1e-14)


@pytest.mark.parametrize("max_lag", [2.5, 0, True, math.nan])
def test_lrd_coefficient_names_a_bad_lag_count(max_lag):
    rule = "at least 1" if type(max_lag) is int else "an integer"
    message = f"max_lag must be {rule}; got {max_lag!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        lrd_coefficient(HermiteSpec(0.7, 1), max_lag)
    assert lrd_coefficient(HermiteSpec(0.7, 1), np.int64(3)).shape == (3,)


def test_lrd_coefficient_not_summable():
    # partial sums of the raw increment covariances keep growing
    spec = HermiteSpec(0.8, 1)
    n = np.arange(1, 4001)
    raw = lrd_coefficient(spec, 4000) * n.astype(float) ** (2 * spec.hurst - 2)
    partial = np.cumsum(raw)
    assert partial[3999] > 2 * partial[999] > 0
