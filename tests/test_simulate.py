"""Sample-path generators and pathwise Stratonovich integration."""

import hashlib
import math
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from hermkit import (
    HermiteSpec,
    SamplePath,
    StratonovichConfig,
    chain_rule_residual,
    covariance,
    gen_fgn,
    hermite_polynomial,
    simulate_fbm_exact,
    simulate_hermite_path,
    simulate_paths,
    stratonovich_integral,
    subordinate,
)
from hermkit import simulate
from hermkit.cli import main
from hermkit.simulate import (
    _CHUNK_POINTS,
    _THREAD_STEPS,
    _circulant_scales,
    _fgn_scratch,
    _map_blocks,
    _pcg64_state,
    _row_states,
    _run_seeds,
    fgn_covariance,
    partial_sum_std,
)


def test_fgn_covariance_formula():
    # rho(j) = ((j+1)^(2H') - 2 j^(2H') + (j-1)^(2H')) / 2
    h = 0.7
    lags = np.array([0, 1, 2, 5])
    rho = fgn_covariance(h, lags)
    assert rho[0] == 1.0
    assert rho[1] == pytest.approx((2 ** (2 * h) - 2) / 2, rel=1e-14)
    j = 5.0
    assert rho[3] == pytest.approx(
        ((j + 1) ** (2 * h) - 2 * j ** (2 * h) + (j - 1) ** (2 * h)) / 2, rel=1e-14
    )


def test_fgn_sample_lag1_autocorrelation():
    # average the sample lag-1 correlation over a few substreams
    h = 0.7
    target = (2 ** (2 * h) - 2) / 2  # 0.31951...
    acc = []
    for seed in range(6):
        x = gen_fgn(h, 2 ** 14, seed)
        acc.append(np.mean(x[1:] * x[:-1]) / np.mean(x * x))
    assert np.mean(acc) == pytest.approx(target, abs=0.01)


def test_fgn_unit_variance():
    x = gen_fgn(0.8, 2 ** 15, 11)
    assert np.var(x) == pytest.approx(1.0, abs=0.05)


def test_hermite_polynomial_values():
    x = np.array([-1.5, 0.0, 0.3, 2.0])
    assert np.allclose(hermite_polynomial(1, x), x)
    assert np.allclose(hermite_polynomial(2, x), x ** 2 - 1)
    assert np.allclose(hermite_polynomial(3, x), x ** 3 - 3 * x)
    assert np.allclose(hermite_polynomial(4, x), x ** 4 - 6 * x ** 2 + 3)
    assert np.array_equal(hermite_polynomial(np.int64(2), x), hermite_polynomial(2, x))


@pytest.mark.parametrize("order", [math.nan, math.inf, -math.inf, -1, 1.5, 2.0, True])
def test_hermite_polynomial_names_a_bad_order(order):
    rule = "at least 0" if type(order) is int else "an integer"
    message = f"order must be {rule}; got {order!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        hermite_polynomial(order, 1.0)


def test_hermite_polynomial_orthogonality():
    # E H_m(xi) H_k(xi) = delta_mk m! under the standard Gaussian; check by
    # Gauss-Hermite quadrature so no sampling noise enters
    nodes, weights = np.polynomial.hermite_e.hermegauss(64)
    w = weights / weights.sum()
    for m in (1, 2, 3):
        for k in (1, 2, 3):
            inner = float(np.sum(w * hermite_polynomial(m, nodes) * hermite_polynomial(k, nodes)))
            expected = math.factorial(m) if m == k else 0.0
            assert inner == pytest.approx(expected, abs=1e-8)


def test_sample_path_validation():
    times = np.array([0.0, 0.5, 1.0])
    values = np.array([0.0, 0.2, -0.1])
    path = SamplePath(times, values, HermiteSpec(0.7, 1), "exact_fbm", 3)
    assert path.values.dtype == float and path.values[1] == 0.2
    with pytest.raises(ValueError, match="start at t=0"):
        SamplePath(times + 1.0, values, None, "observed", 0)
    with pytest.raises(ValueError, match="strictly increasing"):
        SamplePath(np.array([0.0, 0.5, 0.5]), values, None, "observed", 0)
    with pytest.raises(ValueError, match="method"):
        SamplePath(times, values, None, "bogus", 0)


@pytest.mark.parametrize("times, values", [
    ([0.0, 0.5, 1.0], [0.0, math.nan, -0.1]),
    ([0.0, 0.5, 1.0], [0.0, 0.2, math.inf]),
    ([0.0, 0.5, math.inf], [0.0, 0.2, -0.1]),
])
def test_sample_path_values_and_times_are_finite(times, values):
    # the times are checked first, and the message names the first bad entry
    name, bad = next((name, v) for name, row in (("times", times), ("values", values))
                     for v in row if not math.isfinite(v))
    with pytest.raises(ValueError, match=f"^{name} must be finite; got {bad}$"):
        SamplePath(np.array(times), np.array(values), None, "observed", 0)


def test_only_observed_paths_lack_a_spec():
    times, values = np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.2, -0.1])
    assert SamplePath(times, values, None, "observed", 0).spec is None
    for method in ("exact_fbm", "invariance_principle", "subordinated"):
        with pytest.raises(ValueError, match=f"a '{method}' path needs its HermiteSpec"):
            SamplePath(times, values, None, method, 0)


def test_fbm_exact_grid_law():
    # the generator is exact in law on its grid: compare sample moments
    h = 0.7
    spec = HermiteSpec(h, 1)
    n_paths = 4000
    at = np.array([0.25, 0.5, 0.75, 1.0])
    vals = np.empty((n_paths, at.size))
    for i in range(n_paths):
        p = simulate_fbm_exact(h, 16, 1.0, 1000 + i)
        idx = np.searchsorted(p.times, at)
        vals[i] = p.values[idx]
    sample = np.cov(vals.T, bias=True)
    analytic = covariance(spec, at[:, None], at[None, :])
    # moment-based standard error of each covariance entry
    se = np.sqrt((np.outer(np.diag(analytic), np.diag(analytic)) + analytic ** 2) / n_paths)
    assert np.all(np.abs(sample - analytic) < 3.5 * se)


def test_fbm_horizon_and_steps():
    p = simulate_fbm_exact(0.6, 8, 2.0, 0)
    assert p.times[-1] == pytest.approx(2.0)
    assert p.times.size == 17
    with pytest.raises(ValueError):
        simulate_fbm_exact(0.6, 0, 1.0, 0)
    with pytest.raises(ValueError):
        simulate_fbm_exact(0.6, 8, -1.0, 0)
    for horizon in (math.inf, math.nan):
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            simulate_hermite_path(HermiteSpec(0.6, 2), 64, horizon, 0)
        with pytest.raises(ValueError, match=f"horizon must be positive and finite; got {horizon}"):
            subordinate(HermiteSpec(0.6, 1), 32, horizon, 0)


@pytest.mark.parametrize("n", [8.5, math.nan, math.inf, 64.0, True, 0, -4])
def test_steps_per_unit_time_must_be_a_positive_integer(n):
    rule = "at least 1" if type(n) is int else "an integer"
    message = f"^{re.escape(f'steps per unit time must be {rule}; got {n}')}$"
    with pytest.raises(ValueError, match=message):
        simulate_paths(HermiteSpec(0.6, 1), n, 1.0, [0])
    with pytest.raises(ValueError, match=message):
        subordinate(HermiteSpec(0.6, 1), n, 1.0, 0)


def _row_generator(seed):
    """The engine's generator as it stands before drawing the row of ``seed``."""
    _, rng = _fgn_scratch(1, 1)
    rng.bit_generator.state = _pcg64_state(*_row_states([seed]).tolist()[0])
    return rng


@pytest.mark.parametrize("seed, first_draws", [
    (0, (0.1257302210933933, -0.1321048632913019)),
    (17, (1.101262453505847, 0.3384312766461778)),
    ((5 << 20) ^ 3, (-0.25938878876364385, 1.455394510810171)),
    (2**64 - 1, (0.7213364570768727, -0.9707961689465133)),
])
def test_rng_streams_are_frozen(seed, first_draws):
    # the first draws of a row, pinned when each row built its own
    # default_rng(SeedSequence([seed]))
    assert tuple(_row_generator(seed).standard_normal(2)) == first_draws


def test_row_states_match_numpy_seeding():
    # every row is seeded exactly as np.random.PCG64(SeedSequence([s])):
    # edge seeds, random 64-bit seeds, and seeds past the 4-word pool
    random64 = np.random.default_rng(2024).integers(0, 2**64, size=200, dtype=np.uint64)
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96 + 5, 2**127 + 1, 2**128 - 1,
             2**128, 2**200, np.uint64(2**64 - 1), np.int8(3), *random64.tolist()[:100],
             *random64[100:]]
    rows = _row_states(seeds)
    assert rows.shape == (len(seeds), 4) and rows.dtype == np.uint64
    for seed, row in zip(seeds, rows.tolist()):
        reference = np.random.default_rng(np.random.SeedSequence([int(seed)]))
        assert row == reference.bit_generator.seed_seq.generate_state(4, np.uint64).tolist()
        state = _pcg64_state(*row)
        assert state == reference.bit_generator.state
        draws = _row_generator(seed).standard_normal(300)
        assert np.array_equal(draws, reference.standard_normal(300))
    # a row is the same whichever call derives it
    assert np.array_equal(rows[5:9], _row_states(seeds[5:9]))
    assert _row_states([]).shape == (0, 4)


def test_run_seeds_cover_distinct_64_bit_seeds():
    assert list(_run_seeds(5, 4)) == [(5 << 20) ^ i for i in range(4)]
    assert _run_seeds(2**44 - 1, 2**20)[-1] == 2**64 - 1
    assert _run_seeds(np.int64(5), np.uint16(4)) == _run_seeds(5, 4)
    # masked to 64 bits, -1 would repeat root 2^44 - 1 and 2^44 root 0
    for root in (-1, 2**44):
        with pytest.raises(ValueError, match=r"root seed must lie in \[0, 2\^44\)"):
            _run_seeds(root, 1)
    # path 2^20 of root s would be path 0 of root s + 1
    for count in (0, 2**20 + 1):
        with pytest.raises(ValueError, match=f"at least 1 and at most {2**20} paths"):
            _run_seeds(5, count)


@pytest.mark.parametrize("root, count, message", [
    (2.9, 2, "root seed must be an integer; got 2.9"),
    (True, 2, "root seed must be an integer; got True"),
    (np.float64(5.0), 2, "root seed must be an integer; got np.float64(5.0)"),
    (5, 100.0, "path count must be an integer; got 100.0"),
    (5, 150.5, "path count must be an integer; got 150.5"),
])
def test_run_seeds_name_non_integers(root, count, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _run_seeds(root, count)


def test_rng_rejects_negative_seeds_and_extra_keys():
    # one seed is one nonnegative integer: a key of two words is not one
    for seed in (-1, np.int64(-1), (5, 0), [5, 0]):
        message = f"seed must be a nonnegative integer; got {seed!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _row_states([1, seed])


@pytest.fixture
def no_generator(monkeypatch):
    """Forbid building the engine's generator, so a test can check that an
    error comes before any row is drawn."""
    def forbidden(*args):
        raise AssertionError("a generator was built")

    monkeypatch.setattr(simulate, "_fgn_scratch", forbidden)


@pytest.mark.parametrize("seed", [2.7, True, "5", math.nan, np.float64(3.0), None, -2])
def test_bad_seeds_are_named_before_drawing(no_generator, seed):
    message = f"^{re.escape(f'seed must be a nonnegative integer; got {seed!r}')}$"
    spec = HermiteSpec(0.6, 1)
    with pytest.raises(ValueError, match=message):
        simulate_hermite_path(spec, 16, 1.0, seed)
    with pytest.raises(ValueError, match=message):
        gen_fgn(0.7, 8, seed)
    with pytest.raises(ValueError, match=message):
        simulate_paths(spec, 16, 1.0, [1, 2, seed, 4])
    with pytest.raises(ValueError, match=message):
        subordinate(spec, 16, 1.0, seed)


def test_partial_sum_std_matches_simulation():
    # sigma_n^2 = Var sum_{i<n} H_k(xi_i); Monte Carlo agreement
    spec = HermiteSpec(0.7, 2)
    n = 256
    sims = []
    for seed in range(400):
        xi = gen_fgn(spec.hurst_prime, n, 5_000 + seed)
        sims.append(hermite_polynomial(2, xi).sum())
    assert np.std(sims) == pytest.approx(partial_sum_std(spec, n), rel=0.15)


def test_hermite_path_unit_variance_at_one():
    spec = HermiteSpec(0.7, 2)
    ends = []
    for seed in range(1500):
        p = simulate_hermite_path(spec, 256, 1.0, 9_000 + seed)
        ends.append(p.values[-1])
    assert np.var(ends) == pytest.approx(1.0, abs=0.12)


@pytest.mark.parametrize("order", [2, 3])
def test_hermite_path_is_the_explicit_construction(order):
    spec = HermiteSpec(0.7, order)
    n, horizon, seed = 64, 1.5, 123
    path = simulate_hermite_path(spec, n, horizon, seed)
    m = math.ceil(n * horizon)
    xi = gen_fgn(spec.hurst_prime, m, seed)
    sums = np.concatenate([[0.0], np.cumsum(hermite_polynomial(order, xi))])
    assert np.array_equal(path.values, sums / partial_sum_std(spec, n))
    assert np.array_equal(path.times, np.arange(m + 1) / n)
    assert path.method == "invariance_principle"


@pytest.mark.parametrize("hurst", [0.55, 0.7, 0.99])
@pytest.mark.parametrize("n", [4, 100, 4096])
def test_order1_path_is_exact_fbm(hurst, n, recwarn):
    # at order 1 the exact partial-sum normalizer is n^H, so the engine
    # returns cumulated fGn scaled by n^-H, without the small-n warning
    horizon, seed = 1.25, 31
    path = simulate_hermite_path(HermiteSpec(hurst, 1), n, horizon, seed)
    m = math.ceil(n * horizon)
    expected = np.concatenate([[0.0], np.cumsum(gen_fgn(hurst, m, seed))]) * n ** -hurst
    np.testing.assert_allclose(path.values, expected, rtol=1e-15, atol=0.0)
    assert path.method == "exact_fbm"
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert np.array_equal(simulate_fbm_exact(hurst, n, horizon, seed).values, path.values)


@pytest.mark.parametrize("order, hurst, n, horizon, seed, digest", [
    (1, 0.6, 1, 129.0, 11, "f8c01303546b6826e83d31bf58b52b219309c916c5055015cf3582227fc098de"),
    (2, 0.7, 64, 129.0, 12, "24ddb4d875826f33c1570fe5c9c12e724da4866bf320c522a8087720a66f6083"),
    (3, 0.75, 64, 4.0, 13, "e78233c1122c7f164b4aad5b35e0fe12a4acda902ad39ba01d8791a56f533e01"),
])
def test_hermite_paths_are_frozen(order, hurst, n, horizon, seed, digest):
    # sha256 of the path values as drawn one path per circulant embedding
    # (two length-2m normal vectors, two FFTs per path), before the spectrum
    # was cached and rows were batched
    values = simulate_hermite_path(HermiteSpec(hurst, order), n, horizon, seed).values
    assert hashlib.sha256(values.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("order, hurst, n, horizon", [
    (1, 0.6, 1, 129.0),
    (2, 0.7, 64, 4.0),
    (1, 0.6, 1, 1025.0),  # 15-row blocks of at least _THREAD_STEPS steps: worker threads
    (2, 0.7, 64, 130.0),  # one-row blocks: worker threads
])
def test_simulate_paths_rows_equal_one_row_calls(order, hurst, n, horizon, monkeypatch):
    # 3 full blocks and a partial one; every block stays within the bound.
    # Three workers, whatever the machine has, so the threaded side runs and
    # a worker reuses its buffer.
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 3)
    spec = HermiteSpec(hurst, order)
    m = math.ceil(n * horizon)
    rows = _CHUNK_POINTS // (2 * m)
    seeds = _run_seeds(21, 3 * rows + 1)
    blocks = _map_blocks(spec, n, horizon, seeds, lambda start, block: (start, block.shape))
    assert blocks == [(i * rows, (rows, m + 1)) for i in range(3)] + [(3 * rows, (1, m + 1))]
    paths = simulate_paths(spec, n, horizon, seeds)
    assert paths.shape == (len(seeds), m + 1)
    for i, seed in enumerate(seeds):
        assert np.array_equal(paths[i], simulate_hermite_path(spec, n, horizon, seed).values)


def test_simulate_paths_peak_memory_stays_near_its_output():
    # rows go from one reused block buffer straight into the result
    spec = HermiteSpec(0.7, 1)
    simulate_paths(spec, 256, 1.0, [0])  # fill the spectrum and normalizer caches
    tracemalloc.start()
    try:
        paths = simulate_paths(spec, 256, 1.0, range(2000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert paths.shape == (2000, 257)
    assert peak < 1.5 * paths.nbytes


def _rows_per_block(n, horizon):
    return _CHUNK_POINTS // (2 * math.ceil(n * horizon))


def _one_row_grid():
    """(spec, n, horizon) whose blocks are single rows, so that two or more
    seeds go to worker threads."""
    spec, n, horizon = HermiteSpec(0.7, 2), 64, 130.0
    assert _rows_per_block(n, horizon) == 1
    return spec, n, horizon


def _multi_row_grid():
    """(spec, n, horizon) whose blocks hold 15 rows of 1025 steps, long
    enough for worker threads."""
    spec, n, horizon = HermiteSpec(0.6, 1), 1, 1025.0
    assert _rows_per_block(n, horizon) == 15 and 1025 >= _THREAD_STEPS
    return spec, n, horizon


@pytest.mark.parametrize("grid", [_one_row_grid, _multi_row_grid], ids=["one-row", "multi-row"])
def test_threaded_chunks_raise_the_serial_error(grid, monkeypatch):
    # the rows of the failing seeds fail wherever they are drawn; the caller
    # gets the first failing block's error in seed order, with the type and
    # message of the serial one, and no worker outlives the call
    failing = []
    true_state = simulate._pcg64_state

    def state(*words):
        if list(words) in failing:
            if list(words) == failing[0]:
                time.sleep(0.05)  # so the first failure in seed order comes last
            raise ArithmeticError(f"cannot draw the row of words {words}")
        return true_state(*words)

    monkeypatch.setattr(simulate, "_pcg64_state", state)
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
    spec, n, horizon = grid()
    rows = _rows_per_block(n, horizon)
    seeds = range(1, 6 * rows + 1)  # blocks 1..6; seed i sits in block (i-1)//rows + 1
    for failing_blocks in ([3],
                           [2, 5],  # worker 1's block 1 before worker 0's block 4
                           [3, 4]):  # worker 0's block 2 before worker 1's block 3
        # a middle row of each failing block
        failing_seeds = [(b - 1) * rows + 1 + (rows - 1) // 2 for b in failing_blocks]
        failing[:] = _row_states(failing_seeds).tolist()
        with pytest.raises(ArithmeticError) as serial:
            simulate_paths(spec, 64, 1.0, failing_seeds[:1])  # short rows: no thread
        threads = threading.active_count()
        kept = []
        with pytest.raises(type(serial.value), match=f"^{re.escape(str(serial.value))}$"):
            _map_blocks(spec, n, horizon, seeds,
                        lambda start, block: kept.append((start + 1, block[0].copy())))
        assert threading.active_count() == threads
        for seed, row in kept:
            assert np.array_equal(row, simulate_hermite_path(spec, n, horizon, seed).values)
        assert {(seed - 1) // rows + 1 for seed, _ in kept} >= set(range(1, failing_blocks[0]))


def test_threaded_start_failure_joins_the_started_workers(monkeypatch):
    # a thread that cannot start stops the one already running after its
    # block, and the call raises only once that one is joined
    true_thread = threading.Thread
    made = []

    class SecondStartFails(true_thread):
        def start(self):
            made.append(self)
            if len(made) == 2:
                raise RuntimeError("can't start new thread")
            super().start()

    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
    spec, n, horizon = _one_row_grid()
    threads = threading.active_count()
    monkeypatch.setattr(threading, "Thread", SecondStartFails)
    with pytest.raises(RuntimeError, match="^can't start new thread$"):
        simulate_paths(spec, n, horizon, range(8))
    assert threading.active_count() == threads
    assert len(made) == 2 and not made[0].is_alive()


@pytest.mark.parametrize("grid", [_one_row_grid, _multi_row_grid], ids=["one-row", "multi-row"])
def test_threaded_chunks_under_stress(grid, monkeypatch):
    # more workers than cores and a short switch interval: every row is still
    # its own seed's, in seed order, and the call ends
    spec, n, horizon = grid()
    seeds = range(100, 100 + 12 * _rows_per_block(n, horizon))  # 12 blocks
    expected = np.array([simulate_hermite_path(spec, n, horizon, s).values for s in seeds])
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 5)
    drawn = []
    caller = threading.Thread(target=lambda: drawn.append(simulate_paths(spec, n, horizon, seeds)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller.start()
        caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not caller.is_alive()
    assert np.array_equal(drawn[0], expected)


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("blocks", [2, 5])
@pytest.mark.parametrize("steps", [_THREAD_STEPS - 1, _THREAD_STEPS])
def test_threaded_rows_start_at_thread_steps(steps, blocks, cpus, monkeypatch):
    # rows shorter than _THREAD_STEPS stay on the calling thread; rows of
    # that length go to min(blocks, CPUs) workers, one CPU meaning none
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(simulate, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(threading, "Thread", Counted)
    rows = _rows_per_block(1, steps)
    seeds = range((blocks - 1) * rows + 1)
    assert len(_map_blocks(HermiteSpec(0.7, 1), 1, float(steps), seeds,
                           lambda start, block: None)) == blocks
    threaded = steps >= _THREAD_STEPS and cpus > 1
    assert len(started) == (min(blocks, cpus) if threaded else 0)


def test_gen_fgn_owns_its_data():
    x = gen_fgn(0.7, 1000, 3)
    assert x.shape == (1000,) and x.flags.owndata and x.base is None


def test_one_step_paths(tmp_path):
    # the size-2 embedding of one draw is exact: lam_0 + lam_1 = 2, so the
    # draw is s_0 a_0 + s_1 a_1 with s_0^2 + s_1^2 = 1
    scales = _circulant_scales(0.7, 1)
    assert scales @ scales == pytest.approx(1.0, rel=1e-15)
    a = np.random.default_rng(np.random.SeedSequence([3])).standard_normal(2)
    assert gen_fgn(0.7, 1, 3) == pytest.approx([scales @ a], rel=1e-15)
    path = simulate_hermite_path(HermiteSpec(0.6, 1), 3, 0.1, 0)
    assert np.array_equal(path.times, [0.0, 1 / 3])
    assert main(["simulate", "--hurst", "0.7", "--order", "1", "--steps", "1",
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "path_0.csv").read_text().count("\n") == 3


def test_simulate_paths_needs_a_seed():
    with pytest.raises(ValueError, match="at least one seed"):
        simulate_paths(HermiteSpec(0.7, 2), 64, 1.0, [])


@pytest.fixture
def negative_embedding(monkeypatch, no_generator):
    """Poison every covariance row so each circulant spectrum has an
    eigenvalue far below zero, and forbid building a generator.

    rho_n enters eigenvalue k with sign (-1)^k, so rho_n = 10 pushes the odd
    ones to about -10.  The spectrum and partial-sum caches are cleared on
    both sides so no poisoned entry outlives the test.
    """
    true_covariance = simulate.fgn_covariance

    def poisoned(hurst_prime, lags):
        rho = true_covariance(hurst_prime, lags)
        rho[-1] = 10.0
        return rho

    _circulant_scales.cache_clear()
    partial_sum_std.cache_clear()
    monkeypatch.setattr(simulate, "fgn_covariance", poisoned)
    yield
    _circulant_scales.cache_clear()
    partial_sum_std.cache_clear()


def test_negative_embedding_raises_before_drawing(negative_embedding, tmp_path, capsys):
    message = (r"circulant embedding of fGn at H'=0\.7, n=8 has eigenvalue "
               r"lambda_min=-\d\.\d{3}e\+00 below the roundoff tolerance "
               r"-\d\.\d{3}e-08 \(1e-9 \* lambda_max\)")
    for _ in range(2):  # errors are not cached
        with pytest.raises(FloatingPointError, match=message):
            gen_fgn(0.7, 8, 3)
    with pytest.raises(FloatingPointError, match=message):
        simulate_paths(HermiteSpec(0.7, 1), 4, 2.0, [3, 4])
    out = tmp_path / "out"
    assert main(["simulate", "--hurst", "0.7", "--order", "1", "--steps", "8",
                 "--paths", "2", "--out", str(out)]) == 1
    assert "numerical failure: circulant embedding" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("hurst_prime", [0.5 + 1e-7, 0.75, 0.999, 1.0 - 1e-7])
def test_circulant_spectrum_is_nonnegative_up_to_roundoff(hurst_prime):
    for n in (2, 3, 1000, 2**14):
        assert _circulant_scales(hurst_prime, n).shape == (n + 1,)


def test_circulant_scales_are_read_only():
    scales = _circulant_scales(0.7, 16)
    assert scales.shape == (17,) and np.all(scales > 0)
    with pytest.raises(ValueError):
        scales[0] = 0.0


def test_hermite_path_warns_for_tiny_n():
    with pytest.warns(RuntimeWarning, match="asymptotic"):
        simulate_hermite_path(HermiteSpec(0.7, 2), 16, 1.0, 0)


def test_subordinated_market_time_variance():
    # S(t) = X(t^(1/2H)) has Var S(t) = t at every grid time
    spec = HermiteSpec(0.8, 1)
    s = subordinate(spec, 32, 1.0, 1)
    assert s.method == "subordinated"
    assert s.times[0] == 0.0 and s.values[0] == 0.0
    idx = np.searchsorted(s.times, [0.5, 1.0])
    half, one = s.times[idx]
    at_half, at_one = [], []
    for seed in range(1500):
        values = subordinate(spec, 32, 1.0, 20_000 + seed).values
        at_half.append(values[idx[0]])
        at_one.append(values[idx[1]])
    assert np.var(at_half) == pytest.approx(half, abs=0.06)
    assert np.var(at_one) == pytest.approx(one, abs=0.12)


@pytest.mark.parametrize("hurst, order, n, horizon", [(0.7, 1, 1024, 1.0), (0.95, 2, 64, 2.5)])
def test_subordinate_is_the_driver_on_warped_times(hurst, order, n, horizon):
    # S(t_j) is the driver's value at j/n exactly, at t_j = (j/n)^(2H)
    spec = HermiteSpec(hurst, order)
    driver = simulate_hermite_path(spec, n, horizon ** (1.0 / (2.0 * hurst)), 5)
    s = subordinate(spec, n, horizon, 5)
    assert np.array_equal(s.values, driver.values)
    assert np.array_equal(s.times, driver.times ** (2.0 * hurst))


def test_subordinate_grid_past_the_horizon():
    # the grid runs to j = ceil(n T^(1/2H)), so it ends at or past T; a
    # one-step driver is served
    spec = HermiteSpec(0.6, 1)
    s = subordinate(spec, 3, 0.1, 0)
    assert np.array_equal(s.times, np.array([0.0, 1 / 3]) ** 1.2)
    spec = HermiteSpec(0.7, 2)
    s = subordinate(spec, 64, 1.05, 4)
    steps = math.ceil(64 * 1.05 ** (1 / 1.4))
    assert np.array_equal(s.times, (np.arange(steps + 1) / 64) ** 1.4)
    assert s.times[-1] >= 1.05
    assert np.array_equal(s.values, simulate_hermite_path(spec, 64, steps / 64, 4).values)


def test_stratonovich_midpoint_exact_for_linear_integrand():
    # sum (x_k + x_{k+1})/2 (x_{k+1} - x_k) telescopes to (x_T^2 - x_0^2)/2
    p = simulate_fbm_exact(0.7, 512, 1.0, 42)
    val = stratonovich_integral(p.values, p, StratonovichConfig(evaluation_point=0.5))
    assert val == pytest.approx((p.values[-1] ** 2 - p.values[0] ** 2) / 2, abs=1e-14)


def test_stratonovich_left_vs_mid_gap_shrinks():
    p = simulate_fbm_exact(0.7, 1024, 1.0, 7)
    gaps = []
    for refinement in (16, 1024):
        left = stratonovich_integral(p.values, p, StratonovichConfig(0.0, refinement))
        mid = stratonovich_integral(p.values, p, StratonovichConfig(0.5, refinement))
        gaps.append(abs(left - mid))
    assert gaps[1] < gaps[0] / 4


def test_stratonovich_validation():
    p = simulate_fbm_exact(0.7, 64, 1.0, 0)
    with pytest.raises(ValueError, match="shape"):
        stratonovich_integral(p.values[:-1], p)
    with pytest.raises(ValueError, match="divide"):
        stratonovich_integral(p.values, p, StratonovichConfig(0.5, 3))
    for refinement in (2.5, 0, -4, math.nan, True):
        rule = "at least 1" if type(refinement) is int else "an integer"
        message = f"refinement must be {rule}; got {refinement!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            StratonovichConfig(0.5, refinement)


@pytest.mark.parametrize("case", ["square", "exp"])
def test_chain_rule_residual_decreases_under_refinement(case):
    if case == "square":
        g = lambda x, t: x ** 2 / 2
        gx = lambda x, t: x
        gt = lambda x, t: np.zeros_like(np.asarray(t, dtype=float))
    else:
        g = lambda x, t: np.exp(x)
        gx = lambda x, t: np.exp(x)
        gt = lambda x, t: np.zeros_like(np.asarray(t, dtype=float))
    # left-point sums carry the full first-order defect (midpoint is exact
    # for the square case), so refinement must shrink it on every path
    worse = 0
    for seed in range(5):
        p = simulate_fbm_exact(0.7, 1024, 1.0, 600 + seed)
        res = [
            chain_rule_residual(g, gx, gt, p, StratonovichConfig(0.0, r))
            for r in (64, 128, 256, 512, 1024)
        ]
        worse += sum(res[i + 1] >= res[i] for i in range(len(res) - 1))
    assert worse == 0


def test_chain_rule_time_dependent_function():
    g = lambda x, t: np.asarray(t, dtype=float) * x
    gx = lambda x, t: np.asarray(t, dtype=float)
    gt = lambda x, t: np.asarray(x, dtype=float)
    p = simulate_fbm_exact(0.8, 2048, 1.0, 12)
    coarse = chain_rule_residual(g, gx, gt, p, StratonovichConfig(0.0, 128))
    fine = chain_rule_residual(g, gx, gt, p, StratonovichConfig(0.0, 2048))
    assert fine < coarse
