"""Sample-path generation for Hermite motions and pathwise integration.

One path engine, one time change, one integration tool:

* :func:`simulate_paths` — any order k via the invariance-principle
  construction: partial sums of the order-k Hermite polynomial applied to a
  Gaussian sequence with Hurst index H' = 1 + (H-1)/k, normalized by the
  exact partial-sum standard deviation so Var(X(1)) = 1; at k = 1 this is
  exact fractional Brownian motion.  One row per seed, drawn in blocks of
  at most _CHUNK_POINTS embedded points that share one FFT call, with the
  circulant spectrum cached per (H', length); circulant embedding is the
  only fGn route, and a spectrum negative beyond roundoff raises
  FloatingPointError.  :func:`gen_fgn` is one row of that noise as an
  array; :func:`simulate_hermite_path` (and :func:`simulate_fbm_exact` at
  k = 1) is the one-row path as a :class:`SamplePath`;
* :func:`subordinate` — the market-time process S(t) = X(t^(1/2H)), read
  exactly off the driver's own grid: S at t_j = (j/n)^(2H) is X at j/n
  (self-similarity index 1/2, increments not stationary);
* :func:`stratonovich_integral` / :func:`chain_rule_residual` — forward-type
  Riemann sums with the integrand evaluated at an arbitrary point
  (1-delta)*t_k + delta*t_{k+1} of each subinterval, and the first-order
  chain-rule defect computed with them.

Paths are deterministic functions of (inputs, seed): row s is drawn from
the PCG64 stream that ``np.random.default_rng(np.random.SeedSequence([s]))``
would give, so it is bit-identical whichever batch or block it is drawn in.
:func:`_row_states` derives the seeding of every row of a call at once, in
one vectorised pass of numpy's SeedSequence hash, and each worker's one
generator is reset to each row's state before its draws.  Seeds are
nonnegative Python or numpy integers; anything else is named before any
draw.  Monte Carlo callers seed the paths of a run from its root seed with
:func:`_run_seeds`, the one home of that rule and its limits.

Every caller maps a per-block reduction over the rows with
:func:`_map_blocks`, which spreads long rows over one thread per usable
CPU.  The normal draws and the FFT release the GIL, and each row's draws
start from its own seed's state, so the values are the same bits as on
the calling thread.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .kernel import HermiteSpec, _integer, _is_integer

_METHODS = ("exact_fbm", "invariance_principle", "subordinated", "observed")


@dataclass(frozen=True)
class SamplePath:
    """A path on a strictly increasing time grid starting at 0.

    ``method`` names where it came from: one of the simulation routes, or
    ``"observed"`` for data read from outside, the one kind of path whose
    law hermkit does not know (``spec`` may be None only there).
    """

    times: np.ndarray
    values: np.ndarray
    spec: HermiteSpec | None
    method: str
    seed: int

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or times.size != values.size or times.size < 2:
            raise ValueError("times/values must be equal-length 1-D arrays, length >= 2")
        if times[0] != 0.0 or values[0] != 0.0:
            raise ValueError("paths start at t=0 with value 0")
        if not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise ValueError("times and values must be finite")
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}; got {self.method!r}")
        if self.spec is None and self.method != "observed":
            raise ValueError(f"a {self.method!r} path needs its HermiteSpec; "
                             "only an 'observed' path may have spec=None")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class StratonovichConfig:
    """Where in each subinterval the integrand is read, and how finely.

    ``evaluation_point`` is the delta in [0, 1] of the sampling site
    (1-delta)*t_k + delta*t_{k+1}, the midpoint by default; the limit does
    not depend on it for Hurst > 1/2, which the integrator's callers verify
    by refinement.
    ``refinement`` is the number of subintervals actually used; it must
    divide the driver's interval count.
    """

    evaluation_point: float = 0.5
    refinement: int | None = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.evaluation_point <= 1.0):
            raise ValueError("evaluation_point must lie in [0, 1]")
        if self.refinement is not None:
            object.__setattr__(self, "refinement", _integer(self.refinement, "refinement", 1))


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """SeedSequence's hash constant c before and after each of its first
    ``count`` updates c <- c*mult mod 2^32, as two uint32 rows."""
    out = np.empty((2, count), dtype=np.uint32)
    c = init
    for j in range(count):
        out[0, j] = c
        c = c * mult & 0xFFFFFFFF
        out[1, j] = c
    return out


# numpy's SeedSequence (after O'Neill's seed_seq_fe) with its 4-word pool.
# The constants its hashes use depend only on the call count, not on the
# entropy: 4 hashes fill the pool, then pass src hashes word src into each
# other word d with constant 4 + 3*src + (d if d < src else d - 1), and
# generate_state restarts from a constant of its own.  _CROSS lists each
# pass's constants for d = src+1, src+2, src+3 (mod 4), the order of the
# rotated pool in _row_states.
_POOL = 4
_XSHIFT = np.uint32(16)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_FILL = _hash_constants(0x43B0D7E5, 0x931E8875, _POOL * _POOL)
_CROSS = [
    _FILL[:, [_POOL + (_POOL - 1) * src + (d if d < src else d - 1)
              for d in [(src + k) % _POOL for k in range(1, _POOL)]]]
    for src in range(_POOL)
]
_GENERATE = _hash_constants(0x8B51F9DD, 0x58F38DED, 2 * _POOL)
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's 128-bit LCG multiplier


def _hashmix(words: np.ndarray, before: np.ndarray, after: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of each word, with the constants it would use."""
    words = (words ^ before) * after
    words ^= words >> _XSHIFT
    return words


def _row_states(seeds) -> np.ndarray:
    """``np.random.SeedSequence([s]).generate_state(4, np.uint64)`` for every
    seed s, as a (len(seeds), 4) uint64 array, in one vectorised pass.

    These are the words PCG64 seeds itself from (:func:`_pcg64_state`).  A
    seed below 2^128 fills at most the 4-word pool, and padding it with
    zero words is exactly what SeedSequence does, so those rows are hashed
    together in uint32 arithmetic; a larger seed adds words that
    SeedSequence mixes in a loop of their own, and its row is numpy's.
    Raises ValueError naming the first seed that is not a nonnegative
    Python or numpy integer, before any row is derived.
    """
    values = []
    for seed in seeds:
        if not (_is_integer(seed) and seed >= 0):
            raise ValueError(f"seed must be a nonnegative integer; got {seed!r}")
        values.append(int(seed))
    words = np.empty((len(values), 2), dtype="<u8")
    words[:, 0] = [s & _MASK64 for s in values]
    words[:, 1] = [s >> 64 & _MASK64 for s in values]
    pool = _hashmix(words.view("<u4"), *_FILL[:, :_POOL])  # 32-bit words, low first
    for before, after in _CROSS:  # column 0 is word src, the others follow it
        others = pool[:, 1:]
        others *= _MIX_L
        others -= _hashmix(pool[:, :1], before, after) * _MIX_R
        others ^= others >> _XSHIFT
        pool = np.concatenate([others, pool[:, :1]], axis=1)
    # generate_state draws 8 uint32 words from the pool in turn and pairs
    # them little-endian into uint64, as numpy does
    state = _hashmix(np.concatenate([pool, pool], axis=1), *_GENERATE)
    state = state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
    for i, seed in enumerate(values):
        if seed >> 128:
            state[i] = np.random.SeedSequence([seed]).generate_state(4, np.uint64)
    return state


def _pcg64_state(s_hi: int, s_lo: int, i_hi: int, i_lo: int) -> dict:
    """The ``bit_generator.state`` of ``np.random.PCG64`` seeded with the words
    (s_hi, s_lo, i_hi, i_lo) of one :func:`_row_states` row: PCG's srandom
    step, inc = 2*initseq + 1 and state = (inc + initstate)*MULT + inc."""
    inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
    state = (((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc) & _MASK128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


_MAX_PATHS = 1 << 20
_MAX_ROOT = 1 << 44


def _run_seeds(root: int, count: int) -> range:
    """Seeds (root << 20) ^ i of the paths i < count of a run.

    Distinct over all (root, i) and below 2^64 for integers root in
    [0, 2^44) and 1 <= count <= 2^20, all checked here; the xor fills only
    the low 20 bits, so it is the sum (root << 20) + i.
    """
    root = _integer(root, "root seed")
    if not 0 <= root < _MAX_ROOT:
        raise ValueError(f"root seed must lie in [0, 2^44); got {root}")
    count = _integer(count, "path count")
    if not 1 <= count <= _MAX_PATHS:
        raise ValueError(f"need at least 1 and at most {_MAX_PATHS} paths; got {count}")
    first = root << 20
    return range(first, first + count)


def fgn_covariance(hurst_prime: float, lags) -> np.ndarray:
    """Autocovariance rho(k) = 0.5*(|k+1|^2H' - 2|k|^2H' + |k-1|^2H')."""
    k = np.abs(np.asarray(lags, dtype=float))
    h2 = 2.0 * hurst_prime
    return 0.5 * ((k + 1.0) ** h2 - 2.0 * k**h2 + np.abs(k - 1.0) ** h2)


@lru_cache(maxsize=32)
def _circulant_scales(hurst_prime: float, n: int) -> np.ndarray:
    """Per-frequency scales of the size-2n circulant embedding, read-only.

    sqrt(lam_0/2n), sqrt(lam_k/4n) for 0 < k < n and sqrt(lam_n/2n), where
    lam is the FFT of the reflected covariance row rho_0..rho_{n-1},
    rho_n..rho_1.  The minimal embedding of fGn is nonnegative definite
    (Dietrich & Newsam 1997; Craigmile 2003): eigenvalues down to
    -1e-9 * lam_max are roundoff and clipped to 0, lower ones raise
    FloatingPointError.
    """
    if not (0.5 < hurst_prime < 1.0):
        raise ValueError(f"hurst_prime must lie in (1/2, 1); got {hurst_prime}")
    rho = fgn_covariance(hurst_prime, np.arange(n + 1))
    row = np.concatenate([rho[:-1], rho[:0:-1]])
    lam = np.fft.fft(row).real
    tol = 1e-9 * lam.max()
    if lam.min() < -tol:
        raise FloatingPointError(
            f"circulant embedding of fGn at H'={hurst_prime!r}, n={n} has "
            f"eigenvalue lambda_min={lam.min():.3e} below the roundoff "
            f"tolerance -{tol:.3e} (1e-9 * lambda_max)"
        )
    lam = np.maximum(lam[: n + 1], 0.0)
    m = 2 * n
    scales = np.sqrt(lam / (2.0 * m))
    scales[0] = math.sqrt(lam[0] / m)
    scales[n] = math.sqrt(lam[n] / m)
    scales.flags.writeable = False
    return scales


def _fgn_scratch(rows: int, n: int):
    """The scratch of :func:`_fgn_into` for up to ``rows`` rows of n draws:
    the (rows, 2n) complex embedding vectors, and a PCG64 generator that
    each row resets to its own seed's state."""
    return np.empty((rows, 2 * n), dtype=complex), np.random.Generator(np.random.PCG64(0))


def _fgn_into(scales: np.ndarray, states: np.ndarray, scratch, out: np.ndarray) -> None:
    """One row of n fGn draws per :func:`_row_states` row into ``out``
    (len(states), n), using the first len(states) rows of the scratch from
    :func:`_fgn_scratch`.

    Each row sets the generator to its seed's state and draws a (length 2n)
    then b, and the embedding reads b only below n, so b's tail is never
    drawn.  w is Hermitian: w_0 and w_n are real, w_k = s_k (a_k + i b_k)
    and w_{2n-k} its conjugate for 0 < k < n.  a waits in the back half of
    w, which is written only once a is read, and b in the row of ``out``;
    the FFT runs in place.  Allocates no array and calls no public name, so
    worker threads may run it, each with its own scratch.
    """
    w, rng = scratch
    bits = rng.bit_generator
    rows, n = out.shape
    m = 2 * n
    w = w[:rows]
    re, im = w.real, w.imag
    a = w[:, n:].view(float)
    for row_a, row_b, words in zip(a, out, states.tolist()):
        bits.state = _pcg64_state(*words)
        rng.standard_normal(out=row_a)
        rng.standard_normal(out=row_b)
    np.multiply(scales[:n], a[:, :n], out=re[:, :n])
    re[:, n] = scales[n] * a[:, n]
    np.multiply(scales[1:n], out[:, 1:], out=im[:, 1:n])
    im[:, 0] = im[:, n] = 0.0
    re[:, m - 1 : n : -1] = re[:, 1:n]
    np.negative(im[:, 1:n], out=im[:, m - 1 : n : -1])
    np.fft.fft(w, axis=1, out=w)
    out[...] = re[:, :n]


def gen_fgn(hurst_prime: float, n: int, seed: int) -> np.ndarray:
    """n draws of fractional Gaussian noise by circulant embedding.

    The covariance sequence rho(0..n) is reflected into a circulant of size
    2n whose eigenvalues (an FFT of the first row) are nonnegative for all
    H' in (1/2, 1); two independent standard-normal vectors then produce an
    exact sample in O(n log n).  This is the only fGn route: an eigenvalue
    negative beyond roundoff raises FloatingPointError before any normal is
    drawn.  ``n`` is an integer >= 1.
    """
    n = _integer(n, "n", 1)
    scales = _circulant_scales(hurst_prime, n)
    states = _row_states([seed])
    out = np.empty(n)
    _fgn_into(scales, states, _fgn_scratch(1, n), out[np.newaxis])
    return out


def _hermite_into(order: int, x: np.ndarray, prev: np.ndarray, cur: np.ndarray,
                  tmp: np.ndarray) -> np.ndarray:
    """He_order(x) by the three-term recurrence, in the given buffers.

    ``prev``, ``cur`` and ``tmp`` share x's shape and are overwritten; the
    one holding the result is returned.  The one home of the recurrence:
    :func:`hermite_polynomial` and the path engine's worker threads both
    run it.
    """
    prev.fill(1.0)
    if order == 0:
        return prev
    np.copyto(cur, x)
    for j in range(1, order):
        # He_{j+1} = x*He_j - j*He_{j-1}
        np.multiply(x, cur, out=tmp)
        np.multiply(j, prev, out=prev)
        np.subtract(tmp, prev, out=prev)
        prev, cur = cur, prev
    return cur


def hermite_polynomial(m: int, x):
    """Probabilists' Hermite polynomial He_m(x) by the three-term recurrence.

    He_0 = 1, He_1 = x, He_{m+1} = x*He_m - m*He_{m-1}; orthogonal under the
    standard Gaussian with E[He_l(Z) He_m(Z)] = m! * [l == m].  The order m
    is an integer >= 0 (an integral float is not); x is a scalar or an array.
    """
    m = _integer(m, "order", 0)
    x = np.asarray(x, dtype=float)
    he = _hermite_into(m, x, *(np.empty_like(x) for _ in range(3)))
    return he if he.ndim else float(he)


@lru_cache(maxsize=256)
def partial_sum_std(spec: HermiteSpec, n: int) -> float:
    """Exact standard deviation of sum_{j<n} He_k(xi_j) for fGn xi at H'.

    Uses E[He_k(xi_0) He_k(xi_i)] = k! * rho(i)^k, so the variance is
    k! * sum_{|i|<n} (n - |i|) rho(i)^k — an O(n) computation that replaces
    the asymptotic normalizer and pins Var at one path-unit exactly.
    """
    k = spec.order
    rho = fgn_covariance(spec.hurst_prime, np.arange(n))
    weights = n - np.arange(n, dtype=float)
    var = math.factorial(k) * (n * 1.0 + 2.0 * float(weights[1:] @ rho[1:] ** k))
    return math.sqrt(var)


_CHUNK_POINTS = 1 << 15


def _grid_steps(n: int, horizon: float) -> int:
    """The step count ceil(n*T) of the grid k/n covering [0, T]; raises
    unless T is positive and finite and n an integer >= 1 (an integral
    float is not)."""
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite; got {horizon}")
    return math.ceil(_integer(n, "steps per unit time", 1) * horizon)


def _fill_chunk(order: int, norm: float, scales: np.ndarray, states: np.ndarray,
                scratch, paths: np.ndarray) -> None:
    """One chunk of paths, a row per :func:`_row_states` row, into ``paths``
    (len(states), m+1).

    fGn lands in the rows, He_k runs in the scratch (free once the FFT's
    real parts are copied out), and the cumulative sums go back into the
    rows before the partial-sum normalisation.  Allocates no array and calls no
    public name, so worker threads may run it.
    """
    m = paths.shape[1] - 1
    xi = paths[:, 1:]
    _fgn_into(scales, states, scratch, xi)
    w = scratch[0][: len(states)].view(float)
    he = _hermite_into(order, xi, w[:, :m], w[:, m : 2 * m], w[:, 2 * m : 3 * m])
    paths[:, 0] = 0.0
    np.cumsum(he, axis=1, out=xi)
    paths /= norm


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map_blocks(spec: HermiteSpec, n: int, horizon: float, seeds, reduce) -> list:
    """``[reduce(start, block), ...]`` over the rows of :func:`simulate_paths`
    in blocks of consecutive seeds, ``start`` the index of a block's first.

    One-row blocks go to one thread per usable CPU.  A worker refills one
    buffer, so ``reduce`` copies what it keeps, and calls no public name.
    Every thread is joined before this returns or raises; the error raised
    is the first failing block's in seed order.
    """
    m = _grid_steps(n, horizon)
    if len(seeds) == 0:
        raise ValueError("need at least one seed")
    states = _row_states(seeds)
    if n < 64 and spec.order > 1:
        warnings.warn(
            f"n={n} steps per unit time is small; the invariance-principle "
            "law is asymptotic and finite-n bias will be noticeable",
            RuntimeWarning,
        )
    rows = max(1, _CHUNK_POINTS // (2 * m))
    # both caches are filled here, before any worker starts
    norm = partial_sum_std(spec, n)
    scales = _circulant_scales(spec.hurst_prime, m)
    starts = range(0, len(states), rows)
    workers = min(len(starts), _usable_cpus()) if rows == 1 else 1
    size = min(rows, len(states))
    buffers = [(_fgn_scratch(size, m), np.empty((size, m + 1))) for _ in range(workers)]
    results = [None] * len(starts)
    failures = []  # (block index, error); block -1 is an interrupt

    def work(worker: int) -> None:
        scratch, buffer = buffers[worker]
        for b in range(worker, len(starts), workers):
            if failures and b > failures[0][0]:
                return  # a block after a failed one cannot fail first
            block = states[starts[b] : starts[b] + rows]
            paths = buffer[: len(block)]
            try:
                _fill_chunk(spec.order, norm, scales, block, scratch, paths)
                results[b] = reduce(starts[b], paths)
            except BaseException as error:
                failures.append((b, error))
                return

    if workers == 1:
        work(0)
    else:
        threads = []
        try:
            for worker in range(workers):
                thread = threading.Thread(target=work, args=(worker,))
                thread.start()
                threads.append(thread)
            for thread in threads:
                thread.join()
        except BaseException as error:  # every worker stops after its block
            failures.insert(0, (-1, error))
            for thread in threads:
                thread.join()
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return results


def simulate_paths(spec: HermiteSpec, n: int, horizon: float, seeds) -> np.ndarray:
    """Values of one :func:`simulate_hermite_path` per seed, as a (P, m+1) array.

    Row i is bit-identical to ``simulate_hermite_path(spec, n, horizon,
    seeds[i]).values`` on the grid k/n, k = 0..m = ceil(n*T); the circulant
    spectrum is computed once per (H', m) and the rows share the FFTs.  Rows
    longer than _CHUNK_POINTS / 4 steps are drawn on one thread per usable
    CPU (see :func:`_map_blocks`), with the same bits.
    """
    paths = np.empty((len(seeds), _grid_steps(n, horizon) + 1))

    def store(start: int, block: np.ndarray) -> None:
        paths[start : start + len(block)] = block

    _map_blocks(spec, n, horizon, seeds, store)
    return paths


def simulate_hermite_path(
    spec: HermiteSpec, n: int, horizon: float, seed: int
) -> SamplePath:
    """Invariance-principle Hermite path on the grid k/n, k = 0..ceil(n*T).

    Draws fractional Gaussian noise at H' = 1 + (H-1)/k (so the correlation
    decay exponent 2H'-2 equals (2H-2)/k), applies the order-k Hermite
    polynomial, and cumulates, dividing by the exact n-term partial-sum
    standard deviation: the value at t=1 has unit variance by construction,
    and the process converges in law to the unit-variance Hermite motion.
    At order 1 nothing is asymptotic: H' = H, He_1 is the identity and the
    normalizer is n^H, so the path is fBm with the exact grid law
    (method ``"exact_fbm"``) for every n.
    """
    values = simulate_paths(spec, n, horizon, [seed])[0]
    times = np.arange(values.size) / n
    method = "exact_fbm" if spec.order == 1 else "invariance_principle"
    return SamplePath(times, values, spec, method, seed)


def simulate_fbm_exact(hurst: float, n: int, horizon: float, seed: int) -> SamplePath:
    """Fractional Brownian motion with the exact grid law: the order-1 path."""
    return simulate_hermite_path(HermiteSpec(hurst, 1), n, horizon, seed)


def subordinate(spec: HermiteSpec, n: int, horizon: float, seed: int) -> SamplePath:
    """Market-time process S(t) = X(t^(1/2H)) on the grid t_j = (j/n)^(2H).

    The driver X is :func:`simulate_hermite_path` on the grid j/n covering
    the warped horizon T^(1/2H), and S(t_j) is exactly its value at j/n, so
    S has the driver's law at every grid time (Var S(t_j) = t_j exactly at
    order 1).  n counts driver steps per unit of X time; the grid ends at
    (ceil(n T^(1/2H))/n)^(2H) >= T.  Increments are not stationary.
    """
    _grid_steps(n, horizon)  # before warping: a negative T ** (1/2H) is complex
    two_h = 2.0 * spec.hurst
    driver = simulate_hermite_path(spec, n, horizon ** (1.0 / two_h), seed)
    return SamplePath(driver.times**two_h, driver.values, spec, "subordinated", seed)


def _riemann_sites(f: np.ndarray, x: np.ndarray, config: StratonovichConfig):
    """The Riemann-Stratonovich sites and increments over ``config.refinement``
    equal subintervals of the grid (all of its intervals by default).

    Returns the site values (1-d) f_k + d f_{k+1}, d the evaluation point,
    and the increments x_{k+1} - x_k, both along the last axis; f and x
    share the grid's length there.
    """
    intervals = x.shape[-1] - 1
    n = intervals if config.refinement is None else config.refinement
    if intervals % n != 0:
        raise ValueError(
            f"refinement {n} does not divide the {intervals} driver intervals"
        )
    idx = np.arange(0, intervals + 1, intervals // n)
    d = config.evaluation_point
    fk = f[..., idx]
    return (1.0 - d) * fk[..., :-1] + d * fk[..., 1:], np.diff(x[..., idx], axis=-1)


def stratonovich_integral(
    f, driver: SamplePath, config: StratonovichConfig | None = None
) -> float:
    """Riemann sum sum_k f((1-d)t_k + d t_{k+1}) (X_{k+1} - X_k).

    ``f`` holds integrand values on the driver grid; off-node evaluation
    sites are read by linear interpolation, i.e. the k-th summand weight is
    (1-d) f_k + d f_{k+1}.  The sum is taken over ``config.refinement``
    equal subintervals of the grid (all of it by default); convergence as
    the refinement grows is the caller's concern.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != driver.times.shape:
        raise ValueError(
            f"integrand has shape {f.shape}, driver grid {driver.times.shape}"
        )
    site, dx = _riemann_sites(f, driver.values, config or StratonovichConfig())
    return float(site @ dx)


def chain_rule_residual(
    g: Callable[[np.ndarray, np.ndarray], np.ndarray],
    dg_dx: Callable[[np.ndarray, np.ndarray], np.ndarray],
    dg_dt: Callable[[np.ndarray, np.ndarray], np.ndarray],
    driver: SamplePath,
    config: StratonovichConfig | None = None,
) -> float:
    """First-order chain-rule defect of G along the driver path.

    Returns |G(X_T, T) - G(X_0, 0) - int dG/dx * dX - int dG/dt dt| with the
    stochastic term a Stratonovich-type sum and the time term the matching
    deterministic Riemann sum on the same subgrid.  For Hurst > 1/2 the
    defect vanishes under refinement (no second-order correction term).
    """
    cfg = config or StratonovichConfig()
    t, x = driver.times, driver.values
    fx = dg_dx(x, t)
    residual = (
        float(g(x[-1], t[-1]) - g(x[0], t[0]))
        - stratonovich_integral(fx, driver, cfg)
    )
    site, dt = _riemann_sites(dg_dt(x, t), t, cfg)
    residual -= float(site @ dt)
    return abs(residual)
