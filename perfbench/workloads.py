"""The four workloads: their inputs, operations and reference checks.

A workload turns (seed, repetition) into inputs, the inputs into a list of
operations, and the operations' outputs into check results.  One repetition
is one fixed job, the unit ``wall_s`` times.  Every repetition gets inputs of
its own (a new study, as a user would run it), so caches that survive from
one repetition to the next only help where they would help a user running
several studies of the same size.

Operations call hermkit through attributes looked up at call time
(``hermkit.qv_normalizer``), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import hermkit

from . import oracles
from .tracing import cli_span_name

CLI_CHILD = Path(__file__).resolve().parent / "cli_child.py"
CHILD_TIMEOUT_S = 120


@dataclass
class Op:
    """One timed call: ``fn()`` returns whatever ``check`` needs."""

    label: str
    fn: Callable[[], object]
    group: str = ""


@dataclass
class Failure:
    labels: tuple[str, ...]
    detail: str


def _rng(seed: int, rep: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed) % 2**64, int(rep)]))


def _sub_seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def _floats_digest(h, *values) -> None:
    for v in values:
        h.update(np.ascontiguousarray(np.asarray(v, dtype=np.float64)).tobytes())


# ---------------------------------------------------------------------------
# Monte Carlo studies


@dataclass
class QVStudy:
    """QV normalizers delta^(N) over a block ladder, one op per (H, N) cell.

    The slope of log delta on log N is what ``qv_scaling_exponent`` fits; the
    cells are called one by one so each cell's standard error is available
    for the slope check.
    """

    name: str
    why: str
    cases: tuple[tuple[float, int, float], ...]  # (H, k, criterion-04 tolerance)
    blocks: tuple[int, ...]
    paths: int
    steps_per_unit: int
    children: bool = False

    def inputs(self, seed: int, rep: int, workdir: Path) -> dict:
        rng = _rng(seed, rep)
        cells = []
        for hurst, order, _ in self.cases:
            seeds = _sub_seeds(rng, len(self.blocks))
            for n, cell_seed in zip(self.blocks, seeds):
                cells.append((hermkit.HermiteSpec(hurst, order), n, cell_seed))
        return {"cells": cells}

    def ops(self, inputs: dict, traced: bool) -> list[Op]:
        def cell(spec, n, cell_seed):
            return lambda: hermkit.qv_normalizer(
                spec, n, 1.0, self.paths, cell_seed, self.steps_per_unit)

        return [Op(f"H={spec.hurst} k={spec.order} N={n}", cell(spec, n, s),
                   group=f"H={spec.hurst} k={spec.order}")
                for spec, n, s in inputs["cells"]]

    def check(self, inputs: dict, results: list) -> list[Failure]:
        return [Failure((op.label,), f"{op.label}: non-finite delta or error")
                for op, out in results
                if not (math.isfinite(out.value) and out.value > 0
                        and math.isfinite(out.error) and out.error > 0)]

    def keep(self, results: list) -> list:
        """What :meth:`check_run` needs from one repetition."""
        return [(op.label, op.group, out.value, out.error) for op, out in results]

    def check_run(self, kept: list[list]) -> list[Failure]:
        """QV slope per case, from every repetition's cells pooled.

        Pooling the second moments of R repetitions gives R * paths paths
        per cell.  The slope must lie within max(4 se, tol) of the regime
        exponent: 4 se covers sampling noise, and tol is the bound acceptance
        criterion 04 allows for the finite-N bias of the asymptotic exponent
        (per-repetition z-scores alone fail on both counts: the order-2 QV is
        heavy-tailed, so 100-path standard errors run low, and with many
        paths the bias dominates).
        """
        failures = []
        reps = len(kept)
        for hurst, order, tol in self.cases:
            group = f"H={float(hurst)} k={order}"
            cells = [[row for row in rep if row[1] == group] for rep in kept]
            second = np.array([[v * v for _, _, v, _ in rep] for rep in cells]).mean(axis=0)
            var_second = np.array([[(2 * v * e) ** 2 for _, _, v, e in rep]
                                   for rep in cells]).sum(axis=0) / reps**2
            deltas = np.sqrt(second)
            errors = np.sqrt(var_second) / (2 * deltas)
            target = oracles.regime_exponent(hurst, order)
            slope, se, z = oracles.slope_z(self.blocks, deltas, errors, target)
            allowed = max(4 * se, tol)
            if not abs(slope - target) <= allowed:
                labels = tuple(f"rep {r}: {label}" for r, rep in enumerate(cells)
                               for label, *_ in rep)
                failures.append(Failure(labels, (
                    f"{group}: QV slope {slope:.4f} over {reps} repetitions vs {target:.4f}"
                    f" (allowed +-{allowed:.4f}, z={z:.2f})")))
        return failures

    def digest(self, h, results: list) -> None:
        for _, out in results:
            _floats_digest(h, [out.value, out.error])


# ---------------------------------------------------------------------------
# grid pricing

RATE_KINDS = ("constant", "polynomial", "table")
PRICING_GRID = 512


def _profile(x):
    return 2.0 + 0.5 * np.tanh((np.asarray(x, dtype=float) - 1.9) / 0.25)


def _bump_payoff(x):
    return np.exp(-0.5 * (np.log(x) - 0.1) ** 2 / 0.36)


@dataclass
class PricingScenarios:
    """H x k x riskless-rate kind scenarios, one op per scenario."""

    name: str
    why: str
    hursts: tuple[float, ...] = (0.6, 0.75, 0.9)
    orders: tuple[int, ...] = (1, 2)
    children: bool = False

    def inputs(self, seed: int, rep: int, workdir: Path) -> dict:
        rng = _rng(seed, rep)
        scenarios = []
        for hurst in self.hursts:
            for order in self.orders:
                for kind in RATE_KINDS:
                    r0 = 0.045 + 0.01 * float(rng.random())
                    if kind == "constant":
                        params = (r0,)
                        rate = hermkit.BasicRate.constant(r0)
                    elif kind == "polynomial":
                        params = (r0, 0.01, -0.002)
                        rate = hermkit.BasicRate.polynomial(params, horizon=2.0)
                    else:
                        params = ((0.0, 0.5, 1.0, 2.0), (r0, r0 + 0.01, r0 + 0.005, r0 + 0.015))
                        rate = hermkit.BasicRate.table(*params)
                    mu = 0.06 + 0.03 * float(rng.random())
                    delta = 0.01 + 0.02 * float(rng.random())
                    spec = hermkit.HermiteSpec(hurst, order)
                    market = hermkit.MarketSpec(
                        spec=spec, riskless=rate,
                        drifts=(hermkit.BasicRate.constant(mu),),
                        volatility=np.array([[0.2]]), initial_prices=(1.0,),
                        dividends=(hermkit.BasicRate.constant(delta),),
                    )
                    times = np.linspace(0.0, 1.0, 16 * PRICING_GRID + 1)
                    skeleton = np.exp(oracles.cumulative(hurst, order, "constant", (mu,), times))
                    scenarios.append({
                        "label": f"H={hurst} k={order} {kind}", "kind": kind,
                        "hurst": hurst, "order": order, "params": params,
                        "market": market, "path": hermkit.AssetPath(times, skeleton),
                        "spot": 1.0 + 0.2 * float(rng.random()),
                    })
        return {"scenarios": scenarios}

    def ops(self, inputs: dict, traced: bool) -> list[Op]:
        return [Op(s["label"], (lambda s=s: self._scenario(s)), group=s["kind"])
                for s in inputs["scenarios"]]

    @staticmethod
    def _scenario(s: dict) -> dict:
        market = s["market"]
        n = PRICING_GRID
        field_ = hermkit.futures_march(_profile, s["path"], market,
                                       hermkit.PricingGrid(0.4, 3.4, n, n, 0.0, 1.0))
        payoff = hermkit.Payoff.from_callable(_bump_payoff)
        grid_price = hermkit.price_fd(payoff, market, hermkit.PricingGrid(0.5, 2.0, n, n, 0.0, 1.0))
        exact = np.array([hermkit.price_characteristics(payoff, market, 0.0, 1.0, x)
                          for x in grid_price.prices])
        axis = np.linspace(0.0, 2.0, 64)
        curve = hermkit.term_structure(market, axis, axis)
        bond = hermkit.bond_price(market, 0.25, 1.5)
        forward = hermkit.forward_price(market, s["spot"], 0.25, 1.5)
        return {"residual": field_.residual, "psi": field_.psi,
                "fd": grid_price.values[0], "exact": exact, "curve_axis": axis,
                "discounts": curve.discounts, "bond": bond, "forward": forward}

    def check(self, inputs: dict, results: list) -> list[Failure]:
        failures = []
        for (op, out), s in zip(results, inputs["scenarios"]):
            problems = []
            res = np.abs(out["residual"])
            if not (np.all(np.isfinite(res)) and res.max() <= 1e-2):
                problems.append(f"futures residual sup {res.max():.3e} (> 1e-2)")
            fd_err = float(np.max(np.abs(out["fd"] - out["exact"])))
            if not fd_err <= 1e-3:
                problems.append(f"price_fd vs characteristics {fd_err:.3e} (> 1e-3)")
            disc = out["discounts"]
            if not np.all(np.abs(np.diag(disc) - 1.0) <= 1e-10):
                problems.append("Lambda(T,T) != 1")
            mult = float(np.max(np.abs(disc[:, :, None] * disc[None, :, :] - disc[:, None, :])
                                / disc[:, None, :]))
            if not mult <= 1e-10:
                problems.append(f"multiplicativity {mult:.2e} (> 1e-10)")
            h, k, kind, params = s["hurst"], s["order"], s["kind"], s["params"]
            rc = oracles.cumulative(h, k, kind, params, out["curve_axis"])
            ref = np.exp(rc[:, None] - rc[None, :])
            curve_err = float(np.max(np.abs(disc / ref - 1.0)))
            if not curve_err <= 1e-12:
                problems.append(f"term structure vs beta oracle {curve_err:.2e}")
            lam = math.exp(-(float(oracles.cumulative(h, k, kind, params, 1.5))
                             - float(oracles.cumulative(h, k, kind, params, 0.25))))
            if not oracles.rel_err(out["bond"], lam) <= 1e-12:
                problems.append(f"bond {out['bond']!r} vs beta oracle {lam!r}")
            if not oracles.rel_err(out["forward"] * lam, s["spot"]) <= 1e-12:
                problems.append("forward * Lambda != spot")
            if problems:
                failures.append(Failure((op.label,), f"{op.label}: " + "; ".join(problems)))
        return failures

    def digest(self, h, results: list) -> None:
        for _, out in results:
            _floats_digest(h, out["psi"], out["residual"], out["fd"], out["exact"],
                           out["discounts"], [out["bond"], out["forward"]])


# ---------------------------------------------------------------------------
# cold command line

CLI_HURST, CLI_ORDER = 0.7, 2


@dataclass
class CliResult:
    argv: tuple[str, ...]
    returncode: int
    out_dir: Path
    trace: dict | None
    stderr: str


@dataclass
class ColdCli:
    """One fresh ``python -m hermkit`` process per command."""

    name: str
    why: str
    env: dict = field(default_factory=dict)
    children: bool = True

    def inputs(self, seed: int, rep: int, workdir: Path) -> dict:
        rng = _rng(seed, rep)
        rep_dir = workdir / f"rep{rep}"
        if rep_dir.exists():
            shutil.rmtree(rep_dir)
        rep_dir.mkdir(parents=True)
        r = round(0.03 + 0.04 * float(rng.random()), 6)
        mu = round(0.06 + 0.04 * float(rng.random()), 6)
        sim_seed, qv_seed = _sub_seeds(rng, 2)
        (rep_dir / "market.cfg").write_text(
            f"[process]\nhurst = {CLI_HURST}\norder = {CLI_ORDER}\n\n"
            f"[riskless]\nkind = constant\nvalue = {r!r}\n\n"
            f"[asset.1]\nprice = 1.0\ndrift_kind = constant\ndrift_value = {mu!r}\n"
            "dividend_value = 0.0\n\n[volatility]\nrow1 = 0.2\n\n[run]\nseed = 42\n"
        )
        cfg = ["--config", "market.cfg"]
        commands = [
            ("kernel k=1", "kernel", "--hurst", "0.7", "--order", "1"),
            ("kernel k=2", "kernel", "--hurst", "0.7", "--order", "2"),
            ("simulate", "simulate", "--hurst", "0.7", "--order", "2", "--steps", "1024",
             "--paths", "20", "--seed", str(sim_seed)),
            ("estimate", "estimate", "--input", "out2/path_0.csv"),
            ("qv", "qv", "--hurst", "0.6", "--order", "1", "--blocks", "8,16,32,64",
             "--paths", "200", "--seed", str(qv_seed)),
            ("price bond", "price", "bond", "--T", "1.0", *cfg),
            ("price perpetual", "price", "perpetual", "--alpha", "0.4", *cfg),
            ("price forward", "price", "forward", "--T", "1.5", *cfg),
            ("price futures", "price", "futures", "--grid", "128", *cfg),
            ("curve", "curve", "--maturities", "0.5,1,2,5", *cfg),
        ]
        argvs = [(label, tuple(argv) + ("--out", f"out{i}"))
                 for i, (label, *argv) in enumerate(commands)]
        return {"dir": rep_dir, "argvs": argvs, "r": r}

    def ops(self, inputs: dict, traced: bool) -> list[Op]:
        rep_dir = inputs["dir"]

        def run(i: int, argv):
            trace_file = rep_dir / f"trace{i}.json"
            if traced:
                cmd = [sys.executable, str(CLI_CHILD), str(trace_file), *argv]
            else:
                cmd = [sys.executable, "-m", "hermkit", *argv]

            def fn():
                proc = subprocess.run(cmd, cwd=rep_dir, env=self.env, capture_output=True,
                                      text=True, timeout=CHILD_TIMEOUT_S)
                trace = json.loads(trace_file.read_text()) if traced else None
                return CliResult(tuple(argv), proc.returncode, rep_dir / argv[-1],
                                 trace, proc.stderr)
            return fn

        return [Op(label, run(i, argv), group=cli_span_name(argv))
                for i, (label, argv) in enumerate(inputs["argvs"])]

    def check(self, inputs: dict, results: list) -> list[Failure]:
        failures = []
        for op, out in results:
            if out.returncode != 0:
                tail = out.stderr.strip().splitlines()[-1:] or [""]
                failures.append(Failure((op.label,), f"{op.label}: exit {out.returncode} "
                                        f"{tail[0]}"))
                continue
            try:
                problem = _check_command(out, inputs)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problem = f"unreadable output: {exc!r}"
            if problem:
                failures.append(Failure((op.label,), f"{op.label}: {problem}"))
        return failures

    def digest(self, h, results: list) -> None:
        for _, out in results:
            for path in sorted(out.out_dir.iterdir()):
                h.update(path.name.encode())
                h.update(path.read_bytes())


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _read_path_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, newline="") as buf:
        rows = list(csv.reader(buf))
    if rows[0] != ["t", "value"]:
        raise ValueError(f"{path.name}: bad header {rows[0]}")
    data = np.array([[float(a), float(b)] for a, b in rows[1:]])
    return data[:, 0], data[:, 1]


def _check_command(out: CliResult, inputs: dict) -> str | None:
    """Return a description of what is wrong with one command's output."""
    argv, d = out.argv, out.out_dir
    name = cli_span_name(argv)[len("cli."):]
    h, k, r = CLI_HURST, CLI_ORDER, inputs["r"]

    if name == "kernel":
        hurst, order = float(argv[2]), int(argv[4])
        got = _read_json(d / "kernel.json")
        norm_tol = 1e-3 if order == 1 else 2e-2  # acceptance criterion 01
        exact = oracles.kernel_norm_sq(hurst, order)
        errs = {
            "c_norm": (oracles.rel_err(got["c_norm"], oracles.c_norm(hurst, order)), 1e-12),
            "d_const": (oracles.rel_err(got["d_const"], oracles.d_const(hurst, order)), 1e-12),
            "l2_norm_at_1": (oracles.rel_err(got["l2_norm_at_1"], math.sqrt(exact)), norm_tol),
            "norm_sq_at_time": (oracles.rel_err(got["norm_sq_at_time"], exact), 2 * norm_tol),
        }
        bad = [f"{key} rel err {e:.2e} (> {tol:.0e})" for key, (e, tol) in errs.items()
               if not e <= tol]
        return "; ".join(bad) or None

    if name == "simulate":
        summary = _read_json(d / "summary.json")
        if len(summary["files"]) != 20:
            return f"{len(summary['files'])} paths, expected 20"
        at_one = []
        for fname in summary["files"]:
            t, v = _read_path_csv(d / fname)
            if t.size != 1025 or v[0] != 0.0 or not np.array_equal(t, np.arange(1025) / 1024):
                return f"{fname}: wrong grid"
            if not np.all(np.isfinite(v)):
                return f"{fname}: non-finite values"
            at_one.append(v[-1])
        var = float(np.var(at_one, ddof=1))
        if not oracles.rel_err(summary["variance_at_1"], var) <= 1e-12:
            return f"variance_at_1 {summary['variance_at_1']!r} vs recomputed {var!r}"
        return None

    if name == "estimate":
        got = _read_json(d / "estimate.json")
        _, v = _read_path_csv(d.parent / argv[2])
        ref = oracles.hurst_regression(v, got["scales"])
        if got["points"] != v.size or not abs(got["hurst_hat"] - ref) <= 1e-9:
            return f"hurst_hat {got['hurst_hat']!r} vs recomputed {ref!r}"
        return None

    if name == "qv":
        fit = _read_json(d / "fit.json")
        with open(d / "scaling.csv", newline="") as buf:
            rows = [tuple(map(float, row)) for row in list(csv.reader(buf))[1:]]
        log_n, log_d = np.array(rows).T
        slope = float(np.polyfit(log_n, log_d, 1)[0])
        if not abs(fit["slope"] - slope) <= 1e-12:
            return f"fit slope {fit['slope']!r} vs scaling.csv slope {slope!r}"
        # fit.json carries no standard errors; V is close to Gaussian in the
        # central regime, where se(delta)/delta = sqrt(2/P)/2 per cell.
        paths = fit["mc_paths"]
        rel = math.sqrt(2.0 / paths) / 2.0
        deltas = np.exp(log_d)
        target = oracles.regime_exponent(fit["hurst"], fit["order"])
        _, se, z = oracles.slope_z(np.exp(log_n), deltas, rel * deltas, target)
        allowed = max(4 * se, 0.10)  # as QVStudy.check_run; 0.10 from criterion 04
        if not abs(slope - target) <= allowed:
            return f"QV slope {slope:.4f} vs {target} (allowed +-{allowed:.4f}, z={z:.2f})"
        return None

    lam = lambda t0, t1: math.exp(-(float(oracles.cumulative(h, k, "constant", (r,), t1))
                                    - float(oracles.cumulative(h, k, "constant", (r,), t0))))
    if name == "price_bond":
        got = _read_json(d / "bond.json")
        ref = lam(got["t"], got["maturity"])
        return None if oracles.rel_err(got["discount"], ref) <= 1e-12 else (
            f"discount {got['discount']!r} vs beta oracle {ref!r}")

    if name == "price_perpetual":
        got = _read_json(d / "perpetual.json")
        alpha = got["alpha"][0]
        growth = 1.0 / lam(got["t"], got["horizon"])  # no dividends configured
        ref = lam(got["t"], got["horizon"]) * (got["spot"][0] * growth) ** alpha
        if not oracles.rel_err(got["price"], ref) <= 1e-12:
            return f"price {got['price']!r} vs oracle {ref!r}"
        if not abs(got["beta_constant"] - (1.0 - alpha)) <= 1e-12:
            return f"beta {got['beta_constant']!r} vs 1 - alpha"
        return None

    if name == "price_forward":
        got = _read_json(d / "forward.json")
        ref_lam = lam(got["t"], got["maturity"])
        if not oracles.rel_err(got["discount"], ref_lam) <= 1e-12:
            return f"discount {got['discount']!r} vs beta oracle {ref_lam!r}"
        if not oracles.rel_err(got["forward"], got["spot"] / ref_lam) <= 1e-12:
            return f"forward {got['forward']!r} vs spot / Lambda"
        return None

    if name == "price_futures":
        got = _read_json(d / "futures.json")
        with open(d / "residual.csv", newline="") as buf:
            res = np.array([float(row[1]) for row in list(csv.reader(buf))[1:]])
        with open(d / "futures.csv", newline="") as buf:
            field_rows = list(csv.reader(buf))
        n = got["grid"]
        if len(field_rows) != n + 2 or any(len(row) != n + 1 for row in field_rows):
            return "futures.csv has the wrong shape"
        sup = got["residual_sup"]
        if not (math.isfinite(sup) and sup <= 1e-2 and sup == float(np.abs(res).max())):
            return f"residual sup {sup!r} (needs finite, <= 1e-2, = max |residual.csv|)"
        return None

    if name == "curve":
        got = _read_json(d / "curve.json")
        mats = np.array(got["maturities"])
        ref_d = [lam(got["t"], m) for m in mats]
        ref_r = oracles.instantaneous_constant(h, k, r, mats)
        d_err = max(oracles.rel_err(a, b) for a, b in zip(got["discounts"], ref_d))
        r_err = max(oracles.rel_err(a, b) for a, b in zip(got["rates"], ref_r))
        if not (d_err <= 1e-12 and r_err <= 1e-12):
            return f"curve vs beta oracle: discounts {d_err:.2e}, rates {r_err:.2e}"
        return None

    return f"no check for command {name!r}"


# ---------------------------------------------------------------------------

WORKLOADS = {
    "mc_short": QVStudy(
        "mc_short",
        "order-1 QV studies on short paths: per-path fixed costs (eigenvalues, "
        "seeding, Python loop) dominate; kernel, market and pricing stay idle",
        cases=((0.6, 1, 0.10), (0.85, 1, 0.12)), blocks=(128, 256, 512, 1024), paths=1000,
        steps_per_unit=64,
    ),
    "mc_long": QVStudy(
        "mc_long",
        "order-2 QV study on 64 steps per unit: FFT length (16512..131200), the "
        "Hermite transform, partial sums and memory dominate",
        cases=((0.7, 2, 0.10),), blocks=(128, 256, 512, 1024), paths=100, steps_per_unit=64,
    ),
    "pricing": PricingScenarios(
        "pricing",
        "18 H x k x rate-kind markets through futures_march, price_fd, term_structure, "
        "bond and forward; pricing and market work, simulate idle",
    ),
    "cli_cold": ColdCli(
        "cli_cold",
        "a fresh python -m hermkit process per command: pays import and uncached "
        "kernel constants every time, as a shell user does",
    ),
}


def result_digest(workload, results: list) -> str:
    h = hashlib.sha256()
    workload.digest(h, results)
    return h.hexdigest()[:16]
