"""Config-driven command line front end (``python -m hermkit``).

Subcommands
-----------
``simulate``
    Hermite sample paths to ``path_<k>.csv`` plus a ``summary.json`` with a
    variance-at-1 estimate.
``kernel``
    Normalizing constants and the kernel L2 norm to ``kernel.json``.
``estimate``
    Hurst-index regression on a ``t,value`` CSV to ``estimate.json``.
``qv``
    Quadratic-variation scaling study to ``scaling.csv`` + ``fit.json``.
``price bond|perpetual|forward|futures``
    Replication prices to ``bond.json``, ``perpetual.json``,
    ``forward.json``, or the futures field to ``futures.csv`` (x-grid
    header row) with ``residual.csv`` + ``futures.json``.
``curve``
    Discount curve to ``curve.csv`` (columns ``T,discount,rate``) +
    ``curve.json``.

Configuration is sectioned ``key = value`` text (INI syntax)::

    [process]
    hurst = 0.7
    order = 2
    [riskless]
    kind = constant
    value = 0.05
    [asset.1]
    price = 1.0
    drift_kind = constant
    drift_value = 0.08
    dividend_value = 0.0
    [volatility]
    row1 = 0.2
    [run]
    seed = 42
    [output]
    directory = out

Rates of kind ``polynomial`` take ``coeffs = c0, c1, ...`` (low order
first, optional ``horizon``); kind ``table`` takes ``times`` and
``values`` lists.  Command-line flags override config values.  ``bond``
and ``curve`` only read the riskless section; when no asset is
configured a placeholder asset (drift equal to the riskless rate, unit
price, unit volatility) is synthesized so the market validates.

Every run writes its outputs under ``--out`` (default: the
``HERMKIT_OUT`` environment variable, else ``hermkit-out``).  Each JSON
file records the command, a 16-hex-digit digest of the parameters and
config text, and the root seed; CSV files are covered by their sidecar
JSON.  All randomness derives from the root seed, so reruns are
byte-identical; wall time goes to standard error only.

Exit status: 0 on success, 2 on validation/usage errors, 1 on numerical
failures (for example kernel constants beyond the double range, or a
result that is not a finite number, which JSON cannot hold).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import os
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .kernel import HermiteSpec, _real, kernel_l2_norm_sq, normalizing_constant
from .market import (
    AssetPath,
    BasicRate,
    MarketSpec,
    cumulative_rate,
    instantaneous_rate,
)
from .pricing import (
    Payoff,
    PricingGrid,
    bond_price,
    forward_price,
    futures_march,
    power_derivative_beta,
    price_characteristics,
)
from .simulate import SamplePath, _map_blocks, _run_seeds
from .stats import _qv_slope_fit, estimate_hurst, qv_ladder, qv_regime_exponent


class CliError(Exception):
    """Validation problem; maps to exit status 2 with a one-line message."""


@dataclass(frozen=True)
class RunConfig:
    """Parsed and re-validated configuration file."""

    spec: HermiteSpec | None
    market: MarketSpec | None
    run: dict
    output: dict
    text: str


@dataclass(frozen=True)
class OutputRecord:
    command: str
    digest: str
    seed: int


# kind -> (one value, a list of them), as the error messages name them
_KINDS = {float: ("a number", "number list"), int: ("an integer", "integer list")}


def _numbers(raw: str, where: str, kind=float) -> list:
    """``raw`` split at commas and blanks, each part read as ``kind``
    (``float`` or ``int``, exactly): the one number-list parser of flags
    and config values.  Raises CliError naming ``where``."""
    try:
        return [kind(p) for p in raw.replace(",", " ").split()]
    except ValueError:
        raise CliError(f"{where} must be a comma-separated {_KINDS[kind][1]}; "
                       f"got {raw!r}") from None


def _config_value(section: Mapping[str, str], key: str, where: str, kind=float):
    """``section[key]`` read as ``kind``: ``float``, ``int`` (exactly, with
    no float round trip) or ``list`` (of numbers, by :func:`_numbers`).  The
    one reader of config values; raises CliError naming ``where`` (file and
    section) and the key when the key is missing or its value does not
    parse."""
    if key not in section:
        raise CliError(f"{where}: missing key {key!r}")
    raw = section[key]
    if kind is list:
        return _numbers(raw, f"{where} {key}")
    try:
        return kind(raw)
    except ValueError:
        raise CliError(f"{where} {key} must be {_KINDS[kind][0]}; got {raw!r}") from None


def _rate_from_section(
    section: Mapping[str, str], prefix: str, where: str
) -> BasicRate:
    kind = section.get(prefix + "kind", "constant").strip()
    try:
        if kind == "constant":
            return BasicRate.constant(_config_value(section, prefix + "value", where))
        if kind == "polynomial":
            horizon = prefix + "horizon"
            return BasicRate.polynomial(
                _config_value(section, prefix + "coeffs", where, list),
                horizon=_config_value(section, horizon, where) if horizon in section else 10.0,
            )
        if kind == "table":
            return BasicRate.table(_config_value(section, prefix + "times", where, list),
                                   _config_value(section, prefix + "values", where, list))
    except ValueError as exc:
        raise CliError(f"{where}: {exc}") from exc
    raise CliError(f"{where}: unknown rate kind {kind!r} "
                   "(expected constant, polynomial, or table)")


def load_config(path: str | Path) -> RunConfig:
    """Parse a config file, re-validating every domain invariant.

    Violations are reported with the file location so the message is
    actionable from a shell.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}") from exc
    parser = configparser.ConfigParser(interpolation=None)  # "5%" is a bad number, not a crash
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise CliError(f"{path}: {exc}") from exc

    spec = None
    if parser.has_section("process"):
        proc, where = parser["process"], f"{path}: [process]"
        hurst, order = _config_value(proc, "hurst", where), _config_value(proc, "order", where, int)
        try:
            spec = HermiteSpec(hurst, order)
        except ValueError as exc:
            raise CliError(f"{path}: [process] {exc}") from exc

    market = None
    if parser.has_section("riskless"):
        if spec is None:
            raise CliError(f"{path}: [riskless] requires a [process] section")
        riskless = _rate_from_section(parser["riskless"], "", f"{path}: [riskless]")
        asset_names = sorted(
            (s for s in parser.sections() if s.startswith("asset.")),
            key=lambda s: _config_value({"number": s[6:]}, "number", f"{path}: [{s}] section",
                                        int),
        )
        prices, drifts, dividends = [], [], []
        for name in asset_names:
            sec = parser[name]
            where = f"{path}: [{name}]"
            prices.append(_config_value(sec, "price", where))
            drifts.append(_rate_from_section(sec, "drift_", where))
            if any(k.startswith("dividend_") for k in sec):
                dividends.append(_rate_from_section(sec, "dividend_", where))
            else:
                dividends.append(BasicRate.constant(0.0))
        if not asset_names:
            # bond/curve configs may omit assets; synthesize a placeholder
            prices = [1.0]
            drifts = [riskless]
            dividends = [BasicRate.constant(0.0)]
        d = len(prices)
        if parser.has_section("volatility"):
            volatility = np.array([
                _config_value(parser["volatility"], f"row{j}", f"{path}: [volatility]", list)
                for j in range(1, d + 1)])
        else:
            volatility = np.eye(d)
        try:
            market = MarketSpec(
                spec=spec,
                riskless=riskless,
                drifts=tuple(drifts),
                volatility=volatility,
                initial_prices=tuple(prices),
                dividends=tuple(dividends),
            )
        except ValueError as exc:
            raise CliError(f"{path}: {exc}") from exc

    run = {}
    if parser.has_section("run"):
        sec = parser["run"]
        for key, kind in (("seed", int), ("paths", int), ("steps", int), ("horizon", float)):
            if key in sec:
                run[key] = _config_value(sec, key, f"{path}: [run]", kind)
    output = dict(parser["output"]) if parser.has_section("output") else {}
    return RunConfig(spec=spec, market=market, run=run, output=output, text=text)


def config_digest(command: str, params: Mapping, config_text: str) -> str:
    """16-hex-digit digest of the run identity (command, flags, config).

    The output directory and the config file's location are excluded —
    the digest names *what* ran, not where its files went; the config
    file enters through its text.
    """
    clean = {
        k: v for k, v in sorted(params.items())
        if k not in ("out", "config")
        and (isinstance(v, (str, int, float, bool)) or v is None)
    }
    canon = json.dumps(
        {"command": command, "params": clean, "config": config_text},
        sort_keys=True,
    )
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _write_csv(target: Path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write a header and rows to ``target``.  Float cells are written by
    ``str``, the shortest text that reads back to the same double."""
    with open(target, "w", newline="") as buf:
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(directory: Path, name: str, record: OutputRecord, payload: dict) -> Path:
    body = {
        "command": record.command,
        "config_digest": record.digest,
        "seed": record.seed,
        **payload,
    }
    target = directory / name
    try:
        text = json.dumps(body, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:  # JSON has no NaN or Infinity
        raise FloatingPointError(f"{target}: a result is not a finite number") from None
    target.write_text(text + "\n")
    return target


def _run_setting(args, cfg: RunConfig | None, key: str, default):
    """``--key``, else the config's [run] ``key``, else ``default``, which
    must be positive and finite; checked before anything is drawn or
    written."""
    value = getattr(args, key)
    if value is None and cfg is not None:
        value = cfg.run.get(key)
    value = default if value is None else value
    return _real(value, f"--{key} (or [run] {key})", "positive")


def _require(value, name: str):
    if value is None:
        raise CliError(f"missing {name} (flag or config)")
    return value


def _spec_from(args, cfg: RunConfig | None) -> HermiteSpec:
    hurst = args.hurst if args.hurst is not None else (cfg.spec.hurst if cfg and cfg.spec else None)
    order = args.order if args.order is not None else (cfg.spec.order if cfg and cfg.spec else None)
    _require(hurst, "--hurst (or [process] hurst)")
    _require(order, "--order (or [process] order)")
    return HermiteSpec(float(hurst), int(order))


def _market_from(cfg: RunConfig | None) -> MarketSpec:
    if cfg is None or cfg.market is None:
        raise CliError("this subcommand needs --config with [process], "
                       "[riskless] and (optionally) asset sections")
    return cfg.market


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_simulate(args, cfg, out_dir: Path, record: OutputRecord) -> None:
    spec = _spec_from(args, cfg)
    steps = _run_setting(args, cfg, "steps", 1024)
    horizon = _run_setting(args, cfg, "horizon", 1.0)
    n_paths = _run_setting(args, cfg, "paths", 1)
    seeds = _run_seeds(record.seed, n_paths)
    names = [f"path_{k}.csv" for k in range(n_paths)]

    # block by block, so memory stays one block deep
    def write(start: int, paths: np.ndarray) -> np.ndarray:
        times = np.arange(paths.shape[1]) / steps
        for name, values in zip(names[start : start + len(paths)], paths.tolist()):
            _write_csv(out_dir / name, ("t", "value"), zip(times.tolist(), values))
        return paths[:, int(np.argmin(np.abs(times - min(1.0, horizon))))].copy()

    at_one = np.concatenate(_map_blocks(spec, steps, horizon, seeds, write))
    variance = float(np.var(at_one, ddof=1)) if n_paths > 1 else 0.0
    _write_json(out_dir, "summary.json", record, {
        "hurst": spec.hurst,
        "order": spec.order,
        "steps": steps,
        "horizon": horizon,
        "paths": n_paths,
        "variance_time": min(1.0, horizon),
        "variance_at_1": variance,
        "files": names,
    })


def _cmd_kernel(args, cfg, out_dir: Path, record: OutputRecord) -> None:
    spec = _spec_from(args, cfg)
    consts = normalizing_constant(spec)
    _write_json(out_dir, "kernel.json", record, {
        "hurst": spec.hurst,
        "order": spec.order,
        "c_norm": consts.c_norm,
        "d_const": consts.d_const,
        "l2_norm_at_1": consts.l2_norm_at_1,
        "time": float(args.time),
        "norm_sq_at_time": kernel_l2_norm_sq(spec, float(args.time)),
    })


def _cmd_estimate(args, cfg, out_dir: Path, record: OutputRecord) -> None:
    scales = _numbers(args.scales, "--scales", int)
    try:
        with open(args.input, newline="") as buf:
            reader = csv.reader(buf)
            header = next(reader, None)
            if header is None or [h.strip() for h in header[:2]] != ["t", "value"]:
                raise CliError(f"{args.input}: expected a CSV with header 't,value'")
            data = [(float(row[0]), float(row[1])) for row in reader if row]
    except OSError as exc:
        raise CliError(f"cannot read {args.input}: {exc}") from exc
    except ValueError as exc:
        raise CliError(f"{args.input}: {exc}") from exc
    if len(data) < 16:
        raise CliError(f"{args.input}: too few samples ({len(data)}) for estimation")
    times = np.array([row[0] for row in data])
    values = np.array([row[1] for row in data])
    try:
        path = SamplePath(times, values, spec=None, method="observed", seed=record.seed)
    except ValueError as exc:
        raise CliError(f"{args.input}: {exc}") from exc
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        est = estimate_hurst(path, scales)
    domain_warning = any("Hermite" in str(w.message) for w in caught)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    _write_json(out_dir, "estimate.json", record, {
        "input": args.input,
        "points": len(data),
        "scales": list(est.scales_used),
        "hurst_hat": est.h_hat,
        "std_error": est.std_error,
        "domain_warning": domain_warning,
    })


def _cmd_qv(args, cfg, out_dir: Path, record: OutputRecord) -> None:
    spec = _spec_from(args, cfg)
    blocks = sorted(_numbers(args.blocks, "--blocks", int))
    if len(set(blocks)) < 2:
        raise CliError("--blocks needs at least two distinct block counts to fit a "
                       f"slope; got {args.blocks!r}")
    mc_paths = _run_setting(args, cfg, "paths", 200)
    ladder = qv_ladder(spec, blocks, float(args.block), mc_paths, record.seed)
    deltas = [delta.value for delta in ladder]
    slope, intercept = _qv_slope_fit(blocks, deltas)
    _write_csv(out_dir / "scaling.csv", ("logN", "log_delta"),
               zip(np.log(blocks).tolist(), np.log(deltas).tolist()))
    _write_json(out_dir, "fit.json", record, {
        "hurst": spec.hurst,
        "order": spec.order,
        "blocks": blocks,
        "deltas": deltas,
        "delta_errors": [delta.error for delta in ladder],
        "block_length": float(args.block),
        "mc_paths": mc_paths,
        "slope": slope,
        "intercept": intercept,
        "regime_exponent": qv_regime_exponent(spec),
    })


def _cmd_price_bond(args, cfg, out_dir: Path, record: OutputRecord) -> None:
    market = _market_from(cfg)
    discount = bond_price(market, args.t, args.maturity)
    _write_json(out_dir, "bond.json", record, {
        "t": args.t,
        "maturity": args.maturity,
        "discount": discount,
    })


def _cmd_price_perpetual(args, cfg, out_dir: Path, record: OutputRecord) -> None:
    market = _market_from(cfg)
    alpha = _numbers(args.alpha, "--alpha")
    if len(alpha) != market.d:
        raise CliError(f"--alpha needs {market.d} exponents, got {len(alpha)}")
    beta = power_derivative_beta(alpha, market)
    spots = _numbers(args.spot, "--spot") if args.spot else list(market.initial_prices)
    price = price_characteristics(
        Payoff.power(alpha), market, args.t, args.horizon, np.asarray(spots)
    )
    _write_json(out_dir, "perpetual.json", record, {
        "alpha": alpha,
        "beta_at_t": float(beta.beta(args.t)),
        "beta_constant": beta.constant,
        "t": args.t,
        "horizon": args.horizon,
        "spot": spots,
        "price": float(price),
    })


def _cmd_price_forward(args, cfg, out_dir: Path, record: OutputRecord) -> None:
    market = _market_from(cfg)
    spot = float(args.spot) if args.spot else market.initial_prices[0]
    fwd = forward_price(market, spot, args.t, args.maturity)
    _write_json(out_dir, "forward.json", record, {
        "t": args.t,
        "maturity": args.maturity,
        "spot": spot,
        "forward": fwd,
        "discount": bond_price(market, args.t, args.maturity),
    })


def _cmd_price_futures(args, cfg, out_dir: Path, record: OutputRecord) -> None:
    market = _market_from(cfg)
    spec = market.spec
    horizon = _real(args.horizon, "horizon", "nonnegative")
    # one point at a zero horizon: an AssetPath's times strictly increase
    times = np.linspace(0.0, horizon, 16 * int(args.grid) + 1 if horizon > 0.0 else 1)
    skeleton = market.initial_prices[0] * np.exp(
        cumulative_rate(spec, market.drifts[0], times)
    )
    path = AssetPath(times=times, prices=skeleton, label="drift skeleton")
    x_lo = float(args.x_lo) if args.x_lo is not None else 0.4 * skeleton.min()
    x_hi = float(args.x_hi) if args.x_hi is not None else 2.0 * skeleton.max()
    width = float(args.profile_width) if args.profile_width is not None else (x_hi - x_lo) / 10.0
    center = float(args.profile_center) if args.profile_center is not None else x_lo + 0.7 * (x_hi - x_lo)
    base, step = float(args.profile_base), float(args.profile_step)
    if base - abs(step) <= 0.0:
        raise CliError("profile must stay positive: need base > |step|")

    def profile(x):
        return base + step * np.tanh((np.asarray(x, dtype=float) - center) / width)

    grid = PricingGrid(x_lo=x_lo, x_hi=x_hi, nx=int(args.grid), nt=int(args.grid),
                       t_start=0.0, t_end=horizon)
    out = futures_march(profile, path, market, grid)
    # I(T) does not depend on the x grid, so the half-step march needs two columns
    half = futures_march(profile, path, market,
                         PricingGrid(x_lo=x_lo, x_hi=x_hi, nx=2, nt=max(1, grid.nt // 2),
                                     t_start=0.0, t_end=horizon))
    _write_csv(out_dir / "futures.csv", ["t", *out.x_grid.tolist()],
               np.column_stack((out.t_grid, out.psi)).tolist())
    _write_csv(out_dir / "residual.csv", ("t", "residual"),
               zip(out.t_grid.tolist(), out.residual.tolist()))
    _write_json(out_dir, "futures.json", record, {
        "grid": int(args.grid),
        "horizon": horizon,
        "x_lo": x_lo,
        "x_hi": x_hi,
        "profile": {"base": base, "step": step, "center": center, "width": width},
        "residual_sup": float(np.abs(out.residual).max()),
        "integral_T": float(out.integral[-1]),
        "integral_T_half_step_change": abs(float(out.integral[-1] - half.integral[-1])),
    })


def _cmd_curve(args, cfg, out_dir: Path, record: OutputRecord) -> None:
    market = _market_from(cfg)
    maturities = _numbers(args.maturities, "--maturities")
    if not maturities:
        raise CliError(f"--maturities needs at least one maturity; got {args.maturities!r}")
    _real(maturities, "maturity", "nonnegative")
    spec, riskless = market.spec, market.riskless
    # one array call each: the anchor's cumulative rate rides in front
    cum = cumulative_rate(spec, riskless, np.array([args.t, *maturities]))
    discounts = np.exp(cum[0] - cum[1:]).tolist()
    rates = instantaneous_rate(spec, riskless, np.array(maturities)).tolist()
    _write_csv(out_dir / "curve.csv", ("T", "discount", "rate"),
               zip(maturities, discounts, rates))
    _write_json(out_dir, "curve.json", record, {
        "t": args.t,
        "maturities": maturities,
        "discounts": discounts,
        "rates": rates,
    })


# ---------------------------------------------------------------------------
# parser assembly and dispatch


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="sectioned key=value config file")
    sub.add_argument("--out", help="output directory (default: $HERMKIT_OUT or hermkit-out)")
    sub.add_argument("--seed", type=int, help="root seed for all randomness (default 0)")


def _add_spec_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--hurst", type=float, help="Hurst index in (1/2, 1)")
    sub.add_argument("--order", type=int, help="Hermite order (1 = fBm, 2 = Rosenblatt, ...)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermkit",
        description="Simulation and pricing toolkit for Hermite fractional markets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw Hermite motion sample paths")
    _add_common(p)
    _add_spec_flags(p)
    p.add_argument("--steps", type=int, help="grid steps per unit time (default 1024)")
    p.add_argument("--horizon", type=float, help="path horizon (default 1.0)")
    p.add_argument("--paths", type=int, help="number of paths (default 1)")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("kernel", help="normalizing constants and kernel norm")
    _add_common(p)
    _add_spec_flags(p)
    p.add_argument("--time", type=float, default=1.0, help="norm evaluation time")
    p.set_defaults(handler=_cmd_kernel)

    p = sub.add_parser("estimate", help="Hurst regression on a t,value CSV")
    _add_common(p)
    p.add_argument("--input", required=True, help="CSV path with header t,value")
    p.add_argument("--scales", default="2,4,8,16,32,64",
                   help="increment scales in grid steps")
    p.set_defaults(handler=_cmd_estimate)

    p = sub.add_parser("qv", help="quadratic-variation scaling study")
    _add_common(p)
    _add_spec_flags(p)
    p.add_argument("--blocks", default="8,16,32,64", help="block counts N")
    p.add_argument("--block", type=float, default=1.0, help="block length in time")
    p.add_argument("--paths", type=int, help="Monte Carlo paths per N (default 200)")
    p.set_defaults(handler=_cmd_qv)

    price = sub.add_parser("price", help="replication pricing")
    price_sub = price.add_subparsers(dest="instrument", required=True)

    p = price_sub.add_parser("bond", help="zero-coupon bond discount")
    _add_common(p)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--T", dest="maturity", type=float, required=True)
    p.set_defaults(handler=_cmd_price_bond)

    p = price_sub.add_parser("perpetual", help="power perpetual derivative")
    _add_common(p)
    p.add_argument("--alpha", required=True, help="power exponents, comma separated")
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--spot", help="asset spots (default: configured initial prices)")
    p.set_defaults(handler=_cmd_price_perpetual)

    p = price_sub.add_parser("forward", help="forward delivery price")
    _add_common(p)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--T", dest="maturity", type=float, required=True)
    p.add_argument("--spot", help="spot price (default: configured initial price)")
    p.set_defaults(handler=_cmd_price_forward)

    p = price_sub.add_parser("futures", help="futures payoff-rate marching solver")
    _add_common(p)
    p.add_argument("--grid", type=int, default=128, help="nx = nt grid size")
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--x-lo", type=float, default=None)
    p.add_argument("--x-hi", type=float, default=None)
    p.add_argument("--profile-base", type=float, default=2.0)
    p.add_argument("--profile-step", type=float, default=0.5)
    p.add_argument("--profile-center", type=float, default=None)
    p.add_argument("--profile-width", type=float, default=None)
    p.set_defaults(handler=_cmd_price_futures)

    p = sub.add_parser("curve", help="discount curve and rate term structure")
    _add_common(p)
    p.add_argument("--t", type=float, default=0.0, help="anchor time")
    p.add_argument("--maturities", default="0.5,1,2,5")
    p.set_defaults(handler=_cmd_curve)

    return parser


def _full_command(args) -> str:
    cmd = args.command
    instrument = getattr(args, "instrument", None)
    return f"{cmd} {instrument}" if instrument else cmd


def dispatch(args) -> float:
    """Run one parsed subcommand and return its wall time in seconds."""
    cfg = load_config(args.config) if args.config else None
    seed = args.seed if args.seed is not None else (cfg.run.get("seed", 0) if cfg else 0)
    out_dir = Path(
        args.out
        or (cfg.output.get("directory") if cfg else None)
        or os.environ.get("HERMKIT_OUT")
        or "hermkit-out"
    )
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot create output directory {out_dir}: {exc}") from exc
    command = _full_command(args)
    digest = config_digest(command, vars(args), cfg.text if cfg else "")
    record = OutputRecord(command=command, digest=digest, seed=int(seed))
    started = time.perf_counter()
    args.handler(args, cfg, out_dir, record)
    return time.perf_counter() - started


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return int(exc.code) if exc.code else 0
    try:
        wall_time = dispatch(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    print(f"wall time: {wall_time:.3f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
