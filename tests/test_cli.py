"""Command-line entry points, exercised in process via ``hermkit.cli.main``
(and in fresh interpreters where what gets imported is the point)."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import beta as beta_fn

import hermkit
from hermkit import HermiteSpec, simulate, simulate_paths
from hermkit.cli import config_digest, load_config, main
from hermkit.simulate import _run_seeds

# kappa = 2, H = 0.7 cumulative-rate constant, frozen from the closed form
D_CONST = 7.350264372833577

MARKET_CFG = """\
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
"""


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "market.cfg"
    path.write_text(MARKET_CFG)
    return path


def _read_json(directory: Path, name: str) -> dict:
    return json.loads((directory / name).read_text())


def test_simulate_writes_paths_and_summary(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["simulate", "--hurst", "0.7", "--order", "1", "--steps", "64",
                 "--paths", "2", "--seed", "5", "--out", str(out)])
    assert code == 0
    assert "wall time:" in capsys.readouterr().err
    for k in range(2):
        lines = (out / f"path_{k}.csv").read_text().splitlines()
        assert lines[0] == "t,value"
        assert lines[1] == "0.0,0.0"
        assert len(lines) == 66
    summary = _read_json(out, "summary.json")
    assert summary["command"] == "simulate"
    assert summary["seed"] == 5
    assert summary["steps"] == 64
    assert summary["files"] == ["path_0.csv", "path_1.csv"]
    assert re.fullmatch(r"[0-9a-f]{16}", summary["config_digest"])


def test_simulate_writes_threaded_paths_in_seed_order(tmp_path, monkeypatch):
    # rows longer than 8192 steps are drawn on two worker threads; each file
    # and the variance still come from the engine's rows in seed order
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
    assert main(["simulate", "--hurst", "0.7", "--order", "2", "--steps", "8200",
                 "--paths", "3", "--seed", "11", "--out", str(tmp_path)]) == 0
    rows = simulate_paths(HermiteSpec(0.7, 2), 8200, 1.0, _run_seeds(11, 3))
    for k, row in enumerate(rows):
        t, v = np.loadtxt(tmp_path / f"path_{k}.csv", delimiter=",", skiprows=1, unpack=True)
        assert np.array_equal(t, np.arange(8201) / 8200) and np.array_equal(v, row)
    summary = _read_json(tmp_path, "summary.json")
    assert summary["variance_at_1"] == float(np.var(rows[:, -1], ddof=1))


def test_simulate_is_deterministic(tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        assert main(["simulate", "--hurst", "0.6", "--order", "2", "--steps", "64",
                     "--seed", "7", "--out", str(d)]) == 0
    assert (dirs[0] / "path_0.csv").read_bytes() == (dirs[1] / "path_0.csv").read_bytes()
    assert (dirs[0] / "summary.json").read_bytes() == (dirs[1] / "summary.json").read_bytes()


def test_kernel_reruns_are_byte_identical(tmp_path):
    dirs = [tmp_path / "r1", tmp_path / "r2"]
    for d in dirs:
        assert main(["kernel", "--hurst", "0.7", "--order", "1",
                     "--time", "2.0", "--out", str(d)]) == 0
    assert (dirs[0] / "kernel.json").read_bytes() == (dirs[1] / "kernel.json").read_bytes()
    payload = _read_json(dirs[0], "kernel.json")
    assert payload["l2_norm_at_1"] == pytest.approx(math.sqrt(20.97232430), rel=1e-6)


def test_domain_error_exits_2(tmp_path, capsys):
    code = main(["simulate", "--hurst", "1.2", "--order", "1",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "(0.5, 1)" in capsys.readouterr().err


@pytest.mark.parametrize("argv, run_section", [
    pytest.param(["simulate", "--paths", "0", "--steps", "0"], "", id="simulate-zero-paths-steps"),
    pytest.param(["simulate", "--paths", "-3"], "", id="simulate-negative-paths"),
    pytest.param(["simulate", "--steps", "0"], "", id="simulate-zero-steps"),
    pytest.param(["simulate", "--horizon", "0"], "", id="simulate-zero-horizon"),
    pytest.param(["simulate", "--horizon", "-1.5"], "", id="simulate-negative-horizon"),
    pytest.param(["simulate", "--horizon", "inf"], "", id="simulate-infinite-horizon"),
    pytest.param(["simulate", "--paths", str(2**20 + 1)], "", id="simulate-too-many-paths"),
    pytest.param(["simulate"], "paths = 0\n", id="simulate-config-zero-paths"),
    pytest.param(["simulate", "--steps", "0"], "steps = 64\n", id="simulate-flag-over-config"),
    pytest.param(["qv", "--paths", "0"], "", id="qv-zero-paths"),
    pytest.param(["qv"], "paths = -1\n", id="qv-config-negative-paths"),
    pytest.param(["qv", "--paths", str(2**20 + 1)], "", id="qv-too-many-paths"),
])
def test_bad_counts_and_horizon_exit_2_before_drawing(tmp_path, capsys, argv, run_section):
    # an explicit 0 is not replaced by the config value or the default, and
    # the check runs before any path is drawn or written
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[process]\nhurst = 0.7\norder = 1\n[run]\n" + run_section)
    out = tmp_path / "out"
    assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert list(out.iterdir()) == []


_CONSTANT_RISKLESS = "kind = constant\nvalue = 0.05\n"


@pytest.mark.parametrize("argv, riskless, named", [
    pytest.param(["price", "perpetual", "--alpha", "0.4", "--spot", "nan"], _CONSTANT_RISKLESS,
                 "price coordinate must be positive and finite; got nan", id="nan-spot"),
    pytest.param(["price", "bond", "--T", "1"],
                 "kind = table\ntimes = 0, 2\nvalues = 0.05, nan\n",
                 "table rate parameters must be finite", id="nan-table-rate"),
    pytest.param(["price", "bond", "--T", "1"],
                 "kind = table\ntimes = 0, nan, 2\nvalues = 0.05, 0.05, 0.05\n",
                 "table times must be strictly increasing", id="nan-table-time"),
    pytest.param(["price", "perpetual", "--alpha", "0.4", "--horizon", "inf"], _CONSTANT_RISKLESS,
                 "horizon must be nonnegative and finite; got inf",
                 id="infinite-perpetual-horizon"),
    pytest.param(["curve", "--maturities", "1,inf"], _CONSTANT_RISKLESS,
                 "maturity must be nonnegative and finite; got inf", id="infinite-curve-maturity"),
    pytest.param(["price", "bond", "--t", "inf", "--T", "inf"], _CONSTANT_RISKLESS,
                 "t must be nonnegative and finite; got inf", id="infinite-bond-times"),
    pytest.param(["price", "forward", "--t", "inf", "--T", "inf", "--spot", "1"],
                 _CONSTANT_RISKLESS, "t must be nonnegative and finite; got inf",
                 id="infinite-forward-times"),
    pytest.param(["price", "futures", "--horizon", "inf", "--grid", "8"], _CONSTANT_RISKLESS,
                 "horizon must be nonnegative and finite; got inf", id="infinite-futures-horizon"),
    pytest.param(["price", "perpetual", "--alpha", "0.4"],
                 _CONSTANT_RISKLESS + "[asset.1]\nprice = inf\ndrift_value = 0.08\n",
                 "initial price must be positive and finite; got inf",
                 id="infinite-config-price"),
    pytest.param(["price", "perpetual", "--alpha", "0.4"],
                 _CONSTANT_RISKLESS + "[asset.1]\nprice = 1.0\ndrift_value = 0.08\n"
                 "[volatility]\nrow1 = nan\n",
                 "volatility entry must be finite; got nan", id="nan-config-volatility"),
    pytest.param(["price", "forward", "--T", "1", "--spot", "inf"], _CONSTANT_RISKLESS,
                 "spot must be positive and finite; got inf", id="infinite-forward-spot"),
    pytest.param(["price", "perpetual", "--alpha", "0.4", "--spot", "inf"], _CONSTANT_RISKLESS,
                 "price coordinate must be positive and finite; got inf",
                 id="infinite-perpetual-spot"),
])
def test_nan_market_inputs_exit_2(tmp_path, capsys, argv, riskless, named):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[process]\nhurst = 0.7\norder = 1\n[riskless]\n" + riskless)
    out = tmp_path / "out"
    assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert list(tmp_path.glob("out/*")) == []


@pytest.mark.parametrize("seed", [-1, 2**44])
def test_seed_outside_substream_range_exits_2_before_drawing(tmp_path, capsys, seed):
    # outside [0, 2^44), (root << 20) ^ i would repeat the seeds of another root
    out = tmp_path / "out"
    assert main(["simulate", "--hurst", "0.7", "--order", "1", "--seed", str(seed),
                 "--out", str(out)]) == 2
    assert f"root seed must lie in [0, 2^44); got {seed}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_qv_ladder_seed_near_limit_exits_2_before_drawing(tmp_path, capsys):
    # cell 3 of this ladder would draw from root 2^44 - 1 + 3 * 7919
    out = tmp_path / "out"
    seed = 2**44 - 1
    assert main(["qv", "--hurst", "0.7", "--order", "2", "--blocks", "8,16,32,64",
                 "--paths", "100", "--seed", str(seed), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"got {seed}" in err and "seed + 7919*j" in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("argv, named", [
    pytest.param(["--block", "0"], "block length must be positive and finite; got 0.0",
                 id="zero-block"),
    pytest.param(["--blocks", "0,8"], "n_blocks must be at least 1; got 0", id="zero-blocks"),
    pytest.param(["--blocks", ""], "at least two distinct block counts to fit a slope; got ''",
                 id="no-block-counts"),
    pytest.param(["--blocks", "8"], "at least two distinct block counts to fit a slope; got '8'",
                 id="one-block-count"),
    pytest.param(["--blocks", "8,8"],
                 "at least two distinct block counts to fit a slope; got '8,8'",
                 id="repeated-block-count"),
])
def test_qv_bad_block_exits_2_naming_it(tmp_path, capsys, argv, named):
    out = tmp_path / "out"
    assert main(["qv", "--hurst", "0.7", "--order", "1", *argv, "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_kernel_overflow_exits_1(tmp_path, capsys):
    # ||K_1||^2 ~ e^1164 at order 200 is beyond the double range
    code = main(["kernel", "--hurst", "0.7", "--order", "200",
                 "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "numerical failure" in err and "order=200" in err


def test_kernel_order3_matches_beta_oracle(tmp_path):
    assert main(["kernel", "--hurst", "0.55", "--order", "3",
                 "--out", str(tmp_path)]) == 0
    payload = _read_json(tmp_path, "kernel.json")
    g = (0.55 - 1.0) / 3 - 0.5
    norm_sq = beta_fn(1.0 + g, -1.0 - 2.0 * g) ** 3 / (0.55 * (2 * 0.55 - 1.0))
    assert payload["c_norm"] == pytest.approx(1.0 / math.sqrt(6.0 * norm_sq), rel=1e-12)
    assert payload["d_const"] == pytest.approx(math.sqrt(norm_sq / 6.0), rel=1e-12)
    assert payload["norm_sq_at_time"] == pytest.approx(norm_sq, rel=1e-12)


def test_missing_config_exits_2(tmp_path, capsys):
    code = main(["price", "bond", "--T", "1.0",
                 "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
    assert code == 2
    assert "nope.cfg" in capsys.readouterr().err


def test_bond_needs_market_sections(tmp_path, capsys):
    code = main(["price", "bond", "--T", "1.0", "--out", str(tmp_path)])
    assert code == 2
    assert "config" in capsys.readouterr().err


def test_config_errors_name_the_file_and_section(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[process]\nhurst = 0.7\norder = 2\n\n[riskless]\nkind = constant\n")
    code = main(["price", "bond", "--T", "1.0", "--config", str(bad),
                 "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "bad.cfg" in err and "[riskless]" in err and "value" in err


def test_load_config_round_trip(cfg_file):
    cfg = load_config(cfg_file)
    assert cfg.spec.hurst == 0.7 and cfg.spec.order == 2
    assert cfg.market.d == 1
    assert cfg.market.initial_prices == (1.0,)
    assert cfg.run["seed"] == 42


def test_bond_discount_closed_form(tmp_path, cfg_file):
    out = tmp_path / "out"
    code = main(["price", "bond", "--T", "1.0", "--config", str(cfg_file),
                 "--out", str(out)])
    assert code == 0
    payload = _read_json(out, "bond.json")
    assert payload["command"] == "price bond"
    assert payload["seed"] == 42  # pulled from the [run] section
    assert payload["discount"] == pytest.approx(math.exp(-D_CONST * 0.05), rel=1e-12)


def test_bond_past_a_polynomial_horizon_exits_2(tmp_path, capsys):
    # the rate 0.05 - 0.01 t is riskless on its horizon [0, 2]; the bond to
    # t = 10 used to be written with discount 314.7
    cfg = tmp_path / "poly.cfg"
    cfg.write_text("[process]\nhurst = 0.7\norder = 1\n\n[riskless]\nkind = polynomial\n"
                   "coeffs = 0.05, -0.01\nhorizon = 2.0\n")
    code = main(["price", "bond", "--T", "10", "--config", str(cfg),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "horizon 2.0; got t=10.0" in capsys.readouterr().err
    assert not (tmp_path / "out" / "bond.json").exists()


def test_perpetual_reports_beta_and_price(tmp_path, cfg_file):
    out = tmp_path / "out"
    code = main(["price", "perpetual", "--alpha", "0.4", "--t", "0.0",
                 "--horizon", "1.0", "--config", str(cfg_file), "--out", str(out)])
    assert code == 0
    payload = _read_json(out, "perpetual.json")
    assert payload["beta_constant"] == pytest.approx(0.6)
    assert payload["beta_at_t"] == pytest.approx(0.6)
    # zero dividends: the power payoff prices to spot^alpha * Lambda^(1-alpha)
    lam = math.exp(-D_CONST * 0.05)
    assert payload["price"] == pytest.approx(lam ** 0.6, rel=1e-12)


def test_forward_price_and_discount(tmp_path, cfg_file):
    out = tmp_path / "out"
    code = main(["price", "forward", "--T", "2.0", "--t", "0.5",
                 "--spot", "1.3", "--config", str(cfg_file), "--out", str(out)])
    assert code == 0
    payload = _read_json(out, "forward.json")
    lam = math.exp(-D_CONST * 0.05 * (2.0 ** 1.4 - 0.5 ** 1.4))
    assert payload["discount"] == pytest.approx(lam, rel=1e-12)
    assert payload["forward"] == pytest.approx(1.3 / lam, rel=1e-12)


def test_futures_field_export(tmp_path, cfg_file):
    out = tmp_path / "out"
    code = main(["price", "futures", "--grid", "24", "--horizon", "0.5",
                 "--config", str(cfg_file), "--out", str(out)])
    assert code == 0
    field_lines = (out / "futures.csv").read_text().splitlines()
    header = field_lines[0].split(",")
    assert header[0] == "t" and len(header) == 25  # x grid labels the columns
    assert len(field_lines) == 26  # one row per time level
    residual_lines = (out / "residual.csv").read_text().splitlines()
    assert residual_lines[0] == "t,residual"
    payload = _read_json(out, "futures.json")
    assert payload["residual_sup"] < 0.05
    assert payload["grid"] == 24
    # I(T) and its change from the march at half the steps (12)
    assert math.isfinite(payload["integral_T"]) and payload["integral_T"] > 0
    change = payload["integral_T_half_step_change"]
    assert math.isfinite(change) and change < 1e-4


def test_futures_at_zero_horizon_is_one_row(tmp_path, cfg_file):
    # the drift skeleton is one point, as an AssetPath's times strictly increase
    out = tmp_path / "out"
    assert main(["price", "futures", "--grid", "8", "--horizon", "0",
                 "--config", str(cfg_file), "--out", str(out)]) == 0
    assert len((out / "futures.csv").read_text().splitlines()) == 2
    assert (out / "residual.csv").read_text() == "t,residual\n0.0,0.0\n"
    payload = _read_json(out, "futures.json")
    assert payload["integral_T"] == 0.0 and payload["residual_sup"] == 0.0


@pytest.mark.filterwarnings("ignore:overflow encountered in power:RuntimeWarning")
def test_non_finite_result_exits_1_and_writes_no_json(tmp_path, cfg_file, capsys):
    # 10^400 overflows (numpy warns, as a shell user sees on stderr); JSON
    # has no Infinity, so the run is a numerical failure
    out = tmp_path / "out"
    assert main(["price", "perpetual", "--alpha", "400", "--spot", "10",
                 "--config", str(cfg_file), "--out", str(out)]) == 1
    target = out / "perpetual.json"
    assert (f"numerical failure: {target}: a result is not a finite number"
            in capsys.readouterr().err)
    assert list(out.iterdir()) == []


def test_curve_outputs(tmp_path, cfg_file):
    out = tmp_path / "out"
    code = main(["curve", "--maturities", "0.5,1,2", "--config", str(cfg_file),
                 "--out", str(out)])
    assert code == 0
    lines = (out / "curve.csv").read_text().splitlines()
    assert lines[0] == "T,discount,rate"
    assert len(lines) == 4
    payload = _read_json(out, "curve.json")
    assert payload["discounts"][1] == pytest.approx(math.exp(-D_CONST * 0.05), rel=1e-12)
    # every cell is the shortest repr of the double in curve.json
    assert lines[1:] == [f"{m!r},{d!r},{r!r}" for m, d, r in
                         zip(payload["maturities"], payload["discounts"], payload["rates"])]


def test_curve_rejects_empty_maturities(tmp_path, cfg_file, capsys):
    out = tmp_path / "out"
    code = main(["curve", "--maturities", "", "--config", str(cfg_file), "--out", str(out)])
    assert code == 2
    assert "--maturities needs at least one maturity; got ''" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_qv_scaling_outputs(tmp_path):
    out = tmp_path / "out"
    code = main(["qv", "--hurst", "0.6", "--order", "1", "--blocks", "8,16",
                 "--paths", "100", "--seed", "3", "--out", str(out)])
    assert code == 0
    lines = (out / "scaling.csv").read_text().splitlines()
    assert lines[0] == "logN,log_delta"
    assert len(lines) == 3
    payload = _read_json(out, "fit.json")
    assert math.isfinite(payload["slope"])
    assert payload["regime_exponent"] == pytest.approx(0.5)
    assert payload["blocks"] == [8, 16]
    assert len(payload["deltas"]) == len(payload["delta_errors"]) == 2
    assert all(e > 0 for e in payload["delta_errors"])
    log_delta = [float(line.split(",")[1]) for line in lines[1:]]
    assert [math.exp(v) for v in log_delta] == pytest.approx(payload["deltas"], rel=1e-12)


def test_estimate_round_trip(tmp_path):
    sim_dir = tmp_path / "sim"
    assert main(["simulate", "--hurst", "0.7", "--order", "1", "--steps", "4096",
                 "--seed", "11", "--out", str(sim_dir)]) == 0
    out = tmp_path / "est"
    code = main(["estimate", "--input", str(sim_dir / "path_0.csv"),
                 "--scales", "2,4,8,16,32", "--out", str(out)])
    assert code == 0
    payload = _read_json(out, "estimate.json")
    assert 0.55 < payload["hurst_hat"] < 0.85
    assert payload["domain_warning"] is False
    assert payload["points"] == 4097


def test_estimate_rejects_malformed_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,price\n0.0,1.0\n")
    code = main(["estimate", "--input", str(bad), "--out", str(tmp_path)])
    assert code == 2
    assert "t,value" in capsys.readouterr().err


def test_estimate_rejects_an_uneven_grid(tmp_path, capsys):
    sim_dir = tmp_path / "sim"
    assert main(["simulate", "--hurst", "0.7", "--order", "1", "--steps", "1024",
                 "--seed", "11", "--out", str(sim_dir)]) == 0
    rows = (sim_dir / "path_0.csv").read_text().splitlines()
    uneven = tmp_path / "uneven.csv"
    # steps of 0.5/1024 and 1.5/1024 in turn
    uneven.write_text("\n".join(
        [rows[0]] + [f"{(k - 0.5 * (k % 2)) / 1024!r},{row.split(',')[1]}"
                     for k, row in enumerate(rows[1:])]) + "\n")
    out = tmp_path / "est"
    code = main(["estimate", "--input", str(uneven), "--out", str(out)])
    assert code == 2
    assert "time grid is not uniform" in capsys.readouterr().err
    assert not (out / "estimate.json").exists()


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_estimate_rejects_non_finite_values(tmp_path, capsys, bad):
    # a NaN once gave "hurst_hat": NaN, which strict JSON parsers reject
    data = tmp_path / "path.csv"
    data.write_text("t,value\n" + "".join(
        f"{k / 64!r},{bad if k == 20 else repr(0.01 * k * (-1) ** k)}\n" for k in range(65)))
    out = tmp_path / "est"
    assert main(["estimate", "--input", str(data), "--out", str(out)]) == 2
    assert f"error: {data}: values must be finite; got {bad}" in capsys.readouterr().err
    assert not (out / "estimate.json").exists()


_CONFIG_LISTS = ("coeffs", "dividend_times", "row1")


@pytest.mark.parametrize("section, key, raw", [
    ("run", "seed", "2.5"), ("run", "paths", "1e3"), ("run", "steps", "64.0"),
    ("process", "order", "2.0"), ("process", "hurst", "abc"), ("run", "horizon", "x"),
    ("riskless", "horizon", "ten"), ("asset.1", "price", "abc"),
    ("asset.1", "drift_value", "8%"), ("riskless", "coeffs", "0.05, x"),
    ("asset.1", "dividend_times", "0, one"), ("volatility", "row1", "0.2 0..3"),
    # a section named asset.<not an integer> fails on its number
    ("asset.one", "section number", "one"), ("asset.2.5", "section number", "2.5"),
])
def test_config_integers_name_their_file_section_and_key(tmp_path, capsys, section, key, raw):
    body = {"process": {"hurst": "0.7", "order": "1"},
            "riskless": {"kind": "polynomial", "coeffs": "0.05, 0.01", "horizon": "2.0"},
            "asset.1": {"price": "1.0", "drift_value": "0.08", "dividend_kind": "table",
                        "dividend_times": "0, 1", "dividend_values": "0.0, 0.01"},
            "volatility": {"row1": "0.2"}, "run": {}}
    body.setdefault(section, {})[key] = raw
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in entries.items())
                           for name, entries in body.items()))
    rule = ("a comma-separated number list" if key in _CONFIG_LISTS
            else "an integer" if key in ("seed", "paths", "steps", "order", "section number")
            else "a number")
    assert main(["kernel", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert (f"error: {cfg}: [{section}] {key} must be {rule}; got {raw!r}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("argv", [["qv", "--hurst", "0.6", "--order", "1", "--blocks", "inf,8"],
                                  ["qv", "--hurst", "0.6", "--order", "1", "--blocks", "8.0,16"],
                                  ["estimate", "--input", "unread.csv", "--scales", "2,4.0,8"]])
def test_integer_lists_are_parsed_exactly(tmp_path, capsys, argv):
    # "inf" once exited 1 as a numerical failure, and "8.0" passed as 8
    flag, raw = argv[-2:]
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert (f"error: {flag} must be a comma-separated integer list; got {raw!r}"
            in capsys.readouterr().err)


def test_config_seed_is_parsed_exactly(tmp_path):
    # 2^53 + 1 is the first integer a float round trip would change
    seed = 2**53 + 1
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[process]\nhurst = 0.7\norder = 1\n[run]\nseed = {seed}\n")
    assert load_config(cfg).run["seed"] == seed
    assert main(["kernel", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert _read_json(tmp_path, "kernel.json")["seed"] == seed


def test_out_dir_from_environment(tmp_path, monkeypatch):
    target = tmp_path / "env-out"
    monkeypatch.setenv("HERMKIT_OUT", str(target))
    assert main(["kernel", "--hurst", "0.7", "--order", "1"]) == 0
    assert (target / "kernel.json").exists()


def test_config_digest_ignores_output_location():
    a = config_digest("kernel", {"out": "dir-a", "time": 1.0}, "")
    b = config_digest("kernel", {"out": "dir-b", "time": 1.0}, "")
    assert a == b
    assert config_digest("kernel", {"time": 2.0}, "") != a
    assert config_digest("kernel", {"time": 1.0}, "[process]") != a


# --- scipy stays off the import path -------------------------------------


def _fresh_python(code: str, cwd: Path) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports this hermkit."""
    src = str(Path(hermkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_import_loads_no_scipy(tmp_path):
    # an order-2 kernel evaluation, pointwise and batched, imports no scipy either
    proc = _fresh_python(
        "import sys, hermkit, hermkit.cli\n"
        "from hermkit.kernel import eval_kernel_batch\n"
        "spec = hermkit.HermiteSpec(0.7, 2)\n"
        "hermkit.eval_kernel(spec, 1.0, [0.3, -0.6])\n"
        "eval_kernel_batch(spec, 1.0, [[0.3, -0.6], [0.4, 0.4 - 1e-9]])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_starts_no_thread_pool(tmp_path):
    # the path engine's threads come from threading alone: no pool, no logging
    proc = _fresh_python(
        "import sys, hermkit.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'logging')))",
        tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# one command per subcommand, as in the cold command-line benchmark, plus an
# order-3 kernel
_SCIPY_FREE_COMMANDS = [
    ["kernel", "--hurst", "0.7", "--order", "1", "--out", "out0"],
    ["kernel", "--hurst", "0.7", "--order", "2", "--out", "out1"],
    ["simulate", "--hurst", "0.7", "--order", "2", "--steps", "1024", "--paths", "20",
     "--seed", "3", "--out", "out2"],
    ["estimate", "--input", "out2/path_0.csv", "--out", "out3"],
    ["qv", "--hurst", "0.6", "--order", "1", "--blocks", "8,16,32,64", "--paths", "200",
     "--seed", "4", "--out", "out4"],
    ["price", "bond", "--T", "1.0", "--config", "market.cfg", "--out", "out5"],
    ["price", "perpetual", "--alpha", "0.4", "--config", "market.cfg", "--out", "out6"],
    ["price", "forward", "--T", "1.5", "--config", "market.cfg", "--out", "out7"],
    ["price", "futures", "--grid", "128", "--config", "market.cfg", "--out", "out8"],
    ["curve", "--maturities", "0.5,1,2,5", "--config", "market.cfg", "--out", "out9"],
    ["kernel", "--hurst", "0.6", "--order", "3", "--out", "out10"],
]


def test_every_subcommand_runs_with_scipy_blocked(tmp_path, cfg_file):
    # sys.modules['scipy'] = None makes any scipy import raise ImportError
    proc = _fresh_python(
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from hermkit.cli import main\n"
        f"print(json.dumps([main(argv) for argv in {_SCIPY_FREE_COMMANDS!r}]))",
        tmp_path)
    assert proc.returncode == 0, proc.stderr
    codes = json.loads(proc.stdout.strip().splitlines()[-1])
    failed = [" ".join(argv) for argv, code in zip(_SCIPY_FREE_COMMANDS, codes) if code]
    assert failed == [], proc.stderr
