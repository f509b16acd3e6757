#!/usr/bin/env python3
"""hermkit benchmark: one workload, one run, one JSON result line.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; hermkit is imported from its ``src``
directory.  A run sets up (import plus input generation, timed in this
process and in four fresh interpreters), then repeats the workload's fixed
job until ``--seconds`` have passed, checks every output against its
reference, and prints a report followed by one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones: repetitions then alternate untraced and traced, the
per-layer figures come from the traced ones, and ``trace.overhead_s`` is the
difference of the two.  Each run also appends a full record (all metrics,
digest, environment) to ``.perfbench-out/results.jsonl``, which
``perfbench/compare.py`` reads.
"""

import os
import sys

# Pin BLAS/OpenMP pools before numpy loads; children inherit the setting.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import datetime  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
END_TO_END = tuple((m["name"], m["unit"]) for m in BENCHMARK["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in BENCHMARK["per_layer"])
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 60
# The calibration kernel's median time on the reference machine (see calibrate()).
CALIBRATION_REFERENCE_S = 0.013
CALIBRATION_ROUNDS = 30
LAYERS = ("kernel", "simulate", "stats", "market", "pricing", "cli")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="repeat the workload's job until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)  # time one set-up and exit
    return parser.parse_args(argv)


def timed_setup(name: str, seed: int, workdir: Path):
    """Import hermkit and build repetition 0's inputs; the user's set-up."""
    started = perf_counter()
    import hermkit  # noqa: F401  (first import in this process)
    from perfbench.workloads import WORKLOADS as table

    workload = table[name]
    inputs = workload.inputs(seed, 0, workdir)
    return perf_counter() - started, workload, inputs


def calibrate() -> float:
    """Seconds for a fixed numpy and interpreter kernel that never touches hermkit.

    Virtual machines change speed by 10-40 % over seconds to minutes, and
    everything running at the time slows or speeds up together.  A run times
    this kernel between untraced ops and scales each op's time by
    CALIBRATION_REFERENCE_S over the mean of the samples on either side:
    "seconds on a machine where the kernel takes CALIBRATION_REFERENCE_S".
    Set-ups are scaled by the median of samples taken right after each
    set-up.  The raw timings are kept in the run record.
    """
    import numpy as np

    started = perf_counter()
    acc = 0.0
    for i in range(CALIBRATION_ROUNDS):
        a = np.random.default_rng(i).standard_normal(8192)
        acc += float(np.fft.fft(a).real[1]) + float(np.cumsum(a)[-1])
        table = {}
        for j in range(400):
            table[j] = (j, j * 0.5)
        acc += len(table)
    return perf_counter() - started


def probe_setup(args, env: dict) -> float:
    """Time one set-up in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "0"]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def fingerprint() -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# ---------------------------------------------------------------------------
# one repetition


def run_rep(workload, inputs, traced: bool, tracer, calibrations: list) -> dict:
    """Run one repetition's ops in order, timing each.

    Untraced repetitions time the calibration kernel before the first op and
    after every op (into ``calibrations``) and scale each op's time by the
    mean of the samples on either side of it; the repetition's scaled wall
    time is the sum of its scaled op times.
    """
    from perfbench.tracing import EMPTY, diff_totals

    ops = workload.ops(inputs, traced)
    results, op_times, snaps, raised = [], [], [], []
    # cli_cold children trace themselves; in-process ops are traced here
    in_process = traced and not workload.children
    root_name = f"bench.{workload.name}"
    with contextlib.ExitStack() as scope:
        if in_process:
            scope.enter_context(tracer.installed())
            snaps.append(tracer.totals())
            scope.enter_context(tracer.span(root_name))
        scaled = []
        if not traced:
            calibrations.append(calibrate())
        started = perf_counter()
        calibrating = 0.0
        for op in ops:
            t0 = perf_counter()
            try:
                out = op.fn()
            except Exception:  # a failed operation is counted, not fatal
                out = None
                raised.append((op.label, traceback.format_exc(limit=3)))
            op_times.append(perf_counter() - t0)
            results.append((op, out))
            if in_process:
                snaps.append(tracer.totals())
            elif not traced:
                calibrations.append(calibrate())
                calibrating += calibrations[-1]
                side = (calibrations[-2] + calibrations[-1]) / 2
                scaled.append(op_times[-1] * CALIBRATION_REFERENCE_S / side)
        wall = perf_counter() - started - calibrating

    rep = {"traced": traced, "wall": wall, "op_times": op_times, "results": results,
           "raised": raised, "scaled_op_times": scaled, "scaled_wall": sum(scaled)}
    if in_process:
        rep["op_totals"] = [diff_totals(b, a) for a, b in zip(snaps, snaps[1:])]
        after = tracer.totals()["names"][root_name]["self_s"]
        rep["root_self"] = after - snaps[0]["names"].get(root_name, {"self_s": 0.0})["self_s"]
    elif traced:
        rep["op_totals"] = [out.trace if out is not None and out.trace
                            else {**EMPTY, "import_s": 0.0} for _, out in results]
    return rep


def check_rep(workload, inputs, rep: dict) -> list[str]:
    """Failed op labels (with reasons) for one repetition."""
    failed = {label: "raised: " + tb.strip().splitlines()[-1] for label, tb in rep["raised"]}
    if not failed:
        try:
            for failure in workload.check(inputs, rep["results"]):
                for label in failure.labels:
                    failed.setdefault(label, failure.detail)
        except Exception:
            detail = "check raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1]
            for op, _ in rep["results"]:
                failed.setdefault(op.label, detail)
    return [f"{label}: {why}" for label, why in failed.items()]


# ---------------------------------------------------------------------------
# per-layer metrics


def _sum_layer(totals: dict, layer: str, key: str) -> float:
    return sum(row[key] for name, row in totals["names"].items()
               if name.startswith(layer + "."))


def layer_metrics(workload, rep: dict) -> dict:
    from perfbench.tracing import EMPTY, add_totals

    totals = EMPTY
    for t in rep["op_totals"]:
        totals = add_totals(totals, t)
    names, counters = totals["names"], totals["counters"]
    zero = {"calls": 0, "entries": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0}

    def row(name):
        return names.get(name, zero)

    m = {
        "kernel.calls": _sum_layer(totals, "kernel", "entries"),
        "kernel.self_s": _sum_layer(totals, "kernel", "self_s"),
        "kernel.errors": _sum_layer(totals, "kernel", "errors"),
        "kernel.normalizing_constant.s": row("kernel.normalizing_constant")["total_s"],
        "kernel.kernel_l2_norm_sq.s": row("kernel.kernel_l2_norm_sq")["total_s"],
        "kernel.d_constant.s": row("kernel.d_constant")["total_s"],
    }
    fgn = row("simulate.gen_fgn")
    points = counters.get("simulate.gen_fgn.points", 0)
    m.update({
        "simulate.gen_fgn.calls": fgn["calls"],
        "simulate.gen_fgn.self_s": fgn["self_s"],
        "simulate.gen_fgn.points": points,
        "simulate.gen_fgn.ns_per_point": 1e9 * fgn["self_s"] / points if points else 0.0,
        "simulate.gen_fgn.fallbacks": counters.get("simulate.gen_fgn.fallbacks", 0),
        "simulate.hermite_polynomial.self_s": row("simulate.hermite_polynomial")["self_s"],
        "simulate.simulate_hermite_path.self_s": row("simulate.simulate_hermite_path")["self_s"],
        "simulate.simulate_fbm_exact.self_s": row("simulate.simulate_fbm_exact")["self_s"],
        "simulate.partial_sum_std.calls": row("simulate.partial_sum_std")["calls"],
        "simulate.partial_sum_std.self_s": row("simulate.partial_sum_std")["self_s"],
        "simulate.self_s": _sum_layer(totals, "simulate", "self_s"),
        "stats.qv_normalizer.calls": row("stats.qv_normalizer")["calls"],
        "stats.qv_normalizer.s": row("stats.qv_normalizer")["total_s"],
        "stats.centered_qv.calls": row("stats.centered_qv")["calls"],
        "stats.centered_qv.self_s": row("stats.centered_qv")["self_s"],
        "stats.estimate_hurst.s": row("stats.estimate_hurst")["total_s"],
        "stats.self_s": _sum_layer(totals, "stats", "self_s"),
        "market.cumulative_rate.calls": row("market.cumulative_rate")["calls"],
        "market.cumulative_rate.self_s": row("market.cumulative_rate")["self_s"],
        "market.instantaneous_rate.calls": row("market.instantaneous_rate")["calls"],
        "market.self_s": _sum_layer(totals, "market", "self_s"),
    })
    march = row("pricing.futures_march")
    cells = counters.get("pricing.futures_march.cells", 0)
    m.update({
        "pricing.futures_march.calls": march["calls"],
        "pricing.futures_march.self_s": march["self_s"],
        "pricing.futures_march.cells_per_s": cells / march["self_s"] if march["self_s"] else 0.0,
        "pricing.futures_residual.self_s": row("pricing.futures_residual")["self_s"],
        "pricing.spline_build.calls": row("pricing.spline_build")["calls"],
        "pricing.spline_build.s": row("pricing.spline_build")["total_s"],
        "pricing.rate_inversion.calls": row("pricing.rate_inversion")["calls"],
        "pricing.rate_inversion.s": row("pricing.rate_inversion")["total_s"],
        "pricing.price_fd.self_s": row("pricing.price_fd")["self_s"],
        "pricing.price_fd.halvings": counters.get("pricing.price_fd.halvings", 0),
        "pricing.term_structure.self_s": row("pricing.term_structure")["self_s"],
        "pricing.self_s": _sum_layer(totals, "pricing", "self_s"),
    })
    import_s = sum(t.get("import_s", 0.0) for t in rep["op_totals"])
    m["cli.import_s"] = import_s
    for cmd in ("kernel", "simulate", "estimate", "qv", "price_bond", "price_perpetual",
                "price_forward", "price_futures", "curve"):
        m[f"cli.{cmd}.s"] = row(f"cli.{cmd}")["total_s"]
    m["cli.self_s"] = _sum_layer(totals, "cli", "self_s")
    layer_self = sum(_sum_layer(totals, layer, "self_s") for layer in LAYERS)
    if workload.children:
        m["cli.bytes_written"] = sum(
            p.stat().st_size for _, out in rep["results"] if out is not None
            for p in out.out_dir.iterdir())
        m["cli.exit_nonzero"] = sum(1 for _, out in rep["results"]
                                    if out is None or out.returncode != 0)
        # interpreter start-up and exit, tracer install and dump, process glue
        m["bench.self_s"] = rep["wall"] - layer_self - import_s
    else:
        m["cli.bytes_written"] = 0
        m["cli.exit_nonzero"] = 0
        m["bench.self_s"] = rep["root_self"]
    rep["accounting"] = {"wall": rep["wall"], "layers": layer_self, "import": import_s,
                         "bench": m["bench.self_s"]}
    return m


def predictions(workload, reps: list[dict]) -> list[tuple[str, str, bool]]:
    """The README's "should move" rows, checked against the traced shares."""
    from perfbench.tracing import EMPTY, add_totals

    traced = [r for r in reps if r["traced"]]
    wall = sum(r["wall"] for r in traced)
    totals = EMPTY
    for r in traced:
        for t in r["op_totals"]:
            totals = add_totals(totals, t)

    def share(layer):
        return _sum_layer(totals, layer, "self_s") / wall

    def idle(layers):
        worst = max(layers, key=share)
        return (f"{' + '.join(layers)} < 1% of wall_s",
                f"largest {worst} at {100 * share(worst):.2f}%",
                all(share(x) < 0.01 for x in layers))

    out = []
    name = workload.name
    if name in ("mc_short", "mc_long"):
        if name == "mc_short":
            s = share("simulate")
            out.append(("simulate self time is the majority of wall_s",
                        f"{100 * s:.1f}%", s > 0.5))
        else:
            fgn = totals["names"].get("simulate.gen_fgn", {"self_s": 0.0})["self_s"] / wall
            out.append(("simulate.gen_fgn.self_s is the majority of wall_s",
                        f"{100 * fgn:.1f}%", fgn > 0.5))
        s = share("stats")
        out.append(("stats is a small share of wall_s (< 25%)", f"{100 * s:.1f}%", s < 0.25))
        out.append(idle(("kernel", "market", "pricing")))
    elif name == "pricing":
        s = share("pricing") + share("market")
        out.append(("pricing + market self time is the majority of wall_s",
                    f"{100 * s:.1f}%", s > 0.5))
        out.append(idle(("simulate",)))
        out.append(idle(("kernel",)))
        per_kind = {"constant": [], "other": []}
        inv_kind = {"constant": 0, "other": 0}
        for r in traced:
            for (op, _), t in zip(r["results"], r["op_totals"]):
                kind = "constant" if op.group == "constant" else "other"
                per_kind[kind].append(_sum_layer(t, "market", "self_s"))
                inv_kind[kind] += t["names"].get("pricing.rate_inversion", {"calls": 0})["calls"]
        const = statistics.mean(per_kind["constant"])
        other = statistics.mean(per_kind["other"])
        out.append(("market self time per scenario is larger on non-constant rates",
                    f"{1e3 * other:.1f} ms vs {1e3 * const:.1f} ms constant", other > const))
        out.append(("rate inversion (brentq) runs only on non-constant rates",
                    f"{inv_kind['other']} calls non-constant, {inv_kind['constant']} constant",
                    inv_kind["constant"] == 0 and inv_kind["other"] > 0))
    elif name == "cli_cold":
        slow_k, med_i = [], []
        for r in traced:
            times = r["op_times"]
            slowest = max(range(len(times)), key=times.__getitem__)
            t = r["op_totals"][slowest]
            slow_k.append(_sum_layer(t, "kernel", "self_s") / times[slowest])
            order = sorted(range(len(times)), key=times.__getitem__)
            mid = order[len(order) // 2]
            med_i.append(r["op_totals"][mid].get("import_s", 0.0) / times[mid])
        k = statistics.median(slow_k)
        i = statistics.median(med_i)
        out.append(("kernel self time is the majority of the slowest command (op_max_s)",
                    f"{100 * k:.1f}%", k > 0.5))
        out.append(("import is the majority of the median command (op_p50_s)",
                    f"{100 * i:.1f}%", i > 0.5))
    return out


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hermkit" / "__init__.py").is_file():
        print(f"error: no hermkit sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path[0] = str(ROOT)  # import perfbench as a package, not its files
    sys.path.insert(0, str(SRC))
    workdir = OUT / (f"{args.workload}-probe{os.getpid()}" if args.setup_probe
                     else args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    setup_main, workload, inputs = timed_setup(args.workload, args.seed, workdir)
    import hermkit

    if not Path(hermkit.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported hermkit from {hermkit.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": setup_main}))
        return 0

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    # each set-up is followed by a calibration sample, which scales the set-ups
    setups_raw, setup_calibrations = [setup_main], [calibrate()]
    for _ in range(SETUP_PROBES):
        setups_raw.append(probe_setup(args, env))
        setup_calibrations.append(calibrate())
    if workload.children:
        workload.env = env

    from perfbench.tracing import Tracer
    from perfbench.workloads import result_digest

    tracer = Tracer() if args.trace else None
    reps, failures, kept = [], [], []
    calibrations = []
    started = perf_counter()
    while True:
        index = len(reps)
        traced = bool(args.trace) and index % 2 == 1
        rep_inputs = inputs if index == 0 else workload.inputs(args.seed, index, workdir)
        rep = run_rep(workload, rep_inputs, traced, tracer, calibrations)
        failures += [f"rep {index}: {f}" for f in check_rep(workload, rep_inputs, rep)]
        if index == 0:
            digest = result_digest(workload, rep["results"]) if not rep["raised"] else "none"
        if hasattr(workload, "check_run"):
            kept.append(workload.keep(rep["results"]) if not rep["raised"] else [])
        reps.append(rep)
        if not (traced and workload.children):  # traced cli reps keep their out dirs
            rep["results"] = [(op, None) for op, _ in rep["results"]]  # free outputs
        done = perf_counter() - started >= args.seconds
        if done and (not args.trace or any(r["traced"] for r in reps)):
            break
    if hasattr(workload, "check_run") and all(kept):
        for failure in workload.check_run(kept):
            failures += [f"{label}: {failure.detail}" for label in failure.labels]

    usage = resource.getrusage(resource.RUSAGE_CHILDREN if workload.children
                               else resource.RUSAGE_SELF)
    plain = [r for r in reps if not r["traced"]]
    scale = CALIBRATION_REFERENCE_S / statistics.median(calibrations)
    walls = [r["scaled_wall"] for r in plain]
    setup_scale = CALIBRATION_REFERENCE_S / statistics.median(setup_calibrations)
    setups = [t * setup_scale for t in setups_raw]
    # each op's median over the repetitions, then the median and slowest op
    per_op: dict[str, list[float]] = {}
    for r in plain:
        for (op, _), t in zip(r["results"], r["scaled_op_times"]):
            per_op.setdefault(op.label, []).append(t)
    op_medians = [statistics.median(times) for times in per_op.values()]
    attempted = sum(len(r["op_times"]) for r in reps)
    failed = len(failures)
    e2e = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "op_p50_s": statistics.median(op_medians),
        "op_max_s": max(op_medians),
    }
    env_info = fingerprint()

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"  why: {workload.why}")
    print("  env: " + " ".join(f"{k}={v}" for k, v in env_info.items() if k != "threads")
          + " threads=" + ",".join(f"{k}={v}" for k, v in env_info["threads"].items()))
    print(f"  repetitions: {len(plain)} untraced, {len(reps) - len(plain)} traced; "
          f"{len(reps[0]['op_times'])} ops each")
    print(f"  calibration: median {statistics.median(calibrations):.5f} s over "
          f"{len(calibrations)} samples against {CALIBRATION_REFERENCE_S} s; times below "
          f"are scaled by about {scale:.4f} "
          f"(raw wall_s {statistics.median(r['wall'] for r in plain):.4f} s)")
    units = dict(END_TO_END)
    for name, value in e2e.items():
        note = ""
        if name == "wall_s":
            q1, q3 = quartiles(walls)
            note = f"median of {len(walls)} repetitions, quartiles {q1:.4f}..{q3:.4f}"
        elif name == "setup_s":
            note = (f"median of {len(setups)} set-ups, raw " + " ".join(f"{s:.3f}" for s in setups_raw))
        elif name == "op_p50_s":
            note = f"median of {len(op_medians)} ops, each its median over repetitions"
        elif name == "op_max_s":
            note = "slowest op, by its median over repetitions"
        print(f"  {name:<12} {value:12.6f} {units[name]:<4} {note}")
    print(f"  {'error_rate':<12} {failed / attempted:12.6f} {'':<4} {failed} of {attempted} ops")
    for line in failures:
        print(f"  FAILED {line}")
    print(f"  digest {digest} (repetition 0 outputs)")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "time": datetime.datetime.now(datetime.timezone.utc)
              .isoformat(timespec="seconds"), "env": env_info, "digest": digest,
              "attempted": attempted, "failed": failed, "walls": walls,
              "op_times": {label: times for label, times in per_op.items()},
              "setups": setups, "failures": failures, "calibrations": calibrations,
              "setup_calibrations": setup_calibrations,
              "raw_walls": [r["wall"] for r in plain], "raw_setups": setups_raw,
              "end_to_end": e2e}
    if args.trace:
        traced = [r for r in reps if r["traced"]]
        per_rep = [layer_metrics(workload, r) for r in traced]
        layer = {name: statistics.median(m[name] for m in per_rep)
                 for name, _ in PER_LAYER if name != "trace.overhead_s"}
        layer["trace.overhead_s"] = (statistics.median(r["wall"] * scale for r in traced)
                                     - e2e["wall_s"])
        print("  per-layer (traced repetitions, median):")
        for name, unit in PER_LAYER:
            print(f"    {name:<40} {layer[name]:16.6f} {unit}")
        print("  accounting (traced repetitions): wall = layer self + import + bench self")
        for r in traced:
            a = r["accounting"]
            print(f"    {a['wall']:.4f} s = {a['layers']:.4f} + {a['import']:.4f} + "
                  f"{a['bench']:.4f}  (residual {a['wall'] - a['layers'] - a['import'] - a['bench']:.2e} s)")
        print("  predictions (should-move table):")
        checks = predictions(workload, reps)
        for claim, measured, ok in checks:
            print(f"    [{'match' if ok else 'MISMATCH'}] {claim}: {measured}")
        record["per_layer"] = layer
        record["predictions"] = [{"claim": c, "measured": m, "match": ok}
                                 for c, m, ok in checks]
        if not workload.children:
            tracer.dump(OUT / f"trace-{args.workload}.json")
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}

    with open(OUT / "results.jsonl", "a") as buf:
        buf.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
