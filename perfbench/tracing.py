"""Outside-in tracer: wraps hermkit's public functions where they are bound.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.install`
replaces every binding of a layer's public functions in every loaded
``hermkit`` module (so ``hermkit.stats.simulate_hermite_path`` and
``hermkit.simulate.simulate_hermite_path`` both go through the wrapper), plus
the two scipy entry points the pricing layer leans on, ``CubicSpline`` and
``brentq``.  :meth:`Tracer.restore` puts the originals back.

Each wrapped call becomes a span (name, start, end, parent) kept in memory;
per-name totals (calls, inclusive seconds, self seconds, errors) and a few
work counters are accumulated as the spans close.  Self time is a span's
duration minus the durations of its direct children, so the self times of
all spans under a root span add up to the root's duration exactly.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from array import array
from contextlib import contextmanager
from time import perf_counter

# Public functions per layer module.  Classes are left alone (wrapping them
# would break isinstance checks); the scipy entry points below are the
# exception, because pricing only ever calls them.
PUBLIC = {
    "kernel": ("covariance", "eval_kernel", "eval_kernel_batch",
               "kernel_l2_norm_sq", "normalizing_constant", "d_constant"),
    "simulate": ("gen_fgn", "fgn_covariance", "hermite_polynomial",
                 "partial_sum_std", "simulate_hermite_path", "simulate_fbm_exact",
                 "subordinate", "stratonovich_integral", "chain_rule_residual"),
    "stats": ("centered_qv", "qv_normalizer", "qv_regime_exponent",
              "qv_scaling_exponent", "estimate_hurst", "lrd_coefficient",
              "lrd_limit"),
    "market": ("cumulative_rate", "instantaneous_rate", "riskless_price",
               "riskless_path", "stock_paths", "stock_paths_sde", "deflate",
               "solve_market_price_of_risk", "market_price_of_risk",
               "risk_price_consistency", "combine_drivers"),
    "pricing": ("perpetual_pde_residual", "price_characteristics", "price_fd",
                "power_derivative_beta", "bond_price", "term_structure",
                "forward_price", "forward_value", "futures_residual",
                "futures_march"),
}
# (module, attribute) -> span name, for third-party calls made by a layer.
FOREIGN = {
    ("hermkit.pricing", "CubicSpline"): "pricing.spline_build",
    ("hermkit.pricing", "brentq"): "pricing.rate_inversion",
}


def cli_span_name(argv) -> str:
    """``cli.kernel``, ``cli.price_bond``, ...: the span of one CLI command."""
    return "cli." + (f"{argv[0]}_{argv[1]}" if argv[0] == "price" else argv[0])


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


class Tracer:
    """Spans and counters for one process, written out once at the end."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.calls: list[int] = []
        self.entries: list[int] = []  # calls whose parent is in another layer
        self.total_s: list[float] = []
        self.self_s: list[float] = []
        self.errors: list[int] = []  # exceptions leaving the layer here
        self.counters: dict[str, float] = {}
        # spans, one column per field, appended as each span closes
        self.span_id = array("q")
        self.span_name = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self._next_id = 0
        self._layer: list[str] = []
        # open spans: [span id, name index, child seconds, parent frame]
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- bookkeeping -------------------------------------------------------

    def _name(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
            self._layer.append(name.split(".", 1)[0])
            self.calls.append(0)
            self.entries.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
            self.errors.append(0)
        return idx

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _open(self, idx: int) -> list:
        frame = [self._next_id, idx, 0.0, self._stack[-1] if self._stack else None]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, start: float, end: float) -> None:
        self._stack.pop()
        span_id, idx, child_s, parent = frame
        dur = end - start
        self.calls[idx] += 1
        self.total_s[idx] += dur
        self.self_s[idx] += dur - child_s
        if parent is None:
            self.entries[idx] += 1
            self.span_parent.append(-1)
        else:
            parent[2] += dur
            if self._layer[parent[1]] != self._layer[idx]:
                self.entries[idx] += 1
            self.span_parent.append(parent[0])
        self.span_id.append(span_id)
        self.span_name.append(idx)
        self.span_start.append(start)
        self.span_end.append(end)

    def _run(self, idx: int, fn, args, kwargs):
        frame = self._open(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            # count each exception once, where it leaves its layer
            parent = frame[3]
            if parent is None or self._layer[parent[1]] != self._layer[idx]:
                self.errors[idx] += 1
            raise
        finally:
            self._close(frame, start, perf_counter())

    @contextmanager
    def span(self, name: str):
        """Time a block as one span (the benchmark's own root spans)."""
        frame = self._open(self._name(name))
        start = perf_counter()
        try:
            yield
        finally:
            self._close(frame, start, perf_counter())

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        return self._run(self._name(name), fn, args, kwargs)

    # -- wrapping ----------------------------------------------------------

    def _wrapper(self, name: str, fn):
        idx = self._name(name)
        run = self._run
        extra = getattr(self, "_extra_" + name.replace(".", "_"), None)
        if extra is None:
            def wrapper(*args, **kwargs):
                return run(idx, fn, args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                return extra(run, idx, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _extra_simulate_gen_fgn(self, run, idx, fn, args, kwargs):
        n = int(_arg(args, kwargs, 1, "n"))
        self.count("simulate.gen_fgn.points", 2 * n)  # circulant size 2n
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = run(idx, fn, args, kwargs)
        for w in caught:
            if "circulant embedding" in str(w.message):
                self.count("simulate.gen_fgn.fallbacks")
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        return out

    def _extra_pricing_futures_march(self, run, idx, fn, args, kwargs):
        grid = _arg(args, kwargs, 3, "grid")
        self.count("pricing.futures_march.cells", grid.nx * grid.nt)
        return run(idx, fn, args, kwargs)

    def _extra_pricing_price_fd(self, run, idx, fn, args, kwargs):
        grid = _arg(args, kwargs, 2, "grid")
        out = run(idx, fn, args, kwargs)
        used = out.times.size - 1
        if grid.t_end > grid.t_start and used > grid.nt:
            self.count("pricing.price_fd.halvings", round(math.log2(used / grid.nt)))
        return out

    def install(self) -> None:
        """Wrap every binding of the layers' public functions."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "hermkit" or key.startswith("hermkit."))]
        targets = {}
        for layer, names in PUBLIC.items():
            home = sys.modules["hermkit." + layer]
            for attr in names:
                fn = getattr(home, attr)
                targets[id(fn)] = (fn, f"{layer}.{attr}")
        wrappers = {key: self._wrapper(name, fn) for key, (fn, name) in targets.items()}
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and targets[id(value)][0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        for (mod_name, attr), span_name in FOREIGN.items():
            module = sys.modules[mod_name]
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self._wrapper(span_name, original))

    def restore(self) -> None:
        """Put every original binding back."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # -- results -----------------------------------------------------------

    def totals(self) -> dict:
        """Per-name totals and counters; cheap to copy between operations."""
        return {
            "names": {name: {"calls": self.calls[i], "entries": self.entries[i],
                             "total_s": self.total_s[i], "self_s": self.self_s[i],
                             "errors": self.errors[i]}
                      for i, name in enumerate(self.names)},
            "counters": dict(self.counters),
        }

    def dump(self, path, extra: dict | None = None) -> None:
        """Write totals and every span as one JSON document."""
        body = {
            **self.totals(),
            "span_names": self.names,
            "spans": {"id": self.span_id.tolist(), "name": self.span_name.tolist(),
                      "start": self.span_start.tolist(), "end": self.span_end.tolist(),
                      "parent": self.span_parent.tolist()},
            **(extra or {}),
        }
        with open(path, "w") as buf:
            json.dump(body, buf)


def diff_totals(after: dict, before: dict) -> dict:
    """``after - before`` for two :meth:`Tracer.totals` snapshots."""
    names = {}
    for name, row in after["names"].items():
        old = before["names"].get(name)
        names[name] = row if old is None else {k: row[k] - old[k] for k in row}
    counters = {k: v - before["counters"].get(k, 0) for k, v in after["counters"].items()}
    return {"names": names, "counters": counters}


def add_totals(a: dict, b: dict) -> dict:
    """Sum of two totals dicts (used to merge child-process traces)."""
    names = {k: dict(v) for k, v in a["names"].items()}
    for name, row in b["names"].items():
        if name in names:
            names[name] = {k: names[name][k] + row[k] for k in row}
        else:
            names[name] = dict(row)
    counters = dict(a["counters"])
    for k, v in b["counters"].items():
        counters[k] = counters.get(k, 0) + v
    return {"names": names, "counters": counters}


EMPTY = {"names": {}, "counters": {}}
