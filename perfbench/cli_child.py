"""Traced stand-in for ``python -m hermkit``: one command, one process.

Usage: ``python3 perfbench/cli_child.py TRACE_JSON ARGV...``

Times the import of ``hermkit.cli``, wraps the layers' public functions with
the benchmark's tracer, runs ``hermkit.cli.main(ARGV)`` inside a
``cli.<command>`` span, writes the trace to TRACE_JSON and exits with the
command's status.  The parent puts ``src`` on ``PYTHONPATH``.
"""

from time import perf_counter

_started = perf_counter()

import sys  # noqa: E402

import hermkit.cli  # noqa: E402

_import_s = perf_counter() - _started

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.tracing import Tracer, cli_span_name  # noqa: E402


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.installed():
        code = tracer.call(cli_span_name(argv), hermkit.cli.main, argv)
    tracer.dump(trace_file, {"import_s": _import_s, "exit": code})
    return code


if __name__ == "__main__":
    raise SystemExit(main())
