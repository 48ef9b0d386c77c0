"""One benchmark pass in a fresh interpreter.

Usage: python3 bench/child.py '<json config>'

The config names the scenarios of one workload as `nestloc` argument
lists. The pass imports `nestloc.cli` first (set-up ends when that import
returns), then runs each scenario through `nestloc.cli.main` exactly as the
console script would, capturing the report it writes to stdout. With
`"probe": true` it stops after the import. With `"spans"` set to a file
path, it wraps the layer functions with `bench/spans.py` before the first
scenario and writes the spans to that file at exit.

Around the scenarios (once before the first and once after each), the pass
times a fixed calibration loop `CALIBRATION_REPEATS` times, outside every
scenario's interval. The parent divides by its median to express the pass
in reference seconds (see `bench/run.py`), which takes most of the shared
machine's speed drift out of the end-to-end figures.

stdout carries one JSON line per scenario and a final summary line; the
parent process (`bench/run.py`) reads them. Clock values are
`time.monotonic_ns()`, which is CLOCK_MONOTONIC on Linux and therefore
comparable with the parent's spawn timestamp.
"""

import time
import sys

from nestloc import cli

T_IMPORT = time.monotonic_ns()

import contextlib  # noqa: E402  (after the timed import on purpose)
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
from fractions import Fraction  # noqa: E402

CALIBRATION_REPEATS = 3


def calibrate(intervals: list) -> None:
    """Time the calibration loop CALIBRATION_REPEATS times; append (start, end) ns.

    The loop does what nestloc's sums do (Fraction arithmetic, tuple-keyed
    dict updates) on fixed inputs, with the garbage collector off so that
    the objects nestloc left behind do not change its cost.
    """
    gc.disable()
    try:
        for _ in range(CALIBRATION_REPEATS):
            start = time.monotonic_ns()
            total = Fraction(0)
            for i in range(1, 1500):
                total += Fraction(i % 89 + 1, 3 * i + 1) * Fraction(2 * i + 1, i % 13 + 1)
            table: dict = {}
            for i in range(20000):
                key = (i % 211, i % 7)
                table[key] = table.get(key, 0) + i
            intervals.append((start, time.monotonic_ns()))
    finally:
        gc.enable()


def _emit(out, record: dict) -> None:
    out.write(json.dumps(record) + "\n")
    out.flush()


def main() -> int:
    config = json.loads(sys.argv[1])
    out = sys.stdout
    src = os.path.realpath(config["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"nestloc imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    if config.get("probe"):
        _emit(out, {"t_import": T_IMPORT})
        return 0

    tracer = None
    if config.get("spans"):
        import spans  # bench/spans.py; sys.path[0] is this directory

        tracer = spans.Tracer()
        tracer.install()

    calibration: list = []
    calibrate(calibration)
    for label, argv in config["scenarios"]:
        buffer = io.StringIO()
        t_start = time.monotonic_ns()
        if tracer is None:
            with contextlib.redirect_stdout(buffer):
                code = cli.main(argv)
        else:
            with contextlib.redirect_stdout(buffer), tracer.span("cli.main"):
                code = cli.main(argv)
            tracer.snapshot(label)
        t_end = time.monotonic_ns()
        _emit(
            out,
            {"label": label, "exit": code, "t_start": t_start, "t_end": t_end,
             "text": buffer.getvalue()},
        )
        calibrate(calibration)

    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    summary = {
        "t_import": T_IMPORT,
        # ru_maxrss is in KiB on Linux; workers reports the largest pool worker
        "maxrss_kb": own.ru_maxrss + workers.ru_maxrss,
        "cpu_s": own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime,
        "calibration": calibration,
    }
    if tracer is not None:
        summary["trace"] = tracer.write(config["spans"])
    _emit(out, summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
