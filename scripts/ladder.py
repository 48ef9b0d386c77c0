#!/usr/bin/env python3
"""Time the ROADMAP ladder of `nestloc` scenarios cold and write BENCH_ladder.json.

Usage: python scripts/ladder.py [--src DIR] [--out PATH]

Each rung runs as its own interpreter, `python -m nestloc <rung> --stable
--format json`, with the nestloc sources of `--src` (default: this
checkout's `src`), so its seconds include interpreter start, imports and
cold caches, as a one-shot CLI user pays them.  Every run has
PYTHONDONTWRITEBYTECODE=1, the setting the benchmark runs under, so no
run writes bytecode that would spare a later run compiling the sources.
The first rung,
`import`, is `python -c "import nestloc.cli"` alone: the floor every
other rung pays.  The rungs run in turn, REPEAT times over; each rung
records every run's measured seconds, their median, min and max, its
exit code and the sha256 of its stdout, which must be the same in every
run.  Pointing `--src` at another checkout's sources times that version
with the same script on the same machine.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from statistics import median

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
#: runs of each rung; the median of five damps two slow runs on a shared machine
REPEAT = 5

#: (label, nestloc argv); p2 (5,3) is left out: one run of it outlasts the rest
RUNGS = (
    ("all", ("all",)),
    ("pushforward-p2-3_2", ("pushforward", "--surface", "p2", "--n", "3,2")),
    ("pushforward-p2-4_2", ("pushforward", "--surface", "p2", "--n", "4,2")),
    ("pushforward-p1xp1-3_3", ("pushforward", "--surface", "p1xp1", "--n", "3,3")),
    ("kstep-p2-2_1_1", ("kstep", "--surface", "p2", "--n", "2,1,1")),
    ("vanish-p2-3_2", ("vanish", "--surface", "p2", "--n", "3,2", "--i", "1,2")),
    ("serre-duality-p1xp1", ("serre-duality", "--surface", "p1xp1")),
    ("symbolic-tp-t12", ("symbolic-tp", "--truncation", "12")),
)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def ladder() -> list[tuple[str, tuple[str, ...]]]:
    """(label, interpreter argv) of every rung, the import floor first."""
    return [("import", ("-c", "import nestloc.cli"))] + [
        (label, ("-m", "nestloc", *argv, "--stable", "--format", "json"))
        for label, argv in RUNGS
    ]


def run_rung(argv, src: str) -> tuple[float, int, str]:
    """(measured seconds, exit code, sha256 of stdout) of one cold run."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, check=False)
    seconds = time.perf_counter() - started
    return seconds, proc.returncode, hashlib.sha256(proc.stdout).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the nestloc package to time")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_ladder.json"))
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(args.src, "nestloc")):
        parser.error(f"no nestloc package under {args.src}")

    commands = ladder()
    runs = {label: [] for label, _ in commands}
    for _ in range(REPEAT):
        for label, argv in commands:
            runs[label].append(run_rung(argv, args.src))

    failures = 0
    rungs = []
    for label, argv in commands:
        seconds = [round(s, 3) for s, _, _ in runs[label]]
        exits = {code for _, code, _ in runs[label]}
        digests = {digest for _, _, digest in runs[label]}
        ok = exits == {0} and len(digests) == 1
        failures += not ok
        rungs.append({
            "label": label,
            "argv": list(argv),
            "seconds": seconds,
            "median_s": round(median(seconds), 3),
            "min_s": min(seconds),
            "max_s": max(seconds),
            "exit": sorted(exits),
            "sha256": sorted(digests),
        })
        print(f"{label}: median {median(seconds):.3f} s, min {min(seconds):.3f},"
              f" max {max(seconds):.3f} over {len(seconds)} runs"
              f"{'' if ok else ' (FAILED: nonzero exit or unstable report)'}")
    result = {
        "context": {
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "python": platform.python_version(),
            "repeat": REPEAT,
        },
        "rungs": rungs,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
