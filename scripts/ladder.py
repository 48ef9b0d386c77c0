#!/usr/bin/env python3
"""Time the ROADMAP ladder of `nestloc` scenarios cold and add them to BENCH_ladder.json.

Usage: python scripts/ladder.py [--src DIR] [--commit NAME] [--out PATH]

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

Beside the measured seconds each run records reference seconds, as
`bench/run.py` computes them: the calibration loop of `bench/child.py`
runs in this process before the first run and after each run, and a run's
seconds are scaled by `bench/run.py`'s CALIBRATION_REFERENCE_S over the
median loop time of the loops just before and just after it.  The loop
slows with a shared machine, and nestloc's code does not change it.

BENCH_ladder.json maps a commit name to that commit's ladder, so the file
keeps a trajectory; a run replaces only the entry of its own commit.  The
name is `--commit`, or by default `git describe --always --dirty` of the
checkout holding `--src` (`<commit>-dirty`: that commit's tree with
uncommitted changes).
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
BENCH = os.path.join(ROOT, "bench")
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
    ("twisted-vanish-p2-3_3", ("twisted-vanish", "--surface", "p2", "--n", "3,3", "--i", "1..3")),
    ("hrr-check-p1xp1", ("hrr-check", "--surface", "p1xp1")),
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


def calibration(src: str):
    """(the bench/child.py module, bench/run.py's CALIBRATION_REFERENCE_S).

    `child` imports `nestloc.cli` first, here from `src`, without writing
    bytecode that a timed run would then read."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [src, BENCH]
    import child
    from run import CALIBRATION_REFERENCE_S

    return child, CALIBRATION_REFERENCE_S


def commit_name(src: str) -> str | None:
    proc = subprocess.run(["git", "-C", src, "describe", "--always", "--dirty"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the nestloc package to time")
    parser.add_argument("--commit", help="name of the entry to write (default: git describe)")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_ladder.json"))
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(args.src, "nestloc")):
        parser.error(f"no nestloc package under {args.src}")
    commit = args.commit or commit_name(args.src)
    if not commit:
        parser.error(f"{args.src} is not in a git checkout; name it with --commit")

    child, reference_s = calibration(args.src)
    loops: list[tuple[int, int]] = []
    child.calibrate(loops)
    commands = ladder()
    runs = {label: [] for label, _ in commands}
    for _ in range(REPEAT):
        for label, argv in commands:
            seconds, code, digest = run_rung(argv, args.src)
            child.calibrate(loops)
            # the loops just before and just after this run
            around = loops[-2 * child.CALIBRATION_REPEATS:]
            loop_s = median((end - start) / 1e9 for start, end in around)
            runs[label].append((seconds, code, digest, seconds * reference_s / loop_s))

    failures = 0
    rungs = []
    for label, argv in commands:
        seconds = [round(s, 3) for s, _, _, _ in runs[label]]
        reference = [round(r, 3) for _, _, _, r in runs[label]]
        exits = {code for _, code, _, _ in runs[label]}
        digests = {digest for _, _, digest, _ in runs[label]}
        ok = exits == {0} and len(digests) == 1
        failures += not ok
        rungs.append({
            "label": label,
            "argv": list(argv),
            "seconds": seconds,
            "median_s": round(median(seconds), 3),
            "min_s": min(seconds),
            "max_s": max(seconds),
            "reference_s": reference,
            "median_reference_s": round(median(reference), 3),
            "exit": sorted(exits),
            "sha256": sorted(digests),
        })
        print(f"{label}: median {median(seconds):.3f} s, min {min(seconds):.3f},"
              f" max {max(seconds):.3f} over {len(seconds)} runs;"
              f" median {median(reference):.3f} reference s"
              f"{'' if ok else ' (FAILED: nonzero exit or unstable report)'}")
    trajectory = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            trajectory = json.load(fh)
    trajectory[commit] = {
        "context": {
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "python": platform.python_version(),
            "repeat": REPEAT,
            "calibration_reference_s": reference_s,
            "calibration_median_s": round(median((e - s) / 1e9 for s, e in loops), 4),
        },
        "rungs": rungs,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(trajectory, fh, indent=2)
        fh.write("\n")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
