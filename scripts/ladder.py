#!/usr/bin/env python3
"""Time the ROADMAP ladder of `nestloc` scenarios cold and add them to BENCH_ladder.json.

Usage: python scripts/ladder.py [--src DIR [--src DIR]] [--commit NAME ...] [--out PATH]

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
run.  A rung labelled `<serial rung>-jobs2` runs that rung's scenario with
`--jobs 2`, so the ladder times a process pool too; its stdout must hash
as the serial rung's does.  Pointing `--src` at another checkout's sources times that version
with the same script on the same machine.  Given twice, `--src` times two
versions in one invocation: each run of a rung runs both sources back to
back, the first one first on even repeats and second on odd ones, so a
parent and a change share the machine's drift and the calibration loops
between their runs, and their reference seconds move as their measured
seconds do.

Each run also records its own peak resident set size.  `ru_maxrss` will
not do: Linux starts it, for a child made by vfork and exec as `subprocess`
makes it, at the peak of the process that spawned it, so every rung below
this runner's own peak would read that floor.  `VmHWM` in
/proc/self/status starts afresh at exec, so each rung's interpreter runs
PEAK_HOOK first, which writes that figure at exit to the file named by
the environment variable PEAK_FILE_ENV; `python -m nestloc ...` runs as
`python -c '<hook>; runpy.run_module("nestloc", ...)' ...`, the same
module with the same arguments.  The hook also writes the largest
`ru_maxrss` of the children the interpreter reaped
(`getrusage(RUSAGE_CHILDREN)`), as a run's `workers_peak_rss_mb`: a
`--jobs` pool's workers end with `os._exit`, so no hook of theirs runs,
but the pool joins them before the interpreter exits.  A forked worker's
figure counts the pages it shares with its parent, so it is the largest
worker's peak, not a sum over the workers.  `peak_rss_mb` stays the
interpreter's own peak; a run that reaps no child, every rung without a
pool, has no workers' peak (None).

Beside the measured seconds each run records reference seconds, as
`bench/run.py` computes them: the calibration loop of `bench/child.py`
runs in this process before the first run and after each run, and a run's
seconds are scaled by `bench/run.py`'s CALIBRATION_REFERENCE_S over the
median loop time of the loops just before and just after it.  The loop
slows with a shared machine, and nestloc's code does not change it.  A
rung records the first and third quartiles of its reference seconds
beside their median (inclusive quartiles: of five runs, the second and
fourth fastest), so a difference between two medians can be read against
each side's spread.

BENCH_ladder.json maps a commit name to that commit's ladder, so the file
keeps a trajectory; a run replaces only the entries of its own commits.
Each source's name is its `--commit`, given once per `--src` in the same
order, or by default `git describe --always --dirty` of the checkout
holding it (`<commit>-dirty`: that commit's tree with uncommitted
changes).
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from statistics import median, quantiles

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
BENCH = os.path.join(ROOT, "bench")
#: runs of each rung; the median of five damps two slow runs on a shared machine
REPEAT = 5

#: names the file a rung's PEAK_HOOK writes its peak to
PEAK_FILE_ENV = "NESTLOC_LADDER_PEAK_FILE"
#: runs first in every rung: at exit, the interpreter's VmHWM and its
#: reaped children's largest ru_maxrss, both in KiB
PEAK_HOOK = f"""\
import atexit, os

def _write_peak():
    import resource
    with open("/proc/self/status", encoding="ascii") as fh:
        kib = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    with open(os.environ["{PEAK_FILE_ENV}"], "w", encoding="ascii") as fh:
        fh.write(f"{{kib}} {{workers}}")

atexit.register(_write_peak)
"""

#: (label, nestloc argv)
RUNGS = (
    ("all", ("all",)),
    ("pushforward-p2-3_2", ("pushforward", "--surface", "p2", "--n", "3,2")),
    ("pushforward-p2-4_2", ("pushforward", "--surface", "p2", "--n", "4,2")),
    # D + 1 = 28 specs, as many as a certificate of spec-independence needs at (4,2)
    (
        "pushforward-p2-4_2-samples28",
        ("pushforward", "--surface", "p2", "--n", "4,2", "--samples", "28"),
    ),
    ("pushforward-p1xp1-3_3", ("pushforward", "--surface", "p1xp1", "--n", "3,3")),
    ("pushforward-p1xp1-4_4", ("pushforward", "--surface", "p1xp1", "--n", "4,4")),
    ("pushforward-p2-5_3", ("pushforward", "--surface", "p2", "--n", "5,3")),
    ("kstep-p2-2_1_1", ("kstep", "--surface", "p2", "--n", "2,1,1")),
    ("vanish-p2-3_2", ("vanish", "--surface", "p2", "--n", "3,2", "--i", "1,2")),
    ("serre-duality-p1xp1", ("serre-duality", "--surface", "p1xp1")),
    ("twisted-vanish-p2-3_3", ("twisted-vanish", "--surface", "p2", "--n", "3,3", "--i", "1..3")),
    # six work groups (two twists x three i) in a pool of two workers
    (
        "twisted-vanish-p2-3_3-jobs2",
        ("twisted-vanish", "--surface", "p2", "--n", "3,3", "--i", "1..3", "--jobs", "2"),
    ),
    ("hrr-check-p1xp1", ("hrr-check", "--surface", "p1xp1")),
    # one top Chern class per fixed point: 2640 points on p2, 2580 on p1xp1
    ("euler-count-p2-10", ("euler-count", "--surface", "p2", "--n", "10")),
    ("euler-count-p1xp1-8", ("euler-count", "--surface", "p1xp1", "--n", "8")),
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


def hooked(argv) -> list[str]:
    """The interpreter argv of a rung, `-c CODE ...` or `-m MODULE ...`, as
    one `-c` with PEAK_HOOK run first."""
    option, target, *rest = argv
    if option == "-m":
        target = f"import runpy\nrunpy.run_module({target!r}, run_name='__main__', alter_sys=True)"
    return ["-c", PEAK_HOOK + target, *rest]


def run_rung(argv, src: str, peak_file: str) -> tuple[float, int, str, float | None, float | None]:
    """(measured seconds, exit code, sha256 of stdout, peak RSS in MB, the
    workers' peak RSS in MB) of one cold run; the peak is None when the run
    wrote none, and the workers' peak None when the run reaped no child.
    The runner hashes stdout as it reads it rather than holding it."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    env[PEAK_FILE_ENV] = peak_file
    with open(peak_file, "w", encoding="ascii"):
        pass
    digest = hashlib.sha256()
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *hooked(argv)], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    with proc.stdout:
        for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
            digest.update(chunk)
    code = proc.wait()
    seconds = time.perf_counter() - started
    with open(peak_file, encoding="ascii") as fh:
        kib, workers = fh.read().split() or (0, 0)
    peaks = (round(int(value) / 1024, 1) if int(value) else None for value in (kib, workers))
    return (seconds, code, digest.hexdigest(), *peaks)


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
    parser.add_argument("--src", action="append",
                        help="directory holding a nestloc package to time (at most twice; "
                             "default: this checkout's src)")
    parser.add_argument("--commit", action="append",
                        help="name of the entry to write, once per --src (default: git describe)")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_ladder.json"))
    args = parser.parse_args()
    sources = args.src or [os.path.join(ROOT, "src")]
    if len(sources) > 2:
        parser.error("--src is given at most twice")
    for src in sources:
        if not os.path.isdir(os.path.join(src, "nestloc")):
            parser.error(f"no nestloc package under {src}")
    if args.commit is not None and len(args.commit) != len(sources):
        parser.error("give --commit once per --src, or not at all")
    commits = args.commit or [commit_name(src) for src in sources]
    for src, commit in zip(sources, commits):
        if not commit:
            parser.error(f"{src} is not in a git checkout; name it with --commit")
    if len(set(commits)) < len(commits):
        parser.error(f"both sources are named {commits[0]}; name them with --commit")

    child, reference_s = calibration(sources[0])
    loops: list[tuple[int, int]] = []
    child.calibrate(loops)
    commands = ladder()
    # source -> label -> one list per field of its runs
    runs = {src: {label: ([], [], [], [], [], []) for label, _ in commands} for src in sources}
    with tempfile.TemporaryDirectory(prefix="ladder-peak-") as peak_dir:
        peak_file = os.path.join(peak_dir, "peak")
        for repeat in range(REPEAT):
            # the sources take turns at running first
            order = sources if repeat % 2 == 0 else sources[::-1]
            for label, argv in commands:
                for src in order:
                    seconds, code, digest, peak, workers = run_rung(argv, src, peak_file)
                    child.calibrate(loops)
                    # the loops just before and just after this run
                    around = loops[-2 * child.CALIBRATION_REPEATS:]
                    loop_s = median((end - start) / 1e9 for start, end in around)
                    row = (round(seconds, 3), code, digest,
                           round(seconds * reference_s / loop_s, 3), peak, workers)
                    for column, value in zip(runs[src][label], row):
                        column.append(value)

    trajectory = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            trajectory = json.load(fh)
    context = {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "repeat": REPEAT,
        "calibration_reference_s": reference_s,
        "calibration_median_s": round(median((e - s) / 1e9 for s, e in loops), 4),
    }
    if len(commits) > 1:
        context["alternated"] = commits
    failures = 0
    for src, commit in zip(sources, commits):
        print(f"== {commit} ({src})")
        rungs = []
        for label, argv in commands:
            seconds, exits, digests, reference, peaks, workers = runs[src][label]
            exits, digests = set(exits), set(digests)
            known = [peak for peak in peaks if peak is not None]
            known_workers = [peak for peak in workers if peak is not None]
            ok = exits == {0} and len(digests) == 1 and len(known) == len(peaks)
            if label.endswith("-jobs2"):
                # the serial rung's digests, which a --jobs 2 run must repeat,
                # and a workers' peak in every run
                ok = ok and digests == set(runs[src][label.removesuffix("-jobs2")][2])
                ok = ok and len(known_workers) == len(workers)
            failures += not ok
            q1, _, q3 = (round(q, 3) for q in quantiles(reference, n=4, method="inclusive"))
            rungs.append({
                "label": label,
                "argv": list(argv),
                "seconds": seconds,
                "median_s": round(median(seconds), 3),
                "min_s": min(seconds),
                "max_s": max(seconds),
                "reference_s": reference,
                "median_reference_s": round(median(reference), 3),
                "q1_reference_s": q1,
                "q3_reference_s": q3,
                "peak_rss_mb": peaks,
                "median_peak_rss_mb": median(known) if known else None,
                "workers_peak_rss_mb": workers,
                "median_workers_peak_rss_mb": median(known_workers) if known_workers else None,
                "exit": sorted(exits),
                "sha256": sorted(digests),
            })
            print(f"{label}: median {median(seconds):.3f} s, min {min(seconds):.3f},"
                  f" max {max(seconds):.3f} over {len(seconds)} runs;"
                  f" median {median(reference):.3f} reference s (Q1 {q1:.3f}, Q3 {q3:.3f}),"
                  f" peak RSS median {median(known) if known else 'unread'} MB"
                  + (f", workers' {median(known_workers)} MB" if known_workers else "")
                  + ("" if ok else " (FAILED: nonzero exit, unstable report, unread peak"
                                   " or a --jobs report unlike the serial one)"))
        trajectory[commit] = {"context": context, "rungs": rungs}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(trajectory, fh, indent=2)
        fh.write("\n")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
