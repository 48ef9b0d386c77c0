"""nestloc benchmark: cold-process workloads through `nestloc.cli.main`.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {pushforward,fixed-points,battery} \\
        --seed N --seconds S --trace {0,1}

Each pass spawns a fresh interpreter (`bench/child.py`) that imports
`nestloc.cli` and runs every scenario of the workload through
`nestloc.cli.main(... --format json --stable --seed N)`, so it pays import
and cold caches as a one-shot CLI user does. Every report is checked: exit
code 0, verdict `pass`, and its digest against `bench/reference.json` (the
exact bytes at the pinned seed; at every seed, the report with the sampled
weight specs and the seed removed, because every value is a degree-0
equivariant constant and does not depend on the specs).

`--trace 0` prints the end-to-end metrics of BENCHMARK.json, `--trace 1`
the per-layer ones; see bench/NOTES.md. The end-to-end times are in
reference seconds: each pass also times a fixed calibration loop between
its scenarios (`bench/child.py`), and its measured times are scaled by
CALIBRATION_REFERENCE_S over the pass's median loop time, as if the machine
ran at the speed where the loop takes CALIBRATION_REFERENCE_S. A shared
2-vCPU machine changed speed by up to a third within minutes; the loop
slows with it, and nestloc's code does not change it. The raw times
are printed on `#` lines. The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics. Exit
code 2, without a result, when the checkout has no `src/nestloc`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import spans

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
PINNED_SEED = 1729  # the seed of reference.json, and the default

PASS_TIMEOUT_S = 150
# time of one calibration loop (bench/child.py) that a reference second
# stands for: about the loop's time in the faster phases of the machine the
# figures in bench/NOTES.md were taken on (2-vCPU Intel Xeon, Python 3.11.7)
CALIBRATION_REFERENCE_S = 0.0135


@dataclass(frozen=True)
class Workload:
    jobs: int
    scenarios: tuple[tuple[str, tuple[str, ...]], ...]  # (label, nestloc argv)
    # spans (or counters) that must fire in a traced pass of this workload
    expected: frozenset[str]


_HARNESS = {"cli.main", "harness.run_scenario", "harness.group", "harness.emit_report"}

WORKLOADS = {
    "pushforward": Workload(
        jobs=2,
        scenarios=(
            ("pushforward-p2-3_2", ("pushforward", "--surface", "p2", "--n", "3,2")),
            ("pushforward-p1xp1-2_2", ("pushforward", "--surface", "p1xp1", "--n", "2,2")),
            ("kstep-p2-2_1_1", ("kstep", "--surface", "p2", "--n", "2,1,1")),
        ),
        expected=frozenset(
            _HARNESS
            | {
                "integrals.ambient", "integrals.virtual", "integrals.insertion_basis",
                "integrals.chern_series", "integrals.euler_class", "series.line_factor.calls",
                "vertex.co_class", "vertex.tangent_char", "vertex.taut_char",
                "vertex.virtual_tangent_char", "characters.op",
                "combinatorics.multipartitions", "combinatorics.nested_chains",
            }
        ),
    ),
    "fixed-points": Workload(
        jobs=1,
        scenarios=(
            ("euler-count-p2-8", ("euler-count", "--surface", "p2", "--n", "8")),
            ("euler-count-p1xp1-7", ("euler-count", "--surface", "p1xp1", "--n", "7")),
            (
                "twisted-vanish-p2-3_3",
                ("twisted-vanish", "--surface", "p2", "--n", "3,3", "--i", "1..3"),
            ),
        ),
        expected=frozenset(
            _HARNESS
            | {
                "integrals.ambient", "integrals.insertion_basis", "integrals.chern_series",
                "integrals.euler_class", "series.line_factor.calls", "vertex.co_class",
                "vertex.tangent_char", "characters.op", "combinatorics.multipartitions",
            }
        ),
    ),
    "battery": Workload(
        jobs=1,
        scenarios=(
            ("all", ("all",)),
            ("serre-duality-p2", ("serre-duality", "--surface", "p2")),
            ("serre-duality-p1xp1", ("serre-duality", "--surface", "p1xp1")),
            ("symbolic-tp-t12", ("symbolic-tp", "--truncation", "12")),
            ("hrr-check-p2", ("hrr-check", "--surface", "p2")),
            ("hrr-check-p1xp1", ("hrr-check", "--surface", "p1xp1")),
        ),
        expected=frozenset(
            _HARNESS
            | {
                "vertex.co_class", "characters.op", "chern.verify_higher_tp", "chern.segre",
                "chern.thom_porteous", "chern.twist_by_line", "combinatorics.multipartitions",
            }
        ),
    ),
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (no program, broken trace, ...)."""


# --------------------------------------------------------------------------
# report checks
# --------------------------------------------------------------------------


def report_documents(text: str) -> list[dict]:
    """The JSON reports one `nestloc` call wrote (`all` writes several)."""
    decoder = json.JSONDecoder()
    docs, pos = [], 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        doc, pos = decoder.raw_decode(text, pos)
        docs.append(doc)
    return docs


def normalized_digest(docs: list[dict]) -> str:
    """Digest of the reports without the seed and the sampled specs (dropped in place)."""
    for doc in docs:
        doc.pop("seed", None)
        for case in doc["cases"]:
            for sample in case["samples"]:
                sample.pop("s", None)
    return hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()


def check_scenario(record: dict, seed: int, reference: dict) -> tuple[int, str]:
    """(cases, failure reason or "") for one scenario run."""
    if record["exit"] != 0:
        return 0, f"exit code {record['exit']}"
    try:
        docs = report_documents(record["text"])
    except json.JSONDecodeError as exc:
        return 0, f"report is not JSON: {exc}"
    cases = sum(len(doc["cases"]) for doc in docs)
    if not docs or any(doc["verdict"] != "pass" for doc in docs):
        return cases, "verdict is not pass"
    expected = reference["scenarios"].get(record["label"])
    if expected is None:
        return cases, "no reference digest"
    if seed == reference["seed"]:
        if hashlib.sha256(record["text"].encode()).hexdigest() != expected["stable"]:
            return cases, "report differs from the reference at the pinned seed"
    if normalized_digest(docs) != expected["normalized"]:
        return cases, "report values differ from the reference"
    return cases, ""


# --------------------------------------------------------------------------
# passes
# --------------------------------------------------------------------------


def scenario_argv(workload: Workload, seed: int, jobs: int) -> list:
    common = ["--jobs", str(jobs), "--seed", str(seed), "--format", "json", "--stable"]
    return [[label, list(argv) + common] for label, argv in workload.scenarios]


def spawn(config: dict) -> tuple[int, list[dict], str]:
    """Run bench/child.py once; return (spawn time ns, records, stderr)."""
    config = dict(config, src=str(SRC))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t_spawn = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), json.dumps(config)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
    )
    records = []
    for line in proc.stdout.splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            break
    if proc.returncode != 0 and records and "t_import" in records[-1]:
        records.pop()  # a summary from a process that then failed is not trusted
    return t_spawn, records, proc.stderr


def warm_up() -> None:
    """An unmeasured import-only spawn: writes bytecode caches, warms the file cache."""
    _, records, stderr = spawn({"probe": True})
    if not records:
        raise BenchError(f"import probe failed: {stderr.strip()}")


@dataclass
class Pass:
    ok: bool  # the process ran to its summary; timings are usable
    attempted: int
    failures: list[str]
    wall_s: float = 0.0  # measured, calibration loops excluded
    setup_s: float = 0.0  # measured
    calibration_s: float = 0.0  # median time of one calibration loop in this pass
    cases: int = 0
    peak_rss_mb: float = 0.0
    cpu_s: float = 0.0
    scenario_s: dict | None = None
    trace: dict | None = None


def run_pass(workload: Workload, seed: int, reference: dict, traced: bool, workdir: str) -> Pass:
    jobs = 1 if traced else workload.jobs
    config = {"scenarios": scenario_argv(workload, seed, jobs)}
    spans_path = os.path.join(workdir, "spans.bin")
    if traced:
        config["spans"] = spans_path
    attempted = len(workload.scenarios)
    try:
        t_spawn, records, stderr = spawn(config)
    except subprocess.TimeoutExpired:
        return Pass(False, attempted, [f"pass exceeded {PASS_TIMEOUT_S} s"])
    failures, cases, scenario_s = [], 0, {}
    for record in records:
        if "label" not in record:
            continue
        n, reason = check_scenario(record, seed, reference)
        cases += n
        scenario_s[record["label"]] = (record["t_end"] - record["t_start"]) / 1e9
        if reason:
            failures.append(f"{record['label']}: {reason}")
    if not records or "t_import" not in records[-1]:
        done = len(scenario_s)
        failures += [f"process failed after {done} scenario(s): {stderr.strip()[-400:]}"] * (
            attempted - done
        )
        return Pass(False, attempted, failures)
    summary = records[-1]
    last_end = max(r["t_end"] for r in records if "label" in r)
    loops = [end - start for start, end in summary["calibration"]]
    # loops before the last report ran between scenarios: not time a user waits
    in_pass = sum(end - start for start, end in summary["calibration"] if end <= last_end)
    result = Pass(
        ok=True,
        attempted=attempted,
        failures=failures,
        wall_s=(last_end - t_spawn - in_pass) / 1e9,
        setup_s=(summary["t_import"] - t_spawn) / 1e9,
        calibration_s=median(loops) / 1e9,
        cases=cases,
        peak_rss_mb=summary["maxrss_kb"] / 1024,
        # the calibration loops are CPU-bound, so their wall time is their CPU time
        cpu_s=summary["cpu_s"] - sum(loops) / 1e9,
        scenario_s=scenario_s,
    )
    if traced:
        header = summary["trace"]
        result.trace = {
            "spans": spans.summarize(spans_path, header),
            "counts": header["counts"],
            "snapshots": header["snapshots"],
            "n_spans": header["spans"],
        }
        os.remove(spans_path)
    return result


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------


def end_to_end(passes: list[Pass]) -> dict:
    """Medians over passes, each pass's times in reference seconds."""
    def ref(p: Pass, seconds: float) -> float:
        return seconds * CALIBRATION_REFERENCE_S / p.calibration_s

    return {
        "wall_s": median(ref(p, p.wall_s) for p in passes),
        "setup_s": median(ref(p, p.setup_s) for p in passes),
        "cases_per_s": median(p.cases / ref(p, p.wall_s - p.setup_s) for p in passes),
        "peak_rss_mb": median(p.peak_rss_mb for p in passes),
    }


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def check_trace(name: str, workload: Workload, traced: list[Pass]) -> None:
    """Fail loudly when an expected span is missing or counts do not repeat."""
    first = traced[0].trace
    for label in sorted(workload.expected):
        fired = first["counts"].get(label, 0) if label.endswith(".calls") else (
            first["spans"].get(label, {}).get("calls", 0)
        )
        if not fired:
            raise BenchError(f"span {label} never fired on workload {name}")
    final = first["snapshots"][-1]["caches"]
    for cached in ("vertex.co_class", "vertex.tangent_char", "vertex.virtual_tangent_char",
                   "integrals.chern_series", "integrals.euler_class"):
        hits, misses, _ = final[cached]
        calls = first["spans"][cached]["calls"]
        if hits + misses != calls:
            raise BenchError(
                f"{cached}: {calls} traced calls but {hits + misses} cache lookups; "
                "some binding of the function was not wrapped"
            )
    for other in traced[1:]:
        if other.trace["counts"] != first["counts"] or {
            k: v["calls"] for k, v in other.trace["spans"].items()
        } != {k: v["calls"] for k, v in first["spans"].items()}:
            raise BenchError("work counts differ between traced passes of one run")


def per_layer(untraced: list[Pass], traced: list[Pass], declared) -> dict:
    def span_med(span: str, field: str) -> float:
        return median(p.trace["spans"].get(span, {}).get(field, 0.0) for p in traced)

    def layer_self(layer: str) -> float:
        return median(
            sum(v["self_s"] for k, v in p.trace["spans"].items() if k.split(".")[0] == layer)
            for p in traced
        )

    first = traced[0].trace
    counts, spans_ = first["counts"], first["spans"]
    caches = first["snapshots"][-1]["caches"]
    calls = {k: v["calls"] for k, v in spans_.items()}
    ambient_self = span_med("integrals.ambient", "self_s")
    virtual_self = span_med("integrals.virtual", "self_s")
    terms = counts.get("integrals.ambient.terms", 0) + counts.get("integrals.virtual.terms", 0)
    untraced_wall = median(p.wall_s for p in untraced)
    out = {
        "integrals.ambient.self_s": ambient_self,
        "integrals.virtual.self_s": virtual_self,
        "integrals.ambient.terms": counts.get("integrals.ambient.terms", 0),
        "integrals.virtual.terms": counts.get("integrals.virtual.terms", 0),
        "integrals.terms_per_s": terms / (ambient_self + virtual_self) if terms else 0.0,
        "integrals.insertions": counts.get("integrals.insertions", 0),
        "integrals.insertion_basis.s": span_med("integrals.insertion_basis", "s"),
        "series.line_factor.calls": counts.get("series.line_factor.calls", 0),
        "integrals.chern_series.cache_size": caches["integrals.chern_series"][2],
        "characters.ops": calls.get("characters.op", 0),
        "characters.self_s": layer_self("characters"),
        "combinatorics.enumerate_s": layer_self("combinatorics"),
        "combinatorics.fixed_points": counts.get("combinatorics.fixed_points", 0),
        "combinatorics.chains": counts.get("combinatorics.chains", 0),
        "harness.report_s": span_med("harness.emit_report", "s"),
        "harness.groups": calls.get("harness.group", 0),
        "harness.cases": traced[0].cases,
        "harness.cpu_s": median(p.cpu_s for p in untraced),
        "harness.wall_s": untraced_wall,
        "harness.trace_overhead_ratio": median(p.wall_s for p in traced) / untraced_wall,
    }
    for span in ("integrals.chern_series", "integrals.euler_class", "vertex.co_class",
                 "vertex.tangent_char", "vertex.taut_char", "vertex.virtual_tangent_char",
                 "chern.verify_higher_tp", "chern.segre", "chern.thom_porteous",
                 "chern.twist_by_line"):
        out[f"{span}.calls"] = calls.get(span, 0)
        out[f"{span}.s"] = span_med(span, "s")
        if span in caches:
            out[f"{span}.hit_ratio"] = _ratio(*caches[span][:2])
    prefix = "harness.scenario_s."
    for name in declared:
        if name.startswith(prefix):
            label = name[len(prefix):]
            out[name] = median(p.scenario_s.get(label, 0.0) for p in untraced)
    return out


# --------------------------------------------------------------------------
# main
# --------------------------------------------------------------------------


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version()}


def _spread(values: list[float]) -> str:
    return f"n={len(values)} min={min(values):.4g} max={max(values):.4g}"


def run(args, declared: dict) -> dict:
    workload = WORKLOADS[args.workload]
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    deadline = time.monotonic() + args.seconds
    warm_up()

    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH)
    passes: list[Pass] = []
    try:
        # --trace 1 alternates untraced and traced passes, at least one of each
        modes = [False, True] if args.trace else [False]
        while True:
            round_start = time.monotonic()
            for traced in modes:
                passes.append(run_pass(workload, args.seed, reference, traced, workdir))
            if 2 * time.monotonic() - round_start > deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    untraced = [p for p in passes if p.ok and p.trace is None]
    traced = [p for p in passes if p.ok and p.trace is not None]
    if not untraced or (args.trace and not traced):
        raise BenchError("no pass completed: " + "; ".join(failures[:3]))

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} jobs={workload.jobs} (traced passes use jobs=1)")
    print("# context " + json.dumps(dict(machine(), seed=args.seed, workload=args.workload,
                                         jobs=workload.jobs, trace=args.trace)))
    print(f"# passes: {len(untraced)} untraced, {len(traced)} traced; "
          f"scenario runs {attempted}, failed {len(failures)}, "
          f"failed_ratio {len(failures) / attempted:.4g}")
    for failure in failures:
        print(f"# FAILED {failure}")
    print(f"# measured (not reference) seconds: wall_s {_spread([p.wall_s for p in untraced])} "
          f"median={median(p.wall_s for p in untraced):.4g}; "
          f"setup_s {_spread([p.setup_s for p in untraced])} "
          f"median={median(p.setup_s for p in untraced):.4g}")
    print(f"# calibration loop {_spread([p.calibration_s for p in untraced])} "
          f"median={median(p.calibration_s for p in untraced):.4g} s; "
          f"reference {CALIBRATION_REFERENCE_S} s")

    if args.trace:
        check_trace(args.workload, workload, traced)
        metrics = per_layer(untraced, traced, declared)
        traced_wall = median(p.wall_s for p in traced)
        print(f"# traced wall_s {traced_wall:.4g} against untraced "
              f"{median(p.wall_s for p in untraced):.4g}; spans per pass "
              f"{traced[0].trace['n_spans']}; work counts identical across "
              f"{len(traced)} traced pass(es)")
        layers: dict[str, float] = {}
        for span, row in traced[0].trace["spans"].items():
            layer = span.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + row["self_s"]
        total = sum(layers.values())
        print("# self time by layer (first traced pass): " + ", ".join(
            f"{k} {v:.3f} s ({v / total:.1%})" for k, v in sorted(layers.items(), key=lambda kv: -kv[1])))
        for snap in traced[0].trace["snapshots"]:
            print(f"# cache hit ratios after {snap['label']}: " + ", ".join(
                f"{k} {_ratio(*v[:2]):.3f}" for k, v in snap["caches"].items()))
    else:
        metrics = end_to_end(untraced)
    if set(metrics) != set(declared):
        raise BenchError(f"computed metrics {sorted(set(metrics) ^ set(declared))} "
                         "disagree with BENCHMARK.json")
    for name, unit in declared.items():
        print(f"{name:44} {metrics[name]:>14.6g} {unit}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "nestloc" / "cli.py").is_file():
        print(f"no nestloc sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    declared = {m["name"]: m["unit"] for m in section}
    try:
        result = run(args, declared)
    except (BenchError, spans.TraceError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
