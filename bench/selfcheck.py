"""Self-check of the benchmark (about a minute on two cores).

Usage, from the root of a checkout: python3 bench/selfcheck.py

1. Each workload once untraced and once traced: the last line is the result
   object, `correct` is true, and the metrics are exactly those declared
   in BENCHMARK.json, each with its declared unit.
2. In a copy of bench/ whose reference.json has one corrupted digest (with
   src/ linked in), the battery run counts a failed scenario run.
3. In a directory holding only BENCHMARK.json and bench/, the benchmark
   exits non-zero without printing a result.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run


def bench(*args, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--seed", "1729", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def bench_tree(root: Path) -> Path:
    """A copy of BENCHMARK.json and bench/ under `root`, with nothing else."""
    shutil.copytree(run.BENCH, root / "bench", ignore=shutil.ignore_patterns(".work-*", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", root)
    return root


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr.strip()[-600:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    return result


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in spec["workloads"]:
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            result = result_of(bench("--workload", workload["name"], "--trace", trace))
            declared = {m["name"]: m["unit"] for m in spec[section]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            assert printed == declared, f"{workload['name']} trace {trace}: {printed}"
            assert result["correct"] and result["failed"] == 0, result
            print(f"ok   {workload['name']} --trace {trace}: {len(printed)} metrics")

    workdir = Path(tempfile.mkdtemp(prefix=".work-selfcheck-", dir=run.BENCH))
    try:
        corrupted = bench_tree(workdir / "corrupted")
        (corrupted / "src").symlink_to(run.SRC, target_is_directory=True)
        reference_path = corrupted / "bench" / "reference.json"
        reference = json.loads(reference_path.read_text(encoding="utf-8"))
        digest = reference["scenarios"]["hrr-check-p2"]["stable"]
        reference["scenarios"]["hrr-check-p2"]["stable"] = digest[::-1]
        reference_path.write_text(json.dumps(reference), encoding="utf-8")
        result = result_of(bench("--workload", "battery", "--trace", "0", cwd=corrupted))
        assert not result["correct"] and result["failed"] >= 1, result
        print(f"ok   corrupted digest counted: failed {result['failed']} of {result['attempted']}")

        bare = bench_tree(workdir / "bare")
        proc = bench("--workload", "battery", "--trace", "0", cwd=bare)
        assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc
        print(f"ok   without src/: exit {proc.returncode}, no result")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
