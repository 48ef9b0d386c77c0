"""Record bench/reference.json: digests of every scenario's --stable report.

Usage, from the root of a checkout: python3 bench/record_reference.py

Runs every workload once, serially (--jobs 1), at the pinned seed, in a
fresh interpreter per workload, and stores for each scenario the sha256 of
the exact report bytes and of the seed-independent normalized report (see
run.normalized_digest). Re-record only when a change is meant to alter
reports; the timed runs compare against this file.
"""

import hashlib
import json
import sys

import run


def main() -> int:
    scenarios = {}
    for name, workload in run.WORKLOADS.items():
        _, records, stderr = run.spawn({"scenarios": run.scenario_argv(workload, run.PINNED_SEED, 1)})
        for record in (r for r in records if "label" in r):
            docs = run.report_documents(record["text"])
            if record["exit"] != 0 or any(doc["verdict"] != "pass" for doc in docs):
                print(f"{name}/{record['label']} did not pass; not recording", file=sys.stderr)
                return 1
            scenarios[record["label"]] = {
                "stable": hashlib.sha256(record["text"].encode()).hexdigest(),
                "normalized": run.normalized_digest(docs),
            }
        if len([r for r in records if "label" in r]) != len(workload.scenarios):
            print(f"{name} did not complete: {stderr.strip()}", file=sys.stderr)
            return 1
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"seed": run.PINNED_SEED, "jobs": 1, "scenarios": scenarios}, fh, indent=2)
        fh.write("\n")
    print(f"wrote {len(scenarios)} digests to {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
