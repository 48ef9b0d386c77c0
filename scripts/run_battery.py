#!/usr/bin/env python3
"""Run the default verification battery and write one JSON report per scenario.

Usage: python scripts/run_battery.py [outdir] [--seed N] [--jobs K]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from nestloc.harness import default_battery_scenarios, emit_report, run_scenario


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("outdir", nargs="?", default="reports")
    parser.add_argument("--seed", type=int, help="sampling seed of every scenario")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    os.makedirs(args.outdir, exist_ok=True)
    failures = 0
    for index, scenario in enumerate(default_battery_scenarios()):
        if args.seed is not None:
            scenario = scenario.replace(seed=args.seed)
        report = run_scenario(scenario, jobs=args.jobs)
        name = f"{index:02d}_{scenario.kind}_{scenario.surface}.json"
        with open(os.path.join(args.outdir, name), "w", encoding="utf-8") as fh:
            fh.write(emit_report(report, fmt="json"))
        status = report["verdict"]
        failures += status != "pass"
        print(f"{name}: {status} ({len(report['cases'])} cases, {report['elapsed_ms']} ms)")
    print("battery:", "pass" if not failures else f"{failures} scenario(s) failed")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
