"""Command-line harness: `nestloc KIND [flags]`.

Exit codes: 0 all cases pass; 1 mathematical failure (an identity was
violated or a math error was diagnosed); 2 configuration error, or a
report that could not be written; 3 internal error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from . import __version__
from .errors import ConfigError, NestlocError
from .harness import (
    DEFAULT_SCENARIO,
    ENTRY_KEYS,
    REPORT_FORMATS,
    SCENARIO_KINDS,
    SHARED_KEYS,
    Scenario,
    emit_report,
    parse_config,
    run_scenario,
    scenario_from_entry,
)
from .toric import SURFACES


def _sizes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed sizes {text!r}; expected e.g. 2,1") from None


def _i_values(text: str) -> tuple[int, ...]:
    try:
        if ".." in text:
            lo, hi = text.split("..")
            return tuple(range(int(lo), int(hi) + 1))
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"malformed i values {text!r}; expected 1, 1,2 or 1..2"
        ) from None


def _bundle_labels(text: str) -> tuple[str, ...]:
    # labels such as O(1,0) hold commas: split only outside parentheses
    labels = tuple(b for b in re.split(r",(?![^()]*\))", text) if b)
    if not labels:
        raise argparse.ArgumentTypeError(f"no bundle labels in {text!r}; expected e.g. O(1),O(2)")
    return labels


def build_parser() -> argparse.ArgumentParser:
    """One flat parser: the kind is a positional, every kind takes the same
    flags, and what a kind reads is checked by `scenario_from_entry`."""
    parser = argparse.ArgumentParser(
        prog="nestloc",
        usage="%(prog)s KIND [flags]",
        description="exact localization checks for nested Hilbert scheme identities",
    )
    parser.add_argument("--version", action="version", version=f"nestloc {__version__}")
    parser.add_argument(
        "command",
        choices=(*SCENARIO_KINDS, "all"),
        metavar="KIND",
        help=f"one of {', '.join(SCENARIO_KINDS)}; or all, the default battery or --config's",
    )
    # scenario flags have no argparse defaults: only the flags given reach
    # the scenario entry, and Scenario fills in the rest
    parser.add_argument("--surface", choices=tuple(SURFACES))
    parser.add_argument("--n", type=_sizes, help="comma-separated sizes, e.g. 2,1")
    parser.add_argument("--i", type=_i_values, help="vanishing index: int, comma list, or a..b")
    parser.add_argument("--bundles", type=_bundle_labels, help="comma-separated twist labels")
    parser.add_argument(
        "--samples", type=int, help=f"number of weight specs (default {DEFAULT_SCENARIO.samples})"
    )
    parser.add_argument("--seed", type=int, help=f"sampling seed (default {DEFAULT_SCENARIO.seed})")
    parser.add_argument(
        "--truncation",
        type=int,
        help=f"symbolic ring truncation (default {DEFAULT_SCENARIO.truncation})",
    )
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", default="", help="write the report here instead of stdout")
    parser.add_argument("--format", choices=tuple(REPORT_FORMATS), default="text")
    parser.add_argument("--insertions", help="'auto' or 'file:<path>' with explicit monomials")
    parser.add_argument(
        "--spec",
        dest="specs",
        action="append",
        metavar="S1,S2",
        help="explicit weight spec (repeatable); disables sampling",
    )
    parser.add_argument(
        "--stable",
        action="store_true",
        help="zero wall-clock fields for byte-reproducible reports",
    )
    parser.add_argument("--config", help="all only: JSON config with a scenario list")
    return parser


def _scenarios(args: argparse.Namespace) -> list[Scenario]:
    """The validated scenarios `args` names; every input, `--jobs` too, is
    checked here, before a report or an `--out` file is written."""
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    flags = {key: getattr(args, key) for key in ENTRY_KEYS if key != "kind"}
    given = {key: value for key, value in flags.items() if value is not None}
    if args.command != "all":
        return [scenario_from_entry({"kind": args.command, **given})]
    others = [ENTRY_KEYS[key][2] for key in given if key not in SHARED_KEYS]
    if others:
        raise ConfigError(
            f"all takes no {', '.join(others)}; of the scenario flags it takes only "
            f"{', '.join(ENTRY_KEYS[key][2] for key in SHARED_KEYS)}"
        )
    # the curated battery without --config
    return parse_config(args.config, given)


class _WriteError(Exception):
    """A report, or the line that names its file, could not be written."""


def _write(out, write) -> None:
    """Call `write`, which writes to `out`, and flush `out`; on an OSError point
    `out` at os.devnull, so its close or the exit's flush cannot fail again."""
    try:
        write()
        out.flush()
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)
        raise _WriteError(exc) from None


def _write_reports(scenarios: list[Scenario], args: argparse.Namespace, out) -> list[str]:
    """Run each scenario and write its report to `out` as soon as it
    finishes; keep only the verdicts."""
    verdicts = []
    for s in scenarios:
        report = run_scenario(s, jobs=args.jobs)
        _write(out, lambda: emit_report(report, args.format, args.stable, out=out))
        verdicts.append(report["verdict"])
    return verdicts


def _run(args: argparse.Namespace) -> int:
    scenarios = _scenarios(args)
    if not args.out:
        verdicts = _write_reports(scenarios, args, sys.stdout)
    else:
        try:
            fh = open(args.out, "w", encoding="utf-8")
        except OSError as exc:
            raise ConfigError(str(exc)) from None
        with fh:
            verdicts = _write_reports(scenarios, args, fh)
        failed = sum(1 for v in verdicts if v != "pass")
        _write(sys.stdout, lambda: sys.stdout.write(
            f"wrote {len(verdicts)} report(s) to {args.out}; "
            f"{'all pass' if not failed else f'{failed} failed'}\n"
        ))
    return 0 if all(v == "pass" for v in verdicts) else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None and args.command != "all":
            parser.error(f"argument --config: only all reads a config, not {args.command}")
    except SystemExit as exc:
        # argparse exits 2 on bad usage and 0 on --help/--version
        return int(exc.code or 0)
    try:
        return _run(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except _WriteError as exc:
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return 2
    except NestlocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
