"""Command-line harness: `nestloc <scenario> [options]`.

Exit codes: 0 all cases pass; 1 mathematical failure (an identity was
violated or a math error was diagnosed); 2 configuration error; 3
internal error.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import replace

from . import __version__
from .errors import ConfigError, NestlocError
from .harness import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    DEFAULT_TRUNCATION,
    SCENARIO_KINDS,
    Scenario,
    default_battery_scenarios,
    emit_report,
    parse_config,
    run_scenario,
    validate_scenario,
)
from .toric import SURFACES


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--surface", choices=tuple(SURFACES), default="p2")
    parser.add_argument("--n", default="", help="comma-separated sizes, e.g. 2,1")
    parser.add_argument("--i", default="1", help="vanishing index: int, comma list, or a..b")
    parser.add_argument("--bundles", default="", help="comma-separated twist labels")
    # no argparse defaults: a flag that is given overrides the scenario's value
    parser.add_argument(
        "--samples", type=int, help=f"number of weight specs (default {DEFAULT_SAMPLES})"
    )
    parser.add_argument("--seed", type=int, help=f"sampling seed (default {DEFAULT_SEED})")
    parser.add_argument(
        "--truncation", type=int, help=f"symbolic ring truncation (default {DEFAULT_TRUNCATION})"
    )
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", default="", help="write the report here instead of stdout")
    parser.add_argument("--format", choices=("json", "text"), default="text")
    parser.add_argument(
        "--insertions", default="auto", help="'auto' or 'file:<path>' with explicit monomials"
    )
    parser.add_argument(
        "--spec",
        action="append",
        default=[],
        metavar="S1,S2",
        help="explicit weight spec (repeatable); disables sampling",
    )
    parser.add_argument(
        "--stable",
        action="store_true",
        help="zero wall-clock fields for byte-reproducible reports",
    )


def _parse_sizes(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"malformed sizes {text!r}; expected e.g. 2,1") from None


def _parse_i_values(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return (1,)
    try:
        if ".." in text:
            lo, hi = text.split("..")
            return tuple(range(int(lo), int(hi) + 1))
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"malformed i values {text!r}; expected 1, 1,2 or 1..2") from None


def _scenario_from_args(kind: str, args: argparse.Namespace) -> Scenario:
    return Scenario(
        kind=kind,
        surface=args.surface,
        sizes=_parse_sizes(args.n),
        i_values=_parse_i_values(args.i),
        # labels such as O(1,0) hold commas: split only outside parentheses
        bundles=tuple(b for b in re.split(r",(?![^()]*\))", args.bundles) if b),
        insertions=args.insertions,
        specs=tuple(args.spec),
    )


def _apply_overrides(scenario: Scenario, args: argparse.Namespace) -> Scenario:
    """`--seed`, `--samples` and `--truncation`, when given, override the
    scenario's own values (its defaults, the battery's or a config file's)."""
    updates = {
        name: getattr(args, name)
        for name in ("seed", "samples", "truncation")
        if getattr(args, name) is not None
    }
    return validate_scenario(replace(scenario, **updates))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nestloc",
        description="exact localization checks for nested Hilbert scheme identities",
    )
    parser.add_argument("--version", action="version", version=f"nestloc {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for kind in SCENARIO_KINDS:
        sub = subparsers.add_parser(kind, help=f"run the {kind} suite")
        _add_common_flags(sub)
    all_parser = subparsers.add_parser("all", help="run the default battery or a config file")
    _add_common_flags(all_parser)
    all_parser.add_argument("--config", default="", help="JSON config with a scenario list")
    return parser


def _run(args: argparse.Namespace) -> int:
    if args.command != "all":
        scenarios = [_scenario_from_args(args.command, args)]
    elif args.config:
        scenarios = parse_config(args.config)
    else:
        scenarios = default_battery_scenarios()
    scenarios = [_apply_overrides(s, args) for s in scenarios]

    reports = [run_scenario(s, jobs=args.jobs) for s in scenarios]
    if len(reports) == 1:
        rendered = emit_report(reports[0], fmt=args.format, path=args.out or None, stable=args.stable)
    else:
        chunks = [emit_report(r, fmt=args.format, path=None, stable=args.stable) for r in reports]
        rendered = "".join(chunks)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered)
    if not args.out:
        sys.stdout.write(rendered)
    else:
        failed = sum(1 for r in reports if r["verdict"] != "pass")
        sys.stdout.write(
            f"wrote {len(reports)} report(s) to {args.out}; "
            f"{'all pass' if not failed else f'{failed} failed'}\n"
        )
    return 0 if all(r["verdict"] == "pass" for r in reports) else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage and 0 on --help/--version
        return int(exc.code or 0)
    try:
        return _run(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NestlocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
