"""Command line entry point.

    orchestrion run <scenario.json> [--seed N] [--out DIR]
    orchestrion run --builtin exp1_mem [--seed N] [--out DIR]
    orchestrion list-scenarios

Exit status 0 when every expectation in the scenario holds, 2 otherwise.
"""
from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .builtins import BUILTIN_SCENARIOS, builtin_scenario
from .scenario import ScenarioError, run_scenario


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="orchestrion", description=__doc__)
    parser.add_argument("--verbose", action="store_true", help="enable debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario")
    run_p.add_argument("scenario", nargs="?", help="path to a scenario JSON file")
    run_p.add_argument("--builtin", help="name of a built-in scenario")
    run_p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run_p.add_argument("--out", default=None, help="directory for traces and reports")

    sub.add_parser("list-scenarios", help="list built-in scenarios")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING, format="%(name)s: %(message)s")

    if args.command == "list-scenarios":
        for name in sorted(BUILTIN_SCENARIOS):
            scenario = builtin_scenario(name)
            print(f"{name:14s} devices={len(scenario['devices'])} duration={scenario['duration_s']}s")
        return 0

    if bool(args.scenario) == bool(args.builtin):
        print("run needs exactly one of: a scenario file, or --builtin NAME", file=sys.stderr)
        return 2
    try:
        if args.builtin:
            try:
                scenario = builtin_scenario(args.builtin)
            except KeyError as exc:  # an unknown name
                raise ScenarioError(exc.args[0]) from None
        else:
            scenario = json.loads(Path(args.scenario).read_text(encoding="utf-8"))
        report = run_scenario(scenario, seed=args.seed)
    except (ScenarioError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for result in report.expectation_results:
        status = "PASS" if result["passed"] else "FAIL"
        print(f"[{status}] {result['name']}: {result['detail']}")
    if not report.expectation_results:
        print("(scenario defines no expectations)")

    if args.out:
        try:
            paths = report.write(args.out)
        except OSError as exc:
            print(f"error: cannot write the report: {exc}", file=sys.stderr)
            return 2
        print(f"report written: {paths['summary']}")
    return 0 if report.passed else 2


if __name__ == "__main__":
    sys.exit(main())
