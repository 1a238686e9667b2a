"""Command line front end: run scenarios, list and describe the bundled ones.

Exit codes: 0 all verdicts pass, 1 input or resource error, 2 some verdict
failed or was violated.
"""

from __future__ import annotations

import argparse
import sys

from . import config as cfg
from . import runner
from .errors import (DegenerateDomainError, RejectedInputError,
                     ResourceLimitError, SingularPointError)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affineframes",
        description="Scenario-driven verification of frame-bound inequalities, "
                    "lattice counting bounds, and expansiveness classifications.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario (bundled name or JSON path)")
    run_p.add_argument("scenario", help="bundled scenario name or path to a JSON file")
    run_p.add_argument("--out", default="out", help="output directory (default: ./out)")
    run_p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="override a scenario knob by dotted path, repeatable")

    sub.add_parser("list", help="list the bundled scenarios")

    desc_p = sub.add_parser("describe", help="print a scenario with resolved defaults")
    desc_p.add_argument("scenario", help="bundled scenario name or path to a JSON file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            for name in runner.bundled_scenario_names():
                scenario = runner.load_bundled_scenario(name)
                print(f"{name}: {scenario.get('description', '')}")
            return 0
        if args.command == "describe":
            scenario = runner.resolve_scenario_argument(args.scenario)
            print(cfg.serialize_scenario(scenario), end="")
            return 0
        scenario = runner.resolve_scenario_argument(args.scenario)
        if args.overrides:
            scenario = cfg.apply_overrides(scenario, args.overrides)
        code, report = runner.run_scenario(scenario, args.out)
        for entry in report["analyses"]:
            print(f"[{'PASS' if entry['passed'] else 'FAIL'}] {entry['kind']}")
        print(f"report written to {args.out}/report.json")
        return code
    except (cfg.ScenarioParseError, RejectedInputError, ResourceLimitError,
            DegenerateDomainError, SingularPointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
