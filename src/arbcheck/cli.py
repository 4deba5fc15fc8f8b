"""Command-line front end.

Exit codes form the scripting contract: 0 the checked property holds or
the artifact was produced, 1 the property fails in the expected way,
2 bad input, 3 internal inconsistency (the alarm that must never fire).
--json output contains no timestamps and is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from .emm import build_emm
from .errors import GeometryError, InputError, InternalError
from .rationals import format_rational
from .tree import ScenarioTree, tree_from_json, tree_to_json, validate
from .verify import (
    TreeParams,
    certificate_to_json,
    construction_to_json,
    equivalence_report,
    find_arbitrage,
    random_tree,
    report_to_json,
    scaled_gain_optimum,
    strategy_to_json,
)

EXIT_OK = 0
EXIT_PROPERTY_FALSE = 1
EXIT_INPUT = 2
EXIT_ALARM = 3


def _load_tree(path: str) -> ScenarioTree:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"{path} is not UTF-8 text: {exc}") from exc
    return tree_from_json(text)


# Each file command maps a tree to (exit code, --json payload, text lines).
# The text is rendered from the payload's strings, so a number past the
# digit limit fails before anything is printed, whatever the output mode.


def _vector(coords: list) -> str:
    return f"({', '.join(coords)})"


def _cmd_validate(tree: ScenarioTree):
    violations = validate(tree)
    payload = {
        "valid": not violations,
        "violations": [
            {"node": v.node, "rule": v.rule, "detail": v.detail} for v in violations
        ],
    }
    lines = [str(v) for v in violations] or ["valid"]
    return (EXIT_PROPERTY_FALSE if violations else EXIT_OK), payload, lines


def _cmd_check(tree: ScenarioTree):
    started = time.monotonic()
    report = equivalence_report(tree)
    elapsed = time.monotonic() - started
    payload = report_to_json(report)
    witnesses = payload["witnesses"]
    yn = {True: "yes", False: "no"}
    lines = [
        "no-arbitrage verdicts: "
        f"strategy-LP={yn[payload['verdict_na_strategy']]} "
        f"geometry={yn[payload['verdict_geometry']]} "
        f"martingale-construction={yn[payload['verdict_emm']]}"
    ]
    for nid, coords in (witnesses["arbitrage"] or {}).items():
        lines.append(f"arbitrage strategy at node {nid}: {_vector(coords)}")
    if witnesses["bound"] is not None:
        lines.append(f"martingale density bound: {witnesses['bound']}")
    lines.append(f"consistent: {yn[payload['consistent']]}  ({elapsed:.3f}s)")
    if not report.consistent:
        code = EXIT_ALARM
    else:
        code = EXIT_OK if report.verdict_na_strategy else EXIT_PROPERTY_FALSE
    return code, payload, lines


def _cmd_find_arbitrage(tree: ScenarioTree):
    strategy = find_arbitrage(tree)
    if strategy is None:
        return EXIT_PROPERTY_FALSE, {"arbitrage": None}, ["no arbitrage"]
    payload = {"arbitrage": strategy_to_json(strategy)}
    lines = [f"node {nid}: {_vector(coords)}"
             for nid, coords in payload["arbitrage"].items()]
    return EXIT_OK, payload, lines


def _cmd_build_emm(tree: ScenarioTree):
    try:
        construction = build_emm(tree)
    except GeometryError as exc:
        payload = certificate_to_json(exc.node, exc.certificate)
        return EXIT_PROPERTY_FALSE, payload, [
            f"node {payload['node']}: origin not in relative interior; "
            f"separating direction {_vector(payload['direction'])}"
        ]
    payload = construction_to_json(construction)
    lines = [f"leaf {leaf}: {z}" for leaf, z in payload["leaf_density"].items()]
    lines.append(f"bound: {payload['bound']}")
    return EXIT_OK, payload, lines


def _cmd_beta(tree: ScenarioTree):
    try:
        value = scaled_gain_optimum(tree)
    except GeometryError as exc:
        payload = certificate_to_json(exc.node, exc.certificate)
        return EXIT_PROPERTY_FALSE, payload, [
            f"undefined: origin not in relative interior at node {payload['node']}"
        ]
    payload = {"beta": format_rational(value)}
    return EXIT_OK, payload, [f"beta = {payload['beta']}"]


def _cmd_gen(args) -> int:
    params = TreeParams(
        assets=args.assets,
        steps=args.steps,
        max_branching=args.branching,
        value_range=(args.range[0], args.range[1]),
        max_denominator=args.max_denominator,
        mode=args.mode,
    )
    tree = random_tree(params, args.seed)
    payload = tree_to_json(tree)
    if not args.json and not args.quiet:
        print(f"seed = {args.seed}", file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        if not args.json and not args.quiet:
            print(f"wrote {args.out}")
    elif args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--quiet", "-q", action="store_true", help="suppress chatter")

    parser = argparse.ArgumentParser(
        prog="arbcheck",
        description="Exact no-arbitrage checks for scenario-tree market models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, handler, help_text in (
        ("validate", _cmd_validate, "check tree invariants"),
        ("check", _cmd_check, "three-route equivalence check"),
        ("find-arbitrage", _cmd_find_arbitrage, "search for an arbitrage strategy"),
        ("build-emm", _cmd_build_emm, "construct an equivalent martingale density"),
        ("beta", _cmd_beta, "budgeted scaled-gain optimum (at most 1)"),
    ):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("file")
        p.set_defaults(handler=handler)

    p = sub.add_parser("gen", parents=[common], help="generate a random tree")
    p.add_argument("--assets", "-d", type=int, default=1)
    p.add_argument("--steps", "-n", type=int, default=1)
    p.add_argument("--branching", type=int, default=2)
    p.add_argument(
        "--mode", choices=["generic", "martingale_perturbed"], default="generic"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--range", nargs=2, type=int, default=(-8, 8), metavar=("LO", "HI")
    )
    p.add_argument("--max-denominator", type=int, default=16)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_gen)
    return parser


def main(argv: Optional[list] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        code, payload, lines = args.handler(_load_tree(args.file))
        if args.json:
            print(json.dumps(payload, sort_keys=True))
        elif not args.quiet:
            print("\n".join(lines))
        if code == EXIT_ALARM:  # check's routes disagree; failed re-checks raise
            print("ALARM: the three routes disagree", file=sys.stderr)
        return code
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalError as exc:
        print(f"ALARM (exact self-verification failed): {exc}", file=sys.stderr)
        return EXIT_ALARM


if __name__ == "__main__":
    sys.exit(main())
