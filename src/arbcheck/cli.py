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


def _print_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True))


def _load_tree(path: str) -> ScenarioTree:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"{path} is not UTF-8 text: {exc}") from exc
    return tree_from_json(text)


def _cmd_validate(args) -> int:
    tree = _load_tree(args.file)
    violations = validate(tree)
    if args.json:
        _print_json(
            {
                "valid": not violations,
                "violations": [
                    {"node": v.node, "rule": v.rule, "detail": v.detail}
                    for v in violations
                ],
            }
        )
    elif not args.quiet:
        if violations:
            for v in violations:
                print(str(v))
        else:
            print("valid")
    return EXIT_PROPERTY_FALSE if violations else EXIT_OK


def _cmd_check(args) -> int:
    tree = _load_tree(args.file)
    started = time.monotonic()
    report = equivalence_report(tree)
    elapsed = time.monotonic() - started
    if args.json:
        _print_json(report_to_json(report))
    elif not args.quiet:
        yn = {True: "yes", False: "no"}
        print(
            "no-arbitrage verdicts: "
            f"strategy-LP={yn[report.verdict_na_strategy]} "
            f"geometry={yn[report.verdict_geometry]} "
            f"martingale-construction={yn[report.verdict_emm]}"
        )
        if report.arbitrage is not None:
            for nid, vec in sorted(report.arbitrage.items()):
                coeffs = ", ".join(format_rational(c) for c in vec)
                print(f"arbitrage strategy at node {nid}: ({coeffs})")
        if report.construction is not None:
            print(f"martingale density bound: {format_rational(report.construction.bound)}")
        print(f"consistent: {yn[report.consistent]}  ({elapsed:.3f}s)")
    if not report.consistent:
        print("ALARM: the three routes disagree", file=sys.stderr)
        return EXIT_ALARM
    return EXIT_OK if report.verdict_na_strategy else EXIT_PROPERTY_FALSE


def _cmd_find_arbitrage(args) -> int:
    tree = _load_tree(args.file)
    strategy = find_arbitrage(tree)
    if args.json:
        _print_json(
            {"arbitrage": None if strategy is None else strategy_to_json(strategy)}
        )
    elif not args.quiet:
        if strategy is None:
            print("no arbitrage")
        else:
            for nid, vec in sorted(strategy.items()):
                coeffs = ", ".join(format_rational(c) for c in vec)
                print(f"node {nid}: ({coeffs})")
    return EXIT_OK if strategy is not None else EXIT_PROPERTY_FALSE


def _cmd_build_emm(args) -> int:
    tree = _load_tree(args.file)
    try:
        construction = build_emm(tree)
    except GeometryError as exc:
        if args.json:
            _print_json(certificate_to_json(exc.node, exc.certificate))
        elif not args.quiet:
            direction = ", ".join(
                format_rational(c) for c in exc.certificate.direction
            )
            print(f"node {exc.node}: origin not in relative interior; "
                  f"separating direction ({direction})")
        return EXIT_PROPERTY_FALSE
    if args.json:
        _print_json(construction_to_json(construction))
    elif not args.quiet:
        for leaf, z in construction.density.values:
            print(f"leaf {leaf}: {format_rational(z)}")
        print(f"bound: {format_rational(construction.bound)}")
    return EXIT_OK


def _cmd_beta(args) -> int:
    tree = _load_tree(args.file)
    try:
        value = scaled_gain_optimum(tree)
    except GeometryError as exc:
        if args.json:
            _print_json(certificate_to_json(exc.node, exc.certificate))
        elif not args.quiet:
            print(f"undefined: origin not in relative interior at node {exc.node}")
        return EXIT_PROPERTY_FALSE
    if args.json:
        _print_json({"beta": format_rational(value)})
    elif not args.quiet:
        print(f"beta = {format_rational(value)}")
    return EXIT_OK


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
        _print_json(payload)
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

    p = sub.add_parser("validate", parents=[common], help="check tree invariants")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("check", parents=[common], help="three-route equivalence check")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser(
        "find-arbitrage", parents=[common], help="search for an arbitrage strategy"
    )
    p.add_argument("file")
    p.set_defaults(handler=_cmd_find_arbitrage)

    p = sub.add_parser(
        "build-emm", parents=[common], help="construct an equivalent martingale density"
    )
    p.add_argument("file")
    p.set_defaults(handler=_cmd_build_emm)

    p = sub.add_parser(
        "beta", parents=[common], help="budgeted scaled-gain optimum (at most 1)"
    )
    p.add_argument("file")
    p.set_defaults(handler=_cmd_beta)

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
        return args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalError as exc:
        print(f"ALARM (exact self-verification failed): {exc}", file=sys.stderr)
        return EXIT_ALARM


if __name__ == "__main__":
    sys.exit(main())
