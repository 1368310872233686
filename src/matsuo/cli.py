"""Command-line harness: build algebras as JSON, run claim verifications,
scan basis idempotents for the fusion rules.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage or input error.
"""

import argparse
import functools
import json
import sys

from .fields import field_from_name, scalar_from_string
from .algebra import algebra_from_json, algebra_to_json
from . import claims
from . import constructions as cons


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a usage error as one line on stderr,
    without the usage block, and exits with code 2."""

    def error(self, message):
        self.exit(2, "error: %s\n" % message)


@functools.cache
def _build_parser():
    """The command-line parser, built once per process on first use: parsing
    keeps no state in it, so every call of ``main`` can share it."""
    parser = _Parser(
        prog="matsuo",
        description="exact workbench for Matsuo algebras and their Jordan forms",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    b = sub.add_parser("build", help="emit an algebra table as JSON")
    b.add_argument("--space", help="named triple system: P3 or P2dual")
    b.add_argument("--group", help="group: sym:N, 3sq2, W2A3, W3A3")
    b.add_argument("--roots", help="root system: A4, D5, E6, ...")
    b.add_argument("--alpha", default="1/2", help="Matsuo parameter (default 1/2)")
    b.add_argument("--field", default="Q", help="Q or F<p> (default Q)")

    v = sub.add_parser("verify", help="run one claim (or all) and report")
    v.add_argument("claim", nargs="?", help="claim id; see --list")
    v.add_argument("--all", action="store_true", help="run every claim")
    v.add_argument("--list", action="store_true", help="list claim ids")
    v.add_argument("--n", type=int,
                   help="size parameter; only sym-zero-sum takes one")
    v.add_argument("--field", help="restrict to one field (Q or F<p>); the "
                   "rank4-* and embed-* claims take none, and --all runs the "
                   "claims that do not admit the field without it")
    v.add_argument("--mask-runtime", action="store_true",
                   help="print 'masked' instead of the runtime")

    a = sub.add_parser("axes", help="axis verdicts for every basis idempotent")
    a.add_argument("path", help="algebra JSON file, or - for standard input")
    a.add_argument("--alpha", default="1/2", help="fusion parameter (default 1/2)")
    return parser


def _cmd_build(args):
    field = field_from_name(args.field)
    space = cons.triple_system_from_cli(args.space, args.group, args.roots)
    alpha = scalar_from_string(field, args.alpha)
    table = cons.matsuo_algebra(space, alpha, field)
    sys.stdout.write(algebra_to_json(table))
    return 0


def _cmd_verify(args):
    if args.list:
        sys.stdout.write("\n".join(claims.claim_ids()) + "\n")
        return 0
    if args.all:
        reports = claims.run_all(n=args.n, field_name=args.field)
        payload = [r.to_json_dict(mask_runtime=args.mask_runtime) for r in reports]
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return 0 if all(r.passed for r in reports) else 1
    if not args.claim:
        sys.stderr.write("error: give a claim id or --all"
                         " (see matsuo verify --list)\n")
        return 2
    if args.claim not in claims.CLAIMS:
        sys.stderr.write("error: unknown claim %r (see matsuo verify --list)\n"
                         % args.claim)
        return 2
    report = claims.run_claim(args.claim, n=args.n, field_name=args.field)
    sys.stdout.write(report.to_json(mask_runtime=args.mask_runtime))
    return 0 if report.passed else 1


def _cmd_axes(args):
    if args.path == "-":
        text = sys.stdin.read()
    else:
        with open(args.path, "r", encoding="utf-8") as fh:
            text = fh.read()
    table = algebra_from_json(text)
    alpha = scalar_from_string(table.field, args.alpha)
    report = claims.axes_report(table, alpha)
    sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0 if report["all_axes"] else 1


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "build":
            return _cmd_build(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "axes":
            return _cmd_axes(args)
    # AlgebraError, GeometryError and GroupError all subclass ValueError.
    except (ValueError, ZeroDivisionError, OSError) as err:
        sys.stderr.write("error: %s\n" % err)
        return 2
    parser.error("unknown command")


if __name__ == "__main__":
    sys.exit(main())
