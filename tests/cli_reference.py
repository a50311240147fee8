"""The CLI's argument parser as it was built in one piece, kept for the tests.

`build_parser` constructs the top-level parser with all nine subcommands,
as `smsquiver.cli.main` did before it built only the parser of the
command asked for.  `tests/test_cli.py` compares help, usage, parsed
namespaces and error output of the two.
"""

from __future__ import annotations

import argparse

from smsquiver.cli import (
    _algebra_arg,
    _criteria_arg,
    _positive_int_arg,
    _type_arg,
    cmd_brauer,
    cmd_check,
    cmd_classify,
    cmd_enumerate,
    cmd_hom,
    cmd_mutate,
    cmd_orbits,
    cmd_quiver,
    cmd_sms,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smsquiver",
        description="simple-minded systems of representation-finite "
        "self-injective algebras, two ways",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    formatted = argparse.ArgumentParser(add_help=False)
    formatted.add_argument("--format", choices=("tsv", "json"), default="tsv")

    p = sub.add_parser("classify", help="validate and describe an RFS type", parents=[formatted])
    p.add_argument("type", type=_type_arg, help="type string, e.g. A:5/f=1/t=2")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("hom", help="stable hom dimension table of a quotient", parents=[formatted])
    p.add_argument("--type", type=_type_arg, required=True)
    p.set_defaults(fn=cmd_hom)

    p = sub.add_parser("enumerate", help="list all configurations", parents=[formatted])
    p.add_argument("--type", type=_type_arg, required=True)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser(
        "orbits", help="configuration orbits under automorphisms", parents=[formatted]
    )
    p.add_argument("--type", type=_type_arg, required=True)
    p.set_defaults(fn=cmd_orbits)

    p = sub.add_parser("brauer", help="count Brauer trees", parents=[formatted])
    p.add_argument("--edges", type=_positive_int_arg, required=True)
    p.add_argument("--multiplicity", type=_positive_int_arg, default=1)
    p.add_argument(
        "--marked-extremal",
        action="store_true",
        help="count multiplicity-one trees with a chosen extremal vertex",
    )
    p.set_defaults(fn=cmd_brauer)

    p = sub.add_parser("sms", help="list all simple-minded systems", parents=[formatted])
    p.add_argument("--algebra", type=_algebra_arg, required=True, help="nakayama:e:L")
    p.add_argument("--bound", type=_positive_int_arg, default=24)
    p.set_defaults(fn=cmd_sms)

    p = sub.add_parser(
        "mutate", help="mutate a system at a Nakayama-stable subset", parents=[formatted]
    )
    p.add_argument("--algebra", type=_algebra_arg, required=True)
    p.add_argument("--sms", required=True, help="`simples` or top:length pairs")
    p.add_argument("--at", required=True, help="tops or top:length pairs")
    p.add_argument("--dir", choices=("left", "right"), default="left")
    p.add_argument("--allow-composite", action="store_true")
    p.set_defaults(fn=cmd_mutate)

    p = sub.add_parser("quiver", help="mutation quiver by BFS")
    p.add_argument("--algebra", type=_algebra_arg, required=True)
    p.add_argument("--start", default="simples")
    p.add_argument("--dir", choices=("left", "right", "both"), default="left")
    p.add_argument("--allow-composite", action="store_true")
    p.add_argument("--bound", type=_positive_int_arg, default=24)
    p.add_argument("--out", choices=("dot", "json"), default="dot")
    p.set_defaults(fn=cmd_quiver)

    p = sub.add_parser("check", help="run the acceptance suite")
    p.add_argument("--only", type=_criteria_arg, help="comma-separated criterion numbers")
    p.set_defaults(fn=cmd_check)

    return parser
