"""Command-line interface.

Subcommands: classify, hom, enumerate, orbits, brauer, sms, mutate,
quiver, check, each described once in `COMMANDS`.  An invocation builds
one argument parser, that of the command it names; help and usage errors
go through the parser of the whole CLI, built only for them.  The first
seven commands take `--format tsv|json`.  Each of their `cmd_*`
functions prints nothing: it returns its exit code, a function that
builds its JSON payload and its TSV lines, and `main` alone writes one or
the other, in one write.  The payload is built only for `--format json`,
with the schema number 1 added.  `quiver` prints its DOT or JSON export
(`--out`), and `check` streams one line per criterion.
JSON renders all exact numbers as strings.  Identical invocations produce
byte-identical output.  Errors exit with code 1 and a one-line
`error: <Kind>: <message>` on stderr; bad arguments exit 2, including
`--sms`, `--start` and `--at`, which are parsed against the algebra once
the command runs, and a `brauer --multiplicity` other than 1 given with
`--marked-extremal`.
"""

from __future__ import annotations

import argparse
import json
import sys

from .brauer import count_brauer_trees, count_marked_extremal_trees
from .configs import enumerate_configurations, orbit_decomposition
from .dynkin import (
    InvalidTypeError,
    RfsType,
    admissible_group,
    family_letter,
    has_nonstandard_counterpart,
    is_symmetric_type,
    num_simples,
    parse_type,
    validate_rfs_type,
)
from .meshcat import quotient_hom_table
from .mutation import build_mutation_quiver, nu_orbit_partition
from .nakayama import NakayamaAlgebra, _json_modules, parse_algebra
from .ztquiver import quotient


def _type_arg(text: str) -> RfsType:
    """Parse a type argument; a string that does not parse exits with 2."""
    try:
        return parse_type(text)
    except (InvalidTypeError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _algebra_arg(text: str) -> NakayamaAlgebra:
    """Parse an algebra argument; a string that does not parse exits with 2."""
    try:
        return parse_algebra(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _positive_int_arg(text: str) -> int:
    """Parse a count that must be at least 1, else exit 2."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _criteria_arg(text: str) -> set[int]:
    """Parse `--only`: comma-separated numbers of existing criteria, else exit 2."""
    from .acceptance import CRITERIA

    known = {number for number, *_ in CRITERIA}
    tokens = text.split(",")
    if not all(t.isdecimal() and int(t) in known for t in tokens):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated criterion numbers from {sorted(known)}, got {text!r}"
        )
    return {int(t) for t in tokens}


def _module_arg(algebra: NakayamaAlgebra, token: str, option: str):
    top, _, length = token.partition(":")
    try:
        return algebra.module(int(top), int(length))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"argument {option}: expected top:length with 1 <= length <= {algebra.L}, got {token!r}"
        ) from exc


def _parse_sms(algebra: NakayamaAlgebra, text: str, option: str = "--sms"):
    """Parse a system argument; it needs the algebra, so `main` maps errors to exit 2."""
    if text == "simples":
        return algebra.simples()
    return tuple(sorted(_module_arg(algebra, token, option) for token in text.split(",")))


def _parse_at(algebra: NakayamaAlgebra, system, text: str):
    """Parse `--at` against the system; errors exit 2 like `_parse_sms`."""
    chosen = []
    for token in text.split(","):
        if ":" in token:
            member = _module_arg(algebra, token, "--at")
            if member not in system:
                raise argparse.ArgumentTypeError(f"argument --at: {member} is not in the system")
        else:
            matches = [m for m in system if token.isdecimal() and m.top == int(token)]
            if len(matches) != 1:
                raise argparse.ArgumentTypeError(
                    f"argument --at: top {token} matches {len(matches)} members; use top:length"
                )
            member = matches[0]
        chosen.append(member)
    return tuple(sorted(set(chosen)))


def _algebra(algebra: NakayamaAlgebra) -> dict:
    return {"simples": algebra.e, "loewy_length": algebra.L}


def _config(vertices) -> str:
    """A configuration as TSV: `p,n p,n ...`."""
    return " ".join(f"{p},{n}" for p, n in vertices)


def _render_system(algebra, system):
    mods = " ".join(map(str, system))
    cols = " ".join(algebra.render_factors(m) for m in system)
    return f"{mods}\t{cols}"


def cmd_classify(args):
    t = args.type
    ok, diag = validate_rfs_type(t)
    payload = {"type": t.to_json(), "valid": ok, "diagnostic": diag}
    if not ok:
        return 1, lambda: payload, [f"invalid\t{diag}"]
    r, zeta = admissible_group(t)
    payload.update(
        {
            "family": family_letter(t),
            "simples": num_simples(t),
            "r": r,
            "torsion_order": zeta.order,
            "symmetric": is_symmetric_type(t),
            "nonstandard_counterpart": has_nonstandard_counterpart(t),
        }
    )
    fields = [
        "valid",
        f"family ({payload['family']})",
        f"simples={payload['simples']}",
        f"r={r}",
        f"symmetric={'yes' if payload['symmetric'] else 'no'}",
    ]
    if payload["nonstandard_counterpart"]:
        fields.append("nonstandard-counterpart=yes")
    return 0, lambda: payload, ["\t".join(fields)]


def cmd_hom(args):
    q = quotient(args.type)
    table = quotient_hom_table(q)
    pairs = [(e, f) for e in q.vertices for f in q.vertices]

    def payload():
        return {
            "type": str(q.rfs_type),
            "dims": [[list(e), list(f), table.get((e, f), 0)] for e, f in pairs],
        }

    return 0, payload, (
        f"{e[0]},{e[1]}\t{f[0]},{f[1]}\t{table.get((e, f), 0)}" for e, f in pairs
    )


def cmd_enumerate(args):
    q = quotient(args.type)
    configs = enumerate_configurations(q)

    def payload():
        return {
            "type": str(q.rfs_type),
            "configurations": [[list(v) for v in c] for c in configs],
        }

    return 0, payload, [_config(c) for c in configs]


def cmd_orbits(args):
    q = quotient(args.type)
    orbits = orbit_decomposition(q)

    def payload():
        return {
            "type": str(q.rfs_type),
            "orbits": [
                {"representative": [list(v) for v in o.representative], "size": o.size}
                for o in orbits
            ],
        }

    lines = [f"{len(orbits)} orbits"]
    lines += [f"{i}\tsize={o.size}\t{_config(o.representative)}" for i, o in enumerate(orbits)]
    return 0, payload, lines


def cmd_brauer(args):
    if args.marked_extremal:
        if args.multiplicity != 1:
            raise argparse.ArgumentTypeError(
                f"argument --multiplicity: --marked-extremal counts multiplicity-one trees, "
                f"got {args.multiplicity}"
            )
        count = count_marked_extremal_trees(args.edges)
    else:
        count = count_brauer_trees(args.edges, args.multiplicity)

    def payload():
        return {
            "edges": args.edges,
            "multiplicity": args.multiplicity,
            "marked_extremal": bool(args.marked_extremal),
            "count": count,
        }

    return 0, payload, [count]


def cmd_sms(args):
    algebra = args.algebra
    systems = algebra.all_sms(bound=args.bound)

    def payload():
        return {"algebra": _algebra(algebra), "systems": [_json_modules(s) for s in systems]}

    lines = [f"{len(systems)} systems"]
    lines += [f"{i}\t{_render_system(algebra, s)}" for i, s in enumerate(systems)]
    return 0, payload, lines


def cmd_mutate(args):
    algebra = args.algebra
    system = _parse_sms(algebra, args.sms)
    subset = _parse_at(algebra, system, args.at)
    if not args.allow_composite:
        parts = nu_orbit_partition(algebra, system)
        if subset not in parts:
            raise ValueError(
                "subset is not a single Nakayama orbit; pass --allow-composite"
            )
    mutate = algebra.mutate_left if args.dir == "left" else algebra.mutate_right
    image = mutate(system, subset)

    def payload():
        return {
            "algebra": _algebra(algebra),
            "direction": args.dir,
            "at": _json_modules(subset),
            "system": _json_modules(system),
            "image": _json_modules(image),
            "columns": [algebra.render_factors(m) for m in image],
        }

    return 0, payload, [_render_system(algebra, image)]


def cmd_quiver(args):
    algebra = args.algebra
    start = _parse_sms(algebra, args.start, "--start")
    q = build_mutation_quiver(
        algebra,
        start,
        direction=args.dir,
        allow_composite=args.allow_composite,
        size_bound=args.bound,
    )
    return 0, None, [q.to_dot() if args.out == "dot" else q.to_json()]


def cmd_check(args):
    from .acceptance import run as run_acceptance

    results = run_acceptance(args.only)
    return (0 if all(r.passed for r in results) else 1), None, []


def _arg(*flags, **kwargs):
    return flags, kwargs


_FORMAT = _arg("--format", choices=("tsv", "json"), default="tsv")
_TYPE = _arg("--type", type=_type_arg, required=True)

# name -> (help, arguments, function); each argument is add_argument's
# (flags, keyword arguments), in the order of the help text
COMMANDS = {
    "classify": (
        "validate and describe an RFS type",
        [_FORMAT, _arg("type", type=_type_arg, help="type string, e.g. A:5/f=1/t=2")],
        cmd_classify,
    ),
    "hom": ("stable hom dimension table of a quotient", [_FORMAT, _TYPE], cmd_hom),
    "enumerate": ("list all configurations", [_FORMAT, _TYPE], cmd_enumerate),
    "orbits": ("configuration orbits under automorphisms", [_FORMAT, _TYPE], cmd_orbits),
    "brauer": (
        "count Brauer trees",
        [
            _FORMAT,
            _arg("--edges", type=_positive_int_arg, required=True),
            _arg("--multiplicity", type=_positive_int_arg, default=1),
            _arg(
                "--marked-extremal",
                action="store_true",
                help="count multiplicity-one trees with a chosen extremal vertex",
            ),
        ],
        cmd_brauer,
    ),
    "sms": (
        "list all simple-minded systems",
        [
            _FORMAT,
            _arg("--algebra", type=_algebra_arg, required=True, help="nakayama:e:L"),
            _arg("--bound", type=_positive_int_arg, default=24),
        ],
        cmd_sms,
    ),
    "mutate": (
        "mutate a system at a Nakayama-stable subset",
        [
            _FORMAT,
            _arg("--algebra", type=_algebra_arg, required=True),
            _arg("--sms", required=True, help="`simples` or top:length pairs"),
            _arg("--at", required=True, help="tops or top:length pairs"),
            _arg("--dir", choices=("left", "right"), default="left"),
            _arg("--allow-composite", action="store_true"),
        ],
        cmd_mutate,
    ),
    "quiver": (
        "mutation quiver by BFS",
        [
            _arg("--algebra", type=_algebra_arg, required=True),
            _arg("--start", default="simples"),
            _arg("--dir", choices=("left", "right", "both"), default="left"),
            _arg("--allow-composite", action="store_true"),
            _arg("--bound", type=_positive_int_arg, default=24),
            _arg("--out", choices=("dot", "json"), default="dot"),
        ],
        cmd_quiver,
    ),
    "check": (
        "run the acceptance suite",
        [_arg("--only", type=_criteria_arg, help="comma-separated criterion numbers")],
        cmd_check,
    ),
}


def _add_arguments(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    for flags, kwargs in COMMANDS[name][1]:
        parser.add_argument(*flags, **kwargs)
    return parser


def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one subcommand, with the prog its subparser had."""
    return _add_arguments(argparse.ArgumentParser(prog=f"smsquiver {name}"), name)


def _top_parser() -> argparse.ArgumentParser:
    """The whole CLI in one parser: top-level help and usage errors.

    Its subcommands carry their arguments as well, so that it parses
    every argv it is given in full, whatever comes before the command.
    """
    parser = argparse.ArgumentParser(
        prog="smsquiver",
        description="simple-minded systems of representation-finite "
        "self-injective algebras, two ways",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_text), name)
    return parser


def _parse_args(argv) -> argparse.Namespace:
    """Parse argv with the one parser of the command it names.

    An argv that names no command first, or that the command's parser
    leaves arguments over from, goes to `_top_parser`, which prints help
    or the usage error and exit code of the whole CLI.
    """
    if argv and argv[0] in COMMANDS:
        name = argv[0]
        namespace = argparse.Namespace(command=name)
        args, extra = _command_parser(name).parse_known_args(argv[1:], namespace)
        if not extra:
            return args
    return _top_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        code, payload, lines = COMMANDS[args.command][2](args)
        if getattr(args, "format", "tsv") == "json":
            lines = [json.dumps({"schema": 1, **payload()}, sort_keys=True)]
        sys.stdout.write("".join(f"{line}\n" for line in lines))
        return code
    except argparse.ArgumentTypeError as exc:
        _top_parser().error(str(exc))
    except BrokenPipeError:
        return 0
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
