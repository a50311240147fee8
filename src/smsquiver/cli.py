"""Command-line interface.

Subcommands: classify, hom, enumerate, orbits, brauer, sms, mutate,
quiver, check.  The first seven take `--format tsv|json`.  Each of their
`cmd_*` functions prints nothing: it returns its exit code, its JSON
payload and its TSV lines, and `main` alone prints one or the other,
adding the schema number 1 to every JSON payload.  `quiver` prints its
DOT or JSON export (`--out`), and `check` streams one line per criterion.
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
        return 1, payload, [f"invalid\t{diag}"]
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
    return 0, payload, ["\t".join(fields)]


def cmd_hom(args):
    q = quotient(args.type)
    table = quotient_hom_table(q)
    pairs = [(e, f) for e in q.vertices for f in q.vertices]
    payload = {
        "type": str(q.rfs_type),
        "dims": [[list(e), list(f), table.get((e, f), 0)] for e, f in pairs],
    }
    return 0, payload, (
        f"{e[0]},{e[1]}\t{f[0]},{f[1]}\t{table.get((e, f), 0)}" for e, f in pairs
    )


def cmd_enumerate(args):
    q = quotient(args.type)
    configs = enumerate_configurations(q)
    payload = {
        "type": str(q.rfs_type),
        "configurations": [[list(v) for v in c] for c in configs],
    }
    return 0, payload, [_config(c) for c in configs]


def cmd_orbits(args):
    q = quotient(args.type)
    orbits = orbit_decomposition(q)
    payload = {
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
    payload = {
        "edges": args.edges,
        "multiplicity": args.multiplicity,
        "marked_extremal": bool(args.marked_extremal),
        "count": count,
    }
    return 0, payload, [count]


def cmd_sms(args):
    algebra = args.algebra
    systems = algebra.all_sms(bound=args.bound)
    payload = {"algebra": _algebra(algebra), "systems": [_json_modules(s) for s in systems]}
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
    payload = {
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, payload, lines = args.fn(args)
        if getattr(args, "format", "tsv") == "json":
            lines = [json.dumps({"schema": 1, **payload}, sort_keys=True)]
        for line in lines:
            print(line)
        return code
    except argparse.ArgumentTypeError as exc:
        parser.error(str(exc))
    except BrokenPipeError:
        return 0
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
