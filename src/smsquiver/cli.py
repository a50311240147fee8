"""Command-line interface.

Subcommands: classify, hom, enumerate, orbits, brauer, sms, mutate,
quiver, check.  Output is TSV by default; JSON payloads carry a
`"schema": 1` field and render all exact numbers as strings.  Identical
invocations produce byte-identical output.  Errors exit with code 1 and a
one-line `error: <Kind>: <message>` on stderr; bad arguments exit 2,
including `--sms`, `--start` and `--at`, which are parsed against the
algebra once the command runs.
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
from .nakayama import NakayamaAlgebra, parse_algebra
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


def _emit(lines, out):
    for line in lines:
        print(line, file=out)


def cmd_classify(args, out) -> int:
    t = args.type
    ok, diag = validate_rfs_type(t)
    if args.format == "json":
        payload = {"schema": 1, "type": t.to_json(), "valid": ok, "diagnostic": diag}
        if ok:
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
        print(json.dumps(payload, sort_keys=True), file=out)
        return 0 if ok else 1
    if not ok:
        print(f"invalid\t{diag}", file=out)
        return 1
    r, _ = admissible_group(t)
    fields = [
        "valid",
        f"family ({family_letter(t)})",
        f"simples={num_simples(t)}",
        f"r={r}",
        f"symmetric={'yes' if is_symmetric_type(t) else 'no'}",
    ]
    if has_nonstandard_counterpart(t):
        fields.append("nonstandard-counterpart=yes")
    print("\t".join(fields), file=out)
    return 0


def cmd_hom(args, out) -> int:
    q = quotient(args.type)
    table = quotient_hom_table(q)
    if args.format == "json":
        payload = {
            "schema": 1,
            "type": str(q.rfs_type),
            "dims": [
                [list(e), list(f), table[(e, f)]]
                for e in q.vertices
                for f in q.vertices
            ],
        }
        print(json.dumps(payload, sort_keys=True), file=out)
        return 0
    _emit(
        (
            f"{e[0]},{e[1]}\t{f[0]},{f[1]}\t{table[(e, f)]}"
            for e in q.vertices
            for f in q.vertices
        ),
        out,
    )
    return 0


def cmd_enumerate(args, out) -> int:
    q = quotient(args.type)
    configs = enumerate_configurations(q)
    if args.format == "json":
        payload = {
            "schema": 1,
            "type": str(q.rfs_type),
            "configurations": [[list(v) for v in c] for c in configs],
        }
        print(json.dumps(payload, sort_keys=True), file=out)
        return 0
    _emit((" ".join(f"{p},{n}" for p, n in c) for c in configs), out)
    return 0


def cmd_orbits(args, out) -> int:
    q = quotient(args.type)
    orbits = orbit_decomposition(q, enumerate_configurations(q))
    if args.format == "json":
        payload = {
            "schema": 1,
            "type": str(q.rfs_type),
            "orbits": [
                {
                    "representative": [list(v) for v in o.representative],
                    "size": o.size,
                }
                for o in orbits
            ],
        }
        print(json.dumps(payload, sort_keys=True), file=out)
        return 0
    print(f"{len(orbits)} orbits", file=out)
    _emit(
        (
            f"{i}\tsize={o.size}\t" + " ".join(f"{p},{n}" for p, n in o.representative)
            for i, o in enumerate(orbits)
        ),
        out,
    )
    return 0


def cmd_brauer(args, out) -> int:
    if args.marked_extremal:
        count = count_marked_extremal_trees(args.edges)
    else:
        count = count_brauer_trees(args.edges, args.multiplicity)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "schema": 1,
                    "edges": args.edges,
                    "multiplicity": args.multiplicity,
                    "marked_extremal": bool(args.marked_extremal),
                    "count": count,
                },
                sort_keys=True,
            ),
            file=out,
        )
        return 0
    print(count, file=out)
    return 0


def _render_system(algebra, system):
    mods = " ".join(f"({m.top},{m.length})" for m in system)
    cols = " ".join(algebra.render_factors(m) for m in system)
    return f"{mods}\t{cols}"


def cmd_sms(args, out) -> int:
    algebra = args.algebra
    systems = algebra.all_sms(bound=args.bound)
    if args.format == "json":
        payload = {
            "schema": 1,
            "algebra": {"simples": algebra.e, "loewy_length": algebra.L},
            "systems": [[[m.top, m.length] for m in s] for s in systems],
        }
        print(json.dumps(payload, sort_keys=True), file=out)
        return 0
    print(f"{len(systems)} systems", file=out)
    _emit(
        (f"{i}\t{_render_system(algebra, s)}" for i, s in enumerate(systems)),
        out,
    )
    return 0


def cmd_mutate(args, out) -> int:
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
    if args.format == "json":
        payload = {
            "schema": 1,
            "algebra": {"simples": algebra.e, "loewy_length": algebra.L},
            "direction": args.dir,
            "at": [[m.top, m.length] for m in subset],
            "system": [[m.top, m.length] for m in system],
            "image": [[m.top, m.length] for m in image],
            "columns": [algebra.render_factors(m) for m in image],
        }
        print(json.dumps(payload, sort_keys=True), file=out)
        return 0
    print(_render_system(algebra, image), file=out)
    return 0


def cmd_quiver(args, out) -> int:
    algebra = args.algebra
    start = _parse_sms(algebra, args.start, "--start")
    q = build_mutation_quiver(
        algebra,
        start,
        direction=args.dir,
        allow_composite=args.allow_composite,
        size_bound=args.bound,
    )
    print(q.to_dot() if args.out == "dot" else q.to_json(), file=out)
    return 0


def cmd_check(args, out) -> int:
    from .acceptance import run as run_acceptance

    results = run_acceptance(args.only, stream=out)
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smsquiver",
        description="simple-minded systems of representation-finite "
        "self-injective algebras, two ways",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="validate and describe an RFS type")
    p.add_argument("type", type=_type_arg, help="type string, e.g. A:5/f=1/t=2")
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("hom", help="stable hom dimension table of a quotient")
    p.add_argument("--type", type=_type_arg, required=True)
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.set_defaults(fn=cmd_hom)

    p = sub.add_parser("enumerate", help="list all configurations")
    p.add_argument("--type", type=_type_arg, required=True)
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("orbits", help="configuration orbits under automorphisms")
    p.add_argument("--type", type=_type_arg, required=True)
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.set_defaults(fn=cmd_orbits)

    p = sub.add_parser("brauer", help="count Brauer trees")
    p.add_argument("--edges", type=_positive_int_arg, required=True)
    p.add_argument("--multiplicity", type=_positive_int_arg, default=1)
    p.add_argument(
        "--marked-extremal",
        action="store_true",
        help="count multiplicity-one trees with a chosen extremal vertex",
    )
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.set_defaults(fn=cmd_brauer)

    p = sub.add_parser("sms", help="list all simple-minded systems")
    p.add_argument("--algebra", type=_algebra_arg, required=True, help="nakayama:e:L")
    p.add_argument("--bound", type=_positive_int_arg, default=24)
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.set_defaults(fn=cmd_sms)

    p = sub.add_parser("mutate", help="mutate a system at a Nakayama-stable subset")
    p.add_argument("--algebra", type=_algebra_arg, required=True)
    p.add_argument("--sms", required=True, help="`simples` or top:length pairs")
    p.add_argument("--at", required=True, help="tops or top:length pairs")
    p.add_argument("--dir", choices=("left", "right"), default="left")
    p.add_argument("--allow-composite", action="store_true")
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
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
        return args.fn(args, sys.stdout)
    except argparse.ArgumentTypeError as exc:
        parser.error(str(exc))
    except BrokenPipeError:
        return 0
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
