"""Configurations of finite stable translation quivers.

A configuration is a vertex subset that is hom-orthogonal in the mesh
category of the quotient (one-dimensional endomorphisms, no homs between
distinct members) and covers every vertex (each vertex admits a nonzero
hom into some member).  Enumeration keeps one Python-int bit mask per
candidate for its orthogonal partners and one per vertex for the
candidates it covers.  Each search node branches on the uncovered vertex
with the fewest coverers left: branch i takes its i-th coverer and drops
the earlier ones, so every configuration is reached once, through its
first coverer of that vertex, and a vertex left with no coverer cuts the
branch.  The cardinality of every configuration equals the simple count
of the type: it caps the search, and a covering reached with fewer
members raises `CardinalityError`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .dynkin import DynkinGraph, RfsType, num_simples, validate_rfs_type
from .meshcat import quotient_hom_table
from .values import Value
from .ztquiver import StableTranslationQuiver, ZVert, automorphisms, quotient

Config = tuple[ZVert, ...]


def is_configuration(q: StableTranslationQuiver, subset) -> tuple[bool, str]:
    """Check the two defining conditions; reports the first violation."""
    members = tuple(sorted(set(subset)))
    for v in members:
        if v not in q.vertices:
            return False, f"{v} is not a vertex"
    table = quotient_hom_table(q)
    for e in members:
        d = table[(e, e)]
        if d != 1:
            return False, f"orthogonality: hom({e},{e}) = {d} != 1"
        for f in members:
            if e != f and table[(e, f)]:
                return False, f"orthogonality: hom({e},{f}) = {table[(e, f)]} != 0"
    for v in q.vertices:
        if not any(table[(v, f)] for f in members):
            return False, f"covering: no member receives a hom from {v}"
    return True, "configuration"


class CardinalityError(RuntimeError):
    """An orthogonal set covered the quotient with fewer members than the
    type has simples."""


def enumerate_configurations(q: StableTranslationQuiver) -> list[Config]:
    """All configurations, canonically sorted."""
    card = num_simples(q.rfs_type)
    table = quotient_hom_table(q)
    candidates = sorted(
        (v for v in q.vertices if table[(v, v)] == 1),
        key=lambda v: (v[1], v[0]),
    )
    # bit k stands for candidates[k]; orth[k]: candidates orthogonal to it
    orth = [
        sum(
            1 << j
            for j, b in enumerate(candidates)
            if a != b and not table[(a, b)] and not table[(b, a)]
        )
        for a in candidates
    ]
    # one mask per vertex v: the candidates receiving a nonzero hom from v
    coverers = [
        sum(1 << k for k, c in enumerate(candidates) if table[(v, c)])
        for v in q.vertices
    ]
    out: list[Config] = []

    def extend(members: Config, pool: int, uncovered: list[int]):
        # pool: candidates orthogonal to all members and not excluded by an
        # earlier branch; uncovered: coverer masks of the vertices that no
        # member covers
        if not uncovered:
            if len(members) != card:
                raise CardinalityError(
                    f"{q.rfs_type}: {members} covers with fewer than {card} members"
                )
            out.append(tuple(sorted(members)))
            return
        if len(members) == card:
            return
        # branch on the uncovered vertex with the fewest coverers left
        left = [(c & pool).bit_count() for c in uncovered]
        branch = uncovered[left.index(min(left))] & pool
        while branch:
            low = branch & -branch
            branch ^= low
            pool ^= low
            k = low.bit_length() - 1
            rest = [c for c in uncovered if not c & low]
            extend(members + (candidates[k],), pool & orth[k], rest)

    extend((), (1 << len(candidates)) - 1, coverers)
    return sorted(out)


class Orbit(Value):
    __slots__ = ("representative", "size", "members")
    representative: Config
    size: int
    members: tuple[Config, ...]


def orbit_decomposition(q: StableTranslationQuiver, configs) -> list[Orbit]:
    """Partition configurations under the automorphisms of the quiver."""
    configs = sorted(set(tuple(sorted(c)) for c in configs))
    auts = automorphisms(q)
    remaining = set(configs)
    orbits = []
    for c in configs:
        if c not in remaining:
            continue
        members = sorted({tuple(sorted(phi[v] for v in c)) for phi in auts})
        for m in members:
            remaining.discard(m)
        orbits.append(Orbit(min(members), len(members), tuple(members)))
    return sorted(orbits, key=lambda o: o.representative)


class TransitivityRow(Value):
    __slots__ = ("rfs_type", "configurations", "orbits", "single_orbit", "listed")
    rfs_type: str
    configurations: int
    orbits: int
    single_orbit: bool
    listed: bool


def in_single_orbit_list(t: RfsType) -> bool:
    """Membership in the families with one automorphism orbit of configurations."""
    g, f = t.graph, t.frequency
    if g.family == "A":
        if t.torsion == 1:
            s = int(f * g.rank)
            return g.rank == 2 or gcd(s, g.rank) == 1
        return t.torsion == 2 and g.rank == 3
    if g.family == "D":
        if t.torsion == 1:
            return g.rank == 6 and f.denominator == 3
        return t.torsion == 3 and g.rank == 4
    return False


def transitivity_list_check() -> list[TransitivityRow]:
    """Orbit counts over the types of `_type_grid(5, 2, False)` whose
    quotients have at most 40 vertices, flagged against the single-orbit
    families; the check passes when flags and counts agree."""
    rows = []
    for t in _type_grid(5, 2, False):
        if t.graph.rank * int(t.frequency * (t.coxeter - 1)) > 40:
            continue
        q = quotient(t)
        configs = enumerate_configurations(q)
        orbits = orbit_decomposition(q, configs)
        rows.append(
            TransitivityRow(
                str(t),
                len(configs),
                len(orbits),
                len(orbits) == 1,
                in_single_orbit_list(t),
            )
        )
    return rows


def _type_grid(max_rank: int, max_s: int, include_e: bool):
    for rank in range(1, max_rank + 1):
        for s in range(1, max_s * rank + 1):
            t = RfsType(DynkinGraph("A", rank), Fraction(s, rank), 1)
            if validate_rfs_type(t)[0]:
                yield t
    for rank in range(3, max_rank + 1, 2):
        for s in range(1, max_s + 1):
            t = RfsType(DynkinGraph("A", rank), Fraction(s), 2)
            if validate_rfs_type(t)[0]:
                yield t
    for rank in range(4, max_rank + 3):
        for tor in (1, 2, 3):
            for den in (1, 3):
                for s in range(1, max_s + 1):
                    t = RfsType(DynkinGraph("D", rank), Fraction(s, den), tor)
                    if validate_rfs_type(t)[0]:
                        yield t
    if include_e:
        for rank in (6, 7, 8):
            for tor in (1, 2):
                t = RfsType(DynkinGraph("E", rank), Fraction(1), tor)
                if validate_rfs_type(t)[0]:
                    yield t
