"""Configurations of finite stable translation quivers.

A configuration is a vertex subset that is hom-orthogonal in the mesh
category of the quotient (one-dimensional endomorphisms, no homs between
distinct members) and covers every vertex (each vertex admits a nonzero
hom into some member).  Configurations are searched once per orbit of
the automorphism group G of the quiver, in `orbit_decomposition`;
`enumerate_configurations` lists the members of all orbits.

The search keeps one Python-int bit mask per candidate for its
orthogonal partners and one per vertex for the candidates it covers,
both read off the nonzero entries of the quotient hom table in one pass.
It walks the candidates in (node, level) order, and each candidate
outside the G-orbits of earlier anchors becomes an anchor.  The branch
of an anchor finds the configurations that contain it and no vertex of
an earlier anchor's orbit.  Each search node branches on the uncovered
vertex with the fewest coverers left: branch i takes its i-th coverer
and drops the earlier ones, and a vertex left with no coverer cuts the
branch.  Each find not seen before expands into its G-orbit, which
becomes one `Orbit`.

Soundness: automorphisms keep quotient hom dimensions, hence
orthogonality and covering, and they keep each vertex G-orbit.  For a
configuration C, let O be the first anchor orbit that meets C, and phi
in G a map sending a member of C in O to O's anchor.  Then phi(C)
contains the anchor and avoids the earlier anchor orbits, so the
anchor's branch finds it, and the orbit of C is reached.  The
cardinality of every configuration equals the simple count of the type:
it caps the search, and a covering reached with fewer members raises
`CardinalityError`; by the same argument any such covering has an image
in some anchored branch, so the check still fires.
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
        d = table.get((e, e), 0)
        if d != 1:
            return False, f"orthogonality: hom({e},{e}) = {d} != 1"
        for f in members:
            d = table.get((e, f), 0)
            if e != f and d:
                return False, f"orthogonality: hom({e},{f}) = {d} != 0"
    for v in q.vertices:
        if not any(table.get((v, f), 0) for f in members):
            return False, f"covering: no member receives a hom from {v}"
    return True, "configuration"


class CardinalityError(RuntimeError):
    """An orthogonal set covered the quotient with fewer members than the
    type has simples."""


class Orbit(Value):
    __slots__ = ("representative", "size", "members")
    representative: Config
    size: int
    members: tuple[Config, ...]


def enumerate_configurations(q: StableTranslationQuiver) -> list[Config]:
    """All configurations, canonically sorted: the members of every orbit."""
    return sorted(c for o in orbit_decomposition(q) for c in o.members)


def orbit_decomposition(q: StableTranslationQuiver) -> list[Orbit]:
    """The configurations of `q` as orbits under its automorphisms, sorted
    by representative, the least member of each.

    Anchors are the candidates, in (node, level) order, outside the vertex
    orbits of earlier anchors.  The branch of an anchor finds the
    configurations that contain it and no vertex of an earlier anchor's
    orbit; each find not yet seen expands into its orbit.  See the module
    docstring for why every orbit is reached.
    """
    card = num_simples(q.rfs_type)
    table = quotient_hom_table(q)
    candidates = sorted(
        (v for v in q.vertices if table.get((v, v), 0) == 1),
        key=lambda v: (v[1], v[0]),
    )
    # bit k stands for candidates[k]; orth[k]: candidates orthogonal to it;
    # coverers[v]: the candidates receiving a nonzero hom from v.  The
    # table holds nonzero homs only, and hom(a, a) clears a's own bit.
    index = {c: k for k, c in enumerate(candidates)}
    orth = [(1 << len(candidates)) - 1] * len(candidates)
    coverers = dict.fromkeys(q.vertices, 0)
    for a, b in table:
        k = index.get(b)
        if k is not None:
            coverers[a] |= 1 << k
            j = index.get(a)
            if j is not None:
                orth[j] &= ~(1 << k)
                orth[k] &= ~(1 << j)
    auts = automorphisms(q)
    seen: set[Config] = set()
    orbits: list[Orbit] = []

    def extend(members: Config, pool: int, uncovered: list[int]):
        # pool: candidates orthogonal to all members and not excluded by an
        # earlier branch; uncovered: coverer masks of the vertices that no
        # member covers
        if not uncovered:
            if len(members) != card:
                raise CardinalityError(
                    f"{q.rfs_type}: {members} covers with fewer than {card} members"
                )
            c = tuple(sorted(members))
            if c not in seen:
                orbit = sorted({tuple(sorted(phi[v] for v in c)) for phi in auts})
                seen.update(orbit)
                orbits.append(Orbit(orbit[0], len(orbit), tuple(orbit)))
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

    excluded = 0
    for k, anchor in enumerate(candidates):
        if excluded >> k & 1:
            continue
        low = 1 << k
        rest = [c for c in coverers.values() if not c & low]
        extend((anchor,), orth[k] & ~excluded, rest)
        for phi in auts:
            excluded |= 1 << index[phi[anchor]]
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
        orbits = orbit_decomposition(q)
        rows.append(
            TransitivityRow(
                str(t),
                sum(o.size for o in orbits),
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
