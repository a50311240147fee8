"""Windows of the universal translation quiver ZQ and their finite quotients.

Vertices of ZQ are pairs (p, q): level p in Z, node q of the Dynkin tree.
For every oriented tree edge i -> j there are arrows (p,i) -> (p,j) and
(p,j) -> (p+1,i); the translation is tau(p,q) = (p-1,q).  Every arrow
raises the grading t(p,q) = 2p + depth(q) by exactly one.

A quotient is taken by the deck group generated by g = zeta* tau^{-r},
where zeta* is the level-corrected lift of a tree automorphism: it sends
(p, q) to (p + (depth(q) - depth(zeta q))/2, zeta q), which is the unique
grading-preserving lift.

Arrows and deck translates are read from tables built once: the arrows
into and out of each node (`_steps`, per graph, shared with the hom tables
of `meshcat`) and the points g^k(0, q) of each node's deck orbit
(`_deck_orbits`, per quotient).  So `deck` is a `divmod` lookup for any
power, negative ones included, and `canonical` a `min` over one orbit.

The automorphisms of a quotient are not searched for.  ZQ is the universal
cover of ZQ / G, so by Riedtmann's covering theory (Algebren,
Darstellungsköcher, Überlagerungen und zurück, Comment. Math. Helv. 55,
1980) each of them lifts to an automorphism s* tau^k of ZQ that normalises
G, with s an automorphism of the tree (`dynkin.tree_automorphisms`).
`automorphisms` lifts each s with the level correction of zeta*, projects
the lift and keeps the projections that are automorphisms of the quotient.
"""

from __future__ import annotations

import json
from functools import cache

from .dynkin import DynkinGraph, GraphAutomorphism, RfsType, admissible_group, tree_automorphisms
from .values import Value

ZVert = tuple[int, int]


class CoveringError(RuntimeError):
    """The covering ZQ -> ZQ / <zeta tau^{-r}> broke one of its invariants."""


class MeshSymmetryError(RuntimeError):
    """A built quotient is not a stable translation quiver."""


class _Steps:
    """Per-graph lookup tables of ZQ, shared by the quotients and the hom tables.

    `ins[q]` and `outs[q]` list the arrows into and out of (p, q) as
    (level offset, node), in the order of the oriented edges; `depth[q]`
    is the depth of node q, and its keys are the nodes.
    """

    __slots__ = ("ins", "outs", "depth")

    def __init__(self, graph: DynkinGraph):
        ins: dict[int, list[tuple[int, int]]] = {q: [] for q in graph.nodes}
        outs: dict[int, list[tuple[int, int]]] = {q: [] for q in graph.nodes}
        for i, j in graph.oriented_edges():
            ins[j].append((0, i))
            ins[i].append((-1, j))
            outs[i].append((0, j))
            outs[j].append((1, i))
        self.ins = {q: tuple(arrows) for q, arrows in ins.items()}
        self.outs = {q: tuple(arrows) for q, arrows in outs.items()}
        self.depth = {q: graph.depth(q) for q in graph.nodes}


_steps = cache(_Steps)


class Window(Value):
    """Finite slice {(p,q) : p_min <= p <= p_max} of ZQ."""

    __slots__ = ("graph", "p_min", "p_max")
    graph: DynkinGraph
    p_min: int
    p_max: int

    def __post_init__(self):
        if self.p_min > self.p_max:
            raise ValueError("empty window")

    @property
    def vertices(self) -> tuple[ZVert, ...]:
        return tuple(
            (p, q)
            for p in range(self.p_min, self.p_max + 1)
            for q in self.graph.nodes
        )


@cache
def _deck_orbits(family: str, mapping: tuple[int, ...], r: int) -> dict:
    """The deck table of g = zeta* tau^{-r}, where zeta maps node i to
    mapping[i-1] on the tree `family` of rank len(mapping).

    For each node q it holds the pair (m*r, points), where m is the length
    of q's zeta-orbit and points[k] = g^k(0, q) for k < m.  The level shifts
    of zeta* telescope to zero around an orbit, so g^m moves every vertex
    on q by exactly m*r levels.  The key is made of plain tuples and ints,
    so a lookup hashes no value class.
    """
    depth = _steps(DynkinGraph(family, len(mapping))).depth
    table = {}
    for q in depth:
        points, p, node = [], 0, q
        while not points or node != q:
            points.append((p, node))
            image = mapping[node - 1]
            shift = depth[node] - depth[image]
            if shift % 2:
                raise CoveringError(f"automorphism has no grading-preserving lift at node {node}")
            p += r + shift // 2
            node = image
        table[q] = (len(points) * r, tuple(points))
    return table


def _project(orbits: dict, v: ZVert) -> ZVert:
    """The canonical representative of v's deck orbit (see `canonical`)."""
    p, q = v
    period, points = orbits[q]
    return min([((p + dp) % period, node) for dp, node in points])


class StableTranslationQuiver(Value):
    """Finite quotient ZQ / <zeta tau^{-r}> with canonical vertex section.

    Canonical representatives: within each deck orbit, levels are first
    normalized into [0, m*r) where m is the zeta-orbit length of the node,
    then the lexicographically least (p, q) is chosen.  The chosen lift of
    each vertex is the vertex itself (the identity section).  Both `deck`
    and `canonical` read the deck table (`_deck_orbits`).
    """

    __slots__ = ("rfs_type", "r", "zeta", "vertices", "arrows", "tau")
    rfs_type: RfsType
    r: int
    zeta: GraphAutomorphism
    vertices: tuple[ZVert, ...]
    arrows: tuple[tuple[ZVert, ZVert], ...]
    tau: dict

    def _orbits(self) -> dict:
        zeta = self.zeta
        return _deck_orbits(zeta.graph.family, zeta.mapping, self.r)

    @property
    def graph(self) -> DynkinGraph:
        return self.rfs_type.graph

    def deck(self, v: ZVert, power: int = 1) -> ZVert:
        """Apply g^power with g = zeta* tau^{-r} to a ZQ vertex; power may be negative."""
        p, q = v
        period, points = self._orbits()[q]
        k, j = divmod(power, len(points))
        dp, node = points[j]
        return (p + dp + k * period, node)

    def canonical(self, v: ZVert) -> ZVert:
        return _project(self._orbits(), v)

    def lift(self, v: ZVert, copies: int) -> list[ZVert]:
        """The first `copies` preimages of v under the covering, ascending by level."""
        if copies < 1:
            raise ValueError("copies must be >= 1")
        base = self.canonical(v)
        lifts = [self.deck(base, k) for k in range(copies)]
        if any(a[0] >= b[0] for a, b in zip(lifts, lifts[1:])):
            raise CoveringError(f"lifts of {v} are not ascending by level: {lifts}")
        return lifts

    def to_json(self) -> str:
        idx = {v: i for i, v in enumerate(self.vertices)}
        return json.dumps(
            {
                "schema": 1,
                "type": str(self.rfs_type),
                "vertices": [list(v) for v in self.vertices],
                "arrows": [[list(a), list(b)] for a, b in sorted(self.arrows)],
                "tau": [idx[self.tau[v]] for v in self.vertices],
            },
            sort_keys=True,
        )

    def to_dot(self) -> str:
        lines = [f'digraph "{self.rfs_type}" {{']
        for v in self.vertices:
            lines.append(f'  "{v[0]},{v[1]}";')
        for a, b in sorted(self.arrows):
            lines.append(f'  "{a[0]},{a[1]}" -> "{b[0]},{b[1]}";')
        lines.append("}")
        return "\n".join(lines)


def quotient(t: RfsType) -> StableTranslationQuiver:
    """Build the stable translation quiver ZQ / <zeta tau^{-r}> of a valid type."""
    r, zeta = admissible_group(t)
    graph = t.graph
    orbits = _deck_orbits(graph.family, zeta.mapping, r)
    verts = sorted(
        {_project(orbits, (p, q)) for q, (period, _) in orbits.items() for p in range(period)}
    )
    if len(verts) != graph.rank * r:
        raise CoveringError(f"{t}: {len(verts)} vertices, expected {graph.rank * r}")

    outs = _steps(graph).outs
    arrows = []
    for v in verts:
        p, q = v
        heads = [_project(orbits, (p + dp, n)) for dp, n in outs[q]]
        if len(set(heads)) != len(heads):
            raise CoveringError(f"{t}: arrows out of {v} collide in the quotient")
        arrows.extend((v, w) for w in heads)
    tau = {v: _project(orbits, (v[0] - 1, v[1])) for v in verts}

    built = StableTranslationQuiver(t, r, zeta, tuple(verts), tuple(sorted(arrows)), tau)
    _check_mesh_symmetry(built)
    return built


def _check_mesh_symmetry(q: StableTranslationQuiver) -> None:
    arrow_set = set(q.arrows)
    for u, v in arrow_set:
        if (q.tau[v], u) not in arrow_set:
            raise MeshSymmetryError(f"mesh asymmetry at {v}")
    if sorted(q.tau.values()) != sorted(q.vertices):
        raise MeshSymmetryError("tau is not a bijection of the vertices")


def _lift_shifts(graph: DynkinGraph, s: GraphAutomorphism) -> dict[int, int]:
    """The level shifts of the lift s*(p, n) = (p + shift[n], s(n)) with
    s*(0, 1) = (0, s(1)).  Like zeta*, s* moves the grading 2p + depth(n) by
    a constant; adjacent nodes differ in depth by one, so s keeps or swaps
    the two depth parities and every numerator is even."""
    depth = _steps(graph).depth
    anchor = depth[s(1)] - depth[1]
    return {n: (depth[n] - depth[s(n)] + anchor) // 2 for n in depth}


def automorphisms(q: StableTranslationQuiver) -> list[dict]:
    """All arrow-preserving vertex permutations commuting with tau.

    Each is the projection of some s* tau^k normalising G (Riedtmann, see
    the module docstring), so each tree automorphism s is lifted once, and
    its projection phi is kept when it is a bijection mapping arrows to
    arrows, which holds exactly when s* normalises G.  Every tau^k phi is
    then a member as well.  Output is sorted and therefore deterministic;
    the identity and the residue of tau itself are members.
    """
    graph, verts = q.graph, q.vertices
    orbits = q._orbits()
    arrow_set = set(q.arrows)
    found: dict[tuple, dict] = {}
    for s in tree_automorphisms(graph):
        shift = _lift_shifts(graph, s)
        phi = {v: _project(orbits, (v[0] + shift[v[1]], s(v[1]))) for v in verts}
        if len(set(phi.values())) < len(verts):
            continue
        if not all((phi[u], phi[v]) in arrow_set for u, v in q.arrows):
            continue
        key = tuple(phi.values())
        while key not in found:
            found[key] = phi
            phi = {v: q.tau[w] for v, w in phi.items()}
            key = tuple(phi.values())
    return [found[key] for key in sorted(found)]
