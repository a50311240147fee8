"""Dynkin tree data, Coxeter numbers and classification of RFS types.

A type is a triple (tree class, frequency, torsion).  The accepted triples
are the eight standard families

    (a) (A_n, s/n, 1)            n, s >= 1
    (b) (A_{2p+1}, s, 2)         p, s >= 1
    (c) (D_n, s, 1)              n >= 4, s >= 1
    (d) (D_{3m}, s/3, 1)         m >= 2, 3 does not divide s
    (e) (D_n, s, 2)              n >= 4, s >= 1
    (f) (D_4, s, 3)              s >= 1
    (g) (E_n, s, 1)              n in {6,7,8}, s >= 1
    (h) (E_6, s, 2)              s >= 1

plus the non-standard counterparts of (D_{3m}, 1/3, 1), which share the
same triple (and the same quiver combinatorics) and are only reported by
`has_nonstandard_counterpart`.

Node numbering: A_n is the path 1..n; D_n has spine 1..n-2 and fork tips
n-1, n attached to n-2; E_6/E_7/E_8 use Bourbaki numbering (node 2 hangs
off node 4).

The automorphisms of each tree are written once, in `tree_automorphisms`:
the path flip on A_n, the fork-tip swap on D_n, all of S3 on the outer arms
of D4 and the flip on E6.  The deck group of a type takes as zeta the first
of them, in sorted order, whose order is the torsion; the quotient's
automorphisms are lifted from the same table (`ztquiver.automorphisms`).
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import permutations

from .values import Value


class InvalidTypeError(ValueError):
    """Raised when an operation requires a valid RFS type and got none."""


class RfsInvariantError(RuntimeError):
    """A valid RFS type broke an invariant of the classification."""


_E_EDGES = {
    6: ((1, 3), (3, 4), (4, 5), (5, 6), (2, 4)),
    7: ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 4)),
    8: ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)),
}


class DynkinGraph(Value):
    __slots__ = ("family", "rank")
    family: str
    rank: int

    def __post_init__(self):
        if self.family == "A":
            ok = self.rank >= 1
        elif self.family == "D":
            ok = self.rank >= 4
        elif self.family == "E":
            ok = self.rank in (6, 7, 8)
        else:
            ok = False
        if not ok:
            raise InvalidTypeError(f"not a Dynkin tree: {self.family}{self.rank}")

    @property
    def nodes(self) -> tuple[int, ...]:
        return tuple(range(1, self.rank + 1))

    def oriented_edges(self) -> tuple[tuple[int, int], ...]:
        """Edges oriented away from node 1 (increasing depth)."""
        n = self.rank
        if self.family == "A":
            return tuple((i, i + 1) for i in range(1, n))
        if self.family == "D":
            spine = tuple((i, i + 1) for i in range(1, n - 2))
            return spine + ((n - 2, n - 1), (n - 2, n))
        return _E_EDGES[n]

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(tuple(sorted(e)) for e in self.oriented_edges())

    def depth(self, node: int) -> int:
        """Level of `node` in the chosen orientation; arrows raise depth by 1."""
        if self.family == "A":
            return node
        if self.family == "D":
            return node if node <= self.rank - 2 else self.rank - 1
        d = {1: 1, 3: 2, 4: 3, 2: 2, 5: 4, 6: 5, 7: 6, 8: 7}
        return d[node]

    def __str__(self):
        return f"{self.family}{self.rank}"


def coxeter_number(graph: DynkinGraph) -> int:
    n = graph.rank
    if graph.family == "A":
        return n + 1
    if graph.family == "D":
        return 2 * n - 2
    return {6: 12, 7: 18, 8: 30}[n]


class GraphAutomorphism(Value):
    """Permutation of Dynkin nodes preserving the edge set."""

    __slots__ = ("graph", "mapping")
    graph: DynkinGraph
    mapping: tuple[int, ...]  # mapping[i-1] = image of node i

    def __post_init__(self):
        nodes = self.graph.nodes
        if sorted(self.mapping) != list(nodes):
            raise ValueError("not a permutation of the nodes")
        edges = set(self.graph.edges)
        for a, b in edges:
            if tuple(sorted((self(a), self(b)))) not in edges:
                raise ValueError("does not preserve the edge set")

    def __call__(self, node: int) -> int:
        return self.mapping[node - 1]

    @property
    def order(self) -> int:
        k, perm, ident = 1, list(self.mapping), list(self.graph.nodes)
        while perm != ident:
            perm = [self.mapping[p - 1] for p in perm]
            k += 1
        return k


def tree_automorphisms(graph: DynkinGraph) -> list[GraphAutomorphism]:
    """Every automorphism of the tree, sorted by mapping (identity first).

    The path flip on A_n; the fork-tip swap on D_n; on D4 all of S3 on the
    outer arms 1, 3, 4; the flip on E6; nothing but the identity on E7, E8.
    """
    n, nodes = graph.rank, graph.nodes
    mappings = {nodes}
    if graph.family == "A":
        mappings.add(nodes[::-1])
    elif graph.family == "D":
        mappings.add(nodes[:-2] + (n, n - 1))
        if n == 4:
            mappings.update((a, 2, b, c) for a, b, c in permutations((1, 3, 4)))
    elif n == 6:
        mappings.add((6, 2, 5, 4, 3, 1))
    return [GraphAutomorphism(graph, m) for m in sorted(mappings)]


class RfsType(Value):
    """Classification triple (tree class, frequency, torsion order)."""

    __slots__ = ("graph", "frequency", "torsion")
    graph: DynkinGraph
    frequency: Fraction
    torsion: int

    def __init__(self, graph: DynkinGraph, frequency, torsion: int):
        super().__init__(graph, Fraction(frequency), torsion)

    @property
    def coxeter(self) -> int:
        return coxeter_number(self.graph)

    def __str__(self):
        g = self.graph
        return f"{g.family}:{g.rank}/f={self.frequency}/t={self.torsion}"

    def to_json(self) -> dict:
        return {
            "family": self.graph.family,
            "rank": self.graph.rank,
            "frequency": str(self.frequency),
            "torsion": self.torsion,
        }


def validate_rfs_type(t: RfsType) -> tuple[bool, str]:
    """Check membership in the classification; returns (ok, diagnostic).

    The diagnostic names the matched family letter, or the violated
    constraint for rejected triples.
    """
    g, f, tor = t.graph, t.frequency, t.torsion
    n = g.rank
    if f <= 0:
        return False, "frequency must be positive"
    if tor not in (1, 2, 3):
        return False, "torsion order must be 1, 2 or 3"
    r = f * (coxeter_number(g) - 1)
    if r.denominator != 1:
        return False, f"f*(h-1) = {r} is not an integer"
    if g.family == "A":
        if tor == 1:
            s = f * n
            if s.denominator != 1:
                return False, f"n*f = {s} is not an integer (need f = s/n)"
            return True, "family (a)"
        if tor == 2:
            if f.denominator != 1:
                return False, "torsion-2 A-types need integer frequency"
            if n % 2 == 0 or n < 3:
                return False, "torsion-2 A-types need odd rank >= 3"
            return True, "family (b)"
        return False, "A-types have no torsion-3 automorphism"
    if g.family == "D":
        if tor == 1:
            if f.denominator == 1:
                return True, "family (c)"
            if f.denominator == 3 and n % 3 == 0 and n >= 6:
                return True, "family (d)"
            if f.denominator == 3:
                return False, "(D,s/3,1) needs rank 3m with m >= 2"
            return False, "D-type frequency must be an integer or s/3 with 3 not dividing s"
        if tor == 2:
            if f.denominator != 1:
                return False, "torsion-2 D-types need integer frequency"
            return True, "family (e)"
        if n != 4:
            return False, "torsion 3 requires D4"
        if f.denominator != 1:
            return False, "torsion-3 D4 types need integer frequency"
        return True, "family (f)"
    # E family
    if tor == 1:
        if f.denominator != 1:
            return False, "E-type frequency must be an integer"
        return True, "family (g)"
    if tor == 2:
        if n != 6:
            return False, "among E-types only E6 has torsion 2"
        if f.denominator != 1:
            return False, "torsion-2 E6 types need integer frequency"
        return True, "family (h)"
    return False, "E-types have no torsion-3 automorphism"


def _require_valid(t: RfsType) -> str:
    """The diagnostic of a valid type; raise InvalidTypeError otherwise."""
    ok, diag = validate_rfs_type(t)
    if not ok:
        raise InvalidTypeError(f"{t}: {diag}")
    return diag


def family_letter(t: RfsType) -> str:
    diag = _require_valid(t)
    return diag[diag.index("(") + 1]


def has_nonstandard_counterpart(t: RfsType) -> bool:
    g = t.graph
    return (
        g.family == "D"
        and g.rank % 3 == 0
        and g.rank >= 6
        and t.frequency == Fraction(1, 3)
        and t.torsion == 1
    )


def is_symmetric_type(t: RfsType) -> bool:
    """Whether the type is realized by a symmetric algebra."""
    _require_valid(t)
    g, f = t.graph, t.frequency
    if t.torsion != 1:
        return False
    if g.family == "A":
        s = int(f * g.rank)
        return g.rank % s == 0
    if g.family == "D":
        return f == Fraction(1, 3) or f == 1
    return f == 1


def admissible_group(t: RfsType) -> tuple[int, GraphAutomorphism]:
    """Deck-group data (r, zeta) with the group generated by zeta * tau^{-r}.

    zeta is the first tree automorphism of order t (`tree_automorphisms`).
    """
    _require_valid(t)
    r = t.frequency * (coxeter_number(t.graph) - 1)
    if r.denominator != 1 or r <= 0:
        raise RfsInvariantError(f"{t}: r = {r} is not a positive integer")
    zeta = next((s for s in tree_automorphisms(t.graph) if s.order == t.torsion), None)
    if zeta is None:
        raise RfsInvariantError(f"{t}: the tree has no automorphism of order {t.torsion}")
    return int(r), zeta


def num_simples(t: RfsType) -> int:
    _require_valid(t)
    s = t.frequency * t.graph.rank
    if s.denominator != 1:
        raise RfsInvariantError(f"{t}: {s} simples is not an integer")
    return int(s)


_TYPE_RE = re.compile(r"^([ADE]):(\d+)/f=(\d+(?:/\d+)?)/t=([123])$")


def parse_type(text: str) -> RfsType:
    """Parse a type string like `A:5/f=1/t=2` or `D:6/f=1/3/t=1`."""
    m = _TYPE_RE.match(text.strip())
    if not m:
        raise InvalidTypeError(f"cannot parse type string {text!r}")
    fam, rank, freq, tor = m.groups()
    return RfsType(DynkinGraph(fam, int(rank)), Fraction(freq), int(tor))
