"""Brauer tree counting in closed form, by Burnside's lemma.

A Brauer tree with d edges and multiplicity m is a plane tree (a tree with
a cyclic ordering of the edges at every vertex) with, when m >= 2, one
exceptional vertex.  A plane tree rooted at a corner is a Dyck word of
semilength d: walk around it from the root, writing `(` down an edge and
`)` back up.  There are Catalan(d) such words, and an automorphism that
fixes a corner is the identity, so each word is one corner-rooted class.

- *A marked vertex (m >= 2).*  Read the walk as a cyclic word of d `(`
  and d `)`.  Its rotations that are Dyck words start at the corners of
  one vertex, the root, so these necklaces are the plane trees with a
  marked vertex.  Burnside's lemma counts orbits as the mean number of
  words a rotation fixes.  A rotation by j of the 2d positions fixes the
  words of period gcd(j, 2d), which is 2c for a divisor c of d when the
  word is balanced; phi(d/c) rotations have that period, and each fixes
  C(2c, c) words.  So the count is (1/2d) sum_{c | d} phi(d/c) C(2c, c)
  (OEIS A003239).
- *No mark (m = 1).*  Every automorphism of a tree fixes its centre,
  a vertex or an edge, so the trees are the vertex-marked classes plus
  the edge-marked ones less the classes marked at an incident vertex and
  edge, which are the Catalan(d) corner-rooted words (the dissymmetry of
  trees).  Burnside's lemma over the half-turn about the marked edge
  counts the edge-marked classes: (Catalan(d) + fixed) / 2, where the
  half-turn fixes Catalan((d-1)/2) words when d is odd (two equal halves
  on either side of the edge) and none when d is even.  Hence the count
  (2 A003239(d) - Catalan(d) + [d odd] Catalan((d-1)/2)) / 2 (OEIS
  A002995; Harary, Prins and Tutte, *The number of plane trees*,
  Indag. Math. 1964; Walkup, *The number of plane trees*, Mathematika
  1972).
- *A marked leaf (m = 1).*  Removing the leaf's edge leaves a plane tree
  rooted at the corner where the edge was attached, and every rooted
  plane tree with d - 1 edges arises once: Catalan(d - 1).

The tests keep the orbit walk over all Catalan(d) Dyck words as the
reference that these formulas are checked against.
"""

from __future__ import annotations

from math import comb, gcd


def _catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def _marked_vertex_trees(edges: int) -> int:
    """Plane trees with a marked vertex: necklaces of `edges` `(` and `)`."""
    fixed = 0
    for c in range(1, edges + 1):
        if edges % c == 0:
            # phi(edges / c) rotations have period 2c; each fixes C(2c, c) words
            rotations = sum(gcd(k, edges // c) == 1 for k in range(edges // c))
            fixed += rotations * comb(2 * c, c)
    return fixed // (2 * edges)


def count_brauer_trees(edges: int, multiplicity: int) -> int:
    """Isomorphism classes of Brauer trees with `edges` edges."""
    if edges < 1 or multiplicity < 1:
        raise ValueError("need edges >= 1 and multiplicity >= 1")
    marked = _marked_vertex_trees(edges)
    if multiplicity > 1:
        return marked
    halves = _catalan((edges - 1) // 2) if edges % 2 else 0
    return (2 * marked - _catalan(edges) + halves) // 2


def count_marked_extremal_trees(edges: int) -> int:
    """Multiplicity-one Brauer trees with a chosen extremal (leaf) vertex:
    the plane trees with `edges` - 1 edges rooted at a corner."""
    if edges < 1:
        raise ValueError("need edges >= 1")
    return _catalan(edges - 1)
