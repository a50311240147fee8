"""Brauer tree counting as orbits of Dyck words.

A Brauer tree with d edges and multiplicity m is a plane tree (a tree with
a cyclic ordering of the edges at every vertex) with, when m >= 2, one
exceptional vertex.  A plane tree rooted at a corner is a Dyck word of
semilength d: walk around it from the root, writing `(` down an edge and
`)` back up.  The word splits as (u)v, u the subtree of the root's first
edge and v the rest.  Two maps act on the words:

- `(u)v -> u(v)` moves the root to the next corner of the walk.  The walk
  passes every corner once and isomorphisms keep it, so the orbits are
  the plane trees up to isomorphism (Walkup, *The number of plane trees*,
  Mathematika 1972).
- `(u)v -> v(u)` turns the root once about its vertex, so the orbits are
  the trees with a marked vertex.

A class is counted at the least word of its orbit, found by walking the
orbit (at most 2d words): the count streams over the Catalan(d) words and
holds O(d) of them, not a set of classes.
"""

from __future__ import annotations

from functools import lru_cache


def dyck_words(semilength: int):
    """All Dyck words of the given semilength, as strings of `(` and `)`."""
    if semilength == 0:
        yield ""
        return
    for first in range(semilength):
        for u in dyck_words(first):
            for v in dyck_words(semilength - 1 - first):
                yield f"({u}){v}"


def _split(word: str) -> tuple[str, str]:
    """(u, v) for the nonempty word (u)v."""
    depth = 0
    for i, letter in enumerate(word):
        depth += 1 if letter == "(" else -1
        if depth == 0:
            return word[1:i], word[i + 1 :]


def _reroot(u: str, v: str) -> str:
    return f"{u}({v})"


def _turn(u: str, v: str) -> str:
    return f"{v}({u})"


def _count_orbits(semilength: int, step) -> int:
    """Orbits of the map (u)v -> step(u, v), each counted at its least word."""
    count = 0
    for word in dyck_words(semilength):
        image = step(*_split(word))
        while word < image:
            image = step(*_split(image))
        count += image == word
    return count


@lru_cache(maxsize=None)
def count_brauer_trees(edges: int, multiplicity: int) -> int:
    """Isomorphism classes of Brauer trees with `edges` edges."""
    if edges < 1 or multiplicity < 1:
        raise ValueError("need edges >= 1 and multiplicity >= 1")
    return _count_orbits(edges, _reroot if multiplicity == 1 else _turn)


@lru_cache(maxsize=None)
def count_marked_extremal_trees(edges: int) -> int:
    """Multiplicity-one Brauer trees with a chosen extremal (leaf) vertex:
    the words rooted at a leaf, (u), each alone in its turning orbit."""
    if edges < 1:
        raise ValueError("need edges >= 1")
    return sum(not _split(word)[1] for word in dyck_words(edges))
