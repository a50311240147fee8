"""Brauer tree counting via canonical forms of plane trees.

A Brauer tree with d edges and multiplicity m is a plane tree (a tree with
a cyclic ordering of the edges around every vertex) together with, when
m >= 2, one distinguished exceptional vertex.  Isomorphism preserves the
cyclic orderings; counting is done by enumerating rooted plane trees and
deduplicating canonical forms: the least flat encoding over every rotation
at the tree's center, which every isomorphism fixes.
"""

from __future__ import annotations

import itertools
from functools import lru_cache


def rooted_plane_trees(edges: int):
    """All rooted plane trees with `edges` edges as nested child tuples."""
    if edges == 0:
        yield ()
        return
    for first_size in range(edges):
        for child in rooted_plane_trees(first_size):
            for rest in rooted_plane_trees(edges - 1 - first_size):
                yield (child,) + rest


def _tree_graph(tree):
    """Adjacency with cyclic neighbor order; vertex 0 is the root."""
    neighbors = {0: []}
    counter = itertools.count(1)

    def walk(node_id, children):
        for child in children:
            cid = next(counter)
            neighbors[node_id].append(cid)
            neighbors[cid] = [node_id]
            walk(cid, child)

    walk(0, tree)
    return neighbors


def _encode(neighbors, root, first, marked=None):
    """Serialize by DFS respecting cyclic order, entering at `first`.

    A flat tuple: each vertex writes its mark (0 or 1), then its subtrees,
    then 2, so the tuple parses back into the tree it came from.
    """
    out = []

    def visit(v, parent):
        ring = neighbors[v]
        if parent is None:
            start = ring.index(first)
            ordered = ring[start:] + ring[:start]
        else:
            start = ring.index(parent)
            ordered = ring[start + 1 :] + ring[:start]
        out.append(1 if v == marked else 0)
        for w in ordered:
            visit(w, v)
        out.append(2)

    visit(root, None)
    return tuple(out)


def _center(neighbors):
    """The one or two vertices left after stripping leaves layer by layer."""
    degree = {v: len(ring) for v, ring in neighbors.items()}
    layer = [v for v, d in degree.items() if d <= 1]
    left = len(neighbors)
    while left > 2:
        left -= len(layer)
        nxt = []
        for v in layer:
            for w in neighbors[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    nxt.append(w)
        layer = nxt
    return layer


def _canonical(neighbors, marked=None):
    """Least encoding over the darts at the center.  Isomorphisms keep the
    center, so this is a complete invariant."""
    return min(
        _encode(neighbors, root, first, marked)
        for root in _center(neighbors)
        for first in neighbors[root]
    )


def _plane_tree_classes(edges: int):
    seen = {}
    for tree in rooted_plane_trees(edges):
        neighbors = _tree_graph(tree)
        canon = _canonical(neighbors)
        if canon not in seen:
            seen[canon] = neighbors
    return list(seen.values())


@lru_cache(maxsize=None)
def count_brauer_trees(edges: int, multiplicity: int) -> int:
    """Isomorphism classes of Brauer trees with `edges` edges."""
    if edges < 1 or multiplicity < 1:
        raise ValueError("need edges >= 1 and multiplicity >= 1")
    classes = _plane_tree_classes(edges)
    if multiplicity == 1:
        return len(classes)
    marked = set()
    for neighbors in classes:
        for v in neighbors:
            marked.add(_canonical(neighbors, marked=v))
    return len(marked)


@lru_cache(maxsize=None)
def count_marked_extremal_trees(edges: int) -> int:
    """Multiplicity-one Brauer trees with a chosen extremal (leaf) vertex."""
    if edges < 1:
        raise ValueError("need edges >= 1")
    marked = set()
    for neighbors in _plane_tree_classes(edges):
        for v, ring in neighbors.items():
            if len(ring) <= 1:
                marked.add(_canonical(neighbors, marked=v))
    return len(marked)
