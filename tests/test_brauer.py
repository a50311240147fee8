"""Brauer tree counts: the closed forms of `smsquiver.brauer` against the
orbit walk over Dyck words and an all-roots canonical form.

The walk is the counting the package did before the closed forms.  A
plane tree rooted at a corner is a Dyck word: walk around it from the
root, writing `(` down an edge and `)` back up.  The word splits as (u)v,
u the subtree of the root's first edge and v the rest.  Two maps act on
the words:

- `(u)v -> u(v)` moves the root to the next corner of the walk.  The walk
  passes every corner once and isomorphisms keep it, so the orbits are
  the plane trees up to isomorphism.
- `(u)v -> v(u)` turns the root once about its vertex, so the orbits are
  the trees with a marked vertex.

A class is counted at the least word of its orbit, found by walking the
orbit (at most 2d words), so the walk visits all Catalan(d) words.
"""

import itertools
from math import comb, gcd

import pytest

from smsquiver.brauer import count_brauer_trees, count_marked_extremal_trees


def dyck_words(semilength):
    """All Dyck words of the given semilength, as strings of `(` and `)`."""
    if semilength == 0:
        yield ""
        return
    for first in range(semilength):
        for u in dyck_words(first):
            for v in dyck_words(semilength - 1 - first):
                yield f"({u}){v}"


def _split(word):
    """(u, v) for the nonempty word (u)v."""
    depth = 0
    for i, letter in enumerate(word):
        depth += 1 if letter == "(" else -1
        if depth == 0:
            return word[1:i], word[i + 1 :]


def _reroot(u, v):
    return f"{u}({v})"


def _turn(u, v):
    return f"{v}({u})"


def _count_orbits(semilength, step):
    """Orbits of the map (u)v -> step(u, v), each counted at its least word."""
    count = 0
    for word in dyck_words(semilength):
        image = step(*_split(word))
        while word < image:
            image = step(*_split(image))
        count += image == word
    return count


def walk_brauer_trees(edges, multiplicity):
    """Brauer trees as orbits of Dyck words: rerooting at multiplicity 1,
    turning about the root (the exceptional vertex) otherwise."""
    return _count_orbits(edges, _reroot if multiplicity == 1 else _turn)


def walk_marked_extremal_trees(edges):
    """The words rooted at a leaf, (u), each alone in its turning orbit."""
    return sum(not _split(word)[1] for word in dyck_words(edges))


def rooted_plane_trees(edges):
    """All rooted plane trees with `edges` edges as nested child tuples."""
    if edges == 0:
        yield ()
        return
    for first_size in range(edges):
        for child in rooted_plane_trees(first_size):
            for rest in rooted_plane_trees(edges - 1 - first_size):
                yield (child,) + rest


def tree_graph(tree):
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


def tree_word(tree):
    """The Dyck word of a nested-tuple tree: each child is (its word)."""
    return "".join(f"({tree_word(child)})" for child in tree)


def nested_encoding(neighbors, root, first, marked=None):
    """Serialize by DFS respecting cyclic order, entering at `first`: each
    vertex is its mark followed by the encodings of its subtrees."""

    def visit(v, parent):
        ring = neighbors[v]
        if parent is None:
            start = ring.index(first)
            ordered = ring[start:] + ring[:start]
        else:
            start = ring.index(parent)
            ordered = ring[start + 1 :] + ring[:start]
        mark = 1 if v == marked else 0
        return (mark,) + tuple(visit(w, v) for w in ordered)

    return visit(root, None)


def all_roots_canonical(neighbors, marked=None):
    """Least nested encoding over every root vertex and rotation."""
    return min(
        nested_encoding(neighbors, root, first, marked)
        for root, ring in neighbors.items()
        for first in ring
    )


def reference_counts(edges):
    """(plane trees, with a marked vertex, with a marked leaf) up to
    isomorphism, deduplicated by the all-roots encoding."""
    classes = {}
    for tree in rooted_plane_trees(edges):
        neighbors = tree_graph(tree)
        classes.setdefault(all_roots_canonical(neighbors), neighbors)
    marked = set()
    extremal = set()
    for neighbors in classes.values():
        for v, ring in neighbors.items():
            form = all_roots_canonical(neighbors, marked=v)
            marked.add(form)
            if len(ring) <= 1:
                extremal.add(form)
    return len(classes), len(marked), len(extremal)


@pytest.mark.parametrize("edges", range(1, 9))
def test_center_rooted_counts_match_all_roots_reference(edges):
    """The closed forms and the orbit walk both match the classes found by
    encoding each nested-tuple tree from every root and rotation."""
    unmarked, marked, extremal = reference_counts(edges)
    assert count_brauer_trees(edges, 1) == walk_brauer_trees(edges, 1) == unmarked
    assert count_brauer_trees(edges, 2) == count_brauer_trees(edges, 3) == marked
    assert walk_brauer_trees(edges, 2) == marked
    assert count_marked_extremal_trees(edges) == walk_marked_extremal_trees(edges) == extremal


@pytest.mark.parametrize(
    "edges", [pytest.param(12, marks=pytest.mark.slow) if d == 12 else d for d in range(1, 13)]
)
def test_closed_forms_match_the_orbit_walk(edges):
    for m in (1, 2, 3):
        assert count_brauer_trees(edges, m) == walk_brauer_trees(edges, m), m
    assert count_marked_extremal_trees(edges) == walk_marked_extremal_trees(edges)


def totient(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


@pytest.mark.parametrize(
    "edges", [pytest.param(12, marks=pytest.mark.slow) if d == 12 else d for d in range(1, 13)]
)
def test_marked_counts_fit_the_necklace_formula(edges):
    # plane trees with a marked vertex: (1/2n) sum_{d | n} phi(n/d) C(2d, d),
    # OEIS A003239 (1, 2, 4, 10, 26, 80, 246, 810, 2704, 9252, 32066, 112720)
    total = sum(totient(edges // d) * comb(2 * d, d) for d in range(1, edges + 1) if edges % d == 0)
    assert total % (2 * edges) == 0
    assert walk_brauer_trees(edges, 2) == total // (2 * edges)


@pytest.mark.parametrize("edges", range(1, 10))
def test_marked_leaf_counts_are_catalan(edges):
    # removing the marked leaf's edge leaves a plane tree rooted where that
    # edge was attached, and every rooted plane tree arises once
    assert walk_marked_extremal_trees(edges) == comb(2 * edges - 2, edges - 1) // edges


def test_dyck_words_are_the_rooted_plane_trees():
    for n in range(9):
        words = list(dyck_words(n))
        assert len(set(words)) == len(words)
        assert sorted(words) == sorted(map(tree_word, rooted_plane_trees(n)))


def test_rooted_trees_are_counted_by_catalan():
    for n in range(8):
        assert sum(1 for _ in dyck_words(n)) == comb(2 * n, n) // (n + 1)


def test_twenty_edges():
    # OEIS A002995 and A003239 at 20 edges, and Catalan(19) trees rooted at
    # a leaf; the walk would visit about 6.6 x 10^9 Dyck words here
    assert count_brauer_trees(20, 1) == 164107650
    assert count_brauer_trees(20, 2) == 3446167860
    assert count_marked_extremal_trees(20) == comb(38, 19) // 20


# plane trees with 1, ..., 12 edges up to isomorphism, OEIS A002995
A002995 = (1, 1, 2, 3, 6, 14, 34, 95, 280, 854, 2694, 8714)


@pytest.mark.parametrize("edges", range(1, 13))
def test_unmarked_counts_are_oeis_a002995(edges):
    assert count_brauer_trees(edges, 1) == A002995[edges - 1]


def test_single_edge_is_unique_for_every_multiplicity():
    for m in range(1, 6):
        assert count_brauer_trees(1, m) == 1


def test_two_edges():
    assert count_brauer_trees(2, 1) == 1
    assert count_brauer_trees(2, 2) == 2  # exceptional vertex at the middle or an end


def test_count_is_one_exactly_at_one_edge_or_two_one():
    for d in range(1, 5):
        for m in range(1, 5):
            expect_one = d == 1 or (d, m) == (2, 1)
            assert (count_brauer_trees(d, m) == 1) is expect_one


def test_marked_counts_stabilize_in_multiplicity():
    # once m >= 2 only the choice of exceptional vertex matters
    for d in range(1, 6):
        assert count_brauer_trees(d, 2) == count_brauer_trees(d, 3)


def test_marked_extremal_counts():
    # a path with two edges has its two ends identified by the flip
    assert count_marked_extremal_trees(2) == 1
    # larger sizes admit several marked classes
    assert count_marked_extremal_trees(3) == 2
    assert count_marked_extremal_trees(1) == 1


def test_invalid_arguments():
    with pytest.raises(ValueError):
        count_brauer_trees(0, 1)
    with pytest.raises(ValueError):
        count_brauer_trees(1, 0)
