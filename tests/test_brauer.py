import itertools
from math import comb, gcd

import pytest

from smsquiver.brauer import count_brauer_trees, count_marked_extremal_trees, dyck_words


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
    """The orbit counts on Dyck words match classes found by encoding each
    nested-tuple tree from every root and rotation."""
    unmarked, marked, extremal = reference_counts(edges)
    assert count_brauer_trees(edges, 1) == unmarked
    assert count_brauer_trees(edges, 2) == count_brauer_trees(edges, 3) == marked
    assert count_marked_extremal_trees(edges) == extremal


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
    assert count_brauer_trees(edges, 2) == total // (2 * edges)


@pytest.mark.parametrize("edges", range(1, 10))
def test_marked_leaf_counts_are_catalan(edges):
    # removing the marked leaf's edge leaves a plane tree rooted where that
    # edge was attached, and every rooted plane tree arises once
    assert count_marked_extremal_trees(edges) == comb(2 * edges - 2, edges - 1) // edges


def test_dyck_words_are_the_rooted_plane_trees():
    for n in range(9):
        words = list(dyck_words(n))
        assert len(set(words)) == len(words)
        assert sorted(words) == sorted(map(tree_word, rooted_plane_trees(n)))


def test_rooted_trees_are_counted_by_catalan():
    for n in range(8):
        assert sum(1 for _ in dyck_words(n)) == comb(2 * n, n) // (n + 1)


# plane trees with 1, ..., 12 edges up to isomorphism, OEIS A002995
A002995 = (1, 1, 2, 3, 6, 14, 34, 95, 280, 854, 2694, 8714)


@pytest.mark.parametrize(
    "edges", [pytest.param(12, marks=pytest.mark.slow) if d == 12 else d for d in range(1, 13)]
)
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
