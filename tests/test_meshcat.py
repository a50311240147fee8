"""Mesh category homs: oracle vs fast recursion vs literal path algebra.

The literal reference below enumerates every path and every mesh-relation
product explicitly and computes the quotient dimension as #paths minus
the rank of the relation span.  It is exponential and only run on small
windows, where it pins down both production implementations.

`reference_quotient_hom_table` is the covering sum taken pair by pair over
deck translates of the target; it pins the pushforward in
`quotient_hom_table`.  `meshcat_reference` scans the whole band window
with Fraction rows; it pins both tables, which stop at the first empty
t-grade and keep integer rows.
"""

import pytest
from linalg_reference import SpanTracker
from meshcat_reference import (
    arrows_in,
    arrows_out,
    band_vertices,
    reference_fast_dims,
    reference_oracle_dims,
    t_grade,
)

from smsquiver.configs import _type_grid
from smsquiver.dynkin import DynkinGraph, coxeter_number, parse_type
from smsquiver.meshcat import (
    HomTable,
    SupportBandError,
    _check_support_band,
    _band_order,
    _node_table,
    fast_table,
    hom_dim_fast,
    hom_dim_oracle,
    oracle_table,
    quotient_hom_dim,
    quotient_hom_table,
)
from smsquiver.ztquiver import Window, _steps, automorphisms, quotient

# every type of the transitivity grid, plus E6 with and without torsion
GRID_TYPES = [str(t) for t in _type_grid(5, 2, False)] + ["E:6/f=1/t=1", "E:6/f=1/t=2"]
# every graph criterion 1 names
ALL_GRAPHS = (
    [("A", n) for n in range(1, 13)]
    + [("D", n) for n in range(4, 13)]
    + [("E", n) for n in (6, 7, 8)]
)


def _paths(graph, x, y):
    """All directed paths x -> y as vertex tuples."""
    out = []
    limit = t_grade(graph, y)

    def walk(v, acc):
        if v == y:
            out.append(tuple(acc))
            return
        if t_grade(graph, v) >= limit:
            return
        for w in arrows_out(graph, v):
            if w[0] <= y[0] and graph.depth(w[1]) is not None:
                acc.append(w)
                walk(w, acc)
                acc.pop()

    walk(x, [x])
    return out


def literal_mesh_dim(graph, x, y):
    """Quotient of the path space by the two-sided mesh ideal, by brute force."""
    paths = _paths(graph, x, y)
    if not paths:
        return 0
    index = {p: i for i, p in enumerate(paths)}
    tracker = SpanTracker(len(paths))
    for v in [w for w in {p for path in paths for p in path}]:
        tv = (v[0] - 1, v[1])
        if tv[0] < x[0]:
            continue
        heads = _paths(graph, x, tv)
        tails = _paths(graph, v, y)
        mids = arrows_in(graph, v)
        for head in heads:
            for tail in tails:
                vec = [0] * len(paths)
                for u in mids:
                    whole = head + (u,) + tail
                    if whole in index:
                        vec[index[whole]] += 1
                if any(vec):
                    tracker.add(vec)
    return len(paths) - tracker.rank


@pytest.mark.parametrize("family,rank,depth", [("A", 2, 5), ("A", 3, 5), ("D", 4, 5)])
def test_oracle_matches_literal_path_quotient(family, rank, depth):
    graph = DynkinGraph(family, rank)
    sources = [(0, q) for q in graph.nodes]
    for x in sources:
        table = oracle_table(graph, x)
        for p in range(0, depth + 1):
            for q in graph.nodes:
                y = (p, q)
                assert table.dim(y) == literal_mesh_dim(graph, x, y), (x, y)


def test_self_hom_is_one_and_tau_hom_is_zero():
    for family, rank in [("A", 2), ("A", 3), ("A", 4), ("D", 4)]:
        graph = DynkinGraph(family, rank)
        for q in graph.nodes:
            table = oracle_table(graph, (0, q))
            assert table.dim((0, q)) == 1
            assert table.dim((-1, q)) == 0  # tau x sits behind the source


def test_support_band_and_window_guard():
    graph = DynkinGraph("A", 3)
    h = coxeter_number(graph)
    table = oracle_table(graph, (0, 2))
    assert all(p - 0 <= h for p, q in table.dims)
    # tables take no window, so none can be too small: the fixed window
    # starts at the source and reaches past its h-slice band
    for q in graph.nodes:
        levels = {p for _, p, _ in _band_order(graph, q)}
        assert min(levels) == 0 and max(levels) > h


@pytest.mark.parametrize("entry", [[40, 3, 7], [-1, 3, 1], [2, 9, 1]])
def test_out_of_band_cache_entry_is_a_miss(entry):
    # one entry too far ahead of the source, one behind it, one at a node
    # E6 does not have: each is rejected, and the cached table is untouched
    q = quotient(parse_type("E:6/f=1/t=1"))
    expected = quotient_hom_table(q)
    good = _node_table(q.graph, 3)
    p, node, d = entry
    bad = HomTable(q.graph, good.source, {**good.dims, (p, node): d})
    with pytest.raises(SupportBandError):
        _check_support_band(bad)
    assert _node_table(q.graph, 3).dims == fast_table(q.graph, (0, 3)).dims
    assert quotient_hom_table(q) == expected


def test_fast_equals_oracle_off_acceptance_sizes():
    # exhaustive parity from every node of every graph criterion 1 names;
    # criterion 9 covers A2-A5, D4, D5 and E6 over wider source sets
    for family, rank in ALL_GRAPHS:
        graph = DynkinGraph(family, rank)
        for q in graph.nodes:
            fast = fast_table(graph, (0, q)).dims
            assert fast == oracle_table(graph, (0, q)).dims, (family, rank, q)


def test_step_tables_match_the_quiver():
    # the per-graph tables give the arrows into and out of each vertex in
    # the order of the edge-loop references arrows_in and arrows_out, and
    # the band's vertices, shifted to the source's level, in the order of a
    # window scan
    for family, rank in ALL_GRAPHS:
        graph = DynkinGraph(family, rank)
        steps = _steps(graph)
        assert list(steps.depth) == list(graph.nodes)
        h = coxeter_number(graph)
        for q in graph.nodes:
            assert steps.depth[q] == graph.depth(q)
            for p in (-3, 0, 7):
                ins = [(p + dp, n) for dp, n in steps.ins[q]]
                assert ins == arrows_in(graph, (p, q))
                outs = [(p + dp, n) for dp, n in steps.outs[q]]
                assert outs == arrows_out(graph, (p, q))
            source = (5, q)
            window = Window(graph, 5, 5 + 2 * h + 1)
            start = t_grade(graph, source)
            scanned = sorted(
                (t_grade(graph, v) - start, v)
                for v in window.vertices
                if t_grade(graph, v) >= start
            )
            order = [(g, (5 + p, n)) for g, p, n in _band_order(graph, q)]
            assert order == scanned
            assert [v for _, v in scanned] == band_vertices(graph, source)


@pytest.mark.parametrize("family,rank", ALL_GRAPHS)
def test_tables_match_the_full_window_reference(family, rank):
    # the tables end at the first empty t-grade and keep integer rows; the
    # references scan the whole window with Fraction rows.  Same values,
    # same key order, from several levels of every node.
    graph = DynkinGraph(family, rank)
    for q in graph.nodes:
        for level in (0, 3, -2):
            source = (level, q)
            oracle = oracle_table(graph, source).dims
            assert list(oracle.items()) == list(reference_oracle_dims(graph, source).items())
            fast = fast_table(graph, source).dims
            assert list(fast.items()) == list(reference_fast_dims(graph, source).items())


def test_tables_store_only_nonzero_homs():
    for family, rank in [("A", 4), ("D", 5), ("E", 6)]:
        graph = DynkinGraph(family, rank)
        for q in graph.nodes:
            for table in (fast_table(graph, (0, q)), oracle_table(graph, (0, q))):
                assert all(table.dims.values())


def test_hammock_rectangle_for_a_type():
    graph = DynkinGraph("A", 4)
    for i in graph.nodes:
        table = oracle_table(graph, (0, i))
        support = set(table.dims)
        expected = {
            (p, j)
            for p in range(0, i)
            for j in graph.nodes
            if i <= p + j <= graph.rank
        }
        assert support == expected


def test_translation_equivariance():
    # the tables index a grid relative to the source's level, so a source
    # moved by s levels gives the same values, in the same order, at keys
    # moved by s levels
    for family, rank in [("A", 5), ("D", 5), ("E", 6)]:
        graph = DynkinGraph(family, rank)
        for table_fn in (oracle_table, fast_table):
            for q in graph.nodes:
                base = list(table_fn(graph, (0, q)).dims.items())
                for level in (-2, 3):
                    shifted = table_fn(graph, (level, q))
                    assert shifted.source == (level, q)
                    expected = [((p + level, n), d) for (p, n), d in base]
                    assert list(shifted.dims.items()) == expected, (family, rank, q, level)


def test_a1_has_only_identities():
    graph = DynkinGraph("A", 1)
    table = oracle_table(graph, (0, 1))
    assert table.dims == {(0, 1): 1}


def test_quotient_hom_examples():
    # k[x]/(x^3) presented as the tau-quotient of the A2 lattice
    q = quotient(parse_type("A:2/f=1/2/t=1"))
    for v in q.vertices:
        assert quotient_hom_dim(q, v, v) == 1
    table = quotient_hom_table(q)
    assert all(sum(table.get((e, f), 0) for f in q.vertices) >= 1 for e in q.vertices)


def test_quotient_hom_constant_on_automorphism_orbits():
    # invariance under every automorphism, and hom(tau e, tau f) = hom(e, f)
    for text in GRID_TYPES:
        q = quotient(parse_type(text))
        table = quotient_hom_table(q)
        for phi in [q.tau] + automorphisms(q):
            for (e, f), d in table.items():
                assert table[(phi[e], phi[f])] == d, (text, e, f)


def reference_quotient_hom_table(q):
    """For each pair (e, f), the table of e summed over the deck translates
    of f whose level relative to e lies in [0, 2h]."""
    graph = q.graph
    h = coxeter_number(graph)
    tables = {node: fast_table(graph, (0, node)) for node in graph.nodes}
    table = {}
    for e in q.vertices:
        source_table = tables[e[1]]
        for f in q.vertices:
            lo = -((f[0] + 3 * h) // q.r + 3)
            hi = (e[0] + 3 * h) // q.r + 3
            total = 0
            for j in range(lo, hi + 1):
                lift = q.deck(f, j)
                rel = (lift[0] - e[0], lift[1])
                if 0 <= rel[0] <= 2 * h:
                    total += source_table.dim(rel)
            table[(e, f)] = total
    return table


def test_pushforward_matches_deck_translate_sums():
    # the reference costs 1-3 s on each quotient with more than 100
    # vertices (D6 and D7 at f=2), so those are left out
    for text in GRID_TYPES:
        q = quotient(parse_type(text))
        if len(q.vertices) > 100:
            continue
        table = quotient_hom_table(q)
        reference = reference_quotient_hom_table(q)
        nonzero = {pair: d for pair, d in reference.items() if d}
        # the same dict in the same key order
        assert list(table.items()) == list(nonzero.items()), text


def test_quotient_hom_tables_hold_no_zeros():
    # the table lists the nonzero homs only; absent pairs read as 0
    for t in _type_grid(5, 2, True):
        q = quotient(t)
        table = quotient_hom_table(q)
        verts = set(q.vertices)
        assert 0 not in table.values(), str(t)
        assert all(e in verts and f in verts for e, f in table), str(t)


def test_hom_dim_fast_agrees_pointwise():
    graph = DynkinGraph("A", 3)
    assert hom_dim_fast(graph, (5, 2), (6, 1)) == hom_dim_oracle(graph, (5, 2), (6, 1))
    assert hom_dim_fast(graph, (0, 1), (9, 1)) == 0
    assert hom_dim_fast(graph, (5, 2), (4, 2)) == hom_dim_oracle(graph, (5, 2), (4, 2)) == 0
