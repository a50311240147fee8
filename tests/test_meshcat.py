"""Mesh category homs: oracle vs fast recursion vs literal path algebra.

The literal reference below enumerates every path and every mesh-relation
product explicitly and computes the quotient dimension as #paths minus
the rank of the relation span.  It is exponential and only run on small
windows, where it pins down both production implementations.

`reference_quotient_hom_table` is the covering sum taken pair by pair over
deck translates of the target; it pins the pushforward in
`quotient_hom_table`.
"""

import json

import pytest

from smsquiver.configs import _type_grid
from smsquiver.dynkin import DynkinGraph, coxeter_number, parse_type
from smsquiver.linalg import SpanTracker
from smsquiver.meshcat import (
    fast_table,
    hom_dim_fast,
    hom_dim_oracle,
    oracle_table,
    quotient_hom_dim,
    quotient_hom_table,
)
from smsquiver.ztquiver import (
    WindowTooSmallError,
    arrows_in,
    arrows_out,
    automorphisms,
    quotient,
    t_grade,
)

# every type of the transitivity grid, plus E6 with and without torsion
GRID_TYPES = [str(t) for t in _type_grid(5, 2, False)] + ["E:6/f=1/t=1", "E:6/f=1/t=2"]


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
    assert all(p - 0 <= h for (p, q), d in table.dims.items() if d)
    with pytest.raises(WindowTooSmallError):
        hom_dim_oracle(graph, (0, 1), (1, 1), window=(0, 3))
    with pytest.raises(WindowTooSmallError):
        oracle_table(graph, (0, 1), window=(1, 20))


def test_fast_equals_oracle_off_acceptance_sizes():
    # exhaustive parity on the small classes; the acceptance suite covers
    # the full list up to E6
    for family, rank in [("A", 2), ("A", 3), ("D", 4)]:
        graph = DynkinGraph(family, rank)
        for q in graph.nodes:
            assert fast_table(graph, (0, q)).dims == oracle_table(graph, (0, q)).dims


def test_hammock_rectangle_for_a_type():
    graph = DynkinGraph("A", 4)
    for i in graph.nodes:
        table = oracle_table(graph, (0, i))
        support = set(table.support())
        expected = {
            (p, j)
            for p in range(0, i)
            for j in graph.nodes
            if i <= p + j <= graph.rank
        }
        assert support == expected


def test_translation_equivariance():
    graph = DynkinGraph("D", 5)
    base = oracle_table(graph, (0, 3))
    shifted = oracle_table(graph, (2, 3))
    for (p, q), d in base.dims.items():
        assert shifted.dim((p + 2, q)) == d


def test_a1_has_only_identities():
    graph = DynkinGraph("A", 1)
    table = oracle_table(graph, (0, 1))
    assert {v: d for v, d in table.dims.items() if d} == {(0, 1): 1}


def test_quotient_hom_examples():
    # k[x]/(x^3) presented as the tau-quotient of the A2 lattice
    q = quotient(parse_type("A:2/f=1/2/t=1"))
    for v in q.vertices:
        assert quotient_hom_dim(q, v, v) == 1
    table = quotient_hom_table(q)
    assert all(sum(table[(e, f)] for f in q.vertices) >= 1 for e in q.vertices)


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
        # the same dict in the same key order
        assert list(table.items()) == list(reference.items()), text


def test_hom_dim_fast_agrees_pointwise():
    graph = DynkinGraph("A", 3)
    assert hom_dim_fast(graph, (5, 2), (6, 1)) == hom_dim_oracle(graph, (5, 2), (6, 1))
    assert hom_dim_fast(graph, (0, 1), (9, 1)) == 0


@pytest.fixture
def hom_cache(tmp_path, monkeypatch):
    """`smsquiver.meshcat` with an empty cache directory and empty memos."""
    import smsquiver.meshcat as mc

    monkeypatch.setenv("SMSQUIVER_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(mc, "_table_cache", {})
    monkeypatch.setattr(mc, "_quotient_cache", {})
    return mc


def test_cache_dir_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("SMSQUIVER_CACHE_DIR", str(tmp_path))
    import smsquiver.meshcat as mc

    mc._table_cache.clear()
    t1 = mc._cached_table(DynkinGraph("A", 2), 1)
    files = list(tmp_path.iterdir())
    assert files, "cache file written"
    mc._table_cache.clear()
    t2 = mc._cached_table(DynkinGraph("A", 2), 1)
    assert {k: v for k, v in t1.dims.items() if v} == {
        k: v for k, v in t2.dims.items() if v
    }


@pytest.mark.parametrize(
    "content",
    [
        "not json at all",
        '{"schema": 2, "window": [0, 25], "dims": [[0, 3, 1], [1, 2',  # truncated
        '[[0, 3, 1]]',
        '{"schema": 2, "window": [0, 25], "dims": [[0, 3]]}',
        '{"schema": 2, "window": [0, 1], "dims": [[0, 3, 1]]}',
        '{"schema": 2, "window": [0, 25], "dims": [[0, 3, null]]}',
    ],
    ids=["garbage", "truncated", "not-an-object", "short-entry", "window", "null-dim"],
)
def test_unreadable_cache_file_is_a_miss(hom_cache, monkeypatch, content):
    mc = hom_cache
    graph = DynkinGraph("E", 6)
    key = ("E", 6, 3)
    path = mc._cache_path(key)
    with open(path, "w") as fh:
        fh.write(content)
    table = mc._cached_table(graph, 3)
    assert table.dims == fast_table(graph, (0, 3)).dims
    # the bad file was replaced by a good one
    monkeypatch.setattr(mc, "_table_cache", {})
    assert mc._load_cached(key).support() == table.support()


@pytest.mark.parametrize("entry", [[40, 3, 7], [-1, 3, 1], [2, 9, 1]])
def test_out_of_band_cache_entry_is_a_miss(hom_cache, monkeypatch, entry):
    mc = hom_cache
    q = quotient(parse_type("E:6/f=1/t=1"))
    expected = quotient_hom_table(q)
    for node in q.graph.nodes:
        mc._cached_table(q.graph, node)
    path = mc._cache_path(("E", 6, 3))
    with open(path) as fh:
        payload = json.load(fh)
    payload["dims"].append(entry)
    with open(path, "w") as fh:
        json.dump(payload, fh)
    assert mc._load_cached(("E", 6, 3)) is None
    monkeypatch.setattr(mc, "_table_cache", {})
    monkeypatch.setattr(mc, "_quotient_cache", {})
    assert quotient_hom_table(q) == expected


def test_cache_files_carry_the_schema_version(hom_cache, tmp_path, monkeypatch):
    mc = hom_cache
    graph = DynkinGraph("A", 2)
    good = mc._cached_table(graph, 1)
    # a file under the unversioned name is never read
    (tmp_path / "hom_A2_q2_fast.json").write_text(
        '{"schema": 2, "window": [0, 7], "dims": [[1, 1, 9]]}'
    )
    assert [p.name for p in tmp_path.iterdir() if "q1" in p.name] == [
        f"hom_v{mc.CACHE_SCHEMA}_A2_q1_fast.json"
    ]
    monkeypatch.setattr(mc, "_table_cache", {})
    assert mc._cached_table(graph, 2).dims == fast_table(graph, (0, 2)).dims
    assert mc._cached_table(graph, 1).support() == good.support()
