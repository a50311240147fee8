from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb, gcd

import pytest

from smsquiver.configs import (
    CardinalityError,
    Orbit,
    _type_grid,
    enumerate_configurations,
    in_single_orbit_list,
    is_configuration,
    orbit_decomposition,
    transitivity_list_check,
)
from smsquiver.dynkin import DynkinGraph, RfsType, num_simples, parse_type
from smsquiver.meshcat import quotient_hom_table
from smsquiver.ztquiver import automorphisms, quotient


def test_every_enumerated_configuration_passes_the_checker():
    for text in ["A:3/f=1/t=2", "A:4/f=1/t=1", "D:4/f=1/t=3", "D:6/f=1/3/t=1"]:
        q = quotient(parse_type(text))
        configs = enumerate_configurations(q)
        assert configs
        for c in configs:
            ok, diag = is_configuration(q, c)
            assert ok, (text, c, diag)
            assert len(c) == num_simples(q.rfs_type)


def reference_enumeration(q):
    """Backtracking over candidates in (node, level) order with set-based
    orthogonality and covering-feasibility pruning."""
    card = num_simples(q.rfs_type)
    table = quotient_hom_table(q)
    candidates = sorted(
        (v for v in q.vertices if table.get((v, v), 0) == 1),
        key=lambda v: (v[1], v[0]),
    )
    orthogonal = {
        (a, b)
        for a in candidates
        for b in candidates
        if a != b and not table.get((a, b), 0) and not table.get((b, a), 0)
    }
    coverers = {
        v: frozenset(c for c in candidates if table.get((v, c), 0)) for v in q.vertices
    }
    out = []

    def extend(start, chosen):
        if len(chosen) == card:
            members = set(chosen)
            if all(coverers[v] & members for v in q.vertices):
                out.append(tuple(sorted(chosen)))
            return
        pool = [
            k
            for k in range(start, len(candidates))
            if all((candidates[k], c) in orthogonal for c in chosen)
        ]
        if len(chosen) + len(pool) < card:
            return
        avail = set(chosen) | {candidates[k] for k in pool}
        if not all(coverers[v] & avail for v in q.vertices):
            return
        for k in pool:
            chosen.append(candidates[k])
            extend(k + 1, chosen)
            chosen.pop()

    extend(0, [])
    return sorted(set(out))


def bitmask_clique_enumeration(q):
    """Cliques of the orthogonality graph grown over candidates in
    (node, level) order, one Python-int mask per candidate for its
    orthogonal partners and one per vertex for the candidates it covers;
    every vertex is rescanned for a coverer at every node."""
    card = num_simples(q.rfs_type)
    table = quotient_hom_table(q)
    candidates = sorted(
        (v for v in q.vertices if table.get((v, v), 0) == 1),
        key=lambda v: (v[1], v[0]),
    )
    orth = [
        sum(
            1 << j
            for j, b in enumerate(candidates)
            if a != b and not table.get((a, b), 0) and not table.get((b, a), 0)
        )
        for a in candidates
    ]
    coverers = [
        sum(1 << k for k, c in enumerate(candidates) if table.get((v, c), 0))
        for v in q.vertices
    ]
    out = []

    def extend(chosen, size, pool):
        if size == card:
            if all(c & chosen for c in coverers):
                members = (v for k, v in enumerate(candidates) if chosen >> k & 1)
                out.append(tuple(sorted(members)))
            return
        if size + pool.bit_count() < card:
            return
        avail = chosen | pool
        if not all(c & avail for c in coverers):
            return
        while pool:
            low = pool & -pool
            pool ^= low
            extend(chosen | low, size + 1, pool & orth[low.bit_length() - 1])

    extend(0, 0, (1 << len(candidates)) - 1)
    return sorted(set(out))


@cache
def clique_configurations(text):
    """`bitmask_clique_enumeration` of one type, computed once per session."""
    return bitmask_clique_enumeration(quotient(parse_type(text)))


def reference_orbit_partition(q, configs):
    """Partition configurations under the automorphisms of the quiver by
    applying every automorphism to each configuration not yet placed."""
    configs = sorted(set(tuple(sorted(c)) for c in configs))
    auts = automorphisms(q)
    remaining = set(configs)
    orbits = []
    for c in configs:
        if c not in remaining:
            continue
        members = sorted({tuple(sorted(phi[v] for v in c)) for phi in auts})
        for m in members:
            remaining.discard(m)
        orbits.append(Orbit(min(members), len(members), tuple(members)))
    return sorted(orbits, key=lambda o: o.representative)


GRID_TYPES = [str(t) for t in _type_grid(5, 2, False)] + ["E:6/f=1/t=1", "E:6/f=1/t=2"]


def test_scarcest_vertex_branching_matches_both_references():
    # the set-based reference takes 8 to 100 s on each quotient with more
    # than 100 vertices (D6 and D7 at f=2), so only the bitmask one runs there
    for text in GRID_TYPES:
        q = quotient(parse_type(text))
        configs = enumerate_configurations(q)
        assert configs == clique_configurations(text), text
        if len(q.vertices) <= 100:
            assert configs == reference_enumeration(q), text


def test_d7_at_frequency_two_is_pinned():
    q = quotient(parse_type("D:7/f=2/t=1"))
    assert len(q.vertices) == 154
    assert len(enumerate_configurations(q)) == 1122


@pytest.mark.parametrize("text", ["A:3/f=1/t=1", "D:4/f=1/t=1", "E:6/f=1/t=2"])
def test_short_covering_raises(monkeypatch, text):
    # with the simple count raised by one, the true configurations cover
    # the quotient one member short of it; D4 and E6 have graph
    # automorphisms, so the covering is reached in an anchored branch
    # whose pool omits the orbits of earlier anchors
    monkeypatch.setattr(
        "smsquiver.configs.num_simples", lambda t: num_simples(t) + 1
    )
    with pytest.raises(CardinalityError):
        orbit_decomposition(quotient(parse_type(text)))


def test_empty_set_fails_covering():
    q = quotient(parse_type("A:2/f=1/t=1"))
    ok, diag = is_configuration(q, ())
    assert not ok and diag.startswith("covering")


def test_orthogonality_violation_reported():
    q = quotient(parse_type("A:2/f=1/t=1"))
    table = quotient_hom_table(q)
    v = next(v for v in q.vertices if table.get((v, v), 0) == 1)
    w = next(w for w in q.vertices if w != v and table.get((v, w), 0))
    ok, diag = is_configuration(q, (v, w))
    assert not ok and diag.startswith("orthogonality")


def test_exhaustive_subsets_confirm_cardinality_on_small_quotients():
    # without the size cutoff, brute force over all subsets finds exactly
    # the configurations of the expected cardinality
    for text in ["A:2/f=1/t=1", "A:1/f=3/t=1", "A:2/f=1/2/t=1"]:
        q = quotient(parse_type(text))
        card = num_simples(q.rfs_type)
        brute = [
            subset
            for size in range(len(q.vertices) + 1)
            for subset in combinations(q.vertices, size)
            if is_configuration(q, subset)[0]
        ]
        assert sorted(brute) == [tuple(sorted(c)) for c in enumerate_configurations(q)]
        assert all(len(c) == card for c in brute)


def test_lifted_configurations_stay_orthogonal_upstairs():
    # the full preimage of a configuration, within a window of the
    # universal quiver, has one-dimensional endomorphisms and no homs
    # between distinct points
    from smsquiver.meshcat import hom_dim_fast

    for text in ["A:3/f=1/t=2", "D:6/f=1/3/t=1", "A:4/f=1/2/t=1"]:
        q = quotient(parse_type(text))
        graph = q.graph
        for config in enumerate_configurations(q):
            lifted = sorted({w for v in config for w in q.lift(v, 4)})
            for u in lifted:
                for v in lifted:
                    expected = 1 if u == v else 0
                    if v[0] >= u[0]:
                        assert hom_dim_fast(graph, u, v) == expected, (text, u, v)


def test_single_forced_configuration_on_a1_quotients():
    for s in (1, 2, 3, 4):
        q = quotient(parse_type(f"A:1/f={s}/t=1"))
        assert enumerate_configurations(q) == [tuple(sorted(q.vertices))]


def test_automorphic_image_of_a_configuration_is_one():
    # checked against the clique enumeration, which uses no automorphism;
    # the package's own enumeration expands orbits by automorphisms
    for text in GRID_TYPES:
        q = quotient(parse_type(text))
        configs = clique_configurations(text)
        known = set(configs)
        for phi in automorphisms(q):
            for c in configs:
                assert tuple(sorted(phi[v] for v in c)) in known, (text, c)


@pytest.mark.parametrize(
    "texts",
    [
        pytest.param(GRID_TYPES + ["E:7/f=1/t=1"], id="grid+E7"),
        pytest.param(["E:8/f=1/t=1"], id="E8", marks=pytest.mark.slow),
    ],
)
def test_orbit_decomposition_matches_the_reference_partition(texts):
    for text in texts:
        q = quotient(parse_type(text))
        want = reference_orbit_partition(q, clique_configurations(text))
        assert orbit_decomposition(q) == want, text


def test_orbit_decomposition_partitions_and_minimizes():
    q = quotient(parse_type("D:4/f=1/t=1"))
    configs = enumerate_configurations(q)
    orbits = orbit_decomposition(q)
    assert sum(o.size for o in orbits) == len(configs)
    assert sorted(o.size for o in orbits) == [5, 15]
    for o in orbits:
        assert o.representative == min(o.members)


def test_counts_match_between_gcd_equal_parameters():
    a = len(enumerate_configurations(quotient(parse_type("A:4/f=1/4/t=1"))))
    b = len(enumerate_configurations(quotient(parse_type("A:4/f=3/4/t=1"))))
    assert a == b == 2


def test_single_orbit_membership_predicate():
    assert in_single_orbit_list(parse_type("A:2/f=3/2/t=1"))
    assert in_single_orbit_list(parse_type("A:5/f=2/5/t=1"))
    assert not in_single_orbit_list(parse_type("A:4/f=1/2/t=1"))
    assert in_single_orbit_list(parse_type("A:3/f=2/t=2"))
    assert not in_single_orbit_list(parse_type("A:5/f=1/t=2"))
    assert in_single_orbit_list(parse_type("D:6/f=1/3/t=1"))
    assert in_single_orbit_list(parse_type("D:4/f=1/t=3"))
    assert not in_single_orbit_list(parse_type("D:4/f=1/t=1"))


def test_transitivity_report_consistency():
    rows = transitivity_list_check()
    assert len(rows) > 30
    seen = {r.rfs_type for r in rows}
    assert {"A:2/f=1/2/t=1", "A:4/f=1/2/t=1", "D:4/f=1/t=3", "D:6/f=1/3/t=1"} <= seen
    for row in rows:
        assert row.single_orbit == row.listed, row
        if row.rfs_type == "A:4/f=1/2/t=1":
            assert row.orbits > 1
        if row.rfs_type == "D:4/f=1/t=1":
            assert row.orbits == 2
        if row.rfs_type == "D:5/f=1/t=1":
            assert row.orbits > 1


@pytest.mark.parametrize("bound", [24, pytest.param(48, marks=pytest.mark.slow)])
def test_a_type_counts_follow_the_gcd_formula(bound):
    """Configurations of every (A_n, s/n, 1) with s*n <= bound.

    The count is an observed formula, not a cited theorem (the module
    backend checks the same one on N(s, n+1)): with d = gcd(s, n) there
    are Catalan(d) configurations when n divides s and binom(2d, d)
    otherwise.
    """
    for n in range(1, bound + 1):
        for s in range(1, bound // n + 1):
            q = quotient(RfsType(DynkinGraph("A", n), Fraction(s, n), 1))
            d = gcd(s, n)
            observed = comb(2 * d, d) // (d + 1) if s % n == 0 else comb(2 * d, d)
            assert len(enumerate_configurations(q)) == observed, (n, s)


def test_e6_configurations_and_orbits():
    q = quotient(parse_type("E:6/f=1/t=1"))
    configs = enumerate_configurations(q)
    assert len(configs) == 418
    for c in configs[::41]:
        assert is_configuration(q, c)[0]
    assert len(orbit_decomposition(q)) == 22


# Configurations of ZQ / tau^(h-1) for Q of type A, D, E (f=1, t=1) are
# counted by the positive Catalan numbers N+(Q) of Fomin and Zelevinsky
# ("Y-systems and generalized associahedra", Ann. Math. 2003): C(n) for
# A_n, (3n-4)/n * binom(2n-3, n-1) for D_n, and 418, 2431, 17342 for E.


@pytest.mark.parametrize("n", range(1, 9))
def test_a_type_counts_are_catalan(n):
    q = quotient(parse_type(f"A:{n}/f=1/t=1"))
    assert len(enumerate_configurations(q)) == comb(2 * n, n) // (n + 1)


@pytest.mark.parametrize("n,count", [(4, 20), (5, 77), (6, 294), (7, 1122)])
def test_d_type_counts_fit_the_closed_form(n, count):
    assert (3 * n - 4) * comb(2 * n - 3, n - 1) == n * count
    q = quotient(parse_type(f"D:{n}/f=1/t=1"))
    assert len(enumerate_configurations(q)) == count


@pytest.mark.parametrize("n,count", [(7, 2431), (8, 17342)])
def test_e_type_counts(n, count):
    # E6 (418) is pinned by test_e6_configurations_and_orbits
    q = quotient(parse_type(f"E:{n}/f=1/t=1"))
    assert len(enumerate_configurations(q)) == count
