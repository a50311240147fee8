from fractions import Fraction

import pytest

from smsquiver.dynkin import (
    DynkinGraph,
    InvalidTypeError,
    RfsInvariantError,
    RfsType,
    admissible_group,
    coxeter_number,
    family_letter,
    is_symmetric_type,
    num_simples,
    order2_automorphism,
    order3_automorphism,
    parse_type,
    type_from_json,
    validate_rfs_type,
)


@pytest.mark.parametrize(
    "family,rank,h",
    [("A", 1, 2), ("A", 5, 6), ("D", 4, 6), ("D", 7, 12), ("E", 6, 12), ("E", 7, 18), ("E", 8, 30)],
)
def test_coxeter_numbers(family, rank, h):
    assert coxeter_number(DynkinGraph(family, rank)) == h


def test_edge_sets_are_trees():
    for g in [DynkinGraph("A", 6), DynkinGraph("D", 5), DynkinGraph("E", 7)]:
        assert len(g.edges) == g.rank - 1
        seen = {1}
        frontier = [1]
        adj = {}
        for a, b in g.edges:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        while frontier:
            v = frontier.pop()
            for w in adj.get(v, []):
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        assert seen == set(g.nodes)


def test_bad_ranks_rejected():
    for family, rank in [("D", 3), ("E", 5), ("E", 9), ("A", 0), ("B", 2)]:
        with pytest.raises(InvalidTypeError):
            DynkinGraph(family, rank)


@pytest.mark.parametrize(
    "text,valid,family",
    [
        ("E:6/f=1/t=2", True, "h"),
        ("E:7/f=1/t=2", False, None),
        ("D:4/f=2/t=3", True, "f"),
        ("A:4/f=1/2/t=1", True, "a"),
        ("A:3/f=1/2/t=1", False, None),
        ("A:4/f=1/t=2", False, None),
        ("D:6/f=1/3/t=1", True, "d"),
        ("D:6/f=2/3/t=1", True, "d"),
        ("D:7/f=1/3/t=1", False, None),
        ("D:5/f=2/t=2", True, "e"),
        ("A:5/f=1/t=2", True, "b"),
        ("A:1/f=3/t=1", True, "a"),
        ("E:8/f=4/t=1", True, "g"),
        ("D:5/f=1/t=3", False, None),
    ],
)
def test_validate_families(text, valid, family):
    t = parse_type(text)
    ok, diag = validate_rfs_type(t)
    assert ok is valid, diag
    if valid:
        assert family_letter(t) == family


def test_symmetric_types():
    assert is_symmetric_type(parse_type("A:4/f=1/t=1"))  # s = 4 divides n = 4
    assert is_symmetric_type(parse_type("A:4/f=1/2/t=1"))  # s = 2 divides 4
    assert not is_symmetric_type(parse_type("A:4/f=3/4/t=1"))
    assert is_symmetric_type(parse_type("D:5/f=1/t=1"))
    assert is_symmetric_type(parse_type("D:6/f=1/3/t=1"))
    assert is_symmetric_type(parse_type("E:7/f=1/t=1"))
    assert not is_symmetric_type(parse_type("A:3/f=1/t=2"))
    assert not is_symmetric_type(parse_type("D:4/f=1/t=3"))


def test_admissible_group_examples():
    r, zeta = admissible_group(parse_type("A:5/f=1/t=2"))
    assert (r, zeta.order) == (5, 2)
    r, zeta = admissible_group(parse_type("D:6/f=1/3/t=1"))
    assert (r, zeta.order) == (3, 1)
    r, zeta = admissible_group(parse_type("A:4/f=1/t=1"))
    assert (r, zeta.order) == (4, 1)
    # frequency round-trip: r/(h-1) = f
    for text in ["A:5/f=1/t=2", "D:6/f=1/3/t=1", "E:6/f=2/t=1", "A:4/f=3/2/t=1"]:
        t = parse_type(text)
        r, _ = admissible_group(t)
        assert Fraction(r, t.coxeter - 1) == t.frequency


def test_broken_deck_automorphism_raises(monkeypatch):
    from smsquiver import dynkin

    monkeypatch.setattr(dynkin, "order2_automorphism", dynkin.identity_automorphism)
    with pytest.raises(RfsInvariantError, match="order 1"):
        admissible_group(parse_type("A:5/f=1/t=2"))


def test_num_simples_examples():
    assert num_simples(parse_type("A:4/f=1/t=1")) == 4
    assert num_simples(parse_type("D:6/f=1/3/t=1")) == 2
    assert num_simples(parse_type("A:3/f=1/t=2")) == 3


def test_integrality_invariants_hold_on_accepted_grid():
    for family, ranks in (("A", range(1, 13)), ("D", range(4, 13)), ("E", (6, 7, 8))):
        for n in ranks:
            for num in range(1, 13):
                for den in (1, 2, 3, n):
                    t = RfsType(DynkinGraph(family, n), Fraction(num, den), 1)
                    if validate_rfs_type(t)[0]:
                        assert (t.frequency * (t.coxeter - 1)).denominator == 1
                        assert (t.frequency * n).denominator == 1


def test_graph_automorphisms():
    flip = order2_automorphism(DynkinGraph("A", 5))
    assert flip.order == 2 and flip(1) == 5 and flip(3) == 3
    rot = order3_automorphism(DynkinGraph("D", 4))
    assert rot.order == 3
    swap = order2_automorphism(DynkinGraph("E", 6))
    assert swap.order == 2 and swap(2) == 2 and swap(4) == 4
    with pytest.raises(InvalidTypeError):
        order2_automorphism(DynkinGraph("A", 4))
    with pytest.raises(InvalidTypeError):
        order3_automorphism(DynkinGraph("D", 5))


def test_parse_and_json_round_trip():
    for text in ["A:5/f=1/t=2", "D:6/f=1/3/t=1", "E:8/f=6/t=1"]:
        t = parse_type(text)
        assert str(t) == text
        assert type_from_json(t.to_json()) == t
    with pytest.raises(InvalidTypeError):
        parse_type("F:4/f=1/t=1")
    with pytest.raises(InvalidTypeError):
        parse_type("A:5/t=2")


def test_nonstandard_flag():
    t = parse_type("D:6/f=1/3/t=1")
    ns = RfsType(t.graph, t.frequency, t.torsion, standard=False)
    assert validate_rfs_type(ns)[0]
    bad = RfsType(DynkinGraph("A", 3), Fraction(1), 1, standard=False)
    assert not validate_rfs_type(bad)[0]
