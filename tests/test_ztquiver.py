import dataclasses
import json

import pytest

from smsquiver.dynkin import DynkinGraph, parse_type
from smsquiver.ztquiver import (
    CoveringError,
    MeshSymmetryError,
    Window,
    _check_mesh_symmetry,
    arrows_in,
    arrows_out,
    automorphisms,
    quotient,
    t_grade,
)


def test_window_sizes_and_arrows():
    w = Window(DynkinGraph("A", 2), 0, 0)
    assert len(w.vertices) == 2
    assert w.arrows == (((0, 1), (0, 2)),)
    w3 = Window(DynkinGraph("A", 3), 0, 2)
    assert len(w3.vertices) == 9


def test_tau_inverse_on_interior():
    w = Window(DynkinGraph("D", 4), 0, 3)
    for v in w.vertices:
        t = w.tau(v)
        if t is not None:
            assert (t[0] + 1, t[1]) == v


def test_every_arrow_raises_grade_by_one():
    for g in [DynkinGraph("A", 4), DynkinGraph("D", 5), DynkinGraph("E", 6)]:
        w = Window(g, 0, 3)
        for a, b in w.arrows:
            assert t_grade(g, b) == t_grade(g, a) + 1


def test_in_and_out_neighbours_are_mesh_partners():
    g = DynkinGraph("D", 4)
    for v in Window(g, 1, 3).vertices:
        tau_v = (v[0] - 1, v[1])
        assert sorted(arrows_in(g, v)) == sorted(arrows_out(g, tau_v))


@pytest.mark.parametrize(
    "text,size",
    [
        ("A:3/f=1/t=2", 9),
        ("D:4/f=1/t=1", 20),
        ("A:4/f=1/t=1", 16),
        ("D:6/f=1/3/t=1", 18),
        ("D:4/f=1/t=3", 20),
        ("E:6/f=1/t=2", 66),
    ],
)
def test_quotient_vertex_counts(text, size):
    assert len(quotient(parse_type(text)).vertices) == size


def test_quotient_tau_and_mesh():
    q = quotient(parse_type("A:3/f=1/t=2"))
    assert sorted(q.tau.values()) == sorted(q.vertices)
    arrow_set = set(q.arrows)
    for u, v in arrow_set:
        assert (q.tau[v], u) in arrow_set
    # projection commutes with tau
    for v in q.vertices:
        assert q.tau[v] == q.canonical((v[0] - 1, v[1]))


def test_broken_quotients_raise_named_errors(monkeypatch):
    q = quotient(parse_type("A:3/f=1/t=2"))
    with pytest.raises(MeshSymmetryError, match="mesh asymmetry"):
        _check_mesh_symmetry(dataclasses.replace(q, arrows=q.arrows[1:]))
    first = q.vertices[0]
    with pytest.raises(MeshSymmetryError, match="bijection"):
        _check_mesh_symmetry(
            dataclasses.replace(q, arrows=(), tau={v: first for v in q.vertices})
        )
    # a deck generator that fixes every vertex cannot cover the quotient
    monkeypatch.setattr(type(q), "deck", lambda self, v, power=1: v)
    with pytest.raises(CoveringError, match="ascending"):
        q.lift(first, 2)


def test_lift_project_round_trip():
    q = quotient(parse_type("D:4/f=1/t=3"))
    for v in q.vertices:
        lifts = q.lift(v, 4)
        assert q.canonical(lifts[0]) == v
        for a, b in zip(lifts, lifts[1:]):
            assert q.deck(a) == b  # consecutive lifts differ by the deck generator
            assert q.canonical(b) == v


def test_lifted_configurations_are_deck_stable():
    from smsquiver.configs import enumerate_configurations

    q = quotient(parse_type("A:3/f=1/t=2"))
    for config in enumerate_configurations(q):
        lifted = {w for v in config for w in q.lift(v, 3)}
        for w in lifted:
            assert q.canonical(q.deck(w)) in config


def test_automorphism_group_axioms_small_quotients():
    # every quotient used here has at most 40 vertices
    for text in [
        "A:2/f=1/t=1",
        "A:3/f=1/t=2",
        "A:1/f=4/t=1",
        "D:4/f=1/t=3",
        "D:4/f=1/t=1",
        "A:4/f=1/t=1",
        "A:5/f=1/t=2",
        "D:6/f=1/3/t=1",
    ]:
        q = quotient(parse_type(text))
        auts = automorphisms(q)
        ident = {v: v for v in q.vertices}
        assert ident in auts
        tau_perm = dict(q.tau)
        assert tau_perm in auts
        table = {tuple(sorted(phi.items())): phi for phi in auts}
        for phi in auts:
            inv = {w: v for v, w in phi.items()}
            assert tuple(sorted(inv.items())) in table
            for psi in auts:
                comp = {v: psi[phi[v]] for v in q.vertices}
                assert tuple(sorted(comp.items())) in table


def test_cycle_rotations_present_for_a1():
    q = quotient(parse_type("A:1/f=4/t=1"))
    assert len(q.vertices) == 4
    assert len(automorphisms(q)) == 4  # the four rotations


def test_json_and_dot_exports():
    q = quotient(parse_type("A:2/f=1/t=1"))
    payload = json.loads(q.to_json())
    assert payload["schema"] == 1
    assert len(payload["vertices"]) == 4
    assert sorted(payload["tau"]) == [0, 1, 2, 3]
    dot = q.to_dot()
    assert dot.splitlines()[0].startswith("digraph")
    assert dot == q.to_dot()  # deterministic
