import json
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smsquiver.configs import _type_grid
from smsquiver.dynkin import DynkinGraph, parse_type
from smsquiver.ztquiver import (
    CoveringError,
    MeshSymmetryError,
    StableTranslationQuiver,
    Window,
    _check_mesh_symmetry,
    arrows_in,
    arrows_out,
    automorphisms,
    quotient,
    t_grade,
)


def window_arrows(w: Window) -> list:
    inside = set(w.vertices)
    return [(v, u) for v in w.vertices for u in arrows_out(w.graph, v) if u in inside]


def test_window_sizes_and_arrows():
    w = Window(DynkinGraph("A", 2), 0, 0)
    assert len(w.vertices) == 2
    assert window_arrows(w) == [((0, 1), (0, 2))]
    w3 = Window(DynkinGraph("A", 3), 0, 2)
    assert len(w3.vertices) == 9


def test_quotient_tau_is_the_level_shift():
    q = quotient(parse_type("D:4/f=1/t=1"))
    for v in q.vertices:
        t = q.tau[v]
        assert q.canonical((t[0] + 1, t[1])) == v


def test_every_arrow_raises_grade_by_one():
    for g in [DynkinGraph("A", 4), DynkinGraph("D", 5), DynkinGraph("E", 6)]:
        arrows = window_arrows(Window(g, 0, 3))
        assert arrows
        for a, b in arrows:
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


def with_quiver(q: StableTranslationQuiver, **changes) -> StableTranslationQuiver:
    """A copy of `q` with some fields replaced."""
    fields = {name: getattr(q, name) for name in StableTranslationQuiver.__slots__}
    return StableTranslationQuiver(**{**fields, **changes})


def test_broken_quotients_raise_named_errors(monkeypatch):
    q = quotient(parse_type("A:3/f=1/t=2"))
    with pytest.raises(MeshSymmetryError, match="mesh asymmetry"):
        _check_mesh_symmetry(with_quiver(q, arrows=q.arrows[1:]))
    first = q.vertices[0]
    with pytest.raises(MeshSymmetryError, match="bijection"):
        _check_mesh_symmetry(with_quiver(q, arrows=(), tau={v: first for v in q.vertices}))
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


def reference_automorphisms(q):
    """Backtracking over tau-orbit representatives, each tried on every
    vertex of the same degrees and orbit length, checking every arrow."""
    verts = list(q.vertices)
    arrow_set = set(q.arrows)
    outs = {v: sorted(w for u, w in arrow_set if u == v) for v in verts}
    ins = {v: [] for v in verts}
    for u, v in arrow_set:
        ins[v].append(u)

    orbit_of = {}
    orbits = []
    for v in verts:
        if v in orbit_of:
            continue
        orb = [v]
        orbit_of[v] = len(orbits)
        w = q.tau[v]
        while w != v:
            orbit_of[w] = len(orbits)
            orb.append(w)
            w = q.tau[w]
        orbits.append(orb)

    def invariant(v):
        return (len(ins[v]), len(outs[v]), len(orbits[orbit_of[v]]))

    reps = [orb[0] for orb in orbits]
    found = []

    def consistent(phi):
        for u, v in arrow_set:
            pu, pv = phi.get(u), phi.get(v)
            if pu is not None and pv is not None and (pu, pv) not in arrow_set:
                return False
        return True

    def extend(i, phi, used):
        if i == len(reps):
            found.append(dict(phi))
            return
        v = reps[i]
        orb = orbits[orbit_of[v]]
        for w in verts:
            if w in used or invariant(w) != invariant(v):
                continue
            images = []
            cur = w
            ok = True
            for _ in orb:
                if cur in used or cur in images:
                    ok = False
                    break
                images.append(cur)
                cur = q.tau[cur]
            if not ok or cur != w:
                continue
            for a, b in zip(orb, images):
                phi[a] = b
            if consistent(phi):
                extend(i + 1, phi, used | set(images))
            for a in orb:
                del phi[a]

    extend(0, {}, set())
    full = [phi for phi in found if sorted(phi.values()) == sorted(verts)]
    full.sort(key=lambda phi: tuple(phi[v] for v in verts))
    return full


def test_anchored_search_matches_all_arrow_backtracking():
    types = [str(t) for t in _type_grid(5, 2, False)] + ["E:6/f=1/t=1", "E:6/f=1/t=2"]
    for text in types:
        q = quotient(parse_type(text))
        assert automorphisms(q) == reference_automorphisms(q), text


@st.composite
def small_digraphs(draw):
    """A connected digraph on 3-6 vertices with tau the identity."""
    n = draw(st.integers(3, 6))
    verts = tuple((0, i) for i in range(n))
    pairs = [(a, b) for a in verts for b in verts if a != b]
    drawn = st.lists(st.sampled_from(pairs), min_size=n - 1, max_size=2 * n)
    arrows = set(draw(drawn))
    # a path through every vertex keeps the digraph connected
    arrows.update(zip(verts, verts[1:]))
    return verts, tuple(sorted(arrows))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(small_digraphs())
def test_anchored_search_finds_exactly_the_automorphisms(digraph):
    # off the quotients, anchoring alone does not force arrows onto arrows:
    # every permutation is tried and the arrow-preserving ones must match
    verts, arrows = digraph
    q = with_quiver(
        quotient(parse_type("A:1/f=1/t=1")),
        vertices=verts,
        arrows=arrows,
        tau={v: v for v in verts},
    )
    arrow_set = set(arrows)
    brute = []
    for perm in permutations(verts):
        phi = dict(zip(verts, perm))
        if all((phi[u], phi[v]) in arrow_set for u, v in arrows):
            brute.append(phi)
    assert automorphisms(q) == brute


def test_disconnected_quotient_is_reported():
    q = quotient(parse_type("A:3/f=1/t=2"))
    with pytest.raises(CoveringError, match="not connected"):
        automorphisms(with_quiver(q, arrows=()))


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
