import json

import pytest

from smsquiver.mutation import (
    MutationQuiver,
    _nu_stable_subsets,
    build_mutation_quiver,
    nu_orbit_partition,
    orbit_label,
)
from smsquiver.nakayama import (
    BoundExceededError,
    NakayamaAlgebra,
    NotAnSmsError,
    SerialModule,
    _canon,
)


def from_json(text: str) -> MutationQuiver:
    """Inverse of `MutationQuiver.to_json`."""
    raw = json.loads(text)
    verts = tuple(_canon(SerialModule(t, l) for t, l in v) for v in raw["vertices"])
    arrows = tuple((a[0], a[1], a[2], a[3]) for a in raw["arrows"])
    return MutationQuiver(
        (raw["algebra"]["simples"], raw["algebra"]["loewy_length"]), verts, arrows
    )


def is_strongly_connected(q: MutationQuiver) -> bool:
    n = len(q.vertices)
    if n == 0:
        return True
    fwd: dict[int, set[int]] = {i: set() for i in range(n)}
    back: dict[int, set[int]] = {i: set() for i in range(n)}
    for s, t, _, _ in q.arrows:
        fwd[s].add(t)
        back[t].add(s)

    def reach(adj):
        seen = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == n

    return reach(fwd) and reach(back)


def reference_nu_orbit_partition(algebra, system):
    """The Nakayama orbits of a system by walking each nu-cycle by hand."""
    remaining = set(_canon(system))
    parts = []
    while remaining:
        m = min(remaining)
        orbit = {m}
        cur = algebra.nu(m)
        while cur != m:
            if cur not in remaining:
                raise ValueError("system is not Nakayama-stable")
            orbit.add(cur)
            cur = algebra.nu(cur)
        remaining -= orbit
        parts.append(_canon(orbit))
    return sorted(parts)


def reference_stable_subsets(parts):
    """The unions of Nakayama orbits, one per nonzero bit mask."""
    for mask in range(1, 1 << len(parts)):
        yield _canon(m for i, part in enumerate(parts) if mask >> i & 1 for m in part)


def reference_mutation_quiver(algebra, start, direction, allow_composite):
    """The BFS that numbers vertices as it finds them and renumbers them
    into sorted order at the end, with all left moves before the right
    ones and the bit-mask unions of orbits."""
    start = _canon(start)
    index = {start: 0}
    vertices = [start]
    arrows = set()
    frontier = [start]
    while frontier:
        nxt = []
        for system in frontier:
            parts = reference_nu_orbit_partition(algebra, system)
            subsets = list(reference_stable_subsets(parts)) if allow_composite else parts
            moves = []
            if direction in ("left", "both"):
                moves.extend(("left", sub) for sub in subsets)
            if direction in ("right", "both"):
                moves.extend(("right", sub) for sub in subsets)
            for dirn, sub in moves:
                image = algebra._mutate(system, sub, dirn)
                if image not in index:
                    algebra._require_sms(image)
                    index[image] = len(vertices)
                    vertices.append(image)
                    nxt.append(image)
                if image != system:
                    arrows.add((index[system], index[image], orbit_label(algebra, sub), dirn))
        frontier = nxt
    order = sorted(range(len(vertices)), key=lambda i: vertices[i])
    rename = {old: new for new, old in enumerate(order)}
    verts = tuple(vertices[i] for i in order)
    arr = tuple(sorted((rename[s], rename[t], label, dirn) for s, t, label, dirn in arrows))
    return MutationQuiver((algebra.e, algebra.L), verts, arr)


def test_nu_orbits_are_singletons_for_symmetric():
    A = NakayamaAlgebra(4, 5)
    parts = nu_orbit_partition(A, A.simples())
    assert all(len(p) == 1 for p in parts)
    assert len(parts) == 4


def test_nu_orbits_follow_the_cycle_structure():
    A = NakayamaAlgebra(3, 3)
    parts = nu_orbit_partition(A, A.simples())
    assert len(parts) == 1 and len(parts[0]) == 3
    union = tuple(sorted(m for p in parts for m in p))
    assert union == A.simples()
    with pytest.raises(ValueError):
        nu_orbit_partition(A, A.simples()[:2])  # not Nakayama-stable


def test_orbit_labels_use_socle_top_signature():
    A = NakayamaAlgebra(4, 5)
    part = (SerialModule(2, 1), SerialModule(3, 1))
    assert orbit_label(A, part) == "2:2+3:3"


@pytest.mark.parametrize("e,L", [(2, 3), (3, 4), (4, 5)])
def test_left_bfs_reaches_every_system(e, L):
    A = NakayamaAlgebra(e, L)
    q = build_mutation_quiver(A, A.simples(), "left")
    assert set(q.vertices) == set(A.all_sms())


# every N(e, L) with e(L-1) <= 16
SMALL_ALGEBRAS = [(e, L) for e in range(1, 17) for L in range(2, 16 // e + 2)]


@pytest.mark.parametrize("e,L", SMALL_ALGEBRAS)
def test_every_left_arrow_has_an_inverse_right_mutation(e, L):
    A = NakayamaAlgebra(e, L)
    for S in A.all_sms():
        for sub in _nu_stable_subsets(nu_orbit_partition(A, S)):
            shifted = A.mutate_left(S, sub)
            assert A.mutate_right(shifted, [A.omega_inv(m) for m in sub]) == S
            shifted = A.mutate_right(S, sub)
            assert A.mutate_left(shifted, [A.omega(m) for m in sub]) == S


def test_mutation_commutes_with_tau_and_omega():
    """tau and Omega are triangle auto-equivalences that keep nu-stable
    subsets nu-stable, so mutating the image is the image of the mutation."""
    triples = 0
    for e, L in SMALL_ALGEBRAS:
        A = NakayamaAlgebra(e, L)
        for S in A.all_sms():
            for sub in _nu_stable_subsets(nu_orbit_partition(A, S)):
                for g in (A.tau, A.omega):
                    gS, gsub = [tuple(sorted(map(g, mods))) for mods in (S, sub)]
                    for mutate in (A.mutate_left, A.mutate_right):
                        want = tuple(sorted(map(g, mutate(S, sub))))
                        assert mutate(gS, gsub) == want, (e, L, S, sub, g.__name__)
                    triples += 1
    # 389 (system, subset) pairs, each with both generators
    assert triples == 778


def test_both_direction_quiver_strongly_connected():
    for e, L in SMALL_ALGEBRAS:
        A = NakayamaAlgebra(e, L)
        q = build_mutation_quiver(A, A.simples(), "both")
        assert is_strongly_connected(q), (e, L)
        assert sorted(q.vertices) == sorted(A.all_sms()), (e, L)


def test_bfs_checks_each_vertex_once():
    A = NakayamaAlgebra(4, 5)
    checked = []
    is_sms = A.is_sms
    A.is_sms = lambda mods: checked.append(_canon(mods)) or is_sms(mods)
    q = build_mutation_quiver(A, A.simples(), "both", allow_composite=True)
    assert len(q.vertices) == 14
    assert sorted(checked) == list(q.vertices)


def test_bfs_rejects_an_image_that_is_no_system():
    A = NakayamaAlgebra(4, 5)
    A._mutate = lambda system, subset, direction: A.simples()[:2]
    with pytest.raises(NotAnSmsError, match=r"^\['\(1,1\)', '\(2,1\)'\] is not an sms$"):
        build_mutation_quiver(A, A.simples())


def test_composite_flag_reproduces_the_four_column_mutation():
    A = NakayamaAlgebra(4, 5)
    q = build_mutation_quiver(A, A.simples(), "left", allow_composite=True)
    want = tuple(
        sorted(
            [
                SerialModule(1, 3),
                SerialModule(2, 4),
                SerialModule(3, 4),
                SerialModule(4, 1),
            ]
        )
    )
    simples_idx = q.vertices.index(A.simples())
    neighbours = {
        q.vertices[t] for s, t, label, _ in q.arrows if s == simples_idx
    }
    assert want in neighbours
    labels = {label for s, t, label, _ in q.arrows if s == simples_idx}
    assert "2:2+3:3" in labels


def test_trivial_quiver_has_one_node_and_no_arrows():
    A = NakayamaAlgebra(1, 2)
    q = build_mutation_quiver(A, A.simples(), "both", allow_composite=True)
    assert len(q.vertices) == 1 and q.arrows == ()
    dot = q.to_dot()
    assert dot.count("->") == 0


def test_json_round_trip_and_dot_stability():
    A = NakayamaAlgebra(2, 3)
    q = build_mutation_quiver(A, A.simples(), "both")
    assert from_json(q.to_json()) == q
    assert q.to_dot() == q.to_dot()
    q2 = build_mutation_quiver(A, A.simples(), "both")
    assert q.to_dot() == q2.to_dot()


def test_size_bound_raises():
    A = NakayamaAlgebra(5, 6)
    with pytest.raises(BoundExceededError):
        build_mutation_quiver(A, A.simples(), "left")


def test_nu_stable_subsets_enumerates_unions():
    A = NakayamaAlgebra(2, 3)
    parts = nu_orbit_partition(A, A.simples())
    subsets = list(_nu_stable_subsets(parts))
    assert len(subsets) == 2 ** len(parts) - 1


def test_quiver_matches_the_renumbering_bfs():
    """Sorting the vertices once gives the quiver of the BFS that numbers
    them by discovery and renumbers them, on fresh algebras, so neither
    build reads closures the other one cached."""
    quivers = 0
    for e, L in SMALL_ALGEBRAS:
        for direction in ("left", "right", "both"):
            for composite in (False, True):
                A, B = NakayamaAlgebra(e, L), NakayamaAlgebra(e, L)
                want = reference_mutation_quiver(A, A.simples(), direction, composite)
                got = build_mutation_quiver(B, B.simples(), direction, composite)
                assert got == want, (e, L, direction, composite)
                quivers += 1
    assert quivers == 6 * len(SMALL_ALGEBRAS) == 300


def test_orbit_walk_matches_the_cycle_walk():
    systems = 0
    for e, L in SMALL_ALGEBRAS:
        A = NakayamaAlgebra(e, L)
        for S in A.all_sms():
            parts = nu_orbit_partition(A, S)
            assert parts == reference_nu_orbit_partition(A, S), (e, L, S)
            subsets = list(_nu_stable_subsets(parts))
            assert len(subsets) == len(set(subsets)) == 2 ** len(parts) - 1
            assert set(subsets) == set(reference_stable_subsets(parts))
            systems += 1
    # the systems of the algebras, whose 389 subsets the tests above mutate at
    assert systems == 111


def test_orbit_walk_rejects_subsets_that_are_not_nu_stable():
    rejected = 0
    for e, L in SMALL_ALGEBRAS:
        A = NakayamaAlgebra(e, L)
        for S in A.all_sms():
            for part in nu_orbit_partition(A, S):
                if len(part) == 1:
                    continue
                broken = [m for m in S if m != part[0]]
                for partition in (nu_orbit_partition, reference_nu_orbit_partition):
                    with pytest.raises(ValueError, match="^system is not Nakayama-stable$"):
                        partition(A, broken)
                rejected += 1
    # the nu-orbits with two or more members
    assert rejected == 47


def test_extension_closures_commute_with_duality():
    """ext_closure(D U) = D ext_closure(U), both sides on fresh algebras.

    Fresh algebras share no closure cache, so neither side is answered by
    the dual entry the other one stores.
    """
    pairs = 0
    for e, L in SMALL_ALGEBRAS:
        A = NakayamaAlgebra(e, L)
        for S in A.all_sms():
            for sub in _nu_stable_subsets(nu_orbit_partition(A, S)):
                direct = NakayamaAlgebra(e, L).ext_closure(sub)
                dual = NakayamaAlgebra(e, L).ext_closure(A._dual_all(sub))
                assert dual == A._dual_all(direct), (e, L, sub)
                pairs += 1
    assert pairs == 389


def count_closure_computations(monkeypatch):
    """Record every ext_closure argument; count the closures computed.

    ext_closure is the only caller of _single_strand_closure, and calls it
    once per closure it computes, cache misses only.
    """
    args, computed = [], [0]
    ext_closure = NakayamaAlgebra.ext_closure
    single_strand_closure = NakayamaAlgebra._single_strand_closure

    def counting_ext_closure(self, mods):
        args.append(tuple(sorted(set(mods))))
        return ext_closure(self, mods)

    def counting_single_strand_closure(self, system):
        computed[0] += 1
        return single_strand_closure(self, system)

    monkeypatch.setattr(NakayamaAlgebra, "ext_closure", counting_ext_closure)
    monkeypatch.setattr(NakayamaAlgebra, "_single_strand_closure", counting_single_strand_closure)
    return args, computed


@pytest.mark.parametrize(
    "e,L,direction,composite,calls,computations",
    [(3, 7, "both", True, 300, 54), (5, 6, "left", False, 252, 41)],
)
def test_one_closure_computation_per_duality_class(
    monkeypatch, e, L, direction, composite, calls, computations
):
    """is_sms decides generation through ext_closure, so the systems the
    search checks are counted with the subsets it mutates at: one call per
    move (280 and 210) and one per vertex (20 and 42)."""
    A = NakayamaAlgebra(e, L)
    args, computed = count_closure_computations(monkeypatch)
    build_mutation_quiver(A, A.simples(), direction, composite, size_bound=30)
    assert len(args) == calls
    assert computed[0] == computations
    classes = {frozenset([sub, A._dual_all(sub)]) for sub in args}
    assert len(classes) == computations


def test_cached_closures_build_the_same_quivers():
    """A shared algebra and one that asks a fresh algebra for every closure."""
    for e, L in SMALL_ALGEBRAS:
        if e * (L - 1) > 12:
            continue
        shared = NakayamaAlgebra(e, L)
        uncached = NakayamaAlgebra(e, L)
        uncached.ext_closure = lambda mods, e=e, L=L: NakayamaAlgebra(e, L).ext_closure(mods)
        for direction in ("left", "right", "both"):
            want = build_mutation_quiver(uncached, uncached.simples(), direction, True)
            got = build_mutation_quiver(shared, shared.simples(), direction, True)
            assert got == want, (e, L, direction)
