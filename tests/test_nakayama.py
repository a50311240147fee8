"""The Nakayama backend, pinned by brute-force linear algebra.

`brute_hom_dims` solves the intertwiner equations for graded maps
directly, with no knowledge of the depth-basis shortcut used in
production.  Stable bases and minimal approximations, which production
reads off sets of depths, are pinned against rational span tracking on
the explicit hom vectors.  The generation engine is pinned the same way:
pushout middles against integer elimination on the explicit relation
rows, the worklist closure against repeated full passes, and the pruned
and single-pass searches against their exhaustive and restarting forms.
"""

import collections
import functools
import itertools
import math
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from linalg_reference import SpanTracker, nullspace

from smsquiver.linalg import integer_rank
from smsquiver.nakayama import (
    BoundExceededError,
    ConeDecompositionError,
    GenerationUndecided,
    NakayamaAlgebra,
    NotAnSmsError,
    NuStabilityError,
    SerialModule,
    _orbit,
    parse_algebra,
)


def reference_hom_depths(A, m, n):
    """Depths j with phi_j : M -> N a module map, by scanning the
    composition factors of N: the image, layers j.. of N, must be a
    quotient of M, and layer j must be the top of M."""
    factors = A.factors(n)
    return [j for j in range(max(0, n.length - m.length), n.length) if factors[j] == m.top]


def hom_dim(A, m, n):
    return len(reference_hom_depths(A, m, n))


def is_symmetric(A):
    """N(e, L) is symmetric when the Nakayama permutation is trivial."""
    return (A.L - 1) % A.e == 0


def brute_hom_dims(A, m, n):
    """(hom dim, stably-zero dim) for maps m -> n by raw intertwiners."""
    rows = []
    unknowns = [(i, j) for i in range(m.length) for j in range(n.length)]
    pos = {u: k for k, u in enumerate(unknowns)}
    # color constraint: entry (i, j) vanishes unless colors agree
    for i, j in unknowns:
        if (m.top + i) % A.e != (n.top + j) % A.e:
            row = [0] * len(unknowns)
            row[pos[(i, j)]] = 1
            rows.append(row)
    # x-equivariance: phi(x b_i) = x phi(b_i)
    for i in range(m.length):
        for j in range(n.length):
            row = [0] * len(unknowns)
            if i + 1 < m.length:
                row[pos[(i + 1, j)]] += 1
            if j >= 1:
                row[pos[(i, j - 1)]] -= 1
            if any(row):
                rows.append(row)
    hom_basis = nullspace(rows, len(unknowns))
    # maps through the projective cover of n
    cover = A.projective(n.top)
    cover_maps = brute_hom_space(A, m, cover)
    factoring = SpanTracker(len(unknowns))
    for psi in cover_maps:
        composed = [0] * len(unknowns)
        for (i, j), k in pos.items():
            if j < n.length:
                composed[k] = psi[i * cover.length + j]
        factoring.add(composed)
    return len(hom_basis), factoring.rank


def brute_hom_space(A, m, n):
    rows = []
    unknowns = [(i, j) for i in range(m.length) for j in range(n.length)]
    pos = {u: k for k, u in enumerate(unknowns)}
    for i, j in unknowns:
        if (m.top + i) % A.e != (n.top + j) % A.e:
            row = [0] * len(unknowns)
            row[pos[(i, j)]] = 1
            rows.append(row)
    for i in range(m.length):
        for j in range(n.length):
            row = [0] * len(unknowns)
            if i + 1 < m.length:
                row[pos[(i + 1, j)]] += 1
            if j >= 1:
                row[pos[(i, j - 1)]] -= 1
            if any(row):
                rows.append(row)
    return nullspace(rows, len(unknowns))


def reference_hom_vector(m, n, depth):
    """phi_depth as a vector on the (source basis x target basis) grid."""
    vec = [Fraction(0)] * (m.length * n.length)
    for i in range(m.length):
        if depth + i < n.length:
            vec[i * n.length + depth + i] = Fraction(1)
    return vec


def reference_factoring_tracker(A, m, n):
    """Span of the maps M -> N through the projective cover of N."""
    tracker = SpanTracker(m.length * n.length)
    for j in reference_hom_depths(A, m, A.projective(n.top)):
        if j < n.length:  # layers >= length(N) die under the cover map
            tracker.add(reference_hom_vector(m, n, j))
    return tracker


def reference_stable_hom_basis(A, m, n):
    """Depths whose vectors enlarge the span of the factoring maps."""
    tracker = reference_factoring_tracker(A, m, n)
    return tuple(
        j for j in reference_hom_depths(A, m, n) if tracker.add(reference_hom_vector(m, n, j))
    )


# every N(e, L) with e(L-1) <= 8, and N(3, 4)
HOM_GRID = [(e, L) for e in range(1, 9) for L in range(2, 8 // e + 2)] + [(3, 4)]


@pytest.mark.parametrize("e,L", HOM_GRID)
def test_stable_hom_matches_brute_force(e, L):
    A = NakayamaAlgebra(e, L)
    for m in A.indecomposables():
        for n in A.indecomposables():
            hom, stably_zero = brute_hom_dims(A, m, n)
            assert hom_dim(A, m, n) == hom
            assert A.stable_hom_dim(m, n) == hom - stably_zero, (m, n)
            assert A.stable_hom_basis(m, n) == reference_stable_hom_basis(A, m, n)


def test_closed_form_homs_match_the_factor_scan():
    """hom_depths and stable_hom_basis are arithmetic progressions; the
    factor scan, cut off at L - length(M) for the stable basis, pins them
    on every ordered pair of every N(e, L) with e(L-1) <= 24."""
    pairs = 0
    for A in algebras_up_to(24):
        ind = A.indecomposables()
        for m in ind:
            for n in ind:
                want = reference_hom_depths(A, m, n)
                assert list(A.hom_depths(m, n)) == want, (A, m, n)
                stable = tuple(j for j in want if j < A.L - m.length)
                assert A.stable_hom_basis(m, n) == stable, (A, m, n)
                pairs += 1
    assert pairs == 20684


def test_simples_are_schurian_and_orthogonal():
    A = NakayamaAlgebra(4, 5)
    S = A.simples()
    for a in S:
        for b in S:
            assert A.stable_hom_dim(a, b) == (1 if a == b else 0)


def test_stable_end_nonzero_for_every_nonprojective():
    for e, L in [(2, 5), (3, 4), (1, 6)]:
        A = NakayamaAlgebra(e, L)
        for m in A.indecomposables():
            assert A.stable_hom_dim(m, m) >= 1


def test_syzygy_formulas():
    A = NakayamaAlgebra(4, 5)
    S1 = SerialModule(1, 1)
    assert A.omega(S1) == SerialModule(2, 4)
    assert A.omega_inv(SerialModule(2, 1)) == SerialModule(2, 4)
    for m in A.indecomposables():
        assert A.omega_inv(A.omega(m)) == m
        assert A.omega(A.omega_inv(m)) == m


def test_omega_is_kernel_of_projective_cover():
    # dimension bookkeeping: len(Omega M) + len(M) = L, matching tops
    for e, L in [(2, 4), (3, 5)]:
        A = NakayamaAlgebra(e, L)
        for m in A.indecomposables():
            om = A.omega(m)
            assert om.length + m.length == L
            assert (m.top + m.length - om.top) % e == 0


def test_nakayama_permutation():
    sym = NakayamaAlgebra(4, 5)
    assert is_symmetric(sym)
    for m in sym.indecomposables():
        assert sym.nu(m) == m
    A = NakayamaAlgebra(3, 3)
    assert not is_symmetric(A)
    S = A.simples()
    images = {A.nu(s) for s in S}
    assert images == set(S) and all(A.nu(s) != s for s in S)


@pytest.mark.parametrize("e,L", [(2, 3), (3, 3), (4, 5), (2, 6)])
def test_translate_is_nu_omega_squared(e, L):
    A = NakayamaAlgebra(e, L)
    for m in A.indecomposables():
        assert A.tau(m) == A.nu(A.omega(A.omega(m)))
        assert A.tau_inv(A.tau(m)) == m


def test_serial_module_factors():
    A = NakayamaAlgebra(4, 5)
    assert A.factors(SerialModule(2, 4)) == [2, 3, 4, 1]
    assert A.render_factors(SerialModule(1, 3)) == "1/2/3"
    assert A.socle(SerialModule(3, 4)) == 2


def test_decomposition_invariants_raise():
    A = NakayamaAlgebra(3, 4)
    with pytest.raises(ConeDecompositionError):
        A._sole_nonprojective((SerialModule(1, 1), SerialModule(2, 1), A.projective(1)))
    assert A._sole_nonprojective((SerialModule(1, 2), A.projective(3))) == SerialModule(1, 2)


def test_ext_closure_examples():
    A = NakayamaAlgebra(4, 5)
    S = A.simples()
    closure = A.ext_closure([S[1], S[2]])
    assert SerialModule(2, 2) in closure
    assert closure == (SerialModule(2, 1), SerialModule(2, 2), SerialModule(3, 1))
    assert A.ext_closure([]) == ()
    assert A.ext_closure(closure) == closure  # idempotent


def test_undecided_generation_is_reported():
    # M(1,2) over N(1,4) has a two-dimensional stable End, so it is no
    # system; neither tier decides S1 from it, and no answer is guessed
    A = NakayamaAlgebra(1, 4)
    with pytest.raises(GenerationUndecided, match=r"\(1,1\)"):
        A.ext_closure([SerialModule(1, 2)])


def test_wsms_examples():
    A = NakayamaAlgebra(4, 5)
    S = A.simples()
    assert A.is_wsms(S)
    assert not A.is_wsms(S[:3])
    mutated = A.mutate_left(S, [S[1], S[2]])
    assert A.is_wsms(mutated)
    assert A.is_sms(mutated)


def test_simples_generate_everything():
    for e, L in [(2, 3), (3, 4), (4, 5), (1, 5)]:
        A = NakayamaAlgebra(e, L)
        assert A.is_sms(A.simples())


def test_minimal_left_approximation_worked_case():
    A = NakayamaAlgebra(4, 5)
    S = A.simples()
    closure = A.ext_closure([S[1], S[2]])
    copies = A.minimal_left_approximation(A.omega(S[0]), closure)
    assert [t for t, _ in copies] == [SerialModule(2, 2)]
    assert A.minimal_left_approximation(A.omega(S[3]), closure) == ()


def test_minimal_right_approximation_worked_case():
    A = NakayamaAlgebra(4, 5)
    S = A.simples()
    closure = A.ext_closure([S[1], S[2]])
    # (summand, depth of its image in m): S2 maps onto the socle of (3,4)
    want = {
        SerialModule(1, 4): (),
        SerialModule(2, 4): (),
        SerialModule(3, 4): ((SerialModule(2, 1), 3),),
        SerialModule(4, 4): ((SerialModule(2, 2), 2),),
    }
    assert [A.omega_inv(s) for s in S] == sorted(want)
    for m, copies in want.items():
        assert A.minimal_right_approximation(m, closure) == copies, m


@pytest.mark.parametrize("e,L", [(3, 5), (4, 4), (2, 7)])
def test_duality_reverses_homs(e, L):
    A = NakayamaAlgebra(e, L)
    for m in A.indecomposables():
        assert A.factors(A.dual(m)) == [A._col(-c) for c in reversed(A.factors(m))]
        assert A.dual(A.dual(m)) == m
        assert A.dual(A.omega(m)) == A.omega_inv(A.dual(m))
        assert A.nu(A.dual(A.nu(m))) == A.dual(m)  # D nu = nu^{-1} D
        for n in A.indecomposables():
            assert hom_dim(A, m, n) == hom_dim(A, A.dual(n), A.dual(m))
            assert A.stable_hom_dim(m, n) == A.stable_hom_dim(A.dual(n), A.dual(m))


@pytest.mark.parametrize("e,L", [(2, 3), (3, 4), (4, 5), (3, 5), (2, 7)])
def test_duality_permutes_the_systems(e, L):
    A = NakayamaAlgebra(e, L)
    systems = A.all_sms()
    dual = [A._dual_all(s) for s in systems]
    assert sorted(dual) == systems
    assert [A._dual_all(s) for s in dual] == systems


def test_nu_of_minimal_approximation():
    # applying the Nakayama permutation to a minimal approximation of M
    # yields one of nu(M), provided the subcategory is nu-stable
    A = NakayamaAlgebra(3, 4)
    S = A.simples()
    closure = A.ext_closure(S)  # nu-stable
    for m in A.indecomposables():
        left = A.minimal_left_approximation(m, closure)
        left_nu = A.minimal_left_approximation(A.nu(m), closure)
        assert sorted(A.nu(t) for t, _ in left) == sorted(t for t, _ in left_nu)


def test_mutate_whole_system_is_syzygy_shift():
    A = NakayamaAlgebra(3, 4)
    S = A.simples()
    assert A.mutate_left(S, S) == tuple(sorted(A.omega_inv(s) for s in S))
    assert A.mutate_right(S, S) == tuple(sorted(A.omega(s) for s in S))


def test_mutation_validates_arguments():
    A = NakayamaAlgebra(2, 4)  # non-symmetric: nu swaps the two columns
    S = A.simples()
    with pytest.raises(NuStabilityError):
        A.mutate_left(S, [S[0]])
    bad = (SerialModule(1, 2), SerialModule(2, 2))
    if not A.is_sms(bad):
        with pytest.raises(NotAnSmsError):
            A.mutate_left(bad, bad)
    with pytest.raises(NotAnSmsError):
        A.mutate_left(S, [SerialModule(1, 2)])


def test_mutation_preserves_systemhood_exhaustively():
    from smsquiver.mutation import _nu_stable_subsets, nu_orbit_partition

    for e, L in [(2, 3), (3, 4), (2, 4)]:
        A = NakayamaAlgebra(e, L)
        for S in A.all_sms():
            for sub in _nu_stable_subsets(nu_orbit_partition(A, S)):
                left = A.mutate_left(S, sub)
                right = A.mutate_right(S, sub)
                assert A.is_sms(left), (S, sub, left)
                assert A.is_sms(right)


def test_all_sms_counts_and_bounds():
    assert len(NakayamaAlgebra(2, 3).all_sms()) == 2
    assert len(NakayamaAlgebra(4, 5).all_sms()) == 14
    with pytest.raises(BoundExceededError):
        NakayamaAlgebra(6, 6).all_sms()


def test_all_sms_cardinality_and_rotation_invariance():
    A = NakayamaAlgebra(3, 4)
    systems = A.all_sms()
    assert all(len(s) == A.e for s in systems)
    rotated = {
        tuple(sorted(SerialModule(m.top % A.e + 1, m.length) for m in s))
        for s in systems
    }
    assert rotated == set(systems)


def test_transport_matches_configurations():
    from smsquiver.configs import enumerate_configurations
    from smsquiver.dynkin import parse_type
    from smsquiver.ztquiver import quotient

    A = NakayamaAlgebra(1, 3)
    q = quotient(parse_type("A:2/f=1/2/t=1"))
    configs = {frozenset(c) for c in enumerate_configurations(q)}
    assert {A.transport(s, q) for s in A.all_sms()} == configs
    # the stable endomorphism table transports too
    from smsquiver.meshcat import quotient_hom_table

    table = quotient_hom_table(q)
    for m in A.indecomposables():
        for n in A.indecomposables():
            e = q.canonical(A.ar_coordinate(m))
            f = q.canonical(A.ar_coordinate(n))
            assert A.stable_hom_dim(m, n) == table.get((e, f), 0)


def test_parse_algebra():
    A = parse_algebra("nakayama:4:5")
    assert (A.e, A.L) == (4, 5)
    for text in ("brauer:4:5", "nakayama:x:3", "nakayama:4", "nakayama:-1:3"):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_algebra(text)
    with pytest.raises(ValueError):
        NakayamaAlgebra(0, 3)
    with pytest.raises(ValueError):
        NakayamaAlgebra(2, 1)


def algebras_up_to(bound):
    """Every N(e, L) with e(L-1) <= bound."""
    return [
        NakayamaAlgebra(e, L)
        for e in range(1, bound + 1)
        for L in range(2, bound // e + 2)
    ]


@pytest.mark.parametrize("bound", [16, pytest.param(24, marks=pytest.mark.slow)])
def test_transported_bijection_on_every_small_algebra(bound):
    """Criterion 5's check on every N(e, L) up to the bound, with the counts.

    The count is an observed formula, not a cited theorem: with
    d = gcd(e, L-1), N(e, L) has Catalan(d) systems when L-1 divides e
    and binom(2d, d) otherwise.
    """
    from smsquiver.configs import enumerate_configurations
    from smsquiver.dynkin import DynkinGraph, RfsType
    from smsquiver.ztquiver import quotient

    for A in algebras_up_to(bound):
        n = A.L - 1
        q = quotient(RfsType(DynkinGraph("A", n), Fraction(A.e, n), 1))
        systems = A.all_sms(bound=bound)
        configs = {frozenset(c) for c in enumerate_configurations(q)}
        assert len({A.transport(s, q) for s in systems}) == len(systems), A
        assert {A.transport(s, q) for s in systems} == configs, A
        d = math.gcd(A.e, n)
        observed = math.comb(2 * d, d) // (d + 1) if A.e % n == 0 else math.comb(2 * d, d)
        assert len(systems) == observed, A


def image(g, system):
    return tuple(sorted(g(m) for m in system))


def test_all_sms_is_closed_under_tau_omega_and_duality():
    for A in algebras_up_to(16):
        systems = set(A.all_sms())
        for g in (A.tau, A.omega, A.dual):
            assert {image(g, s) for s in systems} == systems, (A, g.__name__)


@pytest.mark.parametrize("bound", [16, pytest.param(24, marks=pytest.mark.slow)])
def test_all_sms_matches_a_generation_check_of_every_candidate(bound):
    """all_sms decides one candidate per <tau, Omega, D>-orbit by its
    closure alone; the reference asks is_sms of a fresh algebra, with an
    empty closure cache, about every one."""
    for A in algebras_up_to(bound):
        B = NakayamaAlgebra(A.e, A.L)
        want = sorted(s for s in B.orthogonal_candidates() if B.is_sms(s))
        assert A.all_sms(bound=bound) == want, A


def test_candidates_are_permuted_by_tau_omega_and_duality():
    """What all_sms relies on: tau, Omega and D map the candidates onto
    themselves, and D inverts tau and Omega, so <tau, Omega, D> is
    <tau, Omega> (at most 2e maps, as Omega^2 = tau^L) times {1, D}."""
    for A in algebras_up_to(24):
        candidates = set(A.orthogonal_candidates())
        maps = (A.tau, A.omega, A.dual)
        for g in maps:
            assert {image(g, s) for s in candidates} == candidates, (A, g.__name__)
        for m in A.indecomposables():
            assert A.dual(A.tau(A.dual(m))) == A.tau_inv(m), (A, m)
            assert A.dual(A.omega(A.dual(m))) == A.omega_inv(m), (A, m)
        for s in candidates:
            orbit = _orbit(s, maps)
            assert orbit <= candidates and len(orbit) <= 4 * A.e, (A, s)


def test_all_sms_on_a_wide_algebra_allocates_little():
    """N(200, 2) has one candidate, the simples, which tau, Omega and D
    all fix: its orbit is itself, and the traced peak stays under 1 MiB."""
    A = NakayamaAlgebra(200, 2)
    tracemalloc.start()
    try:
        assert A.all_sms(bound=200) == [A.simples()]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def symmetry_orbits(A, systems):
    """Number of <tau, Omega>-orbits, generated by the public A.tau and A.omega."""
    remaining = set(systems)
    orbits = 0
    while remaining:
        orbits += 1
        frontier = [remaining.pop()]
        while frontier:
            s = frontier.pop()
            for g in (A.tau, A.omega):
                t = image(g, s)
                if t in remaining:
                    remaining.remove(t)
                    frontier.append(t)
    return orbits


def test_symmetry_orbits_are_the_configuration_orbits():
    """The automorphisms of ZA_{L-1}/<tau^e> are the tau-powers and the
    lifted flip; under transport they generate the group of tau and Omega,
    so the orbits count alike."""
    from smsquiver.configs import orbit_decomposition
    from smsquiver.dynkin import DynkinGraph, RfsType
    from smsquiver.ztquiver import quotient

    for A in algebras_up_to(16):
        n = A.L - 1
        q = quotient(RfsType(DynkinGraph("A", n), Fraction(A.e, n), 1))
        want = len(orbit_decomposition(q))
        assert symmetry_orbits(A, A.all_sms()) == want, A


@pytest.mark.parametrize(
    "e,m",
    [
        pytest.param(e, m, marks=pytest.mark.slow) if e * e * m > 16 else (e, m)
        for e in range(1, 6)
        for m in range(1, 5)
        if e * e * m <= 30
    ],
)
def test_symmetry_orbits_count_brauer_trees(e, m):
    """N(e, em + 1) is the Brauer star with e edges and multiplicity m."""
    from smsquiver.brauer import count_brauer_trees

    A = NakayamaAlgebra(e, e * m + 1)
    assert symmetry_orbits(A, A.all_sms(bound=30)) == count_brauer_trees(e, m)


def multiset_from_rank_table(A, ranks):
    """Recover serial summands from the ranks of radical powers.

    With R(c, m) the rank of x^m on the colour-c slice and
    D(c, m) = R(c, m-1) - R(c, m), the multiplicity of M(t, m) is
    D(t, m) - D(t-1, m+1).
    """

    def D(c, m):
        c = A._col(c)
        return ranks.get((c, m - 1), 0) - ranks.get((c, m), 0)

    out = []
    for t in range(1, A.e + 1):
        for m in range(1, A.L + 1):
            mult = D(t, m) - D(t - 1, m + 1)
            if mult < 0:
                raise ConeDecompositionError(f"rank table gives M({t},{m}) multiplicity {mult}")
            out.extend([SerialModule(t, m)] * mult)
    return tuple(sorted(out))


def reference_pushout_middle(A, m, copies):
    """Pushout middle by integer elimination on the explicit relation rows.

    Ranks of x^k on each colour slice of the quotient are the rank of the
    target colour's relation rows plus the unit rows of x^k W_c, minus the
    rank of the relation rows alone.
    """
    om = A.omega(m)
    order = [t for t, _ in copies] + [A.projective(m.top)]
    basis = [(i, j) for i, comp in enumerate(order) for j in range(comp.length)]
    index = {b: k for k, b in enumerate(basis)}
    rels = {}
    for j in range(om.length):
        vec = [0] * len(basis)
        for ci, (t, depth) in enumerate(copies):
            if depth + j < t.length:
                vec[index[(ci, depth + j)]] += 1
        vec[index[(len(order) - 1, m.length + j)]] -= 1
        rels.setdefault(A._col(om.top + j), []).append(vec)
    by_colour = {}
    for i, j in basis:
        by_colour.setdefault(A._col(order[i].top + j), []).append((i, j))
    ranks = {}
    for c, cur in by_colour.items():
        for k in range(A.L + 2):
            if not cur:
                ranks[(c, k)] = 0
                break
            tgt = rels.get(A._col(c + k), [])
            units = []
            for b in cur:
                unit = [0] * len(basis)
                unit[index[b]] = 1
                units.append(unit)
            ranks[(c, k)] = integer_rank(tgt + units) - integer_rank(tgt)
            cur = [(i, j + 1) for i, j in cur if j + 1 < order[i].length]
    return multiset_from_rank_table(A, ranks)


def test_rank_decomposition_recovers_known_multisets():
    A = NakayamaAlgebra(3, 4)
    rng = random.Random(11)
    mods = A.indecomposables() + tuple(A.projective(i) for i in range(1, 4))
    for _ in range(50):
        w = tuple(sorted(rng.choice(mods) for _ in range(rng.randint(1, 4))))
        # with no relations, x^k has rank on colour c one per layer j of
        # colour c in a summand of length above j + k
        ranks = collections.Counter(
            (A._col(t.top + j), k) for t in w for j in range(t.length) for k in range(t.length - j)
        )
        assert multiset_from_rank_table(A, ranks) == w
    # x^1 has rank 1 on colour 1 while x^0 has rank 0: no module does that
    with pytest.raises(ConeDecompositionError):
        multiset_from_rank_table(A, {(1, 1): 1})


def depth_maps_from_syzygy(A, quot):
    """Every (x, depth) with phi_depth : Omega(quot) -> x a module map."""
    om = A.omega(quot)
    return [(x, d) for x in A.indecomposables() for d in reference_hom_depths(A, om, x)]


def test_pushout_middles_match_elimination_on_small_stacks():
    # 7,268 stacks; e(L-1) <= 16 has 294,518, most of them over N(1, L),
    # which the elimination reference takes many minutes to check
    checked = 0
    for A in algebras_up_to(8):
        for quot in A.indecomposables():
            maps = depth_maps_from_syzygy(A, quot)
            stacks = [(c,) for c in maps] + list(
                itertools.combinations_with_replacement(maps, 2)
            )
            for copies in stacks:
                assert A._pushout_middle(quot, copies) == reference_pushout_middle(
                    A, quot, copies
                ), (A, quot, copies)
                checked += 1
    assert checked > 0


@st.composite
def deep_stacks(draw):
    A = draw(st.sampled_from(algebras_up_to(16)))
    quot = draw(st.sampled_from(A.indecomposables()))
    maps = depth_maps_from_syzygy(A, quot)
    copies = draw(st.lists(st.sampled_from(maps), min_size=3, max_size=5))
    return A, quot, tuple(copies)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(deep_stacks())
def test_pushout_middles_match_elimination_on_deep_stacks(case):
    A, quot, copies = case
    assert A._pushout_middle(quot, copies) == reference_pushout_middle(A, quot, copies)


def reference_single_strand_closure(A, system):
    """Repeat full passes over every 1- and 2-part sub until nothing is added."""
    closure = set(system)
    changed = True
    while changed:
        changed = False
        members = sorted(closure)
        subs = [(x,) for x in members] + [
            (x1, x2) for i, x1 in enumerate(members) for x2 in members[i:]
        ]
        for sub in subs:
            for z in system:
                for middle in A.extension_middles(sub, z):
                    strands = A._strip_projectives(middle)
                    if len(strands) == 1 and strands[0] not in closure:
                        closure.add(strands[0])
                        changed = True
    return frozenset(closure)


def test_worklist_closure_matches_full_passes():
    """The closures all_sms and mutate ask for: the orthogonal candidates
    with e(L-1) <= 16, and with e(L-1) <= 12 every nonempty orthogonal
    subset, which holds each nu-stable subset of every system."""
    from smsquiver.mutation import _nu_stable_subsets, nu_orbit_partition

    checked = 0
    for A in algebras_up_to(16):
        subsets = A.orthogonal_candidates()
        if A.e * (A.L - 1) <= 12:
            subsets = [S for S in orthogonal_subsets(A) if S]
            asked = {
                X for S in A.all_sms() for X in _nu_stable_subsets(nu_orbit_partition(A, S))
            }
            assert asked <= set(subsets), A
        for S in subsets:
            assert A._single_strand_closure(S) == reference_single_strand_closure(A, S), (A, S)
            checked += 1
    assert checked == 8979


MID_SIZE_ALGEBRAS = [A for A in algebras_up_to(24) if A.e * (A.L - 1) > 16]


@functools.cache
def candidates_of(A):
    return A.orthogonal_candidates()


@st.composite
def mid_size_orthogonal_subsets(draw):
    """A candidate of some N(e, L) with 16 < e(L-1) <= 24, or a nonempty
    subset of one; the whole candidate is the simplest draw."""
    A = draw(st.sampled_from(MID_SIZE_ALGEBRAS))
    cand = draw(st.sampled_from(candidates_of(A)))
    keep = draw(st.lists(st.booleans(), min_size=len(cand), max_size=len(cand)))
    return A, tuple(m for m, k in zip(cand, keep) if k) or cand


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mid_size_orthogonal_subsets())
def test_worklist_closure_matches_full_passes_past_the_sweep(case):
    A, S = case
    assert A._single_strand_closure(S) == reference_single_strand_closure(A, S), (A, S)


@pytest.mark.parametrize(
    "e,L",
    [(16, 4)]
    + [pytest.param(e, L, marks=pytest.mark.slow) for e, L in [(20, 4), (10, 7), (100, 3)]],
)
def test_closure_of_every_candidate_matches_full_passes_on_wide_algebras(e, L):
    """The worklist pairs a member only within the Ext-support buckets it
    joins; the full passes pair every two members.  Most candidates of
    N(16, 4), N(20, 4) and N(10, 7) are no systems, so their closures run
    to the fixpoint; the two of N(100, 3) are systems."""
    A = NakayamaAlgebra(e, L)
    for S in A.orthogonal_candidates():
        assert A._single_strand_closure(S) == reference_single_strand_closure(A, S), (A, S)


def test_closure_asks_each_stable_basis_once(monkeypatch):
    # one stable basis Hom(Omega z, m) per system member z and member m
    # taken; asking again for every pair of members took 64,960 calls on
    # this non-system candidate
    A = NakayamaAlgebra(20, 4)
    S = A.orthogonal_candidates()[1]
    assert not A.is_sms(S)
    calls = 0
    basis = NakayamaAlgebra.stable_hom_basis

    def counted(self, m, n):
        nonlocal calls
        calls += 1
        return basis(self, m, n)

    monkeypatch.setattr(NakayamaAlgebra, "stable_hom_basis", counted)
    closure = NakayamaAlgebra(20, 4)._single_strand_closure(S)
    assert calls <= len(S) * len(closure)
    assert (calls, len(closure)) == (1120, 56)


def test_ext_closure_refuses_a_projective_before_any_work(monkeypatch):
    A = NakayamaAlgebra(4, 5)

    def no_closure(self, system):
        raise RuntimeError("closure computed")

    monkeypatch.setattr(NakayamaAlgebra, "_single_strand_closure", no_closure)
    with pytest.raises(ValueError, match=r"not \(2,5\)"):
        A.ext_closure([A.projective(2)])
    with pytest.raises(ValueError, match=r"not \(3,5\)"):
        A.ext_closure([A.simples()[0], A.projective(3)])


def test_single_strand_closure_of_every_system_is_everything():
    # so the worklist stops early on every system, and no system of
    # e(L-1) <= 16 needs the vanishing tier to be accepted
    checked = 0
    for A in algebras_up_to(16):
        for S in A.all_sms():
            assert A._single_strand_closure(S) == frozenset(A.indecomposables()), (A, S)
            checked += 1
    assert checked > 0


def assert_simples_bring_everything(A, S):
    """The law behind the worklist's stop: M(t, l) is an extension of S_t
    by M(t+1, l-1), so a closure that holds every simple holds all e(L-1)
    non-projectives, and the full passes reach them too."""
    closure = reference_single_strand_closure(A, S)
    if set(A.simples()) <= closure:
        assert closure == frozenset(A.indecomposables()), (A, S)
        return True
    return False


def test_a_closure_with_every_simple_is_everything():
    """Every nonempty orthogonal subset with e(L-1) <= 16, the orthogonal
    candidates among them.  On N(e, 2) every non-projective is simple, so
    the law holds there for any subset, and its 2^e subsets of the simples
    are not walked."""
    checked = full = 0
    for A in algebras_up_to(16):
        if A.L == 2:
            assert A.indecomposables() == A.simples(), A
            continue
        for S in orthogonal_subsets(A):
            if S:
                full += assert_simples_bring_everything(A, S)
                checked += 1
    assert (checked, full) == (4296, 95)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(mid_size_orthogonal_subsets())
def test_a_closure_with_every_simple_is_everything_past_the_sweep(case):
    assert_simples_bring_everything(*case)


def test_the_simples_build_no_pushout(monkeypatch):
    calls = collections.Counter()
    pushout = NakayamaAlgebra._pushout_middle

    def counted(self, m, copies):
        calls[self.e, self.L] += 1
        return pushout(self, m, copies)

    monkeypatch.setattr(NakayamaAlgebra, "_pushout_middle", counted)
    for A in algebras_up_to(16):
        assert A._single_strand_closure(A.simples()) == frozenset(A.indecomposables()), A
    assert not calls
    # the counter sees a closure that has to reach the simples: the system
    # of N(4, 5) from the CLI's inverse-law check holds one simple
    A = NakayamaAlgebra(4, 5)
    system = (A.module(1, 3), A.module(2, 4), A.module(3, 4), A.module(4, 1))
    assert A._single_strand_closure(system) == frozenset(A.indecomposables())
    assert calls[4, 5] > 0


def test_wide_algebra_systems_stop_at_the_simples():
    # the closure of each system stops once it holds the e simples, not
    # after all e(L-1) = 200 non-projectives
    A = NakayamaAlgebra(100, 3)
    systems = A.all_sms(bound=200)
    assert len(systems) == 2 and systems[0] == A.simples()


def orthogonal_subsets(A):
    """Every orthogonal subset of the schurian modules, of any size."""
    mods = [m for m in A.indecomposables() if A.stable_hom_dim(m, m) == 1]
    out = []

    def extend(start, chosen):
        out.append(tuple(chosen))
        for k in range(start, len(mods)):
            m = mods[k]
            if all(
                A.stable_hom_dim(m, c) == 0 and A.stable_hom_dim(c, m) == 0
                for c in chosen
            ):
                chosen.append(m)
                extend(k + 1, chosen)
                chosen.pop()

    extend(0, [])
    return out


def test_generation_law_on_every_orthogonal_subset():
    """An orthogonal subset is a system exactly when it is a wsms with e
    members, and no subset leaves generation undecided: ext_closure
    decides every indecomposable outside the closure, so is_sms raises
    if any one of them is undecided."""
    subsets = systems = 0
    for A in algebras_up_to(12):
        for S in orthogonal_subsets(A):
            assert A.is_orthogonal_system(S), (A, S)
            got = A.is_sms(S)
            assert got == (len(S) == A.e and A.is_wsms(S)), (A, S)
            subsets += 1
            systems += got
    # the empty subset of each of the 35 algebras included
    assert (subsets, systems) == (8956, 69)


def unpruned_orthogonal_candidates(A):
    """The e-element subsets of an exhaustive walk, with no size bound."""
    return [S for S in orthogonal_subsets(A) if len(S) == A.e]


def test_pruned_candidates_match_exhaustive_walk():
    # past 16 the exhaustive walk blows up on N(e, 2), whose simples are
    # pairwise orthogonal: every subset of them is walked
    for A in algebras_up_to(16):
        assert A.orthogonal_candidates() == unpruned_orthogonal_candidates(A), A


def test_orthogonal_subsets_have_distinct_tops():
    # the clique search takes the member of top k + 1 in its k-th step
    for A in algebras_up_to(12):
        for S in orthogonal_subsets(A):
            assert len({m.top for m in S}) == len(S), (A, S)


def reference_orthogonal_candidates(A):
    """The recursive walk over a set of compatible pairs that the bit-mask
    search replaced: index order, pruned only when too few modules remain."""
    mods = [m for m in A.indecomposables() if A.stable_hom_dim(m, m) == 1]
    compatible = {
        (a, b)
        for a in mods
        for b in mods
        if a != b and A.stable_hom_dim(a, b) == 0 and A.stable_hom_dim(b, a) == 0
    }
    out = []

    def extend(start, chosen):
        if len(chosen) == A.e:
            out.append(tuple(chosen))
            return
        for k in range(start, len(mods) - (A.e - len(chosen)) + 1):
            m = mods[k]
            if all((m, c) in compatible for c in chosen):
                chosen.append(m)
                extend(k + 1, chosen)
                chosen.pop()

    extend(0, [])
    return out


def test_clique_search_matches_the_pair_walk():
    # all_sms decides each <tau, Omega, D>-orbit on its first member met, so
    # the order matters as well as the list
    for A in algebras_up_to(24):
        assert A.orthogonal_candidates() == reference_orthogonal_candidates(A), A


@pytest.mark.slow
@pytest.mark.parametrize("e,L", [(16, 3), (12, 4), (18, 3)])
def test_clique_search_matches_the_pair_walk_on_wide_algebras(e, L):
    A = NakayamaAlgebra(e, L)
    assert A.orthogonal_candidates() == reference_orthogonal_candidates(A)


def test_candidate_search_does_not_recurse_per_member():
    """The simples of N(e, 2) are its one system, e members deep; with
    the recursion limit a little above the current depth, a walk that
    recursed once per member would raise RecursionError."""
    A = NakayamaAlgebra(100, 2)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        assert A.all_sms(bound=100) == [A.simples()]
    finally:
        sys.setrecursionlimit(limit)


def test_all_sms_on_many_simples_and_short_loewy_length():
    # every module of N(24, 2) is simple: the simples are the only system
    A = NakayamaAlgebra(24, 2)
    assert A.all_sms() == [A.simples()]


def reference_covers(A, copies, subcat, m, side="left"):
    """Whether the stacked map still induces surjections onto all stable homs.

    Left: the copies are maps m -> t, and every stable map m -> t2 must be
    a composite m -> t -> t2 modulo maps through projectives.  Right: the
    copies are maps u -> m, and every stable map t2 -> m must be a
    composite t2 -> u -> m.  Either composite has depth depth + b; each
    depth's vector is added once, as a repeat cannot enlarge the span.
    """
    for t2 in subcat:
        src, tgt = (m, t2) if side == "left" else (t2, m)
        tracker = reference_factoring_tracker(A, src, tgt)
        goal = tracker.rank + A.stable_hom_dim(src, tgt)
        composites = set()
        for t, depth in copies:
            between = (
                reference_hom_depths(A, t, t2) if side == "left" else reference_hom_depths(A, t2, t)
            )
            composites.update(depth + b for b in between if depth + b < tgt.length)
        for j in sorted(composites):
            tracker.add(reference_hom_vector(src, tgt, j))
        if tracker.rank < goal:
            return False
    return True


def reference_minimize(A, copies, subcat, m, side="left"):
    """Drop copies in order while the rest still covers.

    Covering is monotone (fewer copies span less), so a copy kept once
    stays needed after later drops, and one pass suffices.
    """
    copies = sorted(copies)
    k = 0
    while k < len(copies):
        trial = copies[:k] + copies[k + 1 :]
        if reference_covers(A, trial, subcat, m, side):
            copies = trial
        else:
            k += 1
    return copies


def restarting_minimize(A, copies, subcat, m):
    """Drop the first removable copy, then rescan from the start."""
    copies = sorted(copies)
    changed = True
    while changed:
        changed = False
        for k in range(len(copies)):
            trial = copies[:k] + copies[k + 1 :]
            if reference_covers(A, trial, subcat, m):
                copies = trial
                changed = True
                break
    return copies


@functools.cache
def reference_approximation(e, L, m, subcat, side):
    """Minimal approximation of m over N(e, L), minimized by spans.

    Cached: systems of N(1, L) share their closures, and the span
    reference takes seconds per module there.
    """
    A = NakayamaAlgebra(e, L)
    subcat = sorted(set(subcat))
    if side == "left":
        copies = [(t, d) for t in subcat for d in reference_stable_hom_basis(A, m, t)]
    else:
        copies = [(u, d) for u in subcat for d in reference_stable_hom_basis(A, u, m)]
    return tuple(reference_minimize(A, copies, subcat, m, side))


@pytest.mark.parametrize("e,L", [(3, 4), (4, 5), (1, 8)])
def test_single_pass_minimize_matches_restarts(e, L):
    # mutate_left approximates Omega(m) for m in S \ X by the closure of X;
    # every indecomposable m is taken, because over N(1, L) the only
    # nu-stable subset is the whole one-member system
    from smsquiver.mutation import _nu_stable_subsets, nu_orbit_partition

    A = NakayamaAlgebra(e, L)
    checked = 0
    for S in A.all_sms():
        for sub in _nu_stable_subsets(nu_orbit_partition(A, S)):
            closure = A.ext_closure(sub)
            for m in A.indecomposables():
                om = A.omega(m)
                copies = [(t, d) for t in closure for d in A.stable_hom_basis(om, t)]
                assert reference_minimize(A, copies, closure, om) == restarting_minimize(
                    A, copies, closure, om
                ), (S, sub, m)
                checked += 1
    assert checked > 0


def test_approximations_match_span_reference():
    # every (system, nu-stable subset, indecomposable) with e(L-1) <= 10;
    # the right reference covers t2 -> m directly, not through the duality
    from smsquiver.mutation import _nu_stable_subsets, nu_orbit_partition

    checked = 0
    for A in algebras_up_to(10):
        for S in A.all_sms():
            for sub in _nu_stable_subsets(nu_orbit_partition(A, S)):
                closure = A.ext_closure(sub)
                for m in A.indecomposables():
                    for side, approximate in (
                        ("left", A.minimal_left_approximation),
                        ("right", A.minimal_right_approximation),
                    ):
                        assert approximate(m, closure) == reference_approximation(
                            A.e, A.L, m, closure, side
                        ), (A, S, sub, m, side)
                    checked += 1
    assert checked > 0
