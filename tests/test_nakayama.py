"""The Nakayama backend, pinned by brute-force linear algebra.

`brute_hom_dims` solves the intertwiner equations for graded maps
directly, with no knowledge of the depth-basis shortcut used in
production.
"""

import random

import pytest

from smsquiver.linalg import SpanTracker
from smsquiver.nakayama import (
    BoundExceededError,
    ConeDecompositionError,
    GenerationUndecided,
    NakayamaAlgebra,
    NotAnSmsError,
    NuStabilityError,
    SerialModule,
    parse_algebra,
)


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
    from smsquiver.linalg import nullspace

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
    from smsquiver.linalg import nullspace

    return nullspace(rows, len(unknowns))


@pytest.mark.parametrize("e,L", [(1, 4), (2, 4), (3, 4), (4, 3)])
def test_stable_hom_matches_brute_force(e, L):
    A = NakayamaAlgebra(e, L)
    for m in A.indecomposables():
        for n in A.indecomposables():
            hom, stably_zero = brute_hom_dims(A, m, n)
            assert A.hom_dim(m, n) == hom
            assert A.stable_hom_dim(m, n) == hom - stably_zero, (m, n)


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
    assert sym.is_symmetric
    for m in sym.indecomposables():
        assert sym.nu(m) == m
    A = NakayamaAlgebra(3, 3)
    assert not A.is_symmetric
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


def test_rank_decomposition_recovers_known_multisets():
    A = NakayamaAlgebra(3, 4)
    rng = random.Random(11)
    mods = A.indecomposables() + tuple(A.projective(i) for i in range(1, 4))
    for _ in range(50):
        w = tuple(sorted(rng.choice(mods) for _ in range(rng.randint(1, 4))))
        assert A._decompose_quotient(w, []) == w


def test_decomposition_invariants_raise():
    A = NakayamaAlgebra(3, 4)
    # x^1 has rank 1 on colour 1 while x^0 has rank 0: no module does that
    with pytest.raises(ConeDecompositionError):
        A._multiset_from_rank_table({(1, 1): 1})
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


def test_sms_implies_wsms_on_candidates():
    for e, L in [(2, 5), (3, 4)]:
        A = NakayamaAlgebra(e, L)
        for cand in A.orthogonal_candidates():
            if A.is_sms(cand):
                assert A.is_wsms(cand)


def test_simples_generate_everything():
    for e, L in [(2, 3), (3, 4), (4, 5), (1, 5)]:
        A = NakayamaAlgebra(e, L)
        assert A.is_sms(A.simples())


def test_minimal_left_approximation_worked_case():
    A = NakayamaAlgebra(4, 5)
    S = A.simples()
    closure = A.ext_closure([S[1], S[2]])
    appr = A.minimal_left_approximation(A.omega(S[0]), closure)
    assert appr.summands == (SerialModule(2, 2),)
    none = A.minimal_left_approximation(A.omega(S[3]), closure)
    assert none.summands == ()


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
        assert A.minimal_right_approximation(m, closure).copies == copies, m


@pytest.mark.parametrize("e,L", [(3, 5), (4, 4), (2, 7)])
def test_duality_reverses_homs(e, L):
    A = NakayamaAlgebra(e, L)
    for m in A.indecomposables():
        assert A.factors(A.dual(m)) == [A._col(-c) for c in reversed(A.factors(m))]
        assert A.dual(A.dual(m)) == m
        assert A.dual(A.omega(m)) == A.omega_inv(A.dual(m))
        assert A.nu(A.dual(A.nu(m))) == A.dual(m)  # D nu = nu^{-1} D
        for n in A.indecomposables():
            assert A.hom_dim(m, n) == A.hom_dim(A.dual(n), A.dual(m))
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
        assert tuple(sorted(A.nu(t) for t in left.summands)) == left_nu.summands


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
            assert A.stable_hom_dim(m, n) == table[(e, f)]


def test_parse_algebra():
    A = parse_algebra("nakayama:4:5")
    assert (A.e, A.L) == (4, 5)
    with pytest.raises(ValueError):
        parse_algebra("brauer:4:5")
    with pytest.raises(ValueError):
        NakayamaAlgebra(0, 3)
    with pytest.raises(ValueError):
        NakayamaAlgebra(2, 1)
