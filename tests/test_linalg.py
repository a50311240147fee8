from fractions import Fraction

from linalg_reference import nullspace, rank

from smsquiver.linalg import SpanTracker, integer_rank


def test_rank_and_membership():
    rows = [(1, 2, 3), (2, 4, 6), (0, 1, 1)]
    assert rank(rows, 3) == 2
    st = SpanTracker(3)
    for r in rows:
        st.add(r)
    assert st.contains((1, 3, 4))
    assert not st.contains((0, 0, 1))


def test_add_is_idempotent():
    st = SpanTracker(2)
    assert st.add((1, 1))
    assert not st.add((2, 2))
    assert st.rank == 1


def test_quotient_coords_kill_exactly_the_span():
    st = SpanTracker(3)
    st.add((1, 0, 1))
    assert st.quotient_coords((2, 0, 2)) == (Fraction(0), Fraction(0))
    assert any(st.quotient_coords((0, 1, 0)))


def test_nullspace_orthogonal_to_rows():
    rows = [(1, 2, 0, 1), (0, 1, 1, 0)]
    basis = nullspace(rows, 4)
    assert len(basis) == 2
    for v in basis:
        for r in rows:
            assert sum(a * b for a, b in zip(r, v)) == 0


def test_integer_rank_matches_rational_rank():
    rows = [
        [3, 1, 4, 1],
        [5, 9, 2, 6],
        [8, 10, 6, 7],  # row1 + row2
        [0, 0, 0, 0],
    ]
    assert integer_rank(rows) == rank(rows, 4) == 2


def test_integer_vectors_reduce_exactly():
    # vectors are copied, not converted: ints and Fractions mix exactly
    st = SpanTracker(2)
    st.add((2, 1))
    assert st.quotient_coords((1, 0)) == (Fraction(-1, 2),)
    assert st.quotient_coords((0, 1)) == (1,)
