from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st
from linalg_reference import FractionSpanTracker, SpanTracker, contains, nullspace, rank

from smsquiver.linalg import cokernel, integer_rank


def test_rank_and_membership():
    rows = [(1, 2, 3), (2, 4, 6), (0, 1, 1)]
    assert rank(rows, 3) == 2
    st = SpanTracker(3)
    for r in rows:
        st.add(r)
    assert contains(st, (1, 3, 4))
    assert not contains(st, (0, 0, 1))


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


def test_unit_pivots_keep_integer_rows():
    # pivots -1, 1 and -1 (the third row is the sum of the first two)
    rows = [(-1, -2, 0, 1), (-1, -1, 1, 0), (-2, -3, 1, 1), (2, 3, -1, -2)]
    tracker = SpanTracker(4)
    for row in rows:
        tracker.add(row)
    assert tracker.rows == [[1, 0, -2, 0], [0, 1, 1, 0], [0, 0, 0, 1]]
    assert all(type(x) is int for row in tracker.rows for x in row)
    # column 2 is the one free column: the unit vectors map to minus the
    # free parts of the rows, and to 1
    columns = cokernel(rows, 4)
    assert columns == [(2,), (-1,), (1,), (0,)]
    assert all(type(x) is int for col in columns for x in col)
    for vec in [(1, 0, 0, 0), (0, 0, 1, 0), (3, -1, 4, 1)]:
        assert all(type(x) is int for x in image(columns, vec))
        assert image(columns, vec) == tracker.quotient_coords(vec)


def image(columns, vec):
    """The image of `vec` under the map with the given columns."""
    width = len(columns[0]) if columns else 0
    return tuple(sum(x * col[i] for x, col in zip(vec, columns)) for i in range(width))


matrices = st.integers(1, 5).flatmap(
    lambda ncols: st.tuples(
        st.lists(st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols), max_size=6),
        st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols),
    )
)


@given(matrices)
def test_tracker_agrees_with_the_fraction_reference(case):
    rows, probe = case
    ncols = len(probe)
    tracker, reference = SpanTracker(ncols), FractionSpanTracker(ncols)
    for row in rows:
        assert tracker.add(row) == reference.add(row)
    assert tracker.rank == reference.rank == integer_rank(rows)
    assert tracker.rows == reference.rows
    for vec in rows + [probe, [sum(col) for col in zip(probe, *rows)]]:
        assert contains(tracker, vec) == contains(reference, vec)


@given(matrices)
def test_cokernel_is_the_quotient_map_modulo_the_rows(case):
    rows, probe = case
    ncols = len(probe)
    columns = cokernel(rows, ncols)
    reference = FractionSpanTracker(ncols)
    for row in rows:
        reference.add(row)
    assert len(columns) == ncols
    for k, column in enumerate(columns):
        unit = [0] * ncols
        unit[k] = 1
        assert column == reference.quotient_coords(unit)
    assert all(len(column) == ncols - reference.rank for column in columns)
    for row in rows:
        assert not any(image(columns, row))
    assert image(columns, probe) == reference.quotient_coords(probe)
