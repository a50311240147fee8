"""Rank and kernel over the rationals, kept as brute-force references.

The package ranks nothing outside the mesh oracle's `SpanTracker`; the
tests use these two to build explicit hom spaces and to cross-check
`integer_rank`.
"""

from fractions import Fraction

from smsquiver.linalg import SpanTracker


def rank(rows, ncols: int) -> int:
    st = SpanTracker(ncols)
    for r in rows:
        st.add(r)
    return st.rank


def nullspace(rows, ncols: int) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel {x : A x = 0} of the matrix with given rows."""
    st = SpanTracker(ncols)
    for r in rows:
        st.add(r)
    basis = []
    for free in st.free_columns():
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for row, piv in zip(st.rows, st.pivots):
            v[piv] = -row[free]
        basis.append(tuple(v))
    return basis
