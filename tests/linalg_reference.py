"""Rank and kernel over the rationals, kept as brute-force references.

The package ranks nothing outside the mesh oracle's `SpanTracker`; the
tests use `rank` and `nullspace` to build explicit hom spaces and to
cross-check `integer_rank`, and `contains` to test span membership.
`FractionSpanTracker` is the tracker as it was before unit pivots kept
integer rows: it divides every new row by its pivot, so its rows are all
Fractions.  The references below rank with it, and
`SpanTracker` is checked against it.
"""

from fractions import Fraction

from smsquiver.linalg import SpanTracker


class FractionSpanTracker(SpanTracker):
    """`SpanTracker` normalising every pivot to 1 by a Fraction."""

    def add(self, vec) -> bool:
        v = self.reduce(vec)
        piv = next((j for j, x in enumerate(v) if x), None)
        if piv is None:
            return False
        inv = Fraction(1) / v[piv]
        v = [x * inv for x in v]
        for row in self.rows:
            c = row[piv]
            if c:
                for j in range(self.ncols):
                    row[j] -= c * v[j]
        at = next((i for i, p in enumerate(self.pivots) if p > piv), len(self.pivots))
        self.rows.insert(at, v)
        self.pivots.insert(at, piv)
        return True


def contains(tracker: SpanTracker, vec) -> bool:
    """Whether `vec` lies in the span `tracker` holds."""
    return all(x == 0 for x in tracker.reduce(vec))


def rank(rows, ncols: int) -> int:
    st = FractionSpanTracker(ncols)
    for r in rows:
        st.add(r)
    return st.rank


def nullspace(rows, ncols: int) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel {x : A x = 0} of the matrix with given rows."""
    st = FractionSpanTracker(ncols)
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
