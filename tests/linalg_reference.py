"""Span tracking, rank and kernel over the rationals, kept as brute-force
references.

The package eliminates only in the mesh oracle's `linalg.cokernel`.
`SpanTracker` is the incremental row space the oracle used before: it
reduced every unit vector of a path space modulo the mesh relations, and
`cokernel` is checked against its `quotient_coords`.  The tests also use
it to build explicit hom spaces.  `FractionSpanTracker` is the tracker as
it was before unit pivots kept integer rows: it divides every new row by
its pivot, so its rows are all Fractions.  `rank` and `nullspace` use it
to cross-check `integer_rank`, and `contains` tests span membership.
"""

from fractions import Fraction


class SpanTracker:
    """Incrementally maintained row space in reduced echelon form.

    Supports rank queries and reduction of a vector modulo the tracked
    span.  Inserts are idempotent: adding a vector already in the span is
    a no-op.  A pivot of 1 or -1 is normalised by keeping the row or
    flipping its sign, so integer rows with unit pivots stay integers.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[list[int | Fraction]] = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec) -> list[int | Fraction]:
        """Eliminate all pivot coordinates of `vec`; returns a new list."""
        v = list(vec)
        for row, piv in zip(self.rows, self.pivots):
            c = v[piv]
            if c:
                for j in range(piv, self.ncols):
                    v[j] -= c * row[j]
        return v

    def add(self, vec) -> bool:
        """Add `vec` to the span; True if it enlarged the span."""
        v = self.reduce(vec)
        piv = next((j for j, x in enumerate(v) if x), None)
        if piv is None:
            return False
        pv = v[piv]
        if pv == -1:
            v = [-x for x in v]
        elif pv != 1:
            inv = Fraction(1) / pv
            v = [x * inv for x in v]
        # back-eliminate to keep the basis reduced
        for row in self.rows:
            c = row[piv]
            if c:
                for j in range(self.ncols):
                    row[j] -= c * v[j]
        at = next((i for i, p in enumerate(self.pivots) if p > piv), len(self.pivots))
        self.rows.insert(at, v)
        self.pivots.insert(at, piv)
        return True

    def free_columns(self) -> list[int]:
        pivset = set(self.pivots)
        return [j for j in range(self.ncols) if j not in pivset]

    def quotient_coords(self, vec) -> tuple[int | Fraction, ...]:
        """Coordinates of `vec` in the complement basis (free columns).

        The induced map is linear with kernel exactly the tracked span,
        i.e. a model of the quotient space.
        """
        v = self.reduce(vec)
        return tuple(v[j] for j in self.free_columns())


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
