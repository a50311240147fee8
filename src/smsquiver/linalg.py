"""Small exact linear algebra over the rationals.

The mesh oracle in `meshcat` is the only caller in the package: it ranks
graded path spaces with `SpanTracker`, so no floating-point tolerance
appears.  The module backend needs no linear algebra, as its homs are
sets of depths.  Matrices are lists of row tuples with Fraction entries
and stay tiny (dimensions in the tens), hence plain Gaussian elimination
is enough.

`nullspace` and `integer_rank` have no caller in the package.  The tests
use them, and `SpanTracker`, as brute-force references: `integer_rank` is
the elimination that pushout middles were once decomposed with, and span
tracking on explicit hom vectors is how stable bases and minimal
approximations were once found; the depth-set versions in `nakayama` are
checked against both.  The benchmark tracer (perfbench/tracer.py) also
counts `integer_rank` calls by name.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class SpanTracker:
    """Incrementally maintained row space in reduced echelon form.

    Supports rank queries, membership tests and reduction of a vector
    modulo the tracked span.  Inserts are idempotent: adding a vector
    already in the span is a no-op.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[list[Fraction]] = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec) -> list[Fraction]:
        """Eliminate all pivot coordinates of `vec`; returns a new list."""
        v = [_frac(x) for x in vec]
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
        inv = Fraction(1) / v[piv]
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

    def contains(self, vec) -> bool:
        return all(x == 0 for x in self.reduce(vec))

    def free_columns(self) -> list[int]:
        pivset = set(self.pivots)
        return [j for j in range(self.ncols) if j not in pivset]

    def quotient_coords(self, vec) -> tuple[Fraction, ...]:
        """Coordinates of `vec` in the complement basis (free columns).

        The induced map is linear with kernel exactly the tracked span,
        i.e. a model of the quotient space.
        """
        v = self.reduce(vec)
        return tuple(v[j] for j in self.free_columns())


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


def integer_rank(rows) -> int:
    """Rank of an integer matrix by fraction-free elimination."""
    work = [list(r) for r in rows if any(r)]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    row = 0
    for col in range(ncols):
        piv = next((i for i in range(row, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[row], work[piv] = work[piv], work[row]
        prow = work[row]
        pv = prow[col]
        for i in range(row + 1, len(work)):
            ci = work[i][col]
            if not ci:
                continue
            ri = work[i]
            for j in range(col, ncols):
                ri[j] = ri[j] * pv - prow[j] * ci
            g = math.gcd(*ri)
            if g > 1:
                for j in range(ncols):
                    ri[j] //= g
        row += 1
        rank += 1
        if row == len(work):
            break
    return rank
