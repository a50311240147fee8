"""Small exact linear algebra over the rationals.

The mesh oracle in `meshcat` is the only caller in the package: it ranks
graded path spaces with `SpanTracker`, so no floating-point tolerance
appears.  The module backend needs no linear algebra, as its homs are
sets of depths.  Vectors hold ints and Fractions, which mix exactly, and
stay tiny (dimensions in the tens), hence plain Gaussian elimination is
enough.  A pivot of 1 or -1 is normalised by keeping the row or flipping
its sign, so integer rows with unit pivots stay integers; every pivot the
mesh oracle meets is one of these, so the oracle does no Fraction
arithmetic.  Any other pivot divides through by a Fraction.

`integer_rank` has no caller in the package.  The tests use it, and
`SpanTracker`, as brute-force references: `integer_rank` is the
elimination that pushout middles were once decomposed with, and span
tracking on explicit hom vectors is how stable bases and minimal
approximations were once found; the depth-set versions in `nakayama` are
checked against both.  The benchmark tracer (perfbench/tracer.py) also
counts `integer_rank` calls by name.
"""

from __future__ import annotations

import math
from fractions import Fraction


class SpanTracker:
    """Incrementally maintained row space in reduced echelon form.

    Supports rank queries and reduction of a vector modulo the tracked
    span.  Inserts are idempotent: adding a vector already in the span is
    a no-op.
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
