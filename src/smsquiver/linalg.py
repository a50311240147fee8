"""Small exact linear algebra over the rationals.

The mesh oracle in `meshcat` is the only caller in the package: it takes
the quotient of each graded path space by the mesh relations with one
`cokernel`, so no floating-point tolerance appears.  The module backend
needs no linear algebra, as its homs are sets of depths.  Vectors hold
ints and Fractions, which mix exactly, and stay tiny (dimensions in the
tens), hence plain Gaussian elimination is enough.  A pivot of 1 or -1 is
normalised by keeping the row or flipping its sign, so integer rows with
unit pivots stay integers; every pivot the mesh oracle meets is one of
these, so the oracle does no Fraction arithmetic.  Any other pivot divides
through by a Fraction.

`integer_rank` has no caller in the package.  The tests use it as a
brute-force reference: it is the elimination that pushout middles were
once decomposed with, and the depth-set versions in `nakayama` are
checked against it.  The benchmark tracer (perfbench/tracer.py) also
counts `integer_rank` calls by name.
"""

from __future__ import annotations

import math
from fractions import Fraction


def cokernel(rows, ncols: int) -> list[tuple[int | Fraction, ...]]:
    """The quotient map of k^ncols onto k^ncols / span(rows), one column
    (the image of the k-th unit vector) per coordinate k.

    The rows are brought to reduced echelon form; the free columns give
    the quotient's basis.  A free column maps to its own unit vector and
    a pivot column to minus the free part of its row, so the map kills
    every row and nothing else.  With no rows that is the identity; once
    the rows reach full rank the quotient is 0, and every column is ().
    """
    if not rows:
        return [(0,) * k + (1,) + (0,) * (ncols - k - 1) for k in range(ncols)]
    basis: list[list[int | Fraction]] = []
    pivots: list[int] = []
    for vec in rows:
        v = list(vec)
        for row, piv in zip(basis, pivots):
            c = v[piv]
            if c:
                for j in range(piv, ncols):
                    v[j] -= c * row[j]
        for piv in range(ncols):
            if v[piv]:
                break
        else:
            continue
        pv = v[piv]
        if pv == -1:
            v = [-x for x in v]
        elif pv != 1:
            inv = Fraction(1) / pv
            v = [x * inv for x in v]
        # back-eliminate to keep the basis reduced
        for row in basis:
            c = row[piv]
            if c:
                for j in range(piv, ncols):
                    row[j] -= c * v[j]
        basis.append(v)
        pivots.append(piv)
        if len(basis) == ncols:
            return [()] * ncols
    row_of = dict(zip(pivots, basis))
    free = [j for j in range(ncols) if j not in row_of]
    return [
        tuple([int(j == k) for j in free]) if k not in row_of
        else tuple([-row_of[k][j] for j in free])
        for k in range(ncols)
    ]


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
