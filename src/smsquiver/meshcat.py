"""Hom dimensions in mesh categories of ZQ and of finite quotients.

Two routes are provided and must agree:

* `hom_dim_oracle` quotients the graded path space by the mesh ideal with
  exact rational linear algebra.  Degree by degree, paths ending at v split
  by their last arrow, so the hom space at v is the cokernel of the mesh
  map out of tau(v).  One `linalg.cokernel` per vertex gives the quotient
  projection, not just its rank: its columns, sliced by incoming arrow,
  are the maps Hom(x, u) -> Hom(x, v) that later vertices read.
* `hom_dim_fast` is the integer knitting recursion (sum over incoming
  arrows minus the value at tau(v), clamped at zero).  Its clamping rule is
  validated against the oracle by the test suite, never assumed.

Every table is computed over the band window [x0, x0 + 2h + 1] of its
source x: homs vanish outside the h slices after x (`_check_support_band`),
so the window holds every nonzero hom, and a table stores only those.  By
tau-equivariance one fast table per node, computed once per process for
the source (0, node), serves every level.  The arrows into each node and
the node depths come from the per-graph step table of ZQ
(`ztquiver._steps`), and the window's vertex order is computed once per
node (`_band_order`).

Both walks index a dense grid, not dicts keyed by vertices.  Vertex
(x0 + dp, q) of the window sits at position (dp + 1) n + q - 1, n the
rank, so a grid holds the 2h + 2 window levels and one more: level -1, a
padding row of zeros.  Hence tau(v) sits at i - n, and the tails of the
arrows into node q sit at i + k for the per-graph relative offsets k of
`_grid`, the same at every level.  The grid is relative to the source's
level; each table is returned keyed by the absolute vertices (x0 + dp, q).

Both tables visit the window by t-grade and end at the first empty one.
Every arrow raises the t-grade by 1, so every path into v other than the
identity ends with an arrow u -> v from one grade lower.  In the oracle
Hom(x, v) is a quotient of the sum of Hom(x, u) over those arrows; in the
fast recursion the clamped sum is 0 when every incoming term is.  So once
a whole grade holds no nonzero hom, every later vertex is 0 as well.

Quotient homs are covering sums: each row pushes the ZQ table of its source
forward along the covering ZQ -> ZQ / <zeta tau^{-r}>, so every lift of the
target inside the support band contributes once.
"""

from __future__ import annotations

from functools import cache

from .dynkin import DynkinGraph, coxeter_number
from .linalg import cokernel
from .values import Value
from .ztquiver import StableTranslationQuiver, ZVert, _steps


class SupportBandError(RuntimeError):
    """A nonzero hom appeared outside the expected support band."""


class HomTable(Value):
    """Dimensions of Hom(source, -) on ZQ.

    `dims` holds the nonzero dimensions only; every other vertex has 0.
    """

    __slots__ = ("graph", "source", "dims")
    graph: DynkinGraph
    source: ZVert
    dims: dict

    def dim(self, target: ZVert) -> int:
        return self.dims.get(target, 0)


@cache
def _band_order(graph: DynkinGraph, node: int) -> tuple[tuple[int, int, int], ...]:
    """Vertices of the band window [0, 2h + 1] of the source (0, node) not
    below its t-grade, by (t-grade, vertex), as (t-grade - source t-grade,
    level, node).

    Shifting the source by s levels shifts every t-grade by 2s, so this
    order, shifted to the source's level, serves every source on `node`.
    The walks put (dp, q) at grid position (dp + 1) n + q - 1 (`_grid`)
    and write nothing else; an arrow tail outside the window lies on the
    padding level -1 or below the source's t-grade, both never written,
    so it reads as 0 without a membership test.
    """
    depth = _steps(graph).depth
    t0 = depth[node]
    return tuple(
        sorted(
            (2 * p + d - t0, p, q)
            for p in range(2 * coxeter_number(graph) + 2)
            for q, d in depth.items()
            if 2 * p + d >= t0
        )
    )


@cache
def _grid(graph: DynkinGraph) -> tuple[int, int, dict[int, tuple[int, ...]]]:
    """The rank n, the size (2h + 3) n of a band window's grid, and for each
    node q the relative offsets k of the arrow tails into it: the tail of
    an arrow into the vertex at position i sits at position i + k.

    An arrow (dq, m) -> (0, q) of `_steps(graph).ins` has the offset
    dq n + m - q, in the order of `ins[q]`.
    """
    n = graph.rank
    size = (2 * coxeter_number(graph) + 3) * n
    ins = {q: tuple(dq * n + m - q for dq, m in arrows) for q, arrows in _steps(graph).ins.items()}
    return n, size, ins


def oracle_table(graph: DynkinGraph, source: ZVert) -> HomTable:
    """Exact mesh-category hom dimensions from `source` over its band window."""
    n, size, ins_of = _grid(graph)
    p0, node = source
    out: dict[ZVert, int] = {source: 1}
    dims = [0] * size
    dims[n + node - 1] = 1
    # projection[v]: the columns of the quotient map onto Hom(x, v), one per
    # basis class of the stacked Hom(x, u) over the arrows u -> v, and
    # ins_at[v]: the first of those columns for each tail u.  So the map
    # Hom(x, u) -> Hom(x, v) is the slice of projection[v] at ins_at[v][u].
    projection: list = [None] * size
    ins_at: list = [None] * size
    last = 0  # t-grade offset of the last nonzero hom

    for g, dp, q in _band_order(graph, node):
        if g > last + 1:
            break
        i = (dp + 1) * n + q - 1
        at = {}
        width = 0
        for k in ins_of[q]:
            d = dims[i + k]
            if d:
                at[i + k] = width
                width += d
        if not width:
            continue
        # mesh relations: the image of Hom(x, tau v) under the maps
        # "compose with the arrow tau v -> u", stacked over all u -> v.  A
        # nonzero Hom(x, tau v) puts every such u past the source, so its
        # projection holds a slice for tau v.
        t = i - n
        relations = [[0] * width for _ in range(dims[t])]
        if relations:
            for u, row0 in at.items():
                cols = projection[u]
                for col, vec in enumerate(relations, ins_at[u][t]):
                    for row, entry in enumerate(cols[col], row0):
                        vec[row] += entry
        columns = cokernel(relations, width)
        d = len(columns[0])
        if not d:
            continue
        dims[i] = d
        projection[i] = columns
        ins_at[i] = at
        out[(p0 + dp, q)] = d
        last = g

    table = HomTable(graph, source, out)
    _check_support_band(table)
    return table


def fast_table(graph: DynkinGraph, source: ZVert) -> HomTable:
    """Clamped additive recursion for the same dimensions."""
    n, size, ins_of = _grid(graph)
    p0, node = source
    out: dict[ZVert, int] = {source: 1}
    dims = [0] * size
    dims[n + node - 1] = 1
    last = 0  # t-grade offset of the last nonzero hom
    for g, dp, q in _band_order(graph, node):
        if g > last + 1:
            break
        i = (dp + 1) * n + q - 1
        total = -dims[i - n]
        for k in ins_of[q]:
            total += dims[i + k]
        if total > 0:
            dims[i] = total
            out[(p0 + dp, q)] = total
            last = g
    table = HomTable(graph, source, out)
    _check_support_band(table)
    return table


def _check_support_band(table: HomTable) -> None:
    """Nonzero homs from the source lie on its nodes within h slices ahead."""
    h = coxeter_number(table.graph)
    depth = _steps(table.graph).depth
    for (p, q), d in table.dims.items():
        if not (0 <= p - table.source[0] <= h and q in depth):
            raise SupportBandError(
                f"hom({table.source},({p},{q})) = {d} outside the {h}-slice band"
            )


@cache
def _node_table(graph: DynkinGraph, node: int) -> HomTable:
    """Table for source (0, node); other levels follow by tau-equivariance."""
    return fast_table(graph, (0, node))


def hom_dim_oracle(graph: DynkinGraph, x: ZVert, y: ZVert) -> int:
    return oracle_table(graph, x).dim(y)


def hom_dim_fast(graph: DynkinGraph, x: ZVert, y: ZVert) -> int:
    return _node_table(graph, x[1]).dim((y[0] - x[0], y[1]))


def quotient_hom_dim(q: StableTranslationQuiver, e: ZVert, f: ZVert) -> int:
    """Covering sum: total hom from a fixed lift of e onto all lifts of f."""
    return quotient_hom_table(q).get((q.canonical(e), q.canonical(f)), 0)


_quotient_cache: dict[str, dict] = {}


def quotient_hom_table(q: StableTranslationQuiver) -> dict:
    """Stable hom dimensions of a quotient, computed once: the nonzero
    entries only, listed in (e, f) order of `q.vertices`.

    Row e pushes the table of (0, e[1]) forward along the covering: by
    tau-equivariance that table, shifted by e[0] levels, is Hom(e, -) on
    ZQ, and each nonzero entry lands on the projection of its vertex.  Each
    lifted vertex is projected once, however many rows reach it.
    """
    key = str(q.rfs_type)
    cached = _quotient_cache.get(key)
    if cached is not None:
        return cached
    table = {}
    position = {v: i for i, v in enumerate(q.vertices)}
    projection: dict[ZVert, ZVert] = {}
    for e in q.vertices:
        row: dict[ZVert, int] = {}
        for (p, node), d in _node_table(q.graph, e[1]).dims.items():
            lift = (e[0] + p, node)
            f = projection.get(lift)
            if f is None:
                f = projection[lift] = q.canonical(lift)
            row[f] = row.get(f, 0) + d
        for f in sorted(row, key=position.__getitem__):
            table[(e, f)] = row[f]
    _quotient_cache[key] = table
    return table
