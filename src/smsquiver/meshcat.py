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

from fractions import Fraction
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
    A table built over it stores nothing else, so an arrow tail outside
    the window reads as 0 without a membership test.
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


def oracle_table(graph: DynkinGraph, source: ZVert) -> HomTable:
    """Exact mesh-category hom dimensions from `source` over its band window."""
    ins_of = _steps(graph).ins
    p0 = source[0]
    dims: dict[ZVert, int] = {source: 1}
    # arrow_maps[(u, v)]: columns (one per basis class at u) of the
    # post-composition map Hom(x,u) -> Hom(x,v).
    arrow_maps: dict[tuple[ZVert, ZVert], list[tuple[int | Fraction, ...]]] = {}
    last = 0  # t-grade offset of the last nonzero hom

    for g, dp, q in _band_order(graph, source[1]):
        if g > last + 1:
            break
        p = p0 + dp
        ins = [u for u in ((p + dq, n) for dq, n in ins_of[q]) if u in dims]
        offset = {}
        width = 0
        for u in ins:
            offset[u] = width
            width += dims[u]
        if width == 0:
            continue
        v = (p, q)
        tv = (p - 1, q)
        # mesh relations: the image of Hom(x, tau v) under the maps
        # "compose with the arrow tau v -> u", stacked over all u -> v
        relations = []
        for col in range(dims.get(tv, 0)):
            vec = [0] * width
            for u in ins:
                cols = arrow_maps.get((tv, u))
                if cols is None:
                    continue
                for row, entry in enumerate(cols[col], offset[u]):
                    vec[row] += entry
            relations.append(vec)
        projection = cokernel(relations, width)
        d = len(projection[0])
        if not d:
            continue
        dims[v] = d
        last = g
        for u in ins:
            arrow_maps[(u, v)] = projection[offset[u] : offset[u] + dims[u]]

    table = HomTable(graph, source, dims)
    _check_support_band(table)
    return table


def fast_table(graph: DynkinGraph, source: ZVert) -> HomTable:
    """Clamped additive recursion for the same dimensions."""
    ins_of = _steps(graph).ins
    p0 = source[0]
    dims: dict[ZVert, int] = {source: 1}
    get = dims.get
    last = 0  # t-grade offset of the last nonzero hom
    for g, dp, q in _band_order(graph, source[1]):
        if g > last + 1:
            break
        p = p0 + dp
        total = -get((p - 1, q), 0)
        for dq, n in ins_of[q]:
            total += get((p + dq, n), 0)
        if total > 0:
            dims[(p, q)] = total
            last = g
    table = HomTable(graph, source, dims)
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
