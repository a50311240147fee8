"""Hom dimensions in mesh categories of ZQ and of finite quotients.

Two routes are provided and must agree:

* `hom_dim_oracle` quotients the graded path space by the mesh ideal with
  exact rational linear algebra.  Degree by degree, paths ending at v split
  by their last arrow, so the hom space at v is the cokernel of the mesh
  map out of tau(v); the implementation tracks honest quotient projections,
  not just dimensions.
* `hom_dim_fast` is the integer knitting recursion (sum over incoming
  arrows minus the value at tau(v), clamped at zero).  Its clamping rule is
  validated against the oracle by the test suite, never assumed.

Every table spans the band window [x0, x0 + 2h + 1] of its source x: homs
vanish outside the h slices after x (`_assert_support_band`), so the window
holds every nonzero hom, and a table stores only those.  By
tau-equivariance one fast table per node, computed once per process for
the source (0, node), serves every level.  The arrows into each node, the
node depths and the node set are looked up once per graph (`_steps`), and
the window's vertex order once per node (`_band_order`).

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
from .linalg import SpanTracker
from .values import Value
from .ztquiver import StableTranslationQuiver, ZVert

class SupportBandError(AssertionError):
    """A nonzero hom appeared outside the expected support band."""


class HomTable(Value):
    """Dimensions of Hom(source, -) over a window of ZQ.

    `dims` holds the nonzero dimensions only; every other vertex has 0.
    """

    __slots__ = ("graph", "source", "window", "dims")
    graph: DynkinGraph
    source: ZVert
    window: tuple[int, int]
    dims: dict

    def dim(self, target: ZVert) -> int:
        return self.dims.get(target, 0)


class _Steps:
    """Per-graph lookup tables of ZQ shared by every hom table."""

    def __init__(self, graph: DynkinGraph):
        ins: dict[int, list[tuple[int, int]]] = {q: [] for q in graph.nodes}
        for i, j in graph.oriented_edges():
            ins[j].append((0, i))
            ins[i].append((-1, j))
        # ins[node]: (level offset, node) of each arrow into (p, node), in
        # the order of `arrows_in`
        self.ins = {q: tuple(arrows) for q, arrows in ins.items()}
        self.depth = {q: graph.depth(q) for q in graph.nodes}
        self.nodes = frozenset(graph.nodes)


_steps = cache(_Steps)


def _window_for(graph: DynkinGraph, x: ZVert) -> tuple[int, int]:
    return x[0], x[0] + 2 * coxeter_number(graph) + 1


@cache
def _band_order(graph: DynkinGraph, node: int) -> tuple[tuple[int, int, int], ...]:
    """Band-window vertices of the source (0, node) not below its t-grade,
    by (t-grade, vertex), as (t-grade - source t-grade, level, node).

    Shifting the source by s levels shifts every t-grade by 2s, so this
    order, shifted to the source's level, serves every source on `node`.
    A table built over it stores nothing else, so an arrow tail outside
    the window reads as 0 without a membership test.
    """
    depth = _steps(graph).depth
    lo, hi = _window_for(graph, (0, node))
    t0 = depth[node]
    return tuple(
        sorted(
            (2 * p + d - t0, p, q)
            for p in range(lo, hi + 1)
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
        tracker = SpanTracker(width)
        # mesh relations: the image of Hom(x, tau v) under the maps
        # "compose with the arrow tau v -> u", stacked over all u -> v
        for col in range(dims.get(tv, 0)):
            vec = [0] * width
            for u in ins:
                cols = arrow_maps.get((tv, u))
                if cols is None:
                    continue
                for row, entry in enumerate(cols[col], offset[u]):
                    vec[row] += entry
            tracker.add(vec)
        d = width - tracker.rank
        if not d:
            continue
        dims[v] = d
        last = g
        for u in ins:
            cols = []
            for k in range(offset[u], offset[u] + dims[u]):
                e = [0] * width
                e[k] = 1
                cols.append(tracker.quotient_coords(e))
            arrow_maps[(u, v)] = cols

    table = HomTable(graph, source, _window_for(graph, source), dims)
    _assert_support_band(table)
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
    table = HomTable(graph, source, _window_for(graph, source), dims)
    _assert_support_band(table)
    return table


def _assert_support_band(table: HomTable) -> None:
    """Nonzero homs from the source lie on its nodes within h slices ahead."""
    h = coxeter_number(table.graph)
    nodes = _steps(table.graph).nodes
    for (p, q), d in table.dims.items():
        if not (0 <= p - table.source[0] <= h and q in nodes):
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
    return quotient_hom_table(q)[(q.canonical(e), q.canonical(f))]


_quotient_cache: dict[str, dict] = {}


def quotient_hom_table(q: StableTranslationQuiver) -> dict:
    """All-pairs stable hom dimensions of a quotient, computed once.

    Row e pushes the table of (0, e[1]) forward along the covering: by
    tau-equivariance that table, shifted by e[0] levels, is Hom(e, -) on
    ZQ, and each nonzero entry lands on the projection of its vertex.  Each
    lifted vertex is projected once, however many rows reach it.
    """
    key = str(q.rfs_type)
    cached = _quotient_cache.get(key)
    if cached is not None:
        return cached
    table = {(e, f): 0 for e in q.vertices for f in q.vertices}
    projection: dict[ZVert, ZVert] = {}
    for e in q.vertices:
        for (p, node), d in _node_table(q.graph, e[1]).dims.items():
            lift = (e[0] + p, node)
            f = projection.get(lift)
            if f is None:
                f = projection[lift] = q.canonical(lift)
            table[(e, f)] += d
    _quotient_cache[key] = table
    return table
