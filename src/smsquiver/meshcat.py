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
holds every nonzero hom.  By tau-equivariance one fast table per node,
computed once per process for the source (0, node), serves every level.

Quotient homs are covering sums: each row pushes the ZQ table of its source
forward along the covering ZQ -> ZQ / <zeta tau^{-r}>, so every lift of the
target inside the support band contributes once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .dynkin import DynkinGraph, coxeter_number
from .linalg import SpanTracker
from .ztquiver import (
    StableTranslationQuiver,
    Window,
    ZVert,
    arrows_in,
    t_grade,
)

class SupportBandError(AssertionError):
    """A nonzero hom appeared outside the expected support band."""


@dataclass(frozen=True)
class HomTable:
    """Dimensions of Hom(source, -) over a window of ZQ."""

    graph: DynkinGraph
    source: ZVert
    window: tuple[int, int]
    dims: dict

    def dim(self, target: ZVert) -> int:
        return self.dims.get(target, 0)

    def support(self) -> list[ZVert]:
        return sorted(v for v, d in self.dims.items() if d)


def _window_for(graph: DynkinGraph, x: ZVert) -> Window:
    return Window(graph, x[0], x[0] + 2 * coxeter_number(graph) + 1)


def _ordered_vertices(graph: DynkinGraph, win: Window, start: ZVert):
    verts = [v for v in win.vertices if t_grade(graph, v) >= t_grade(graph, start)]
    verts.sort(key=lambda v: (t_grade(graph, v), v))
    return verts


def oracle_table(graph: DynkinGraph, source: ZVert) -> HomTable:
    """Exact mesh-category hom dimensions from `source` over its band window."""
    win = _window_for(graph, source)
    verts = _ordered_vertices(graph, win, source)
    dims: dict[ZVert, int] = {}
    # arrow_maps[(u, v)]: columns (one per basis class at u) of the
    # post-composition map Hom(x,u) -> Hom(x,v).
    arrow_maps: dict[tuple[ZVert, ZVert], list[tuple[Fraction, ...]]] = {}

    for v in verts:
        if v == source:
            dims[v] = 1
            continue
        ins = [u for u in arrows_in(graph, v) if win.contains(u)]
        ins = [u for u in ins if dims.get(u, 0) > 0]
        width = sum(dims[u] for u in ins)
        if width == 0:
            dims[v] = 0
            continue
        offset = {}
        acc = 0
        for u in ins:
            offset[u] = acc
            acc += dims[u]
        tv = (v[0] - 1, v[1])
        tracker = SpanTracker(width)
        if dims.get(tv, 0) > 0:
            # mesh relations: the image of Hom(x, tau v) under the maps
            # "compose with the arrow tau v -> u", stacked over all u -> v
            for col in range(dims[tv]):
                vec = [Fraction(0)] * width
                for u in ins:
                    cols = arrow_maps.get((tv, u))
                    if cols is None:
                        continue
                    for row, entry in enumerate(cols[col]):
                        vec[offset[u] + row] += entry
                tracker.add(vec)
        dims[v] = width - tracker.rank
        for u in ins:
            cols = []
            for k in range(dims[u]):
                e = [Fraction(0)] * width
                e[offset[u] + k] = Fraction(1)
                cols.append(tracker.quotient_coords(e))
            arrow_maps[(u, v)] = cols

    table = HomTable(graph, source, (win.p_min, win.p_max), dims)
    _assert_support_band(table)
    return table


def fast_table(graph: DynkinGraph, source: ZVert) -> HomTable:
    """Clamped additive recursion for the same dimensions."""
    win = _window_for(graph, source)
    verts = _ordered_vertices(graph, win, source)
    dims: dict[ZVert, int] = {}
    for v in verts:
        if v == source:
            dims[v] = 1
            continue
        total = sum(dims.get(u, 0) for u in arrows_in(graph, v) if win.contains(u))
        total -= dims.get((v[0] - 1, v[1]), 0)
        dims[v] = max(total, 0)
    table = HomTable(graph, source, (win.p_min, win.p_max), dims)
    _assert_support_band(table)
    return table


def _assert_support_band(table: HomTable) -> None:
    """Nonzero homs from the source lie on its nodes within h slices ahead."""
    h = coxeter_number(table.graph)
    for (p, q), d in table.dims.items():
        if d and not (0 <= p - table.source[0] <= h and q in table.graph.nodes):
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
    ZQ, and each nonzero entry lands on the projection of its vertex.
    """
    key = str(q.rfs_type)
    cached = _quotient_cache.get(key)
    if cached is not None:
        return cached
    table = {(e, f): 0 for e in q.vertices for f in q.vertices}
    for e in q.vertices:
        for (p, node), d in _node_table(q.graph, e[1]).dims.items():
            if d:
                table[(e, q.canonical((e[0] + p, node)))] += d
    _quotient_cache[key] = table
    return table
