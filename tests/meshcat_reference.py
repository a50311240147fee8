"""Hom tables of ZQ by a scan of the whole band window, kept as references.

These are `oracle_table` and `fast_table` as they were before the tables
stopped at the first empty t-grade: every vertex of the source's band
window [x0, x0 + 2h + 1] not below its t-grade is visited in (t-grade,
vertex) order, sorted afresh for each source, and the oracle ranks with
`FractionSpanTracker`, which turns every row into Fractions.  Both return
the nonzero dimensions as a dict, in the order they were found.

`arrows_in` and `arrows_out` list the arrows of ZQ at a vertex by a loop
over the oriented tree edges; they are the reference for the per-graph
step table `ztquiver._steps`.
"""

from linalg_reference import FractionSpanTracker

from smsquiver.dynkin import coxeter_number


def t_grade(graph, v):
    """Grade of a vertex of ZQ: every arrow raises it by one."""
    return 2 * v[0] + graph.depth(v[1])


def arrows_out(graph, v):
    p, q = v
    out = []
    for i, j in graph.oriented_edges():
        if i == q:
            out.append((p, j))
        if j == q:
            out.append((p + 1, i))
    return out


def arrows_in(graph, v):
    p, q = v
    ins = []
    for i, j in graph.oriented_edges():
        if j == q:
            ins.append((p, i))
        if i == q:
            ins.append((p - 1, j))
    return ins


def band_vertices(graph, source):
    """Window vertices not below the source's t-grade, by (t-grade, vertex)."""
    lo, hi = source[0], source[0] + 2 * coxeter_number(graph) + 1
    t0 = t_grade(graph, source)
    keyed = [
        (t_grade(graph, (p, q)), p, q)
        for p in range(lo, hi + 1)
        for q in graph.nodes
        if t_grade(graph, (p, q)) >= t0
    ]
    keyed.sort()
    return [(p, q) for _, p, q in keyed]


def reference_oracle_dims(graph, source) -> dict:
    dims = {}
    arrow_maps = {}
    for v in band_vertices(graph, source):
        if v == source:
            dims[v] = 1
            continue
        ins = [u for u in arrows_in(graph, v) if u in dims]
        offset = {}
        width = 0
        for u in ins:
            offset[u] = width
            width += dims[u]
        if width == 0:
            continue
        tv = (v[0] - 1, v[1])
        tracker = FractionSpanTracker(width)
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
        for u in ins:
            cols = []
            for k in range(offset[u], offset[u] + dims[u]):
                e = [0] * width
                e[k] = 1
                cols.append(tracker.quotient_coords(e))
            arrow_maps[(u, v)] = cols
    return dims


def reference_fast_dims(graph, source) -> dict:
    dims = {}
    for v in band_vertices(graph, source):
        if v == source:
            dims[v] = 1
            continue
        total = sum(dims.get(u, 0) for u in arrows_in(graph, v))
        total -= dims.get((v[0] - 1, v[1]), 0)
        if total > 0:
            dims[v] = total
    return dims
