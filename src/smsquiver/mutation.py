"""Mutation quivers: BFS over irreducible left/right mutations.

Vertices are canonical systems (sorted module tuples); an arrow records
the mutated Nakayama-orbit by its socle-top signature rather than by
positional indices, so labels survive canonicalization.
"""

from __future__ import annotations

import json

from .nakayama import Multiset, NakayamaAlgebra, _canon, _json_modules
from .values import Value


def nu_orbit_partition(algebra: NakayamaAlgebra, system) -> list[Multiset]:
    """Partition of a system into Nakayama orbits (minimal stable subsets)."""
    remaining = set(_canon(system))
    parts = []
    while remaining:
        m = min(remaining)
        orbit = {m}
        cur = algebra.nu(m)
        while cur != m:
            if cur not in remaining:
                raise ValueError("system is not Nakayama-stable")
            orbit.add(cur)
            cur = algebra.nu(cur)
        remaining -= orbit
        parts.append(_canon(orbit))
    return sorted(parts)


def orbit_label(algebra: NakayamaAlgebra, part) -> str:
    """Socle-top signature, e.g. `2:2+3:3` for the orbit {S2, S3}."""
    return "+".join(
        sorted(f"{m.top}:{algebra.socle(m)}" for m in part)
    )


def _nu_stable_subsets(parts: list[Multiset]):
    """Nonempty unions of Nakayama orbits."""
    n = len(parts)
    for mask in range(1, 1 << n):
        subset = []
        for i in range(n):
            if mask >> i & 1:
                subset.extend(parts[i])
        yield _canon(subset)


class MutationQuiver(Value):
    __slots__ = ("algebra_key", "vertices", "arrows")
    algebra_key: tuple[int, int]
    vertices: tuple[Multiset, ...]
    arrows: tuple[tuple[int, int, str, str], ...]  # (source, target, orbit label, direction)

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": 1,
                "algebra": {"simples": self.algebra_key[0], "loewy_length": self.algebra_key[1]},
                "vertices": [_json_modules(v) for v in self.vertices],
                "arrows": [list(a) for a in self.arrows],
            },
            sort_keys=True,
        )

    def to_dot(self) -> str:
        def name(v):
            return ",".join(map(str, v))

        lines = [f'digraph "sms-mutation-N{self.algebra_key}" {{']
        for v in self.vertices:
            lines.append(f'  "{name(v)}";')
        for s, t, label, direction in self.arrows:
            style = "" if direction == "left" else " style=dashed"
            lines.append(
                f'  "{name(self.vertices[s])}" -> "{name(self.vertices[t])}"'
                f' [label="{label}"{style}];'
            )
        lines.append("}")
        return "\n".join(lines)


def build_mutation_quiver(
    algebra: NakayamaAlgebra,
    start,
    direction: str = "left",
    allow_composite: bool = False,
    size_bound: int = 24,
) -> MutationQuiver:
    """Closure of a starting system under mutations in the given direction(s).

    Irreducible mutations run over single Nakayama orbits; with
    `allow_composite` every nonempty Nakayama-stable subset is used.  The
    search ends because every image is a system of the algebra, and there
    are finitely many.  Each subset is a union of Nakayama orbits of the
    system, so the moves skip the argument checks of `mutate_left` and
    `mutate_right`; each vertex is checked to be a system once, when it is
    found.
    """
    if direction not in ("left", "right", "both"):
        raise ValueError("direction must be left, right or both")
    algebra._require_size(size_bound)
    start = _canon(start)
    if not algebra.is_sms(start):
        raise ValueError("starting system is not an sms")

    index: dict[Multiset, int] = {start: 0}
    vertices = [start]
    arrows: set[tuple[int, int, str, str]] = set()
    frontier = [start]
    while frontier:
        nxt = []
        for system in frontier:
            parts = nu_orbit_partition(algebra, system)
            subsets = (
                list(_nu_stable_subsets(parts)) if allow_composite else parts
            )
            moves = []
            if direction in ("left", "both"):
                moves.extend(("left", sub) for sub in subsets)
            if direction in ("right", "both"):
                moves.extend(("right", sub) for sub in subsets)
            for dirn, sub in moves:
                image = algebra._mutate(system, sub, dirn)
                if image not in index:
                    algebra._require_sms(image)
                    index[image] = len(vertices)
                    vertices.append(image)
                    nxt.append(image)
                if image != system:  # identity mutations carry no arrow
                    arrows.add(
                        (index[system], index[image], orbit_label(algebra, sub), dirn)
                    )
        frontier = nxt

    # canonical vertex order, arrows re-indexed
    order = sorted(range(len(vertices)), key=lambda i: vertices[i])
    rename = {old: new for new, old in enumerate(order)}
    verts = tuple(vertices[i] for i in order)
    arr = tuple(
        sorted((rename[s], rename[t], label, dirn) for s, t, label, dirn in arrows)
    )
    return MutationQuiver((algebra.e, algebra.L), verts, arr)
