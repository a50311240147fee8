"""Mutation quivers: BFS over irreducible left/right mutations.

Vertices are canonical systems (sorted module tuples), sorted once when
the search ends; an arrow records the mutated Nakayama-orbit by its
socle-top signature rather than by positional indices, so labels survive
canonicalization.  Nakayama orbits are walked by `nakayama._orbit`.
"""

from __future__ import annotations

import itertools
import json

from .nakayama import Multiset, NakayamaAlgebra, _canon, _json_modules, _orbit
from .values import Value


def nu_orbit_partition(algebra: NakayamaAlgebra, system) -> list[Multiset]:
    """Nakayama orbits (minimal stable subsets) of a system, by least member."""
    remaining = set(system)
    parts = []
    while remaining:
        part = _canon(m for (m,) in _orbit((min(remaining),), (algebra.nu,)))
        if not remaining.issuperset(part):
            raise ValueError("system is not Nakayama-stable")
        remaining.difference_update(part)
        parts.append(part)
    return parts


def orbit_label(algebra: NakayamaAlgebra, part) -> str:
    """Socle-top signature, e.g. `2:2+3:3` for the orbit {S2, S3}."""
    return "+".join(
        sorted(f"{m.top}:{algebra.socle(m)}" for m in part)
    )


def _nu_stable_subsets(parts: list[Multiset]):
    """Nonempty unions of Nakayama orbits, each once: the parts are disjoint."""
    for k in range(1, len(parts) + 1):
        for chosen in itertools.combinations(parts, k):
            yield _canon(itertools.chain.from_iterable(chosen))


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
    found.  The vertices are sorted once, when the search ends.
    """
    if direction not in ("left", "right", "both"):
        raise ValueError("direction must be left, right or both")
    directions = ("left", "right") if direction == "both" else (direction,)
    algebra._require_size(size_bound)
    start = _canon(start)
    if not algebra.is_sms(start):
        raise ValueError("starting system is not an sms")

    systems = {start}
    arrows: set[tuple[Multiset, Multiset, str, str]] = set()
    frontier = [start]
    while frontier:
        nxt = []
        for system in frontier:
            parts = nu_orbit_partition(algebra, system)
            for sub in _nu_stable_subsets(parts) if allow_composite else parts:
                label = orbit_label(algebra, sub)
                for dirn in directions:
                    image = algebra._mutate(system, sub, dirn)
                    if image not in systems:
                        algebra._require_sms(image)
                        systems.add(image)
                        nxt.append(image)
                    if image != system:  # identity mutations carry no arrow
                        arrows.add((system, image, label, dirn))
        frontier = nxt

    vertices = tuple(sorted(systems))
    index = {v: i for i, v in enumerate(vertices)}
    indexed = sorted((index[s], index[t], label, dirn) for s, t, label, dirn in arrows)
    return MutationQuiver((algebra.e, algebra.L), vertices, tuple(indexed))
