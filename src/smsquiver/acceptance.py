"""The acceptance suite: ten checks with per-check budgets.

Each criterion function returns (passed, detail); `run` wraps them with
timing and budget enforcement and prints one line per criterion.  The
tests call the same functions, so `pytest tests/test_acceptance.py` and
`smsquiver check` exercise identical code.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import gcd

from .brauer import count_brauer_trees
from .configs import enumerate_configurations, orbit_decomposition
from .dynkin import DynkinGraph, RfsType, coxeter_number, parse_type, validate_rfs_type
from .meshcat import fast_table, oracle_table
from .mutation import build_mutation_quiver
from .nakayama import NakayamaAlgebra, SerialModule, _orbit
from .values import Value
from .ztquiver import Window, quotient


class CriterionResult(Value):
    __slots__ = ("number", "name", "passed", "detail", "seconds", "budget")
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float
    budget: float


def _classification_reference(family: str, n: int, f: Fraction, torsion: int) -> bool:
    """Independently hand-coded classification table."""
    if f <= 0:
        return False
    if family == "A":
        if torsion == 1:
            return (f * n).denominator == 1
        if torsion == 2:
            return f.denominator == 1 and n >= 3 and n % 2 == 1
        return False
    if family == "D":
        if n < 4:
            return False
        if torsion == 1:
            if f.denominator == 1:
                return True
            return f.denominator == 3 and n % 3 == 0 and n >= 6
        if torsion == 2:
            return f.denominator == 1
        return n == 4 and f.denominator == 1
    if family == "E":
        if n not in (6, 7, 8):
            return False
        if torsion == 1:
            return f.denominator == 1
        return n == 6 and f.denominator == 1 and torsion == 2
    return False


def criterion_1() -> tuple[bool, str]:
    """Classification table over all families with n <= 12, s <= 6."""
    checked = 0
    for family, ranks in (("A", range(1, 13)), ("D", range(4, 13)), ("E", (6, 7, 8))):
        for n in ranks:
            freqs = {Fraction(s, d) for s in range(1, 7) for d in (1, 2, 3, n)}
            for f in sorted(freqs):
                for torsion in (1, 2, 3):
                    expected = _classification_reference(family, n, f, torsion)
                    try:
                        t = RfsType(DynkinGraph(family, n), f, torsion)
                    except Exception:
                        return False, f"constructor rejected {family}{n}"
                    got, diag = validate_rfs_type(t)
                    if got != expected:
                        return False, f"{t}: validate={got}, table={expected} ({diag})"
                    checked += 1
    return True, f"{checked} triples, zero disagreements"


def criterion_2() -> tuple[bool, str]:
    """The worked left mutation of the simples of N(4,5) at {S2, S3}."""
    A = NakayamaAlgebra(4, 5)
    simples = A.simples()
    got = A.mutate_left(simples, [simples[1], simples[2]])
    want = tuple(
        sorted(
            [
                SerialModule(1, 3),
                SerialModule(2, 4),
                SerialModule(3, 4),
                SerialModule(4, 1),
            ]
        )
    )
    cols = [A.render_factors(m) for m in got]
    return got == want, f"mutation columns: {', '.join(cols)}"


ORBIT_CASES = (
    ("A:2/f=1/t=1", 1),
    ("A:1/f=1/t=1", 1),
    ("A:2/f=1/2/t=1", 1),
    ("A:3/f=1/3/t=1", 1),
    ("A:4/f=1/4/t=1", 1),
    ("A:5/f=1/5/t=1", 1),
    ("A:3/f=1/t=2", 1),
    ("A:5/f=1/t=2", 2),
    ("D:4/f=1/t=1", 2),
    ("D:4/f=1/t=3", 1),
    ("D:6/f=1/3/t=1", 1),
)


def criterion_3() -> tuple[bool, str]:
    """Automorphism-orbit counts of configurations for the transitivity list."""
    rows = []
    for text, expected in ORBIT_CASES:
        q = quotient(parse_type(text))
        orbits = orbit_decomposition(q)
        rows.append((text, len(orbits), expected))
    bad = [r for r in rows if r[1] != r[2]]
    if bad:
        return False, "; ".join(f"{t}: got {g}, want {w}" for t, g, w in bad)
    return True, "; ".join(f"{t}={g}" for t, g, _ in rows)


def criterion_4() -> tuple[bool, str]:
    """Brauer-tree cross-check.

    Configuration classes modulo quiver automorphisms match the Brauer
    tree counts (raw configuration counts are strictly larger, e.g. 2
    configurations at A2 versus one tree); the count is 1 exactly for one
    edge or for the pair (2,1).  On the module side N(e, em + 1) is the
    Brauer star algebra with e edges and multiplicity m, and its systems up
    to <tau, Omega> (not D: trees count up to rotation, not reflection) are
    counted by the Brauer trees with e edges and multiplicity m, for every
    e*e*m <= 30 with m <= 4.
    """
    details = []
    for n in range(1, 5):
        q = quotient(parse_type(f"A:{n}/f=1/t=1"))
        orbits = len(orbit_decomposition(q))
        trees = count_brauer_trees(n, 1)
        details.append(f"A{n}: {orbits} classes = {trees} trees")
        if orbits != trees:
            return False, f"A{n}: {orbits} orbit classes but {trees} Brauer trees"
    stars = [(e, m) for e in range(1, 6) for m in range(1, 5) if e * e * m <= 30]
    for e, m in stars:
        A = NakayamaAlgebra(e, e * m + 1)
        systems = A.all_sms(bound=30)
        orbits = len({min(_orbit(s, (A.tau, A.omega))) for s in systems})
        trees = count_brauer_trees(e, m)
        if orbits != trees:
            return False, f"N({e},{e * m + 1}): {orbits} system orbits but {trees} Brauer trees"
    details.append(f"{len(stars)} stars N(e,em+1): system orbits = trees")
    for d in range(1, 5):
        for m in range(1, 5):
            count = count_brauer_trees(d, m)
            expected_one = d == 1 or (d, m) == (2, 1)
            if (count == 1) != expected_one:
                return False, f"count_brauer_trees({d},{m}) = {count}"
    return True, "; ".join(details) + "; unit counts exactly at d=1 and (2,1)"


BACKEND_PAIRS = ((1, 2), (2, 1), (2, 2), (3, 1), (4, 1))


def criterion_5() -> tuple[bool, str]:
    """Transported bijection between systems and configurations."""
    details = []
    for e, m in BACKEND_PAIRS:
        A = NakayamaAlgebra(e, e * m + 1)
        q = quotient(RfsType(DynkinGraph("A", e * m), Fraction(e, e * m), 1))
        systems = A.all_sms()
        configs = {frozenset(c) for c in enumerate_configurations(q)}
        transported = {A.transport(s, q) for s in systems}
        if len(transported) != len(systems):
            return False, f"N({e},{e * m + 1}): transport not injective"
        if transported != configs:
            return False, f"N({e},{e * m + 1}): transported systems != configurations"
        details.append(f"N({e},{e * m + 1})<->{len(configs)}")
    return True, "; ".join(details)


SWEEP_BOUND = 24


def _sweep_algebras() -> list[tuple[int, int]]:
    """Every N(e, L) with e(L-1) <= SWEEP_BOUND, the CLI's default --bound."""
    return [
        (e, L)
        for e in range(1, SWEEP_BOUND + 1)
        for L in range(2, SWEEP_BOUND // e + 2)
    ]


def criterion_6() -> tuple[bool, str]:
    """Exhaustive agreement of the two system definitions."""
    candidates = 0
    systems = 0
    for e, L in _sweep_algebras():
        A = NakayamaAlgebra(e, L)
        for cand in A.orthogonal_candidates():
            strong = A.is_sms(cand)
            weak = A.is_wsms(cand)
            if strong != weak:
                return False, f"N({e},{L}): {cand} sms={strong} wsms={weak}"
            candidates += 1
            systems += strong
    return True, f"{candidates} orthogonal candidates over {len(_sweep_algebras())} algebras, {systems} systems, zero disagreements"


def criterion_7() -> tuple[bool, str]:
    """Nakayama stability of every system found."""
    systems = 0
    for e, L in _sweep_algebras():
        A = NakayamaAlgebra(e, L)
        for s in A.all_sms():
            image = tuple(sorted(A.nu(m) for m in s))
            if image != s:
                return False, f"N({e},{L}): {s} not Nakayama-stable"
            systems += 1
    return True, f"all {systems} systems stable over {len(_sweep_algebras())} algebras"


def criterion_8() -> tuple[bool, str]:
    """Left-irreducible mutation reaches every system from the simples."""
    systems = 0
    for e, L in _sweep_algebras():
        A = NakayamaAlgebra(e, L)
        q = build_mutation_quiver(A, A.simples(), "left")
        expected = set(A.all_sms())
        if set(q.vertices) != expected:
            return False, f"N({e},{L}): BFS reached {len(q.vertices)} of {len(expected)}"
        systems += len(expected)
    return True, f"reachability exact ({systems} systems over {len(_sweep_algebras())} algebras)"


MESH_GRAPHS = (("A", 2), ("A", 3), ("A", 4), ("A", 5), ("D", 4), ("D", 5), ("E", 6))


def criterion_9() -> tuple[bool, str]:
    """Mesh oracle agreement, translation equivariance, support band."""
    pairs = 0
    for family, rank in MESH_GRAPHS:
        graph = DynkinGraph(family, rank)
        h = coxeter_number(graph)
        window = Window(graph, 0, 2 * h)
        verts = window.vertices
        oracle = {}
        fast = {}
        for x in verts:
            oracle[x] = oracle_table(graph, x)  # band assertion fires inside
            fast[x] = fast_table(graph, x)
        # tables store only nonzero homs, so comparing them restricted to
        # the window checks every pair x -> y of window vertices; a mismatch
        # is scanned for in window order to name its first pair
        inside = set(verts)
        for x in verts:
            if _restrict(oracle[x].dims, inside) != _restrict(fast[x].dims, inside):
                y = next(y for y in verts if oracle[x].dim(y) != fast[x].dim(y))
                return False, f"{family}{rank}: mismatch at {x}->{y}"
        pairs += len(verts) ** 2
        # tau-equivariance over the pairs whose tau-shifts lie in the window
        shifted = {(p - 1, q) for p, q in verts} & inside
        for x in verts:
            tx = (x[0] - 1, x[1])
            if tx not in oracle:
                continue
            below = {(p - 1, q): d for (p, q), d in oracle[x].dims.items()}
            if _restrict(below, shifted) != _restrict(oracle[tx].dims, shifted):
                y = next(
                    y
                    for y in verts
                    if (y[0] - 1, y[1]) in oracle
                    and oracle[x].dim(y) != oracle[tx].dim((y[0] - 1, y[1]))
                )
                return False, f"{family}{rank}: tau-equivariance fails {x}->{y}"
    return True, f"{pairs} pairs agree across {len(MESH_GRAPHS)} tree classes"


def _restrict(dims: dict, keys) -> dict:
    """The entries of a sparse hom table at the given vertices."""
    return {y: d for y, d in dims.items() if y in keys}


def criterion_10() -> tuple[bool, str]:
    """Lift periodicity and gcd dependence of configuration counts."""
    for text, _ in ORBIT_CASES:
        t = parse_type(text)
        q = quotient(t)
        period = t.coxeter - 1  # Riedtmann's m_Delta = h - 1
        for config in enumerate_configurations(q):
            members = set(config)
            for v in config:
                if q.canonical((v[0] - period, v[1])) not in members:
                    return False, f"{text}: lift of {config} not tau^{period}-stable"
    counts = {}
    for s in (1, 2, 3, 4, 6):
        t = RfsType(DynkinGraph("A", 4), Fraction(s, 4), 1)
        counts[s] = len(enumerate_configurations(quotient(t)))
    for a in counts:
        for b in counts:
            if (gcd(a, 4) == gcd(b, 4)) != (counts[a] == counts[b]):
                return False, f"(A4,s/4,1) counts {counts} break gcd dependence"
    return True, f"periodicity holds; (A4,s/4,1) counts {counts}"


CRITERIA = (
    (1, "classification table", criterion_1, 1.0),
    (2, "worked mutation", criterion_2, 1.0),
    (3, "orbit counts", criterion_3, 300.0),
    (4, "Brauer tree cross-check", criterion_4, 60.0),
    (5, "backend equivalence", criterion_5, 300.0),
    (6, "sms/wsms agreement", criterion_6, 600.0),
    (7, "Nakayama stability", criterion_7, 60.0),
    (8, "mutation reachability", criterion_8, 300.0),
    (9, "mesh oracle agreement", criterion_9, 600.0),
    (10, "covering and periodicity", criterion_10, 120.0),
)


def run(numbers=None) -> list[CriterionResult]:
    results = []
    for number, name, fn, budget in CRITERIA:
        if numbers and number not in numbers:
            continue
        start = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"exception: {exc!r}"
        elapsed = time.perf_counter() - start
        if passed and elapsed >= budget:
            passed = False
            detail += f" (over budget: {elapsed:.1f}s >= {budget:.0f}s)"
        results.append(CriterionResult(number, name, passed, detail, elapsed, budget))
        status = "pass" if passed else "FAIL"
        print(f"criterion {number:2d} [{status}] {name}: {detail} ({elapsed:.2f}s)")
    return results
