"""Acceptance gate: every criterion at its stated budget.

Each test prints its own pass/fail line through the shared runner, so
`pytest -s tests/test_acceptance.py` and `smsquiver check` show the same
report.
"""

from collections import Counter

import pytest

from smsquiver import acceptance, meshcat
from smsquiver.acceptance import CRITERIA, run
from smsquiver.dynkin import DynkinGraph, coxeter_number
from smsquiver.linalg import cokernel
from smsquiver.meshcat import HomTable
from smsquiver.ztquiver import Window


@pytest.mark.parametrize("number", [c[0] for c in CRITERIA], ids=lambda n: f"criterion-{n}")
def test_criterion(number):
    results = run({number})
    assert len(results) == 1
    result = results[0]
    assert result.passed, f"criterion {number}: {result.detail}"
    assert result.seconds < result.budget


def test_full_run_reports_every_criterion(capsys):
    results = run()
    out = capsys.readouterr().out
    assert len(results) == len(CRITERIA)
    assert all(r.passed for r in results)
    for number, *_ in CRITERIA:
        assert f"criterion {number:2d} [pass]" in out


def double_loop_criterion_9():
    """Check 9 as the scan over every pair of window vertices it replaced."""
    pairs = 0
    for family, rank in acceptance.MESH_GRAPHS:
        graph = DynkinGraph(family, rank)
        verts = Window(graph, 0, 2 * coxeter_number(graph)).vertices
        oracle = {x: acceptance.oracle_table(graph, x) for x in verts}
        fast = {x: acceptance.fast_table(graph, x) for x in verts}
        for x in verts:
            for y in verts:
                if oracle[x].dim(y) != fast[x].dim(y):
                    return False, f"{family}{rank}: mismatch at {x}->{y}"
                pairs += 1
        for x in verts:
            tx = (x[0] - 1, x[1])
            if tx not in oracle:
                continue
            for y in verts:
                ty = (y[0] - 1, y[1])
                if ty in oracle and oracle[x].dim(y) != oracle[tx].dim(ty):
                    return False, f"{family}{rank}: tau-equivariance fails {x}->{y}"
    return True, f"{pairs} pairs agree across {len(acceptance.MESH_GRAPHS)} tree classes"


def perturbed(table_fn, source, targets):
    """`table_fn` with Hom(source, y) on A3 raised by one at each target y."""

    def wrapped(graph, x):
        table = table_fn(graph, x)
        if str(graph) != "A3" or x != source:
            return table
        dims = {**table.dims, **{y: table.dim(y) + 1 for y in targets}}
        return HomTable(table.graph, table.source, dims)

    return wrapped


def test_check_9_counts_the_pairs_of_the_double_loop():
    result = acceptance.criterion_9()
    assert result == double_loop_criterion_9()
    assert result == (True, "39515 pairs agree across 7 tree classes")


def test_check_9_computes_every_table_afresh(monkeypatch):
    # one oracle and one fast table per window source, 437 in all: no
    # table is a shift of another, so the tau-equivariance half compares
    # tables computed independently
    calls = {"oracle_table": Counter(), "fast_table": Counter()}
    for name, counter in calls.items():
        table_fn = getattr(acceptance, name)

        def counted(graph, x, table_fn=table_fn, counter=counter):
            counter[(str(graph), x)] += 1
            return table_fn(graph, x)

        monkeypatch.setattr(acceptance, name, counted)
    assert acceptance.criterion_9() == (True, "39515 pairs agree across 7 tree classes")
    sources = Counter(
        (str(graph), x)
        for graph in (DynkinGraph(family, rank) for family, rank in acceptance.MESH_GRAPHS)
        for x in Window(graph, 0, 2 * coxeter_number(graph)).vertices
    )
    assert sum(sources.values()) == len(sources) == 437
    assert calls["oracle_table"] == calls["fast_table"] == sources


def test_check_9_oracle_does_no_fraction_arithmetic(monkeypatch):
    # every pivot the oracle meets is 1 or -1, so each quotient map it
    # builds over criterion 9's sources has int entries only
    entries = []

    def checked(rows, ncols):
        columns = cokernel(rows, ncols)
        entries.extend(x for column in columns for x in column)
        return columns

    monkeypatch.setattr(meshcat, "cokernel", checked)
    assert acceptance.criterion_9()[0]
    assert entries and all(type(x) is int for x in entries)


# two entries inside the window raised, the first in window order where the
# hom is 1 or where it is 0; the report names that first one
TARGETS = [((2, 3), (5, 2)), ((5, 2), (6, 1))]


@pytest.mark.parametrize("targets", TARGETS)
def test_check_9_names_the_first_mismatch(monkeypatch, targets):
    monkeypatch.setattr(acceptance, "fast_table", perturbed(acceptance.fast_table, (2, 1), targets))
    result = acceptance.criterion_9()
    assert result == double_loop_criterion_9()
    assert result == (False, f"A3: mismatch at (2, 1)->{targets[0]}")


@pytest.mark.parametrize("targets", TARGETS)
def test_check_9_names_the_first_tau_failure(monkeypatch, targets):
    # the same perturbation in both tables: they agree, but the source's
    # row no longer matches the row of its tau-translate
    for name in ("oracle_table", "fast_table"):
        table_fn = getattr(acceptance, name)
        monkeypatch.setattr(acceptance, name, perturbed(table_fn, (2, 1), targets))
    result = acceptance.criterion_9()
    assert result == double_loop_criterion_9()
    assert result == (False, f"A3: tau-equivariance fails (2, 1)->{targets[0]}")


def test_check_4_compares_star_orbits_with_tree_counts(monkeypatch):
    passed, detail = acceptance.criterion_4()
    assert passed and "; 13 stars N(e,em+1): system orbits = trees;" in detail
    # one tree too many at every multiplicity m >= 2: the first star with
    # m = 2, N(1, 3), has one orbit of systems
    count = acceptance.count_brauer_trees
    monkeypatch.setattr(acceptance, "count_brauer_trees", lambda d, m: count(d, m) + (m > 1))
    assert acceptance.criterion_4() == (False, "N(1,3): 1 system orbits but 2 Brauer trees")
