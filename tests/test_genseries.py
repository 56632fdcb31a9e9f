"""Generating-series products: classical counts and their quantum lift."""

from moyeval.diagram import Coloring, builtin, parse_diagram
from moyeval.genseries import classical_series, generating_series_N, pochhammer_N
from moyeval.qexact import QLaurent
from moyeval.qtorus import CycleAlgebra
from moyeval.statesum import classical_eval, eval_table
from test_statesum import THETA_AND_CIRCLE

FIXTURES = ("unknot", "theta", "tetrahedron")


def _diagrams():
    # the built-ins, and one diagram where edge 0 and circle 0 share an id
    return [builtin(name) for name in FIXTURES] + [parse_diagram(THETA_AND_CIRCLE)]


def test_classical_series_unknot():
    d = builtin("unknot")
    assert classical_series(d, 0) == {Coloring(): 1}
    assert classical_series(d, 4) == {
        Coloring(circles={0: g}): c
        for g, c in zip(range(5), (1, 4, 6, 4, 1))
    }


def test_classical_series_counts_ordered_factorizations():
    # the tetrahedron coloring reached by two distinct triangles in either
    # order shows up with multiplicity two
    series = classical_series(builtin("tetrahedron"), 2)
    assert series[Coloring(edges={0: 2, 1: 2, 3: 1, 4: 1, 5: 1})] == 2


def test_classical_series_matches_state_counts():
    for d in _diagrams():
        for n in range(4):
            series = classical_series(d, n)
            table = eval_table(d, n)
            assert set(series) == set(table)
            for coloring, count in series.items():
                assert count == classical_eval(d, coloring, n)


def test_pochhammer_levels():
    ca_u = CycleAlgebra(builtin("unknot"))
    # monomials are keyed by their sorted variable indices: x_0^2 is (0, 0)
    assert pochhammer_N(ca_u, 0).terms == {(): QLaurent.one()}
    p2 = pochhammer_N(ca_u, 2)
    assert p2.terms == {
        (): QLaurent.one(),
        (0,): QLaurent({2: 1, -2: 1}),
        (0, 0): QLaurent.one(),
    }
    ca = CycleAlgebra(builtin("theta"))
    p1 = pochhammer_N(ca, 1)
    assert p1.terms == {
        (): QLaurent.one(),
        (0,): QLaurent.one(),
        (1,): QLaurent.one(),
    }


def test_generating_series_matches_state_sum():
    for d in _diagrams():
        ca = CycleAlgebra(d)
        for n in range(4):
            series = generating_series_N(d, n, cycle_algebra=ca)
            assert series == eval_table(d, n)
            assert series[Coloring()] == QLaurent.one()


def test_generating_series_specializes_to_classical():
    for name in FIXTURES:
        d = builtin(name)
        for n in range(4):
            series = generating_series_N(d, n)
            classical = classical_series(d, n)
            assert {c: p.evaluate_one() for c, p in series.items()} == classical
