"""State-sum evaluation of colored diagrams."""

import math
from fractions import Fraction
from functools import reduce
from itertools import product
from pathlib import Path

import pytest

import moyeval.cycles
import moyeval.statesum
from moyeval.cycles import CycleSet, elementary_circuits
from moyeval.diagram import Circle, Coloring, DiagramError, Edge, Flag, PlanarDiagram, Vertex, builtin, parse_diagram
from moyeval.genseries import classical_series, generating_series_N
from moyeval.homfly import homfly_series
from moyeval.qexact import QLaurent, qbinom, qmultinom
from moyeval.statesum import (
    classical_eval,
    doubled_labels,
    eval_table,
    eval_table_alt,
    moy_eval,
    moy_eval_alt,
)

FIXTURES = ("unknot", "theta", "tetrahedron")

THETA_AND_CIRCLE = """{
  "vertices": [{"id": 0, "kind": "split", "position": [0, -1]},
               {"id": 1, "kind": "merge", "position": [0, 1]}],
  "edges": [{"id": 0, "tail": [1, "m"], "head": [0, "m"], "waypoints": [[-2, 0]]},
            {"id": 1, "tail": [0, "l"], "head": [1, "l"]},
            {"id": 2, "tail": [0, "r"], "head": [1, "r"], "waypoints": [[1, 0]]}],
  "circles": [{"id": 0, "center": [5, 0], "radius": 1, "orientation": "ccw"}]
}"""

TWO_THETAS = """{
  "vertices": [{"id": 0, "kind": "split", "position": [0, -1]},
               {"id": 1, "kind": "merge", "position": [0, 1]},
               {"id": 2, "kind": "split", "position": [10, -1]},
               {"id": 3, "kind": "merge", "position": [10, 1]}],
  "edges": [{"id": 0, "tail": [1, "m"], "head": [0, "m"], "waypoints": [[-2, 0]]},
            {"id": 1, "tail": [0, "l"], "head": [1, "l"]},
            {"id": 2, "tail": [0, "r"], "head": [1, "r"], "waypoints": [[1, 0]]},
            {"id": 3, "tail": [3, "m"], "head": [2, "m"], "waypoints": [[8, 0]]},
            {"id": 4, "tail": [2, "l"], "head": [3, "l"]},
            {"id": 5, "tail": [2, "r"], "head": [3, "r"], "waypoints": [[11, 0]]}]
}"""


# two thetas whose vertex and edge ids interleave, and a circle in a face of
# the first; tests/test_cli_outputs.py pins the CLI output on it
SPLIT_FILE = Path(__file__).with_name("two_thetas_and_circle.json")


# where a circle fits in the built-in theta: (center, radius), the radius
# leaving room for a second circle of half the radius inside it
CIRCLE_PLACES = {
    "inner face left of edge 1": (("-4/5", 0), "2/5"),
    "inner face right of edge 1": (("2/5", 0), "1/5"),
    "outer face": ((5, 0), 1),
}


def theta_with_circles(*circles):
    """The built-in theta plus circles given as ``(center, radius, orientation)``."""
    theta = builtin("theta")
    return PlanarDiagram(theta.vertices, theta.edges, [
        {"id": i, "center": center, "radius": radius, "orientation": orientation}
        for i, (center, radius, orientation) in enumerate(circles)
    ])


def test_doubled_labels():
    assert doubled_labels(1) == [0]
    assert doubled_labels(2) == [-1, 1]
    assert doubled_labels(3) == [-2, 0, 2]
    assert doubled_labels(4) == [-3, -1, 1, 3]


def test_unknot_is_quantum_binomial():
    d = builtin("unknot")
    for n in range(1, 5):
        cs = CycleSet(d)
        for gamma in range(n + 1):
            assert moy_eval(d, Coloring(circles={0: gamma}), n, cycle_set=cs) == qbinom(n, gamma)
        # colors beyond n evaluate to zero
        assert moy_eval(d, Coloring(circles={0: n + 1}), n, cycle_set=cs) == QLaurent.zero()


def test_theta_is_a_product_of_binomials():
    d = builtin("theta")
    for n in range(1, 4):
        cs = CycleSet(d)
        for k1 in range(n + 1):
            for k2 in range(n - k1 + 1):
                coloring = Coloring(edges={0: k1 + k2, 1: k1, 2: k2})
                expected = qbinom(n, k1 + k2) * qbinom(k1 + k2, k1)
                assert moy_eval(d, coloring, n, cycle_set=cs) == expected
        # a conserved coloring with a color above n evaluates to zero
        assert moy_eval(d, Coloring(edges={0: n + 1, 1: n + 1}), n, cycle_set=cs) == QLaurent.zero()


def tetra_coloring(a, b, c):
    return Coloring(edges={0: a + b + c, 1: a + b, 2: c, 3: a, 4: b + c, 5: b})


def test_tetrahedron_is_a_quantum_multinomial():
    d = builtin("tetrahedron")
    for n in range(1, 3):
        cs = CycleSet(d)
        for a, b, c in product(range(n + 1), repeat=3):
            if a + b + c > n:
                continue
            assert moy_eval(d, tetra_coloring(a, b, c), n, cycle_set=cs) == \
                qmultinom(n, (a, b, c))
        assert moy_eval(d, tetra_coloring(0, n + 1, 0), n, cycle_set=cs) == QLaurent.zero()


def test_empty_coloring_evaluates_to_one():
    for name in FIXTURES:
        assert moy_eval(builtin(name), Coloring(), 3) == QLaurent.one()


def test_flow_violation_is_rejected():
    d = builtin("theta")
    with pytest.raises(DiagramError, match="flow conservation at vertex 0"):
        moy_eval(d, Coloring(edges={0: 1, 1: 1, 2: 1}), 2)


def test_alternative_weights_agree():
    # the label-by-label programme against the enumeration of every state,
    # which also uses the other vertex-weight formula
    for name in FIXTURES:
        d = builtin(name)
        cs = CycleSet(d)
        for n in range(6):
            table = eval_table(d, n, cycle_set=cs)
            assert table == eval_table_alt(d, n, cycle_set=cs), (name, n)
            if n <= 2:
                for coloring, value in table.items():
                    assert moy_eval_alt(d, coloring, n, cycle_set=cs) == value


def _product_table(t1, t2):
    return {
        Coloring(edges=c1.edges + c2.edges, circles=c1.circles + c2.circles): v1 * v2
        for c1, v1 in t1.items()
        for c2, v2 in t2.items()
    }


def _moved(d, dx, dv, de):
    """``d`` moved ``dx`` to the right, with ``dv`` added to its vertex ids
    and ``de`` to its edge ids."""

    def move(point):
        return (point[0] + dx, point[1])

    return PlanarDiagram(
        [Vertex(v.id + dv, v.kind, move(v.position)) for v in d.vertices],
        [Edge(e.id + de, Flag(e.tail.vertex + dv, e.tail.role), Flag(e.head.vertex + dv, e.head.role),
              tuple(map(move, e.waypoints))) for e in d.edges],
        [Circle(c.id, move(c.center), c.radius, c.orientation) for c in d.circles],
    )


def _union(*parts):
    return PlanarDiagram(*([x for part in parts for x in getattr(part, field)]
                           for field in ("vertices", "edges", "circles")))


def _split_unions():
    """Split diagrams with their connected parts and the top level to test."""
    theta_and_circle = parse_diagram(THETA_AND_CIRCLE)
    two_thetas = parse_diagram(TWO_THETAS)
    cases = [
        (theta_and_circle, 4, [PlanarDiagram(theta_and_circle.vertices, theta_and_circle.edges),
                               PlanarDiagram(circles=theta_and_circle.circles)]),
        (two_thetas, 3, [PlanarDiagram(two_thetas.vertices[:2], two_thetas.edges[:3]),
                         PlanarDiagram(two_thetas.vertices[2:], two_thetas.edges[3:])]),
    ]
    # a theta with a circle nested in one of its faces, and a tetrahedron
    tetrahedron = _moved(builtin("tetrahedron"), 10, 2, 3)
    center, radius = CIRCLE_PLACES["inner face left of edge 1"]
    for orientation in ("ccw", "cw"):
        theta = theta_with_circles((center, radius, orientation))
        cases.append((_union(theta, tetrahedron), 3,
                      [builtin("theta"), tetrahedron, PlanarDiagram(circles=theta.circles)]))
    # two thetas with interleaved vertex and edge ids, and a circle in a face
    interleaved = parse_diagram(SPLIT_FILE.read_text())
    cases.append((interleaved, 3, [PlanarDiagram(interleaved.vertices[0::2], interleaved.edges[0::2]),
                                   PlanarDiagram(interleaved.vertices[1::2], interleaved.edges[1::2]),
                                   PlanarDiagram(circles=interleaved.circles)]))
    return cases


def test_disjoint_unions_match_the_reference_and_multiply():
    for union, top, parts in _split_unions():
        for n in range(top + 1):
            table = eval_table(union, n)
            assert table == eval_table_alt(union, n), n
            assert table == reduce(_product_table, (eval_table(part, n) for part in parts)), n
            if n <= 3:
                assert table == generating_series_N(union, n), n


def test_moy_eval_multiplies_its_parts():
    n = 2
    for union, _, parts in _split_unions():
        cs = CycleSet(union)
        table = eval_table(union, n, cycle_set=cs)
        for coloring, value in table.items():
            assert moy_eval(union, coloring, n, cycle_set=cs) == value
        # the first part colored alone: every other part sits at the zero coloring
        first = parts[0]
        for coloring, value in eval_table(first, n).items():
            assert moy_eval(union, coloring, n, cycle_set=cs) == value
        # a conserved coloring of the first part with a color above n, which
        # no state realizes, whatever the other parts hold
        above = max(set(eval_table(first, n + 1)) - set(eval_table(first, n)), key=Coloring.sort_key)
        top = max(table, key=Coloring.total)
        coloring = Coloring(
            edges={e: k for e, k in top.edges if e not in first.edge_by_id} | dict(above.edges),
            circles={c: k for c, k in top.circles if c not in first.circle_by_id} | dict(above.circles),
        )
        assert moy_eval(union, coloring, n, cycle_set=cs) == QLaurent.zero()
        assert moy_eval_alt(union, coloring, n, cycle_set=cs) == QLaurent.zero()


def test_one_programme_per_component(monkeypatch):
    from test_cycles import thetas  # test_cycles imports this module

    sizes = []
    original = moyeval.statesum._programme

    def recording(d, cycles, *args):
        sizes.append(len(cycles))
        return original(d, cycles, *args)

    monkeypatch.setattr(moyeval.statesum, "_programme", recording)
    for d, expected in ((thetas(4), [3] * 4), (builtin("tetrahedron"), [len(CycleSet(builtin("tetrahedron")))])):
        sizes.clear()
        table = eval_table(d, 2)
        assert sizes == expected
        sizes.clear()
        top = max(table, key=Coloring.total)
        assert moy_eval(d, top, 2) == table[top]
        assert sizes == expected


def test_circles_in_faces_multiply_by_binomials():
    # a circle of color k multiplies the evaluation by qbinom(n, k) wherever
    # it lies and however it turns; nested circles by one binomial each
    theta = builtin("theta")
    cases = [[(center, radius, o)] for center, radius in CIRCLE_PLACES.values() for o in ("ccw", "cw")]
    center, radius = CIRCLE_PLACES["inner face left of edge 1"]
    cases += [[(center, radius, outer), (center, Fraction(radius) / 2, inner)]
              for outer, inner in product(("ccw", "cw"), repeat=2)]
    for n in (2, 3):
        bare = eval_table(theta, n)
        for circles in cases:
            d = theta_with_circles(*circles)
            expected = {}
            for colors in product(range(n + 1), repeat=len(circles)):
                factor = math.prod((qbinom(n, k) for k in colors), start=QLaurent.one())
                for coloring, value in bare.items():
                    expected[Coloring(coloring.edges, enumerate(colors))] = value * factor
            assert eval_table(d, n) == expected, (n, circles)
            assert generating_series_N(d, n) == expected, (n, circles)


def test_moy_eval_decodes_only_its_target(monkeypatch):
    calls = []
    original = PlanarDiagram.coloring_of

    def counting(self, slots):
        calls.append(tuple(slots))
        return original(self, slots)

    monkeypatch.setattr(PlanarDiagram, "coloring_of", counting)
    d = parse_diagram(TWO_THETAS)
    coloring = Coloring(edges={0: 2, 1: 1, 2: 1, 3: 1, 4: 1})
    assert moy_eval(d, coloring, 3) == qbinom(3, 2) * qbinom(2, 1) * qbinom(3, 1)
    assert len(calls) <= 1


def test_eval_table_matches_pointwise_evaluation():
    d = builtin("theta")
    cs = CycleSet(d)
    table = eval_table(d, 2, cycle_set=cs)
    # exactly the conserved colorings with total color at most n appear
    expected_keys = set()
    for k1 in range(3):
        for k2 in range(3 - k1):
            expected_keys.add(Coloring(edges={0: k1 + k2, 1: k1, 2: k2}))
    assert set(table) == expected_keys
    for coloring, value in table.items():
        assert moy_eval(d, coloring, 2, cycle_set=cs) == value
    # moy_eval prunes toward its target; it must still find every entry
    d = builtin("tetrahedron")
    cs = CycleSet(d)
    for coloring, value in eval_table(d, 5, cycle_set=cs).items():
        assert moy_eval(d, coloring, 5, cycle_set=cs) == value


def test_the_state_sum_computes_no_pairing(monkeypatch):
    # CycleSet builds pairing rows only when they are read, which the state
    # sum never does
    calls = []
    original = moyeval.cycles.pairing_doubled

    def counting(c1, c2):
        calls.append((c1, c2))
        return original(c1, c2)

    monkeypatch.setattr(moyeval.cycles, "pairing_doubled", counting)
    d = parse_diagram(TWO_THETAS)
    table = eval_table(d, 2)
    for coloring, value in table.items():
        assert moy_eval(d, coloring, 2) == value
    assert calls == []
    cs = CycleSet(d)
    assert calls == []
    list(cs.pairing_rows())
    assert len(calls) == len(elementary_circuits(d)) ** 2


def _circles(k):
    """``k`` counterclockwise unit circles side by side."""
    return PlanarDiagram(circles=[Circle(i, (4 * i, 0), 1, "ccw") for i in range(k)])


@pytest.mark.parametrize(
    "d", [_circles(3), parse_diagram(TWO_THETAS), builtin("tetrahedron")], ids=["circles", "thetas", "tetrahedron"]
)
def test_the_state_sum_leaves_the_unions_unbuilt(d):
    # eval_table and moy_eval read a CycleSet's circuits only; its
    # whole-diagram unions are built on the first read of ``cycles``
    for n in (2, 3):
        cs = CycleSet(d)
        table = eval_table(d, n, cycle_set=cs)
        values = {coloring: moy_eval(d, coloring, n, cycle_set=cs) for coloring in table}
        assert "cycles" not in vars(cs)
        assert values == table == eval_table_alt(d, n, cycle_set=cs), n
        assert "cycles" in vars(cs) and cs.cycles is cs.cycles
        for coloring, value in table.items():
            assert moy_eval_alt(d, coloring, n, cycle_set=cs) == value


def test_internal_routes_validate_no_coloring(monkeypatch):
    # internal colorings come from the diagram's slot decoder; only input
    # from outside goes through the validating constructor
    calls = []
    original = Coloring._normalize

    def counting(values, what):
        calls.append(what)
        return original(values, what)

    monkeypatch.setattr(Coloring, "_normalize", staticmethod(counting))
    for name in FIXTURES:
        d = builtin(name)
        table = eval_table(d, 3)
        for coloring in table:
            moy_eval(d, coloring, 3)
        assert generating_series_N(d, 3) == table
        assert len(classical_series(d, 3)) == len(table)
        if CycleSet(d).is_positive:
            assert homfly_series(d, 2, 12).table
    assert calls == []
    Coloring(edges={0: 1})
    assert calls == ["edge", "circle"]


def test_values_are_symmetric_nonnegative_half_powers():
    for name in FIXTURES:
        for value in eval_table(builtin(name), 2).values():
            assert value.is_symmetric()
            assert value.is_nonnegative()
            assert value.in_half_powers()


def test_classical_limit_counts_colorings():
    d = builtin("theta")
    for n in range(4):
        for k1 in range(n + 1):
            for k2 in range(n - k1 + 1):
                coloring = Coloring(edges={0: k1 + k2, 1: k1, 2: k2})
                assert classical_eval(d, coloring, n) == \
                    math.comb(n, k1 + k2) * math.comb(k1 + k2, k1)


def test_classical_total_is_a_power_of_cycle_count():
    sizes = {"unknot": 2, "theta": 3, "tetrahedron": 4}
    for name, size in sizes.items():
        d = builtin(name)
        for n in range(4):
            total = sum(classical_eval(d, c, n) for c in eval_table(d, n))
            assert total == size ** n
