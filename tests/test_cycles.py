"""Cycle enumeration, rotation numbers, and the intersection pairing."""

import gc
from fractions import Fraction

import pytest

from moyeval.cycles import (
    Component,
    Cycle,
    CycleSet,
    _unions,
    elementary_circuits,
    pairing_doubled,
    rotation_of_loop,
)
from moyeval.diagram import Coloring, DiagramError, Flag, PlanarDiagram, builtin, parse_diagram
from moyeval.genseries import classical_series, generating_series_N
from moyeval.qtorus import CycleAlgebra
from moyeval.statesum import eval_table, eval_table_alt, moy_eval
from test_chain import chain
from test_statesum import CIRCLE_PLACES, SPLIT_FILE, theta_with_circles

TWO_CIRCLES = PlanarDiagram(
    circles=[
        {"id": 0, "center": [0, 0], "radius": 1, "orientation": "ccw"},
        {"id": 1, "center": [5, 0], "radius": 1, "orientation": "cw"},
    ]
)

# theta with one contractible circle far off to the side
THETA_PLUS_CIRCLE = PlanarDiagram(
    vertices=[
        {"id": 0, "kind": "split", "position": [0, -1]},
        {"id": 1, "kind": "merge", "position": [0, 1]},
    ],
    edges=[
        {"id": 0, "tail": [1, "m"], "head": [0, "m"], "waypoints": [[-2, 0]]},
        {"id": 1, "tail": [0, "l"], "head": [1, "l"]},
        {"id": 2, "tail": [0, "r"], "head": [1, "r"], "waypoints": [[1, 0]]},
    ],
    circles=[{"id": 7, "center": [9, 0], "radius": 1, "orientation": "ccw"}],
)


def thetas(k):
    """``k`` copies of the built-in theta side by side, ten units apart."""
    vertices, edges = [], []
    for i in range(k):
        x = 10 * i
        vertices += [{"id": 2 * i, "kind": "split", "position": [x, -1]},
                     {"id": 2 * i + 1, "kind": "merge", "position": [x, 1]}]
        edges += [{"id": 3 * i, "tail": [2 * i + 1, "m"], "head": [2 * i, "m"], "waypoints": [[x - 2, 0]]},
                  {"id": 3 * i + 1, "tail": [2 * i, "l"], "head": [2 * i + 1, "l"]},
                  {"id": 3 * i + 2, "tail": [2 * i, "r"], "head": [2 * i + 1, "r"],
                   "waypoints": [[x + 1, 0]]}]
    return PlanarDiagram(vertices, edges)


def test_rotation_of_loop():
    square = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
              (Fraction(1), Fraction(1)), (Fraction(0), Fraction(1))]
    assert rotation_of_loop(square) == 1
    assert rotation_of_loop(square[::-1]) == -1
    with pytest.raises(DiagramError, match="zero signed area"):
        rotation_of_loop([(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)),
                          (Fraction(2), Fraction(2))])


def test_unknot_cycles():
    cs = CycleSet(builtin("unknot"))
    assert len(cs) == 2
    assert cs.cycles[0].is_empty and cs.cycles[0].rot == 0
    assert cs.cycles[1].circle_ids == frozenset({0}) and cs.cycles[1].rot == 1
    assert list(cs.pairing_rows()) == [[0, 0], [0, 0]]
    assert cs.is_positive


def test_theta_cycles():
    cs = CycleSet(builtin("theta"))
    assert [(tuple(sorted(c.edge_ids)), c.rot) for c in cs] == [
        ((), 0), ((0, 1), 1), ((0, 2), 1)]
    assert list(cs.pairing_rows()) == [[0, 0, 0], [0, 0, 2], [0, -2, 0]]
    assert cs.is_positive
    # traversal starts at the smallest vertex and follows edge directions
    assert cs.cycles[1].components[0].edge_ids == (1, 0)


def test_tetrahedron_circuits():
    circuits = elementary_circuits(builtin("tetrahedron"))
    assert [(comp.edge_ids, comp.rot) for comp in circuits] == [
        ((1, 3, 0), -1), ((1, 5, 4, 0), 1), ((2, 4, 0), 1)]
    # each circuit passes a vertex through its middle flag and one side flag
    for comp in circuits:
        for v in comp.vertices:
            roles = {flag.role for flag in comp.halfedges if flag.vertex == v}
            assert "m" in roles and len(roles) == 2


def test_tetrahedron_cycles_and_pairing():
    cs = CycleSet(builtin("tetrahedron"))
    assert [(tuple(sorted(c.edge_ids)), c.rot) for c in cs] == [
        ((), 0), ((0, 1, 3), -1), ((0, 2, 4), 1), ((0, 1, 4, 5), 1)]
    assert list(cs.pairing_rows()) == [
        [0, 0, 0, 0],
        [0, 0, -2, -2],
        [0, 2, 0, 2],
        [0, 2, -2, 0],
    ]
    # the two triangles cannot be swapped into a nonnegative order
    assert not cs.is_positive


def test_vertexless_circles():
    cs = CycleSet(TWO_CIRCLES)
    assert [(tuple(sorted(c.circle_ids)), c.rot) for c in cs] == [
        ((), 0), ((0,), 1), ((1,), -1), ((0, 1), 0)]
    assert list(cs.pairing_rows()) == [[0] * 4 for _ in range(4)]
    # the clockwise circle disqualifies the diagram from being positive
    assert not cs.is_positive


def test_disjoint_union_with_circle():
    cs = CycleSet(THETA_PLUS_CIRCLE)
    keys = [(tuple(sorted(c.edge_ids)), tuple(sorted(c.circle_ids))) for c in cs]
    assert keys == [
        ((), ()), ((), (7,)), ((0, 1), ()), ((0, 2), ()),
        ((0, 1), (7,)), ((0, 2), (7,))]
    # rotation adds over components; the circle contributes nothing to pairing
    by_key = {k: c for k, c in zip(keys, cs)}
    rows = list(cs.pairing_rows())
    for edges in ((0, 1), (0, 2)):
        plain = by_key[(edges, ())]
        union = by_key[(edges, (7,))]
        assert union.rot == plain.rot + 1
        assert len(union.components) == 2
        i, j = cs.cycles.index(plain), cs.cycles.index(union)
        assert rows[i] == rows[j]


def _theta_with_two_circles():
    (outer, r_outer), (inner, r_inner) = (
        CIRCLE_PLACES["outer face"], CIRCLE_PLACES["inner face left of edge 1"])
    return theta_with_circles((outer, r_outer, "cw"), (inner, r_inner, "ccw"))


PAIRING_DIAGRAMS = {
    **{name: lambda name=name: builtin(name) for name in ("unknot", "theta", "tetrahedron")},
    "thetas2": lambda: thetas(2),
    "thetas3": lambda: thetas(3),
    "thetas4": lambda: thetas(4),
    "two thetas and a circle": lambda: parse_diagram(SPLIT_FILE.read_text()),
    **{f"chain{k}": lambda k=k: chain(k) for k in (1, 2, 3, 4)},
    "theta with a cw and a ccw circle": _theta_with_two_circles,
}


@pytest.mark.parametrize("name", PAIRING_DIAGRAMS)
def test_circuit_built_pairing_is_the_direct_pairing(name):
    # pairing_rows adds rows of a circuit table; every entry must equal the
    # pairing of the two cycles themselves
    cs = CycleSet(PAIRING_DIAGRAMS[name]())
    direct = [[pairing_doubled(c1, c2) for c2 in cs] for c1 in cs]
    assert list(cs.pairing_rows()) == direct


CYCLE_SLOTS = ("components", "edge_ids", "circle_ids", "halfedges", "left_at", "right_at", "rot")


def assert_constructor_built(cycles):
    for cycle in cycles:
        built = Cycle(cycle.components)
        for slot in CYCLE_SLOTS:
            assert getattr(cycle, slot) == getattr(built, slot), (cycle, slot)
        assert type(cycle.rot) is int and all(type(getattr(cycle, s)) is frozenset for s in CYCLE_SLOTS[1:6])


@pytest.mark.parametrize("name", PAIRING_DIAGRAMS)
def test_joined_unions_are_the_constructor_built_cycles(name):
    # _unions joins each union from its parent and one circuit; every slot
    # must be what the constructor makes from the same components, whatever
    # order the circuits come in (the state sum passes a component's own)
    circuits = elementary_circuits(PAIRING_DIAGRAMS[name]())
    cycles = _unions(circuits)
    assert_constructor_built(cycles)
    assert len(set(cycles)) == len(cycles)
    for order in (circuits[::-1], iter(circuits[::-1]), circuits[1::2] + circuits[::2]):
        again = _unions(order)
        assert_constructor_built(again)
        for a, b in zip(again, cycles, strict=True):
            assert all(getattr(a, slot) == getattr(b, slot) for slot in CYCLE_SLOTS), (a, b)


def test_pairing_is_antisymmetric():
    for name in ("theta", "tetrahedron"):
        cycles = CycleSet(builtin(name)).cycles
        for c1 in cycles:
            for c2 in cycles:
                assert pairing_doubled(c1, c2) == -pairing_doubled(c2, c1)
            assert pairing_doubled(c1, cycles[0]) == 0  # empty cycle


def test_cycles_are_vertex_disjoint_unions():
    # built from the circuits the set keeps: each one once, as a singleton
    for name in ("unknot", "theta", "tetrahedron"):
        cs = CycleSet(builtin(name))
        assert cs.circuits == tuple(elementary_circuits(builtin(name)))
        for cycle in cs.cycles:
            seen = set()
            for comp in cycle.components:
                assert comp in cs.circuits
                assert not (comp.vertices & seen)
                seen |= comp.vertices
            assert cycle.rot == sum(comp.rot for comp in cycle.components)
        singletons = [c.components[0] for c in cs.cycles if len(c.components) == 1]
        assert sorted(singletons, key=Component.sort_key) == list(cs.circuits)


def test_canonical_order_lists_each_cycle_once():
    for d in (builtin("tetrahedron"), THETA_PLUS_CIRCLE):
        cs = CycleSet(d)
        keys = [c.sort_key() for c in cs]
        assert keys == sorted(keys)
        assert cs.cycles[0].is_empty
        for i, c in enumerate(cs):
            assert cs.cycles.index(c) == i


def test_cycle_identity_ignores_traversal():
    cycles = CycleSet(builtin("theta")).cycles
    by_edges = {tuple(sorted(c.edge_ids)): c for c in cycles}
    a, b = by_edges[(0, 1)], by_edges[(0, 2)]
    assert a != b and a == a
    assert len({a, b, a}) == 2


def test_enumeration_leaves_no_reference_cycles():
    # the cycles and scratch tables of an enumeration are freed when the last
    # reference goes, not at the next run of the cyclic collector
    d = builtin("tetrahedron")
    gc.collect()
    gc.disable()
    try:
        CycleSet(d)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_cycle_data_of_another_diagram_is_refused():
    # a cycle set or cycle algebra built for the tetrahedron, handed to an
    # evaluation of theta, would read its cycles against the wrong graph
    theta, tetrahedron = builtin("theta"), builtin("tetrahedron")
    foreign = CycleSet(tetrahedron)
    calls = [
        lambda: CycleAlgebra(theta, foreign),
        lambda: generating_series_N(theta, 2, cycle_algebra=CycleAlgebra(tetrahedron, foreign)),
        lambda: eval_table(theta, 2, cycle_set=foreign),
        lambda: moy_eval(theta, Coloring(edges={0: 1, 1: 1}), 2, cycle_set=foreign),
        lambda: eval_table_alt(theta, 2, cycle_set=foreign),
        lambda: classical_series(theta, 2, cycle_set=foreign),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="belongs to another diagram"):
            call()
