"""Cycle enumeration, rotation numbers, and the intersection pairing."""

from fractions import Fraction

import pytest

from moyeval.cycles import (
    Component,
    Cycle,
    CycleSet,
    all_cycles,
    elementary_circuits,
    pairing_doubled,
    rotation_of_loop,
)
from moyeval.diagram import DiagramError, Flag, PlanarDiagram, builtin

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
    assert cs[0].is_empty and cs[0].rot == 0
    assert cs[1].circle_ids == frozenset({0}) and cs[1].rot == 1
    assert cs.pairing2 == [[0, 0], [0, 0]]
    assert cs.is_positive


def test_theta_cycles():
    cs = CycleSet(builtin("theta"))
    assert [(tuple(sorted(c.edge_ids)), c.rot) for c in cs] == [
        ((), 0), ((0, 1), 1), ((0, 2), 1)]
    assert cs.pairing2 == [[0, 0, 0], [0, 0, 2], [0, -2, 0]]
    assert cs.is_positive
    # traversal starts at the smallest vertex and follows edge directions
    assert cs[1].components[0].edge_ids == (1, 0)


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
    assert cs.pairing2 == [
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
    assert cs.pairing2 == [[0] * 4 for _ in range(4)]
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
    for edges in ((0, 1), (0, 2)):
        plain = by_key[(edges, ())]
        union = by_key[(edges, (7,))]
        assert union.rot == plain.rot + 1
        assert len(union.components) == 2
        i, j = cs.cycles.index(plain), cs.cycles.index(union)
        for k in range(len(cs)):
            assert cs.pairing2[i][k] == cs.pairing2[j][k]


def test_pairing_is_antisymmetric():
    for name in ("theta", "tetrahedron"):
        cycles = all_cycles(builtin(name))
        for c1 in cycles:
            for c2 in cycles:
                assert pairing_doubled(c1, c2) == -pairing_doubled(c2, c1)
            assert pairing_doubled(c1, cycles[0]) == 0  # empty cycle


def test_cycles_are_vertex_disjoint_unions():
    for name in ("unknot", "theta", "tetrahedron"):
        for cycle in all_cycles(builtin(name)):
            seen = set()
            for comp in cycle.components:
                assert not (comp.vertices & seen)
                seen |= comp.vertices
            assert cycle.rot == sum(comp.rot for comp in cycle.components)


def test_canonical_order_lists_each_cycle_once():
    for d in (builtin("tetrahedron"), THETA_PLUS_CIRCLE):
        cs = CycleSet(d)
        keys = [c.sort_key() for c in cs]
        assert keys == sorted(keys)
        assert cs[0].is_empty
        for i, c in enumerate(cs):
            assert cs.cycles.index(c) == i
            assert cs[i] is c


def test_indicator_coloring():
    cs = CycleSet(THETA_PLUS_CIRCLE)
    c = cs[4]  # edges (0, 1) plus circle 7
    coloring = c.indicator_coloring()
    assert coloring.edges == ((0, 1), (1, 1))
    assert coloring.circles == ((7, 1),)
    assert cs[0].indicator_coloring().edges == ()


def test_cycle_identity_ignores_traversal():
    cycles = all_cycles(builtin("theta"))
    by_edges = {tuple(sorted(c.edge_ids)): c for c in cycles}
    a, b = by_edges[(0, 1)], by_edges[(0, 2)]
    assert a != b and a == a
    assert len({a, b, a}) == 2
