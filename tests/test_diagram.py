"""Diagram model: parsing, serialization, and embedding validation."""

import json
import random
from fractions import Fraction

import pytest

from moyeval.diagram import (
    Circle,
    Coloring,
    DiagramError,
    Edge,
    Flag,
    PlanarDiagram,
    Vertex,
    builtin,
    builtin_names,
    parse_diagram,
    serialize_diagram,
    validate_coloring,
)


def theta_dict():
    """A theta graph as plain JSON-style data, easy to perturb per test."""
    return {
        "vertices": [
            {"id": 0, "kind": "split", "position": [0, -1]},
            {"id": 1, "kind": "merge", "position": [0, 1]},
        ],
        "edges": [
            {"id": 0, "tail": [1, "m"], "head": [0, "m"], "waypoints": [[-2, 0]]},
            {"id": 1, "tail": [0, "l"], "head": [1, "l"]},
            {"id": 2, "tail": [0, "r"], "head": [1, "r"], "waypoints": [[1, 0]]},
        ],
    }


def build(**overrides):
    data = theta_dict()
    data.update(overrides)
    return PlanarDiagram(
        vertices=data.get("vertices", ()),
        edges=data.get("edges", ()),
        circles=data.get("circles", ()),
    )


# -- construction and lookups -------------------------------------------------


def test_builtins_construct_and_validate():
    assert builtin_names() == ("unknot", "theta", "tetrahedron")
    for name in builtin_names():
        d = builtin(name)
        assert isinstance(d, PlanarDiagram)
    with pytest.raises(DiagramError, match="unknown builtin"):
        builtin("trefoil")


def test_lookups():
    d = builtin("theta")
    assert d.vertex_by_id[0].kind == "split"
    assert d.edge_by_id[2].waypoints == ((Fraction(1), Fraction(0)),)
    edge, starts_here = d.edge_at(Flag(0, "l"))
    assert edge.id == 1 and starts_here
    edge, starts_here = d.edge_at(Flag(1, "l"))
    assert edge.id == 1 and not starts_here


def test_edge_points_includes_endpoints():
    d = builtin("theta")
    pts = d.edge_points(d.edge_by_id[0])
    assert pts[0] == (Fraction(0), Fraction(1))  # tail vertex 1
    assert pts[-1] == (Fraction(0), Fraction(-1))  # head vertex 0
    assert len(pts) == 3


def test_coordinates_parsed_exactly():
    d = PlanarDiagram(
        circles=[{"id": 0, "center": ["1/3", 0.5], "radius": "1/4", "orientation": "cw"}]
    )
    c = d.circle_by_id[0]
    assert c.center == (Fraction(1, 3), Fraction(1, 2))
    assert c.radius == Fraction(1, 4)


def test_bad_coordinates_rejected():
    with pytest.raises(DiagramError, match="cannot parse coordinate"):
        PlanarDiagram(circles=[{"id": 0, "center": ["x", 0], "radius": 1, "orientation": "cw"}])
    with pytest.raises(DiagramError, match="is not a number"):
        PlanarDiagram(circles=[{"id": 0, "center": [True, 0], "radius": 1, "orientation": "cw"}])
    with pytest.raises(DiagramError, match="must be a pair"):
        PlanarDiagram(circles=[{"id": 0, "center": [0, 0, 0], "radius": 1, "orientation": "cw"}])


def test_malformed_records_rejected():
    with pytest.raises(DiagramError, match="malformed vertex record"):
        PlanarDiagram(vertices=[{"id": 0}])
    with pytest.raises(DiagramError, match="malformed edge record"):
        PlanarDiagram(edges=[{"id": 0, "tail": [0, "l"]}])
    with pytest.raises(DiagramError, match="malformed circle record"):
        PlanarDiagram(circles=[{"id": 0}])
    with pytest.raises(DiagramError, match="unknown role"):
        build(edges=[{"id": 0, "tail": [1, "q"], "head": [0, "m"]}])


# -- structural validation ----------------------------------------------------


def test_duplicate_ids_rejected():
    data = theta_dict()
    data["edges"][1]["id"] = 0
    with pytest.raises(DiagramError, match="duplicate edge id 0"):
        build(edges=data["edges"])
    with pytest.raises(DiagramError, match="duplicate circle id"):
        PlanarDiagram(
            circles=[
                {"id": 0, "center": [0, 0], "radius": 1, "orientation": "ccw"},
                {"id": 0, "center": [5, 0], "radius": 1, "orientation": "ccw"},
            ]
        )


def test_bad_kind_orientation_radius():
    with pytest.raises(DiagramError, match="unknown kind"):
        build(vertices=[{"id": 0, "kind": "mix", "position": [0, -1]},
                        theta_dict()["vertices"][1]])
    with pytest.raises(DiagramError, match="unknown orientation"):
        PlanarDiagram(circles=[{"id": 0, "center": [0, 0], "radius": 1, "orientation": "up"}])
    with pytest.raises(DiagramError, match="positive radius"):
        PlanarDiagram(circles=[{"id": 0, "center": [0, 0], "radius": 0, "orientation": "ccw"}])


def test_missing_vertex_reference():
    data = theta_dict()
    data["edges"][0]["tail"] = [7, "m"]
    with pytest.raises(DiagramError, match="references missing vertex 7"):
        build(edges=data["edges"])


def test_coincident_vertices_rejected():
    data = theta_dict()
    data["vertices"][1]["position"] = [0, -1]
    with pytest.raises(DiagramError, match="occupy the same position"):
        build(vertices=data["vertices"])


def test_flag_used_twice():
    data = theta_dict()
    data["edges"][2]["tail"] = [0, "l"]  # already the tail of edge 1
    with pytest.raises(DiagramError, match=r"flag \(0, 'l'\) used by edges 1 and 2"):
        build(edges=data["edges"])


def test_unused_flag():
    # drop the r/r edge entirely: two flags end up bare
    data = theta_dict()
    with pytest.raises(DiagramError, match="has no edge attached"):
        build(edges=data["edges"][:2])


def test_direction_against_vertex_kind():
    data = theta_dict()
    # edge 1 reversed: now it leaves the merge vertex at an incoming flag
    data["edges"][1] = {"id": 1, "tail": [1, "l"], "head": [0, "l"]}
    with pytest.raises(DiagramError, match="leaves merge vertex 1 at flag 'l'"):
        build(edges=data["edges"])


def test_direction_into_outgoing_flag():
    data = theta_dict()
    data["edges"][0] = {"id": 0, "tail": [1, "m"], "head": [0, "l"], "waypoints": [[-2, 0]]}
    data["edges"][1] = {"id": 1, "tail": [0, "m"], "head": [1, "l"]}
    with pytest.raises(DiagramError, match="enters split vertex 0 at flag 'l'"):
        build(edges=data["edges"])


# -- embedding validation -----------------------------------------------------


def test_crossing_edges_rejected():
    data = theta_dict()
    # push edge 2 through the territory of edge 0
    data["edges"][2]["waypoints"] = [[-1, 2]]
    with pytest.raises(DiagramError, match=r"edge \d and edge \d cross"):
        build(edges=data["edges"])


def test_collinear_overlap_rejected():
    data = theta_dict()
    # edge 2 detours along the straight line used by edge 1
    data["edges"][2]["waypoints"] = [[0, 0]]
    with pytest.raises(DiagramError, match="overlap along a segment"):
        build(edges=data["edges"])


def test_touching_edges_rejected():
    data = theta_dict()
    # edge 2 pokes the interior of edge 1 at the origin without crossing it
    data["edges"][2]["waypoints"] = [[1, -1], [0, 0], [1, 1]]
    with pytest.raises(DiagramError, match=r"touch at \(0, 0\)"):
        build(edges=data["edges"])


def test_zero_length_segment_rejected():
    data = theta_dict()
    data["edges"][2]["waypoints"] = [[1, 0], [1, 0]]
    with pytest.raises(DiagramError, match="zero-length segment"):
        build(edges=data["edges"])


def test_self_crossing_edge_rejected():
    data = theta_dict()
    data["edges"][2]["waypoints"] = [[2, 0], [2, 1], [1, -1]]
    with pytest.raises(DiagramError, match="edge 2 and itself cross"):
        build(edges=data["edges"])


def test_circle_circle_intersection_rejected():
    with pytest.raises(DiagramError, match="circles 0 and 1 intersect"):
        PlanarDiagram(
            circles=[
                {"id": 0, "center": [0, 0], "radius": 2, "orientation": "ccw"},
                {"id": 1, "center": [3, 0], "radius": 2, "orientation": "ccw"},
            ]
        )
    # internal tangency is still an intersection
    with pytest.raises(DiagramError, match="intersect"):
        PlanarDiagram(
            circles=[
                {"id": 0, "center": [0, 0], "radius": 2, "orientation": "ccw"},
                {"id": 1, "center": [1, 0], "radius": 1, "orientation": "ccw"},
            ]
        )
    # nested without touching is fine
    PlanarDiagram(
        circles=[
            {"id": 0, "center": [0, 0], "radius": 2, "orientation": "ccw"},
            {"id": 1, "center": [0, 0], "radius": 1, "orientation": "cw"},
        ]
    )


def test_circle_edge_intersection_rejected():
    data = theta_dict()
    data["circles"] = [{"id": 0, "center": [0, 0], "radius": 1, "orientation": "ccw"}]
    with pytest.raises(DiagramError, match="circle 0 intersects edge"):
        build(**data)
    # far away is fine
    data["circles"] = [{"id": 0, "center": [9, 0], "radius": 1, "orientation": "ccw"}]
    build(**data)


def test_loops_and_multi_edges_allowed():
    # two loops joined by one edge: a valid drawing with a loop at each vertex
    d = PlanarDiagram(
        vertices=[
            {"id": 0, "kind": "split", "position": [0, 0]},
            {"id": 1, "kind": "merge", "position": [4, 0]},
        ],
        edges=[
            {"id": 0, "tail": [0, "l"], "head": [0, "m"], "waypoints": [[-1, 1], [-2, 0], [-1, -1]]},
            {"id": 1, "tail": [0, "r"], "head": [1, "l"]},
            {"id": 2, "tail": [1, "m"], "head": [1, "r"], "waypoints": [[5, -1], [6, 0], [5, 1]]},
        ],
    )
    assert d.edge_by_id[0].tail.vertex == d.edge_by_id[0].head.vertex
    # theta itself is a doubled edge plus a parallel pair
    assert len(builtin("theta").edges) == 3


# -- colorings ----------------------------------------------------------------


def test_coloring_normalization():
    c = Coloring(edges={0: 2, 3: 0}, circles={1: 1})
    assert c.edges == ((0, 2),)
    assert c.circles == ((1, 1),)
    assert c.total() == 3
    assert c == Coloring(edges=[(0, 2)], circles=[(1, 1)])
    assert hash(c) == hash(Coloring(edges={0: 2}, circles={1: 1}))
    assert Coloring().sort_key() < c.sort_key()


def test_coloring_rejects_bad_values():
    with pytest.raises(DiagramError, match="invalid color"):
        Coloring(edges={0: -1})
    with pytest.raises(DiagramError, match="invalid color"):
        Coloring(edges={0: True})
    with pytest.raises(DiagramError, match="is not an integer"):
        Coloring(edges={"0": 1})
    with pytest.raises(DiagramError, match="colored twice"):
        Coloring(edges=[(0, 1), (0, 2)])


def test_slot_decoder_matches_the_constructor():
    # edge ids with gaps, given out of order, and edge 3 sharing its id with
    # circle 3: the layout is edges 3, 7, 12, then circles 0, 3
    edges = [dict(e, id=i) for e, i in zip(theta_dict()["edges"], (12, 3, 7))]
    circles = [
        {"id": 3, "center": [5, 0], "radius": 1, "orientation": "ccw"},
        {"id": 0, "center": [9, 0], "radius": 1, "orientation": "cw"},
    ]
    d = build(edges=edges, circles=circles)
    assert d.slot_count == 5
    assert d.slots([12, 3, 7], [3, 0]) == [2, 0, 1, 4, 3]
    rng = random.Random(10)
    vectors = [[0] * 5] + [[rng.choice((0, 0, 1, 2, 7)) for _ in range(5)] for _ in range(300)]
    for slots in vectors:
        decoded = d.coloring_of(slots)
        expected = Coloring(edges=dict(zip((3, 7, 12), slots)), circles=dict(zip((0, 3), slots[3:])))
        assert decoded == expected and expected == decoded
        assert hash(decoded) == hash(expected)
        assert (decoded.edges, decoded.circles) == (expected.edges, expected.circles)


def test_validate_coloring():
    d = builtin("theta")
    assert validate_coloring(d, Coloring(edges={0: 2, 1: 1, 2: 1})) == []
    violations = validate_coloring(d, Coloring(edges={0: 1}))
    assert {(v.vertex, v.side_sum, v.middle) for v in violations} == {(0, 0, 1), (1, 0, 1)}
    with pytest.raises(DiagramError, match="missing edge 9"):
        validate_coloring(d, Coloring(edges={9: 1}))
    with pytest.raises(DiagramError, match="missing circle 0"):
        validate_coloring(d, Coloring(circles={0: 1}))


# -- JSON round trip ----------------------------------------------------------


def test_parse_serialize_round_trip():
    for name in builtin_names():
        d = builtin(name)
        text = serialize_diagram(d)
        again = parse_diagram(text)
        assert again.vertices == d.vertices
        assert again.edges == d.edges
        assert again.circles == d.circles
        # serialization is stable
        assert serialize_diagram(again) == text


def test_serialized_coordinates_stay_exact():
    d = PlanarDiagram(
        circles=[{"id": 0, "center": ["1/3", "3/2"], "radius": "2/7", "orientation": "cw"}]
    )
    data = json.loads(serialize_diagram(d))
    # 1/3 and 2/7 have no finite decimal form and must survive as strings
    assert data["circles"][0]["center"] == ["1/3", 1.5]
    assert data["circles"][0]["radius"] == "2/7"
    assert parse_diagram(serialize_diagram(d)).circle_by_id[0].radius == Fraction(2, 7)


def test_parse_rejects_bad_documents():
    with pytest.raises(DiagramError, match="invalid JSON"):
        parse_diagram("{")
    with pytest.raises(DiagramError, match="must be an object"):
        parse_diagram("[1, 2]")
    with pytest.raises(DiagramError, match="unknown top-level keys"):
        parse_diagram('{"nodes": []}')
