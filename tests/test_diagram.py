"""Diagram model: parsing, serialization, and embedding validation."""

import copy
import json
import random
import re
from fractions import Fraction

import pytest

from moyeval.cli import main
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
    edge = d.edge_at(Flag(0, "l"))
    assert edge.id == 1 and edge.tail == Flag(0, "l")
    assert d.edge_at(Flag(1, "l")) is edge and edge.head == Flag(1, "l")


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
    for bad in (True, None):
        with pytest.raises(DiagramError, match=f"coordinate {bad} is not a number"):
            PlanarDiagram(circles=[{"id": 0, "center": [bad, 0], "radius": 1, "orientation": "cw"}])
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(DiagramError, match=f"coordinate {bad} is not a finite number"):
            PlanarDiagram(circles=[{"id": 0, "center": [0, 0], "radius": bad, "orientation": "cw"}])
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
    with pytest.raises(DiagramError, match=r"flag \[1\] must be a \(vertex, role\) pair"):
        build(edges=[{"id": 0, "tail": [1], "head": [0, "m"]}])
    with pytest.raises(DiagramError, match="has a non-integer vertex id"):
        build(edges=[{"id": 0, "tail": ["1", "m"], "head": [0, "m"]}])


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
    with pytest.raises(DiagramError, match="circle id '0' is not an integer"):
        PlanarDiagram(circles=[{"id": "0", "center": [0, 0], "radius": 1, "orientation": "ccw"}])


@pytest.mark.parametrize("bad", [[0], {"id": 0}, None, "a"], ids=["list", "dict", "null", "str"])
@pytest.mark.parametrize("field, what, record", [
    ("vertices", "vertex", Vertex), ("edges", "edge", Edge), ("circles", "circle", Circle)])
def test_malformed_ids_are_refused(bad, field, what, record, tmp_path, capsys):
    # each record's id is checked before the records are sorted or indexed
    # by id, so an unhashable id or one mixed with ints is refused by name
    data = theta_dict()
    data["circles"] = [{"id": 0, "center": [5, 0], "radius": 1, "orientation": "ccw"},
                       {"id": 1, "center": [9, 0], "radius": 1, "orientation": "ccw"}]
    data[field][-1]["id"] = bad
    message = f"{what} id {bad!r} is not an integer"
    records = {**data, field: [record(**r) for r in data[field]]}
    for given in (data, records):
        with pytest.raises(DiagramError, match=re.escape(message)):
            PlanarDiagram(**given)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["cycles", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


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
    data["edges"][2]["waypoints"] = [[0.5, 0], ["1/2", 0]]
    with pytest.raises(DiagramError) as info:
        build(edges=data["edges"])
    assert str(info.value) == "edge 2 has a zero-length segment at (1/2, 0)"


def test_self_crossing_edge_rejected():
    data = theta_dict()
    data["edges"][2]["waypoints"] = [[2, 0], [2, 1], [1, -1]]
    with pytest.raises(DiagramError, match="edge 2 and itself cross"):
        build(edges=data["edges"])


def bent_theta(left, right, transpose=False):
    """Theta with vertices (0, -1) and (0, 1), edge 1 straight between them,
    edge 0 through ``left`` and edge 2 through ``right``; ``transpose``
    swaps x and y everywhere, which keeps a valid drawing valid."""

    def point(p):
        return [p[1], p[0]] if transpose else list(p)

    data = theta_dict()
    for v in data["vertices"]:
        v["position"] = point(v["position"])
    data["edges"][0]["waypoints"] = [point(p) for p in left]
    data["edges"][2]["waypoints"] = [point(p) for p in right]
    return data


def test_box_prune_keeps_pairs_whose_boxes_meet_in_one_point():
    # Edges 0 and 2 meet only at (0, 4), a waypoint of both; each arrives
    # diagonally and leaves along y = 4, edge 0 to the left and edge 2 to the
    # right.  Every segment pair that meets there has boxes sharing one point.
    left = [(-1, 3), (0, 4), (-2, 4), (-2, 0)]
    right = [(4, 0), (4, 6), (1, 5), (0, 4), (2, 4), (1, 2)]
    with pytest.raises(DiagramError) as info:
        build(**bent_theta(left, right))
    assert str(info.value) == "edge 0 and edge 2 touch at (0, 4)"
    # transposed, the two collinear pieces lie on x = 4: boxes of zero width
    with pytest.raises(DiagramError) as info:
        build(**bent_theta(left, right, transpose=True))
    assert str(info.value) == "edge 0 and edge 2 touch at (4, 0)"
    # moved off the point, edge 2 no longer touches
    right[3] = ("1/2", 4)
    build(**bent_theta(left, right))
    build(**bent_theta(left, right, transpose=True))


def test_box_prune_keeps_pairs_whose_boxes_share_a_corner():
    # At (0, 4) edge 0 keeps to x <= 0, y <= 4 and edge 2 to x >= 0, y >= 4,
    # so the boxes of the segments that touch there share only that corner.
    left = [(-1, 3), (0, 4), (-2, "7/2"), (-2, 0)]
    right = [(4, 0), (4, 6), (1, 5), (0, 4), (2, "9/2"), (1, 2)]
    with pytest.raises(DiagramError) as info:
        build(**bent_theta(left, right))
    assert str(info.value) == "edge 0 and edge 2 touch at (0, 4)"
    right[3] = ("1/2", 4)
    build(**bent_theta(left, right))


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


def test_circle_tangent_to_an_edge_is_decided_exactly():
    # theta turned by the rotation (x, y) -> ((3x - 4y)/5, (4x + 3y)/5) and
    # moved off the grid; a circle of radius r sits in the inner face of
    # edges 1 and 2, its center at distance r from edge 1, so it is tangent
    # to edge 1 at a foot point whose coordinates have denominators near 1e9
    p, q = 10**9 + 7, 10**9 + 9
    f, r = Fraction(123456789, p), Fraction(200000033, 999999937)
    shift = (Fraction(1, q), Fraction(-3, q))

    def place(x, y):
        return [Fraction(3 * x - 4 * y) / 5 + shift[0], Fraction(4 * x + 3 * y) / 5 + shift[1]]

    data = theta_dict()
    for v in data["vertices"]:
        v["position"] = place(*v["position"])
    for e in data["edges"]:
        e["waypoints"] = [place(*w) for w in e.get("waypoints", ())]
    foot = place(0, f)
    assert {foot[0].denominator, foot[1].denominator} == {5 * p * q}
    data["circles"] = [{"id": 0, "center": place(r, f), "radius": r, "orientation": "ccw"}]
    with pytest.raises(DiagramError) as info:
        build(**data)
    assert str(info.value) == "circle 0 intersects edge 1"
    data["circles"][0]["radius"] = r - Fraction(1, 10**30)
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


# -- the Fraction oracle ------------------------------------------------------
# The embedding check as it ran before it moved to integer coordinates:
# Fraction predicates and every segment pair, unpruned.  It reads diagram
# data whose structure is valid and returns the first defect's message.


def _orient_q(a, b, c):
    cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (cross > 0) - (cross < 0)


def _on_segment_q(p, a, b):
    if _orient_q(a, b, p) != 0:
        return False
    return min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])


def _dist2_q(a, b):
    return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2


def _segment_dist2_range_q(center, a, b):
    da, db = _dist2_q(center, a), _dist2_q(center, b)
    lo, hi = min(da, db), max(da, db)
    seg2 = _dist2_q(a, b)
    if seg2:
        t = ((center[0] - a[0]) * (b[0] - a[0]) + (center[1] - a[1]) * (b[1] - a[1])) / seg2
        if 0 <= t <= 1:
            foot = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
            lo = min(lo, _dist2_q(center, foot))
    return lo, hi


def fraction_oracle(data):
    """The first embedding defect of ``data`` as a message, or None."""

    def point(p):
        return (Fraction(p[0]), Fraction(p[1]))

    position = {v["id"]: point(v["position"]) for v in data["vertices"]}
    edges = {e["id"]: e for e in data.get("edges", ())}
    polyline = {
        i: [position[e["tail"][0]], *map(point, e.get("waypoints", ())), position[e["head"][0]]]
        for i, e in edges.items()
    }
    segs = []  # (edge id, index, a, b, terminal vertex ids)
    for i in sorted(edges):
        pts = polyline[i]
        for k in range(len(pts) - 1):
            if pts[k] == pts[k + 1]:
                x, y = pts[k]
                return f"edge {i} has a zero-length segment at ({x}, {y})"
            terminals = set()
            if k == 0:
                terminals.add(edges[i]["tail"][0])
            if k == len(pts) - 2:
                terminals.add(edges[i]["head"][0])
            segs.append((i, k, pts[k], pts[k + 1], terminals))
    for n, (e1, k1, a1, b1, t1) in enumerate(segs):
        for e2, k2, a2, b2, t2 in segs[n + 1 :]:
            where = f"edge {e1} and itself" if e1 == e2 else f"edge {e1} and edge {e2}"
            o1, o2 = _orient_q(a1, b1, a2), _orient_q(a1, b1, b2)
            o3, o4 = _orient_q(a2, b2, a1), _orient_q(a2, b2, b1)
            if o1 * o2 < 0 and o3 * o4 < 0:
                return f"{where} cross"
            contacts = {p for p in (a2, b2) if _on_segment_q(p, a1, b1)}
            contacts |= {p for p in (a1, b1) if _on_segment_q(p, a2, b2)}
            if not contacts:
                continue
            if len(contacts) > 1:
                return f"{where} overlap along a segment"
            (contact,) = contacts
            allowed = set()
            if e1 == e2:
                pts, edge = polyline[e1], edges[e1]
                lo, hi = sorted((k1, k2))
                if hi - lo == 1:
                    allowed.add(pts[hi])
                if lo == 0 and hi == len(pts) - 2 and edge["tail"][0] == edge["head"][0]:
                    allowed.add(position[edge["tail"][0]])
            else:
                allowed = {position[v] for v in t1 & t2}
            if contact not in (a1, b1) or contact not in (a2, b2) or contact not in allowed:
                x, y = contact
                return f"{where} touch at ({x}, {y})"
    circles = sorted(data.get("circles", ()), key=lambda c: c["id"])
    for n, c1 in enumerate(circles):
        center, radius = point(c1["center"]), Fraction(c1["radius"])
        for c2 in circles[n + 1 :]:
            d2 = _dist2_q(center, point(c2["center"]))
            if (radius - Fraction(c2["radius"])) ** 2 <= d2 <= (radius + Fraction(c2["radius"])) ** 2:
                return f"circles {c1['id']} and {c2['id']} intersect"
        for e, _, a, b, _ in segs:
            lo, hi = _segment_dist2_range_q(center, a, b)
            if lo <= radius**2 <= hi:
                return f"circle {c1['id']} intersects edge {e}"
    return None


def two_thetas_dict():
    left, right = theta_dict(), theta_dict()
    for v in right["vertices"]:
        v["id"] += 2
        v["position"] = [v["position"][0] + 5, v["position"][1]]
    for e in right["edges"]:
        e["id"] += 3
        e["tail"] = [e["tail"][0] + 2, e["tail"][1]]
        e["head"] = [e["head"][0] + 2, e["head"][1]]
        e["waypoints"] = [[x + 5, y] for x, y in e.get("waypoints", ())]
    return {"vertices": left["vertices"] + right["vertices"], "edges": left["edges"] + right["edges"]}


HALF = Fraction(1, 2)


def _random_fraction(rng, size):
    den = rng.choice((1, 3, 7, 10**9 + 7))
    return Fraction(rng.randint(-den, den), den) * size


def perturbed(rng, base):
    """``base`` with waypoints moved, added or put on the drawing, and circles added."""
    data = copy.deepcopy(base)
    position = {v["id"]: v["position"] for v in data["vertices"]}
    for e in data["edges"]:
        pts = [position[e["tail"][0]], *e.get("waypoints", ()), position[e["head"][0]]]
        waypoints = []
        for k in range(len(pts) - 1):
            if 0 < k:
                x, y = pts[k]
                if rng.random() < 0.5:
                    x, y = x + _random_fraction(rng, HALF), y + _random_fraction(rng, HALF)
                waypoints.append([x, y])
            if rng.random() < 0.3:  # a new waypoint near the middle of this piece
                (x0, y0), (x1, y1) = pts[k], pts[k + 1]
                t = Fraction(rng.randint(1, 6), 7)
                waypoints.append([x0 + t * (x1 - x0) + _random_fraction(rng, HALF), y0 + t * (y1 - y0)])
        e["waypoints"] = waypoints
    # put some waypoints exactly on another point or piece of the drawing
    drawn = [p for e in data["edges"] for p in (position[e["tail"][0]], *e["waypoints"])]
    for e in data["edges"]:
        for w in e["waypoints"]:
            if rng.random() < 0.08:
                (x0, y0), (x1, y1) = rng.choice(drawn), rng.choice(drawn)
                t = Fraction(rng.randint(0, 3), 3)
                w[:] = [x0 + t * (x1 - x0), y0 + t * (y1 - y0)]
    circles = []
    for i in range(rng.choice((0, 1, 1, 2))):
        center = [_random_fraction(rng, 6), _random_fraction(rng, 3)]
        radius = abs(_random_fraction(rng, 2)) or Fraction(1, 3)
        circles.append({"id": i, "center": center, "radius": radius, "orientation": "ccw"})
    data["circles"] = circles
    return data


def test_integer_check_agrees_with_the_fraction_oracle():
    rng = random.Random(20131)
    tetrahedron = json.loads(serialize_diagram(builtin("tetrahedron")), parse_float=Fraction)
    bases = [theta_dict(), tetrahedron, two_thetas_dict()]
    outcomes = []
    for case in range(240):
        data = perturbed(rng, rng.choice(bases))
        try:
            build(**data)
            got = None
        except DiagramError as exc:
            got = str(exc)
        assert got == fraction_oracle(data), (case, data)
        outcomes.append(got)
    rejected = [m for m in outcomes if m is not None]
    assert 3 * len(rejected) >= len(outcomes)
    kinds = {re.sub(r"\d+|\(.*\)", "#", m) for m in rejected}
    assert kinds >= {
        "edge # has a zero-length segment at #",
        "edge # and edge # cross",
        "edge # and itself cross",
        "edge # and edge # touch at #",
        "edge # and itself touch at #",
        "edge # and edge # overlap along a segment",
        "circle # intersects edge #",
        "circles # and # intersect",
    }, kinds
    assert any(re.search(r"touch at \(-?\d+/\d+, -?\d+/\d+\)", m) for m in rejected)


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
    assert validate_coloring(d, Coloring(edges={0: 2, 1: 1, 2: 1})) is None
    with pytest.raises(DiagramError) as violated:
        validate_coloring(d, Coloring(edges={0: 1}))
    assert str(violated.value) == "coloring violates flow conservation at vertex 0 (0 != 1), vertex 1 (0 != 1)"
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
    for constant in ("NaN", "Infinity", "-Infinity"):
        with pytest.raises(DiagramError, match=f"^invalid JSON: {constant} is not a finite number$"):
            parse_diagram(f'{{"circles": [{{"id": 0, "center": [{constant}, 0], "radius": 1, "orientation": "cw"}}]}}')
    for field in ("vertices", "edges", "circles"):
        for bad in ("5", "null", "{}", '"ab"'):
            with pytest.raises(DiagramError, match=f"diagram field '{field}' must be a list"):
                parse_diagram(f'{{"{field}": {bad}}}')
    # nested deeper than the decoder recurses, or a number with more digits
    # than int() converts
    for text in ("[" * 5000 + "]" * 5000, '{"vertices": [' + "1" * 5000 + "]}",
                 '{"circles": [{"radius": 1.' + "1" * 5000 + "}]}"):
        with pytest.raises(DiagramError, match="^invalid JSON: "):
            parse_diagram(text)
