"""Planar diagram data model: MOY graphs with explicit embeddings.

A diagram consists of trivalent vertices, directed edges between vertex
flags, and free (vertexless) circles.  Each vertex is either a ``merge``
(two edges in, one out) or a ``split`` (one edge in, two out) and carries
three flags named ``l``, ``m`` and ``r``:

* merge: edges arrive at ``l`` and ``r``, the combined edge leaves at ``m``;
* split: the combined edge arrives at ``m``, edges leave at ``l`` and ``r``.

The ``l``/``r`` roles are declared data, not inferred from the drawing.
Edges are embedded as polylines (vertex position, waypoints, vertex
position) with exact rational coordinates; circles are round circles with
a rational center and radius and an explicit orientation.  Validation
rejects any drawing that is not a proper planar embedding: curves may meet
only at shared endpoint vertices.

Loops and multiple edges are allowed as long as the drawing is valid.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Mapping
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

__all__ = [
    "DiagramError",
    "Flag",
    "Vertex",
    "Edge",
    "Circle",
    "PlanarDiagram",
    "Coloring",
    "format_coloring",
    "FlowViolation",
    "parse_diagram",
    "serialize_diagram",
    "validate_coloring",
    "builtin",
    "builtin_names",
    "ROLES",
]

ROLES = ("l", "m", "r")

Point = tuple[Fraction, Fraction]
_IntPoint = tuple[int, int]


class DiagramError(ValueError):
    """Raised for malformed diagram data or invalid drawings."""


class Flag(NamedTuple):
    """A vertex-side attachment point: ``(vertex_id, role)``."""

    vertex: int
    role: str


# Python's default limit on the digits of an integer literal, which integer
# coordinates already meet; a decimal exponent beyond it is refused, since
# ``Fraction`` reads ``1e1000000`` by building 10**1000000.
_MAX_EXPONENT = 4300


def _decimal(text: str) -> Fraction:
    """``Fraction(text)``, refusing a decimal exponent larger than
    ``_MAX_EXPONENT`` in magnitude before any digit of its power is built."""
    _, e, exponent = text.strip().lower().rpartition("e")
    digits = exponent.lstrip("+-").replace("_", "").lstrip("0")
    if e and digits.isdecimal() and (len(digits) > len(str(_MAX_EXPONENT)) or int(digits) > _MAX_EXPONENT):
        raise DiagramError(f"coordinate {text!r} has a decimal exponent beyond {_MAX_EXPONENT} in magnitude")
    return Fraction(text)


def _as_fraction(value) -> Fraction:
    if isinstance(value, bool):
        raise DiagramError(f"coordinate {value!r} is not a number")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return _decimal(value)
        except DiagramError:
            raise
        except (ValueError, ZeroDivisionError) as exc:
            raise DiagramError(f"cannot parse coordinate {value!r}") from exc
    if isinstance(value, float):
        if not math.isfinite(value):
            raise DiagramError(f"coordinate {value!r} is not a finite number")
        # Exact decimal reading: 1.5 means 3/2.
        return Fraction(repr(value))
    raise DiagramError(f"coordinate {value!r} is not a number")


def _as_point(value) -> Point:
    if not isinstance(value, (tuple, list)) or len(value) != 2:
        raise DiagramError(f"point {value!r} must be a pair of coordinates")
    return (_as_fraction(value[0]), _as_fraction(value[1]))


def _as_flag(value) -> Flag:
    if isinstance(value, Flag):
        flag = value
    elif isinstance(value, (tuple, list)) and len(value) == 2:
        flag = Flag(value[0], value[1])
    else:
        raise DiagramError(f"flag {value!r} must be a (vertex, role) pair")
    if not isinstance(flag.vertex, int) or isinstance(flag.vertex, bool):
        raise DiagramError(f"flag {value!r} has a non-integer vertex id")
    if flag.role not in ROLES:
        raise DiagramError(f"flag {value!r} has unknown role {flag.role!r}")
    return flag


class Vertex(NamedTuple):
    id: int
    kind: str  # "merge" | "split"
    position: Point

    def in_roles(self) -> tuple[str, ...]:
        return ("l", "r") if self.kind == "merge" else ("m",)

    def out_roles(self) -> tuple[str, ...]:
        return ("m",) if self.kind == "merge" else ("l", "r")


class Edge(NamedTuple):
    id: int
    tail: Flag
    head: Flag
    waypoints: tuple[Point, ...] = ()


class Circle(NamedTuple):
    id: int
    center: Point
    radius: Fraction
    orientation: str  # "ccw" | "cw"


class Coloring:
    """An assignment of nonnegative integers to edges and circles.

    Ids not mentioned are colored 0; zero values are dropped on
    normalization so that equal colorings compare and hash equal.
    """

    __slots__ = ("edges", "circles")

    def __init__(self, edges: Mapping[int, int] | Iterable = (), circles: Mapping[int, int] | Iterable = ()):
        self.edges = self._normalize(edges, "edge")
        self.circles = self._normalize(circles, "circle")

    @staticmethod
    def _normalize(values, what: str) -> tuple[tuple[int, int], ...]:
        items = values.items() if isinstance(values, Mapping) else values
        out = {}
        for key, val in items:
            if not isinstance(key, int) or isinstance(key, bool):
                raise DiagramError(f"{what} id {key!r} is not an integer")
            if not isinstance(val, int) or isinstance(val, bool) or val < 0:
                raise DiagramError(f"{what} {key} has invalid color {val!r}")
            if key in out:
                raise DiagramError(f"{what} {key} colored twice")
            if val:
                out[key] = val
        return tuple(sorted(out.items()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Coloring):
            return NotImplemented
        return self.edges == other.edges and self.circles == other.circles

    def __hash__(self) -> int:
        return hash((self.edges, self.circles))

    def total(self) -> int:
        """Sum of all assigned colors."""
        return sum(v for _, v in self.edges) + sum(v for _, v in self.circles)

    def sort_key(self) -> tuple:
        return (self.total(), self.edges, self.circles)

    def __repr__(self) -> str:
        return f"Coloring(edges={dict(self.edges)!r}, circles={dict(self.circles)!r})"


def format_coloring(coloring: Coloring) -> str:
    """Render a coloring as ``edges 0=2,1=1 circles 0=3``, or ``empty``."""
    parts = []
    if coloring.edges:
        parts.append("edges " + ",".join(f"{k}={v}" for k, v in coloring.edges))
    if coloring.circles:
        parts.append("circles " + ",".join(f"{k}={v}" for k, v in coloring.circles))
    return " ".join(parts) or "empty"


class FlowViolation(NamedTuple):
    vertex: int
    side_sum: int  # color(l) + color(r)
    middle: int  # color(m)


# --------------------------------------------------------------------------
# Exact geometric predicates.  They run on integer points: the embedding
# check scales the whole drawing by the common denominator of its
# coordinates, and every test below is homogeneous in the coordinates, so
# each one decides exactly what it would decide on the rational drawing,
# with no epsilon and no division anywhere.


def _orient(a: _IntPoint, b: _IntPoint, c: _IntPoint) -> int:
    """Sign of the cross product (b - a) x (c - a)."""
    cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (cross > 0) - (cross < 0)


def _on_segment(p: _IntPoint, a: _IntPoint, b: _IntPoint) -> bool:
    """True when p lies on the closed segment [a, b]."""
    if _orient(a, b, p) != 0:
        return False
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def _dist2(a: _IntPoint, b: _IntPoint) -> int:
    return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2


def _circle_meets_segment(center: _IntPoint, r2: int, a: _IntPoint, b: _IntPoint) -> bool:
    """True when the circle of squared radius ``r2`` meets the segment [a, b], a != b.

    The squared distance from ``center`` to the segment ranges over
    [lo, max(da, db)]; ``lo`` is the distance to the foot of the
    perpendicular when that foot lies on the segment, which is
    ``cross**2 / seg2``, so it is compared as ``cross**2 <= r2 * seg2``.
    """
    da = _dist2(center, a)
    db = _dist2(center, b)
    if max(da, db) < r2:
        return False
    if min(da, db) <= r2:
        return True
    ex, ey = b[0] - a[0], b[1] - a[1]
    px, py = center[0] - a[0], center[1] - a[1]
    dot = px * ex + py * ey
    seg2 = ex * ex + ey * ey
    if not 0 <= dot <= seg2:
        return False
    cross = ex * py - ey * px
    return cross * cross <= r2 * seg2


def _format_point(point: _IntPoint, scale: int) -> str:
    """A scaled point in the drawing's own coordinates, as ``(1/3, 1/2)``."""
    x, y = point
    return f"({Fraction(x, scale)}, {Fraction(y, scale)})"


class _Segment(NamedTuple):
    edge_id: int
    index: int
    a: _IntPoint
    b: _IntPoint
    ends: frozenset  # positions of the vertices this segment legitimately ends at


def _check_segment_pair(s1: _Segment, s2: _Segment, scale: int) -> None:
    """Raise unless the segments meet at most in a point where they may meet.

    Segments may meet only at an endpoint they share as the same vertex or,
    when they are consecutive pieces of one edge, at their common waypoint.
    ``s1`` comes before ``s2`` in segment order.
    """
    o1 = _orient(s1.a, s1.b, s2.a)
    o2 = _orient(s1.a, s1.b, s2.b)
    o3 = _orient(s2.a, s2.b, s1.a)
    o4 = _orient(s2.a, s2.b, s1.b)
    where = f"edge {s1.edge_id} and edge {s2.edge_id}"
    if s1.edge_id == s2.edge_id:
        where = f"edge {s1.edge_id} and itself"
    if o1 * o2 < 0 and o3 * o4 < 0:
        raise DiagramError(f"{where} cross")
    contacts = {p for p in (s2.a, s2.b) if _on_segment(p, s1.a, s1.b)}
    contacts |= {p for p in (s1.a, s1.b) if _on_segment(p, s2.a, s2.b)}
    if not contacts:
        return
    if len(contacts) > 1:
        raise DiagramError(f"{where} overlap along a segment")
    point = next(iter(contacts))
    allowed = s1.ends & s2.ends
    if s1.edge_id == s2.edge_id and s2.index == s1.index + 1:
        allowed |= {s1.b}
    if point not in allowed:
        raise DiagramError(f"{where} touch at {_format_point(point, scale)}")


class PlanarDiagram:
    """A validated MOY graph with an exact planar embedding.

    It owns the color-slot layout of internal colorings: edges in id order,
    then circles in id order (``edge_slot``, ``circle_slot``, ``coloring_of``).
    """

    def __init__(
        self,
        vertices: Iterable[Vertex | Mapping] = (),
        edges: Iterable[Edge | Mapping] = (),
        circles: Iterable[Circle | Mapping] = (),
    ):
        self.vertices = tuple(sorted((self._coerce_vertex(v) for v in vertices), key=lambda v: v.id))
        self.edges = tuple(sorted((self._coerce_edge(e) for e in edges), key=lambda e: e.id))
        self.circles = tuple(sorted((self._coerce_circle(c) for c in circles), key=lambda c: c.id))
        self.vertex_by_id = {v.id: v for v in self.vertices}
        self.edge_by_id = {e.id: e for e in self.edges}
        self.circle_by_id = {c.id: c for c in self.circles}
        self._flag_to_edge: dict[Flag, int] = {}
        self._validate()
        self.edge_slot = {e.id: i for i, e in enumerate(self.edges)}
        self.circle_slot = {c.id: len(self.edges) + i for i, c in enumerate(self.circles)}
        self.slot_count = len(self.edges) + len(self.circles)

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def _coerce_vertex(v) -> Vertex:
        if isinstance(v, Vertex):
            return Vertex(v.id, v.kind, _as_point(v.position))
        try:
            return Vertex(v["id"], v["kind"], _as_point(v["position"]))
        except (KeyError, TypeError) as exc:
            raise DiagramError(f"malformed vertex record {v!r}") from exc

    @staticmethod
    def _coerce_edge(e) -> Edge:
        if isinstance(e, Edge):
            return Edge(e.id, _as_flag(e.tail), _as_flag(e.head), tuple(_as_point(p) for p in e.waypoints))
        try:
            return Edge(
                e["id"],
                _as_flag(e["tail"]),
                _as_flag(e["head"]),
                tuple(_as_point(p) for p in e.get("waypoints", ())),
            )
        except (KeyError, TypeError) as exc:
            raise DiagramError(f"malformed edge record {e!r}") from exc

    @staticmethod
    def _coerce_circle(c) -> Circle:
        if isinstance(c, Circle):
            return Circle(c.id, _as_point(c.center), _as_fraction(c.radius), c.orientation)
        try:
            return Circle(c["id"], _as_point(c["center"]), _as_fraction(c["radius"]), c["orientation"])
        except (KeyError, TypeError) as exc:
            raise DiagramError(f"malformed circle record {c!r}") from exc

    # -- lookups -------------------------------------------------------------

    def edge_at(self, flag: Flag) -> Edge:
        """The unique edge attached at ``flag``."""
        return self.edge_by_id[self._flag_to_edge[Flag(*flag)]]

    def edge_points(self, edge: Edge) -> tuple[Point, ...]:
        """Full polyline of an edge: tail position, waypoints, head position."""
        return (
            self.vertex_by_id[edge.tail.vertex].position,
            *edge.waypoints,
            self.vertex_by_id[edge.head.vertex].position,
        )

    def slots(self, edge_ids: Iterable[int], circle_ids: Iterable[int]) -> list[int]:
        """The slots of the given edges, then of the given circles."""
        return [self.edge_slot[e] for e in edge_ids] + [self.circle_slot[c] for c in circle_ids]

    def coloring_of(self, slots: Sequence[int]) -> Coloring:
        """The coloring with colors ``slots`` in slot order, not validated again
        (internal arithmetic made them); it equals ``Coloring`` of the same colors."""
        coloring = object.__new__(Coloring)
        # built from lists: tuple() of a generator over-allocates, and these live long
        coloring.edges = tuple([(e.id, k) for e, k in zip(self.edges, slots) if k])
        coloring.circles = tuple([(c.id, k) for c, k in zip(self.circles, slots[len(self.edges):]) if k])
        return coloring

    # -- validation ----------------------------------------------------------

    def _validate(self) -> None:
        self._check_ids_and_fields()
        self._check_flag_usage()
        self._check_directions()
        self._check_embedding()

    def _check_ids_and_fields(self) -> None:
        for collection, what in ((self.vertices, "vertex"), (self.edges, "edge"), (self.circles, "circle")):
            seen = set()
            for item in collection:
                if not isinstance(item.id, int) or isinstance(item.id, bool):
                    raise DiagramError(f"{what} id {item.id!r} is not an integer")
                if item.id in seen:
                    raise DiagramError(f"duplicate {what} id {item.id}")
                seen.add(item.id)
        for v in self.vertices:
            if v.kind not in ("merge", "split"):
                raise DiagramError(f"vertex {v.id} has unknown kind {v.kind!r}")
        for c in self.circles:
            if c.orientation not in ("ccw", "cw"):
                raise DiagramError(f"circle {c.id} has unknown orientation {c.orientation!r}")
            if c.radius <= 0:
                raise DiagramError(f"circle {c.id} must have positive radius")
        for e in self.edges:
            for flag in (e.tail, e.head):
                if flag.vertex not in self.vertex_by_id:
                    raise DiagramError(f"edge {e.id} references missing vertex {flag.vertex}")
        positions = {}
        for v in self.vertices:
            if v.position in positions:
                raise DiagramError(
                    f"vertices {positions[v.position]} and {v.id} occupy the same position"
                )
            positions[v.position] = v.id

    def _check_flag_usage(self) -> None:
        for e in self.edges:
            for flag in (e.tail, e.head):
                if flag in self._flag_to_edge:
                    other = self._flag_to_edge[flag]
                    raise DiagramError(
                        f"flag ({flag.vertex}, {flag.role!r}) used by edges {other} and {e.id}"
                    )
                self._flag_to_edge[flag] = e.id
        for v in self.vertices:
            for role in ROLES:
                if Flag(v.id, role) not in self._flag_to_edge:
                    raise DiagramError(f"flag ({v.id}, {role!r}) has no edge attached")

    def _check_directions(self) -> None:
        for e in self.edges:
            tail_vertex = self.vertex_by_id[e.tail.vertex]
            if e.tail.role not in tail_vertex.out_roles():
                raise DiagramError(
                    f"edge {e.id} leaves {tail_vertex.kind} vertex {tail_vertex.id} "
                    f"at flag {e.tail.role!r}, which is an incoming flag"
                )
            head_vertex = self.vertex_by_id[e.head.vertex]
            if e.head.role not in head_vertex.in_roles():
                raise DiagramError(
                    f"edge {e.id} enters {head_vertex.kind} vertex {head_vertex.id} "
                    f"at flag {e.head.role!r}, which is an outgoing flag"
                )

    def _check_embedding(self) -> None:
        """Reject any drawing that is not a proper planar embedding.

        The check runs on one integer copy of the drawing, scaled by the
        least common denominator of all its coordinates.  Segment pairs are
        visited in order, and a pair whose closed bounding boxes are disjoint
        is skipped: it can neither cross nor touch.
        """
        coords = [x for v in self.vertices for x in v.position]
        coords += [x for e in self.edges for p in e.waypoints for x in p]
        coords += [x for c in self.circles for x in (*c.center, c.radius)]
        scale = math.lcm(*(x.denominator for x in coords))

        def lift(x: Fraction) -> int:
            return x.numerator * (scale // x.denominator)

        def lift_point(p: Point) -> _IntPoint:
            return (lift(p[0]), lift(p[1]))

        segs = self._segments(lift_point, scale)
        boxes = [
            (min(s.a[0], s.b[0]), max(s.a[0], s.b[0]), min(s.a[1], s.b[1]), max(s.a[1], s.b[1]))
            for s in segs
        ]
        for i, (x0, x1, y0, y1) in enumerate(boxes):
            for j in range(i + 1, len(segs)):
                u0, u1, v0, v1 = boxes[j]
                if u0 > x1 or x0 > u1 or v0 > y1 or y0 > v1:
                    continue
                _check_segment_pair(segs[i], segs[j], scale)
        circles = [(c.id, lift_point(c.center), lift(c.radius)) for c in self.circles]
        for idx, (cid, center, radius) in enumerate(circles):
            for cid2, center2, radius2 in circles[idx + 1 :]:
                d2 = _dist2(center, center2)
                if (radius - radius2) ** 2 <= d2 <= (radius + radius2) ** 2:
                    raise DiagramError(f"circles {cid} and {cid2} intersect")
            r2 = radius * radius
            for seg in segs:
                if _circle_meets_segment(center, r2, seg.a, seg.b):
                    raise DiagramError(f"circle {cid} intersects edge {seg.edge_id}")

    def _segments(self, lift_point: Callable[[Point], _IntPoint], scale: int) -> list[_Segment]:
        """The pieces of every edge's polyline, lifted to integer points."""
        position = {v.id: lift_point(v.position) for v in self.vertices}
        segs = []
        for e in self.edges:
            pts = [position[e.tail.vertex], *map(lift_point, e.waypoints), position[e.head.vertex]]
            last = len(pts) - 2
            for i in range(len(pts) - 1):
                if pts[i] == pts[i + 1]:
                    raise DiagramError(
                        f"edge {e.id} has a zero-length segment at {_format_point(pts[i], scale)}"
                    )
                ends = set()
                if i == 0:
                    ends.add(pts[0])
                if i == last:
                    ends.add(pts[-1])
                segs.append(_Segment(e.id, i, pts[i], pts[i + 1], frozenset(ends)))
        return segs

    def __repr__(self) -> str:
        return (
            f"PlanarDiagram({len(self.vertices)} vertices, "
            f"{len(self.edges)} edges, {len(self.circles)} circles)"
        )


def validate_coloring(d: PlanarDiagram, coloring: Coloring) -> list[FlowViolation]:
    """Check flow conservation of a coloring at every vertex.

    At each vertex the colors of the edges at flags ``l`` and ``r`` must sum
    to the color of the edge at flag ``m``.  Unknown edge or circle ids in
    the coloring raise ``DiagramError``.
    """
    colors = dict(coloring.edges)
    for edge_id in colors:
        if edge_id not in d.edge_by_id:
            raise DiagramError(f"coloring mentions missing edge {edge_id}")
    for circle_id, _ in coloring.circles:
        if circle_id not in d.circle_by_id:
            raise DiagramError(f"coloring mentions missing circle {circle_id}")
    violations = []
    for v in d.vertices:
        values = {}
        for role in ROLES:
            values[role] = colors.get(d.edge_at(Flag(v.id, role)).id, 0)
        if values["l"] + values["r"] != values["m"]:
            violations.append(FlowViolation(v.id, values["l"] + values["r"], values["m"]))
    return violations


# --------------------------------------------------------------------------
# JSON serialization


def parse_diagram(text: str) -> PlanarDiagram:
    """Parse a diagram from its JSON description.

    Coordinates may be integers, decimal numbers (read exactly, so ``1.5``
    means 3/2) or strings like ``"1/3"``; ``NaN`` and ``Infinity`` are
    refused.  ``vertices``, ``edges`` and ``circles`` must be lists.  A
    document nested too deep, or a number with more digits than Python
    converts, is refused as invalid JSON, and a decimal exponent beyond
    4,300 in magnitude (the same limit) as a malformed coordinate.
    """
    try:
        data = json.loads(text, parse_float=_decimal, parse_constant=_refuse_constant)
    except DiagramError:
        raise
    except (ValueError, RecursionError) as exc:  # ValueError includes json.JSONDecodeError
        raise DiagramError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DiagramError("diagram JSON must be an object")
    fields = {name: data.get(name, []) for name in ("vertices", "edges", "circles")}
    unknown = set(data) - set(fields)
    if unknown:
        raise DiagramError(f"unknown top-level keys: {sorted(unknown)}")
    for name, value in fields.items():
        if not isinstance(value, list):
            raise DiagramError(f"diagram field {name!r} must be a list")
    return PlanarDiagram(**fields)


def _refuse_constant(name: str):
    raise DiagramError(f"invalid JSON: {name} is not a finite number")


def _coord_json(fr: Fraction):
    if fr.denominator == 1:
        return int(fr)
    as_float = float(fr)
    if Fraction(repr(as_float)) == fr:
        return as_float
    return f"{fr.numerator}/{fr.denominator}"


def _point_json(p: Point) -> list:
    return [_coord_json(p[0]), _coord_json(p[1])]


def serialize_diagram(d: PlanarDiagram) -> str:
    """Serialize a diagram to JSON that ``parse_diagram`` reads back exactly."""
    data: dict = {}
    if d.vertices:
        data["vertices"] = [
            {"id": v.id, "kind": v.kind, "position": _point_json(v.position)} for v in d.vertices
        ]
    if d.edges:
        data["edges"] = []
        for e in d.edges:
            rec = {"id": e.id, "tail": list(e.tail), "head": list(e.head)}
            if e.waypoints:
                rec["waypoints"] = [_point_json(p) for p in e.waypoints]
            data["edges"].append(rec)
    if d.circles:
        data["circles"] = [
            {
                "id": c.id,
                "center": _point_json(c.center),
                "radius": _coord_json(c.radius),
                "orientation": c.orientation,
            }
            for c in d.circles
        ]
    return json.dumps(data, indent=2) + "\n"


# --------------------------------------------------------------------------
# Built-in example diagrams


def builtin_names() -> tuple[str, ...]:
    return ("unknot", "theta", "tetrahedron")


def builtin(name: str) -> PlanarDiagram:
    """Construct one of the built-in diagrams by name.

    ``unknot``
        A single counterclockwise circle.
    ``theta``
        Two vertices joined by a doubled edge and two parallel edges.
    ``tetrahedron``
        The theta graph with the doubled edge split open into a square;
        four vertices and six edges.
    """
    if name == "unknot":
        return PlanarDiagram(circles=[Circle(0, (Fraction(0), Fraction(0)), Fraction(1), "ccw")])
    if name == "theta":
        return PlanarDiagram(
            vertices=[
                Vertex(0, "split", (Fraction(0), Fraction(-1))),
                Vertex(1, "merge", (Fraction(0), Fraction(1))),
            ],
            edges=[
                Edge(0, Flag(1, "m"), Flag(0, "m"), ((Fraction(-2), Fraction(0)),)),
                Edge(1, Flag(0, "l"), Flag(1, "l")),
                Edge(2, Flag(0, "r"), Flag(1, "r"), ((Fraction(1), Fraction(0)),)),
            ],
        )
    if name == "tetrahedron":
        return PlanarDiagram(
            vertices=[
                Vertex(0, "split", (Fraction(0), Fraction(1))),
                Vertex(1, "merge", (Fraction(0), Fraction(-1))),
                Vertex(2, "merge", (Fraction(-1), Fraction(0))),
                Vertex(3, "split", (Fraction(1), Fraction(0))),
            ],
            edges=[
                Edge(0, Flag(1, "m"), Flag(0, "m")),
                Edge(1, Flag(0, "r"), Flag(3, "m")),
                Edge(2, Flag(0, "l"), Flag(2, "l")),
                Edge(3, Flag(3, "r"), Flag(1, "r")),
                Edge(4, Flag(2, "m"), Flag(1, "l")),
                Edge(
                    5,
                    Flag(3, "l"),
                    Flag(2, "r"),
                    (
                        (Fraction(3, 2), Fraction(3, 2)),
                        (Fraction(-3, 2), Fraction(3, 2)),
                    ),
                ),
            ],
        )
    raise DiagramError(f"unknown builtin diagram {name!r}")
