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
from collections.abc import Mapping
from dataclasses import dataclass, field
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


class DiagramError(ValueError):
    """Raised for malformed diagram data or invalid drawings."""


class Flag(NamedTuple):
    """A vertex-side attachment point: ``(vertex_id, role)``."""

    vertex: int
    role: str


def _as_fraction(value) -> Fraction:
    if isinstance(value, bool):
        raise DiagramError(f"coordinate {value!r} is not a number")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise DiagramError(f"cannot parse coordinate {value!r}") from exc
    if isinstance(value, float):
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


@dataclass(frozen=True)
class Vertex:
    id: int
    kind: str  # "merge" | "split"
    position: Point

    def in_roles(self) -> tuple[str, ...]:
        return ("l", "r") if self.kind == "merge" else ("m",)

    def out_roles(self) -> tuple[str, ...]:
        return ("m",) if self.kind == "merge" else ("l", "r")


@dataclass(frozen=True)
class Edge:
    id: int
    tail: Flag
    head: Flag
    waypoints: tuple[Point, ...] = ()


@dataclass(frozen=True)
class Circle:
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

    def edge_value(self, edge_id: int) -> int:
        return dict(self.edges).get(edge_id, 0)

    def circle_value(self, circle_id: int) -> int:
        return dict(self.circles).get(circle_id, 0)

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
# Exact geometric predicates.  All coordinates are Fractions, so every test
# below is decided exactly, with no epsilon anywhere.


def _orient(a: Point, b: Point, c: Point) -> int:
    """Sign of the cross product (b - a) x (c - a)."""
    cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (cross > 0) - (cross < 0)


def _on_segment(p: Point, a: Point, b: Point) -> bool:
    """True when p lies on the closed segment [a, b]."""
    if _orient(a, b, p) != 0:
        return False
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def _dist2(a: Point, b: Point) -> Fraction:
    return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2


def _segment_dist2_range(center: Point, a: Point, b: Point) -> tuple[Fraction, Fraction]:
    """Exact (min, max) of squared distance from ``center`` to segment [a, b]."""
    da = _dist2(center, a)
    db = _dist2(center, b)
    lo = min(da, db)
    hi = max(da, db)
    seg2 = _dist2(a, b)
    if seg2:
        t = ((center[0] - a[0]) * (b[0] - a[0]) + (center[1] - a[1]) * (b[1] - a[1])) / seg2
        if 0 <= t <= 1:
            foot = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
            lo = min(lo, _dist2(center, foot))
    return lo, hi


class _Segment(NamedTuple):
    edge_id: int
    index: int
    a: Point
    b: Point
    terminals: frozenset  # vertex ids this segment legitimately ends at


class PlanarDiagram:
    """A validated MOY graph with an exact planar embedding."""

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
        self._flag_to_edge: dict[Flag, tuple[int, str]] = {}
        self._validate()

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

    def edge_at(self, flag: Flag) -> tuple[Edge, bool]:
        """The unique edge attached at ``flag`` and whether it starts there."""
        edge_id, end = self._flag_to_edge[Flag(*flag)]
        return self.edge_by_id[edge_id], end == "tail"

    def edge_points(self, edge: Edge) -> tuple[Point, ...]:
        """Full polyline of an edge: tail position, waypoints, head position."""
        return (
            self.vertex_by_id[edge.tail.vertex].position,
            *edge.waypoints,
            self.vertex_by_id[edge.head.vertex].position,
        )

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
            for flag, end in ((e.tail, "tail"), (e.head, "head")):
                if flag in self._flag_to_edge:
                    other = self._flag_to_edge[flag][0]
                    raise DiagramError(
                        f"flag ({flag.vertex}, {flag.role!r}) used by edges {other} and {e.id}"
                    )
                self._flag_to_edge[flag] = (e.id, end)
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

    def _segments(self) -> list[_Segment]:
        segs = []
        for e in self.edges:
            pts = self.edge_points(e)
            last = len(pts) - 2
            for i in range(len(pts) - 1):
                if pts[i] == pts[i + 1]:
                    raise DiagramError(f"edge {e.id} has a zero-length segment at {pts[i]}")
                terminals = set()
                if i == 0:
                    terminals.add(e.tail.vertex)
                if i == last:
                    terminals.add(e.head.vertex)
                segs.append(_Segment(e.id, i, pts[i], pts[i + 1], frozenset(terminals)))
        return segs

    def _allowed_contacts(self, s1: _Segment, s2: _Segment) -> set:
        """Points where the two segments may legitimately touch."""
        allowed = set()
        if s1.edge_id == s2.edge_id:
            edge = self.edge_by_id[s1.edge_id]
            pts = self.edge_points(edge)
            lo, hi = sorted((s1.index, s2.index))
            if hi - lo == 1:
                allowed.add(pts[hi])
            if lo == 0 and hi == len(pts) - 2 and edge.tail.vertex == edge.head.vertex:
                allowed.add(self.vertex_by_id[edge.tail.vertex].position)
        else:
            for vid in s1.terminals & s2.terminals:
                allowed.add(self.vertex_by_id[vid].position)
        return allowed

    def _check_segment_pair(self, s1: _Segment, s2: _Segment) -> None:
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
        endpoint_of_both = point in (s1.a, s1.b) and point in (s2.a, s2.b)
        if not endpoint_of_both or point not in self._allowed_contacts(s1, s2):
            x, y = point
            raise DiagramError(f"{where} touch at ({x}, {y})")

    def _check_embedding(self) -> None:
        segs = self._segments()
        for i in range(len(segs)):
            for j in range(i + 1, len(segs)):
                s1, s2 = segs[i], segs[j]
                if s1.edge_id == s2.edge_id and s1.index == s2.index:
                    continue
                self._check_segment_pair(s1, s2)
        for idx, c1 in enumerate(self.circles):
            for c2 in self.circles[idx + 1 :]:
                d2 = _dist2(c1.center, c2.center)
                if (c1.radius - c2.radius) ** 2 <= d2 <= (c1.radius + c2.radius) ** 2:
                    raise DiagramError(f"circles {c1.id} and {c2.id} intersect")
            for seg in segs:
                lo, hi = _segment_dist2_range(c1.center, seg.a, seg.b)
                r2 = c1.radius**2
                if lo <= r2 <= hi:
                    raise DiagramError(f"circle {c1.id} intersects edge {seg.edge_id}")

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
    for edge_id, _ in coloring.edges:
        if edge_id not in d.edge_by_id:
            raise DiagramError(f"coloring mentions missing edge {edge_id}")
    for circle_id, _ in coloring.circles:
        if circle_id not in d.circle_by_id:
            raise DiagramError(f"coloring mentions missing circle {circle_id}")
    violations = []
    for v in d.vertices:
        values = {}
        for role in ROLES:
            edge, _ = d.edge_at(Flag(v.id, role))
            values[role] = coloring.edge_value(edge.id)
        if values["l"] + values["r"] != values["m"]:
            violations.append(FlowViolation(v.id, values["l"] + values["r"], values["m"]))
    return violations


# --------------------------------------------------------------------------
# JSON serialization


def parse_diagram(text: str) -> PlanarDiagram:
    """Parse a diagram from its JSON description.

    Coordinates may be integers, decimal numbers (read exactly, so ``1.5``
    means 3/2) or strings like ``"1/3"``.
    """
    try:
        data = json.loads(text, parse_float=Fraction)
    except json.JSONDecodeError as exc:
        raise DiagramError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DiagramError("diagram JSON must be an object")
    unknown = set(data) - {"vertices", "edges", "circles"}
    if unknown:
        raise DiagramError(f"unknown top-level keys: {sorted(unknown)}")
    return PlanarDiagram(
        vertices=data.get("vertices", ()),
        edges=data.get("edges", ()),
        circles=data.get("circles", ()),
    )


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
