"""Cycles of a MOY graph and their planar invariants.

A *circuit* is a closed directed path in the graph that visits each vertex
at most once (a free circle also counts as a circuit).  A *cycle* is a
union of pairwise vertex-disjoint circuits, including the empty union.
Cycles are what the evaluation state sums and generating series range
over.

Each circuit has a rotation number, +1 or -1, read off exactly from the
embedding: the sign of the area enclosed by the traced polyline (circles
carry their orientation explicitly).  A cycle also remembers the set of
*halfedges* (vertex flags) it runs through, which drive the noncommutative
variable ordering, and the sets ``left_at`` and ``right_at`` of vertices
whose ``l`` or ``r`` flag it holds.  Those give the vertex terms of the
state sum and the intersection pairing

    2 * <C, C'> = #(left_at(C) & right_at(C')) - #(right_at(C) & left_at(C'))

which is kept in doubled (integer) form throughout.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .diagram import Coloring, DiagramError, PlanarDiagram, Point

__all__ = [
    "Component",
    "Cycle",
    "CycleSet",
    "rotation_of_loop",
    "elementary_circuits",
    "all_cycles",
    "pairing_doubled",
]


def rotation_of_loop(points: Sequence[Point]) -> int:
    """Orientation of a simple closed polyline: +1 ccw, -1 cw.

    ``points`` lists the loop once, without repeating the starting point.
    Raises ``DiagramError`` when the signed area vanishes (a degenerate
    trace that bounds no area cannot be oriented).
    """
    doubled = 0
    n = len(points)
    for i in range(n):
        x1, y1 = points[i]
        x2, y2 = points[(i + 1) % n]
        doubled += x1 * y2 - x2 * y1
    if doubled == 0:
        raise DiagramError("closed trace has zero signed area; cannot orient it")
    return 1 if doubled > 0 else -1


class Component(NamedTuple):
    """A single circuit: either a directed edge loop or a free circle."""

    edge_ids: tuple[int, ...]  # in traversal order; empty for a circle
    circle_id: int | None
    rot: int
    vertices: frozenset
    halfedges: frozenset

    def sort_key(self) -> tuple:
        return (tuple(sorted(self.edge_ids)), -1 if self.circle_id is None else self.circle_id)


class Cycle:
    """A union of pairwise vertex-disjoint circuits (possibly empty)."""

    __slots__ = ("components", "edge_ids", "circle_ids", "halfedges", "left_at", "right_at", "rot")

    def __init__(self, components: Iterable[Component] = ()):
        self.components = tuple(sorted(components, key=Component.sort_key))
        self.edge_ids = frozenset(e for comp in self.components for e in comp.edge_ids)
        self.circle_ids = frozenset(
            comp.circle_id for comp in self.components if comp.circle_id is not None
        )
        self.halfedges = frozenset(h for comp in self.components for h in comp.halfedges)
        self.left_at = frozenset(v for v, role in self.halfedges if role == "l")
        self.right_at = frozenset(v for v, role in self.halfedges if role == "r")
        self.rot = sum(comp.rot for comp in self.components)

    @property
    def is_empty(self) -> bool:
        return not self.components

    def sort_key(self) -> tuple:
        return (
            len(self.edge_ids) + len(self.circle_ids),
            tuple(sorted(self.edge_ids)),
            tuple(sorted(self.circle_ids)),
        )

    def indicator_coloring(self) -> Coloring:
        return Coloring(
            edges={e: 1 for e in self.edge_ids},
            circles={c: 1 for c in self.circle_ids},
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cycle):
            return NotImplemented
        return self.edge_ids == other.edge_ids and self.circle_ids == other.circle_ids

    def __hash__(self) -> int:
        return hash((self.edge_ids, self.circle_ids))

    def __repr__(self) -> str:
        return f"Cycle(edges={sorted(self.edge_ids)}, circles={sorted(self.circle_ids)}, rot={self.rot})"


def _circuit_component(d: PlanarDiagram, edges_in_order: Sequence) -> Component:
    points: list[Point] = []
    for edge in edges_in_order:
        pts = d.edge_points(edge)
        points.extend(pts[:-1])  # the head position is the next edge's tail
    rot = rotation_of_loop(points)
    return Component(
        edge_ids=tuple(e.id for e in edges_in_order),
        circle_id=None,
        rot=rot,
        vertices=frozenset(e.tail.vertex for e in edges_in_order),
        halfedges=frozenset(f for e in edges_in_order for f in (e.tail, e.head)),
    )


def elementary_circuits(d: PlanarDiagram) -> list[Component]:
    """All circuits of the graph, free circles included."""
    out_edges: dict[int, list] = {v.id: [] for v in d.vertices}
    for e in d.edges:
        out_edges[e.tail.vertex].append(e)
    for edges in out_edges.values():
        edges.sort(key=lambda e: e.id)

    circuits: list[Component] = []

    def search(start: int, here: int, path: list, visited: set) -> None:
        for e in out_edges[here]:
            nxt = e.head.vertex
            if nxt == start:
                circuits.append(_circuit_component(d, path + [e]))
            elif nxt > start and nxt not in visited:
                search(start, nxt, path + [e], visited | {nxt})

    for v in d.vertices:
        # Restricting interior vertices to ids above the start vertex makes
        # every circuit appear exactly once, rooted at its smallest vertex.
        search(v.id, v.id, [], {v.id})

    for c in d.circles:
        circuits.append(
            Component(
                edge_ids=(),
                circle_id=c.id,
                rot=1 if c.orientation == "ccw" else -1,
                vertices=frozenset(),
                halfedges=frozenset(),
            )
        )
    circuits.sort(key=Component.sort_key)
    return circuits


def all_cycles(d: PlanarDiagram) -> list[Cycle]:
    """Every union of pairwise vertex-disjoint circuits, in canonical order.

    The canonical order sorts by total number of edges and circles, then by
    the sorted edge ids, then by the sorted circle ids; the empty cycle
    always comes first.
    """
    circuits = elementary_circuits(d)
    n = len(circuits)
    compatible = [
        [not (circuits[i].vertices & circuits[j].vertices) for j in range(n)] for i in range(n)
    ]
    found: list[Cycle] = []

    def extend(chosen: list[int], start: int) -> None:
        found.append(Cycle([circuits[i] for i in chosen]))
        for i in range(start, n):
            if all(compatible[i][j] for j in chosen):
                extend(chosen + [i], i + 1)

    extend([], 0)
    found.sort(key=Cycle.sort_key)
    return found


def pairing_doubled(c1: Cycle, c2: Cycle) -> int:
    """Twice the intersection pairing ``<c1, c2>``.

    Counts vertices where ``c1`` holds the left flag and ``c2`` the right,
    minus those with the roles swapped.  Antisymmetric in its arguments.
    """
    return len(c1.left_at & c2.right_at) - len(c1.right_at & c2.left_at)


class CycleSet:
    """The cycles of a diagram in canonical order, with pairing data."""

    def __init__(self, d: PlanarDiagram):
        self.diagram = d
        self.cycles = tuple(all_cycles(d))

    @cached_property
    def pairing2(self) -> list[list[int]]:
        """The doubled pairing matrix ``pairing2[i][j] = 2 <C_i, C_j>``.

        Built on first read: the state sum never reads it, and it costs
        K**2 pairings for K cycles.
        """
        return [[pairing_doubled(c1, c2) for c2 in self.cycles] for c1 in self.cycles]

    def __len__(self) -> int:
        return len(self.cycles)

    def __iter__(self):
        return iter(self.cycles)

    def __getitem__(self, i: int) -> Cycle:
        return self.cycles[i]

    @property
    def is_positive(self) -> bool:
        """True when every circuit of the diagram has rotation +1."""
        return all(
            comp.rot == 1 for cycle in self.cycles for comp in cycle.components
        )
