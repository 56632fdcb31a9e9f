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

The pairing adds over circuits.  Every flag of a circuit sits at one of
its own vertices, and the circuits of one cycle share no vertex, so
``left_at(C)`` is the disjoint union of ``left_at(a)`` over the circuits
``a`` of ``C``, and likewise ``right_at(C)``.  Hence
``left_at(C) & right_at(C')`` is the union of the sets
``left_at(a) & right_at(b)`` over the circuits ``a`` of ``C`` and ``b`` of
``C'``; two of these sets with different ``a`` lie in disjoint
``left_at(a)``, two with different ``b`` in disjoint ``right_at(b)``, so
the union is disjoint and its size is the sum of theirs.  The same holds
with the roles swapped, and subtracting gives, exactly,

    2 * <C, C'> = sum over a in C, b in C' of 2 * <a, b>.

So ``CycleSet`` computes ``pairing_doubled`` once per ordered pair of
circuits and adds each cycle's row of the matrix from the rows of that
table (free circles hold no flag and add zero rows).

A ``CycleSet`` enumerates only the circuits when it is made, and builds
the unions on the first read of ``cycles``: the state sum reads the
circuits alone (it builds each connected component's unions itself), so
it never pays for the whole diagram's 3^K cycles of K disjoint thetas.
"""

from __future__ import annotations

from functools import cached_property
from operator import add
from typing import Iterable, Iterator, NamedTuple, Sequence

from .diagram import DiagramError, PlanarDiagram, Point

__all__ = [
    "Component",
    "Cycle",
    "CycleSet",
    "rotation_of_loop",
    "elementary_circuits",
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
    for v in d.vertices:
        # Restricting interior vertices to ids above the start vertex makes
        # every circuit appear exactly once, rooted at its smallest vertex.
        stack = [(v.id, [], {v.id})]
        while stack:
            here, path, visited = stack.pop()
            for e in out_edges[here]:
                nxt = e.head.vertex
                if nxt == v.id:
                    circuits.append(_circuit_component(d, path + [e]))
                elif nxt > v.id and nxt not in visited:
                    stack.append((nxt, path + [e], visited | {nxt}))

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


def _join(cycle: Cycle, single: Cycle) -> Cycle:
    """The union of ``cycle`` and the one-circuit cycle ``single``, whose
    circuit shares no vertex with ``cycle`` and sorts after all of its own."""
    out = object.__new__(Cycle)
    out.components = cycle.components + single.components
    out.edge_ids = cycle.edge_ids | single.edge_ids
    out.circle_ids = cycle.circle_ids | single.circle_ids
    out.halfedges = cycle.halfedges | single.halfedges
    out.left_at = cycle.left_at | single.left_at
    out.right_at = cycle.right_at | single.right_at
    out.rot = cycle.rot + single.rot
    return out


def _unions(circuits: Iterable[Component]) -> tuple[Cycle, ...]:
    """Every union of pairwise vertex-disjoint ``circuits``, in canonical order.

    The canonical order sorts by total number of edges and circles, then by
    the sorted edge ids, then by the sorted circle ids; the empty cycle
    always comes first.

    The circuits are sorted by ``Component.sort_key`` once, and a search
    node adds circuit ``i`` to its union only after every circuit it holds,
    so each union is its parent's joined with the one-circuit cycle of
    ``i`` (``_join``), components still in order, and no constructor runs
    per union.  Disjointness is read from a circuit-by-circuit table.
    """
    circuits = sorted(circuits, key=Component.sort_key)
    singles = [Cycle((comp,)) for comp in circuits]
    n = len(circuits)
    compatible = [
        [not (circuits[i].vertices & circuits[j].vertices) for j in range(n)] for i in range(n)
    ]
    found: list[Cycle] = []
    stack = [(Cycle(), (), 0)]  # (union, indices of its circuits, first index that may join it)
    while stack:
        cycle, chosen, start = stack.pop()
        found.append(cycle)
        for i in range(start, n):
            if all(map(compatible[i].__getitem__, chosen)):
                stack.append((_join(cycle, singles[i]), chosen + (i,), i + 1))
    found.sort(key=Cycle.sort_key)
    return tuple(found)


def pairing_doubled(c1: Cycle, c2: Cycle) -> int:
    """Twice the intersection pairing ``<c1, c2>``.

    Counts vertices where ``c1`` holds the left flag and ``c2`` the right,
    minus those with the roles swapped.  Antisymmetric in its arguments.
    """
    return len(c1.left_at & c2.right_at) - len(c1.right_at & c2.left_at)


def _cycle_set_of(d: PlanarDiagram, cycle_set: CycleSet | None) -> CycleSet:
    """``cycle_set``, or the cycles of ``d`` when it is ``None``.

    A set built for another diagram is refused: its cycles, slots and
    vertices would be read against the wrong graph.
    """
    if cycle_set is None:
        return CycleSet(d)
    if cycle_set.diagram is not d:
        raise ValueError("the cycle data belongs to another diagram")
    return cycle_set


class CycleSet:
    """The cycles of a diagram in canonical order, with pairing data.

    ``circuits`` holds the diagram's circuits, enumerated once and sorted by
    ``Component.sort_key``.  The cycles are built from them on the first
    read of ``cycles`` (and of ``len`` or iteration), and kept; the pairing
    rows and ``is_positive`` read the circuits instead of the cycles'
    components.
    """

    def __init__(self, d: PlanarDiagram):
        self.diagram = d
        self.circuits = tuple(elementary_circuits(d))

    @cached_property
    def cycles(self) -> tuple[Cycle, ...]:
        """Every union of vertex-disjoint circuits, in canonical order."""
        return _unions(self.circuits)

    def pairing_rows(self) -> Iterator[list[int]]:
        """The rows of the doubled pairing matrix in cycle order, each built
        only when it is read: row ``i`` lists ``2 <C_i, C_j>`` over ``j``.

        ``pairing_doubled`` runs once per ordered pair of circuits.  Each
        circuit's row sums its table entries over the circuits of every
        cycle, and each cycle's row is the sum of its circuits' rows (see
        the module docstring), so a row costs one addition per entry and
        circuit.
        """
        index = {comp: i for i, comp in enumerate(self.circuits)}
        members = [[index[comp] for comp in cycle.components] for cycle in self.cycles]
        circuits = [Cycle((comp,)) for comp in self.circuits]
        table = [[pairing_doubled(a, b) for b in circuits] for a in circuits]
        circuit_rows = [[sum(map(entries.__getitem__, held)) for held in members] for entries in table]
        zeros = [0] * len(self.cycles)
        for held in members:
            row = circuit_rows[held[0]] if held else zeros
            for i in held[1:]:
                row = map(add, row, circuit_rows[i])
            yield list(row)

    def __len__(self) -> int:
        return len(self.cycles)

    def __iter__(self):
        return iter(self.cycles)

    @property
    def is_positive(self) -> bool:
        """True when every circuit of the diagram has rotation +1."""
        return all(comp.rot == 1 for comp in self.circuits)
