"""Seeded generators of valid, exactly embedded diagram families.

Every generator takes a ``random.Random`` and returns a validated
``PlanarDiagram``; the same seed gives the same diagram.  The seed moves
coordinates, waypoints, sizes and gaps, never the combinatorics, so the
work a diagram costs does not depend on the seed.

Family names, as used by the workloads:

``theta``
    The built-in theta with a random scale and waypoints.
``tetrahedron``
    The built-in tetrahedron with a random scale and outer arc.
``thetasK``
    ``K`` disjoint thetas side by side: ``3**K`` cycles, all positive.
``circlesK``
    ``K`` counterclockwise circles side by side: ``2**K`` cycles, zero skew.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

import _paths  # noqa: F401  (puts the package source on sys.path)
from moyeval.diagram import Circle, Edge, Flag, PlanarDiagram, Vertex

__all__ = ["theta", "tetrahedron", "circle", "disjoint_union", "family"]


def _frac(rng: random.Random, lo: int, hi: int, den: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), den)


def theta(rng: random.Random) -> PlanarDiagram:
    """Split at the bottom, merge at the top; edge 0 bends left, edge 2 right."""
    s = _frac(rng, 4, 8, 4)
    left = (-s * _frac(rng, 6, 12, 4), s * _frac(rng, -3, 3, 8))
    right = (s * _frac(rng, 2, 6, 4), s * _frac(rng, -3, 3, 8))
    return PlanarDiagram(
        vertices=[Vertex(0, "split", (Fraction(0), -s)), Vertex(1, "merge", (Fraction(0), s))],
        edges=[
            Edge(0, Flag(1, "m"), Flag(0, "m"), (left,)),
            Edge(1, Flag(0, "l"), Flag(1, "l")),
            Edge(2, Flag(0, "r"), Flag(1, "r"), (right,)),
        ],
    )


def tetrahedron(rng: random.Random) -> PlanarDiagram:
    """The built-in tetrahedron, scaled, with the outer arc at a random height."""
    s = _frac(rng, 4, 8, 4)
    a, b = _frac(rng, 5, 8, 4), _frac(rng, 5, 8, 4)
    zero = Fraction(0)
    return PlanarDiagram(
        vertices=[
            Vertex(0, "split", (zero, s)),
            Vertex(1, "merge", (zero, -s)),
            Vertex(2, "merge", (-s, zero)),
            Vertex(3, "split", (s, zero)),
        ],
        edges=[
            Edge(0, Flag(1, "m"), Flag(0, "m")),
            Edge(1, Flag(0, "r"), Flag(3, "m")),
            Edge(2, Flag(0, "l"), Flag(2, "l")),
            Edge(3, Flag(3, "r"), Flag(1, "r")),
            Edge(4, Flag(2, "m"), Flag(1, "l")),
            Edge(5, Flag(3, "l"), Flag(2, "r"), ((s * a, s * b), (-s * a, s * b))),
        ],
    )


def circle(rng: random.Random) -> PlanarDiagram:
    """One counterclockwise circle of random radius."""
    return PlanarDiagram(
        circles=[Circle(0, (Fraction(0), _frac(rng, -4, 4, 4)), _frac(rng, 2, 8, 4), "ccw")]
    )


def _x_extent(d: PlanarDiagram) -> tuple[Fraction, Fraction]:
    xs = [v.position[0] for v in d.vertices]
    xs += [p[0] for e in d.edges for p in e.waypoints]
    xs += [c.center[0] + sign * c.radius for c in d.circles for sign in (-1, 1)]
    return min(xs), max(xs)


def disjoint_union(parts: list[PlanarDiagram], rng: random.Random) -> PlanarDiagram:
    """Place the parts left to right with random gaps, renumbering ids.

    Part ``i`` keeps its own id order, offset by the ids used before it, so
    a coloring of the union splits into colorings of the parts.
    """
    vertices, edges, circles = [], [], []
    right_edge = None
    for part in parts:
        lo, hi = _x_extent(part)
        shift = Fraction(0) if right_edge is None else right_edge + _frac(rng, 4, 8, 4) - lo
        right_edge = hi + shift
        dv, de, dc = len(vertices), len(edges), len(circles)

        def moved(p):
            return (p[0] + shift, p[1])

        vertices += [Vertex(v.id + dv, v.kind, moved(v.position)) for v in part.vertices]
        edges += [
            Edge(
                e.id + de,
                Flag(e.tail.vertex + dv, e.tail.role),
                Flag(e.head.vertex + dv, e.head.role),
                tuple(moved(p) for p in e.waypoints),
            )
            for e in part.edges
        ]
        circles += [Circle(c.id + dc, moved(c.center), c.radius, c.orientation) for c in part.circles]
    return PlanarDiagram(vertices=vertices, edges=edges, circles=circles)


_PIECES = {"theta": theta, "tetrahedron": tetrahedron, "circle": circle}


def family(name: str, rng: random.Random) -> PlanarDiagram:
    """Build the named diagram (see the module docstring)."""
    if name in _PIECES:
        return _PIECES[name](rng)
    match = re.fullmatch(r"(thetas|circles)([1-9][0-9]*)", name)
    if not match:
        raise ValueError(f"unknown diagram family {name!r}")
    piece = theta if match.group(1) == "thetas" else circle
    return disjoint_union([piece(rng) for _ in range(int(match.group(2)))], rng)
