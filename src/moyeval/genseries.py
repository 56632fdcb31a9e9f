"""Cycle-polynomial generating series for colored diagram evaluations.

The *cycle polynomial* of a diagram is the element

    Phi = sum_{cycles C} v**(2 rot C) * b**(-2 rot C) * x_C

of the cycle algebra (the empty cycle contributes the constant term 1).
Twisting by ``k`` multiplies the ``x_C`` coefficient by ``v**(4 k rot C)``.
The level-``n`` evaluation table of the diagram is recovered as a finite
twisted product: substitute ``a = q**n``, multiply the twists ``k = 0`` to
``n - 1`` in ascending order, push the result to the flag algebra with
``mu``, and read off the coefficient of each flow.  The ``q = 1`` shadow of
the same structure is a plain convolution power of the cycle indicator
polynomial, which just counts states.
"""

from __future__ import annotations

from .cycles import CycleSet
from .diagram import Coloring, PlanarDiagram
from .qexact import QLaurent
from .qtorus import CycleAlgebra, TorusElement

__all__ = [
    "classical_cycle_polynomial",
    "classical_series",
    "pochhammer_N",
    "generating_series_N",
]


def classical_cycle_polynomial(cycle_set: CycleSet) -> dict[Coloring, int]:
    """Each cycle's indicator coloring with coefficient 1."""
    return {cycle.indicator_coloring(): 1 for cycle in cycle_set.cycles}


def _add_colorings(c1: Coloring, c2: Coloring) -> Coloring:
    edges = dict(c1.edges)
    for key, value in c2.edges:
        edges[key] = edges.get(key, 0) + value
    circles = dict(c1.circles)
    for key, value in c2.circles:
        circles[key] = circles.get(key, 0) + value
    return Coloring(edges=edges, circles=circles)


def classical_series(d: PlanarDiagram, n: int, *, cycle_set: CycleSet | None = None) -> dict[Coloring, int]:
    """The ``n``-fold convolution power of the classical cycle polynomial.

    The coefficient of a coloring counts the level-``n`` states realizing
    it, so this table matches the ``q = 1`` state-sum evaluations.
    """
    cs = cycle_set or CycleSet(d)
    base = classical_cycle_polynomial(cs)
    table = {Coloring(): 1}
    for _ in range(n):
        new: dict[Coloring, int] = {}
        for c1, m1 in table.items():
            for c2, m2 in base.items():
                combined = _add_colorings(c1, c2)
                new[combined] = new.get(combined, 0) + m1 * m2
        table = new
    return table


def pochhammer_N(ca: CycleAlgebra, n: int) -> TorusElement:
    """The finite twisted product at level ``n``, with ``a = q**n`` applied.

    Multiplies the twists ``k = 0, ..., n-1`` of the cycle polynomial in
    ascending order; coefficients are plain ``QLaurent`` since ``a`` has
    been substituted.
    """
    zero_exps = (0,) * len(ca.signature)
    acc = TorusElement.monomial(ca.signature, zero_exps, QLaurent.one())
    for k in range(n):
        terms = {zero_exps: QLaurent.one()}
        for index, rot in enumerate(ca.rots):
            exps = [0] * len(ca.signature)
            exps[index] = 1
            terms[tuple(exps)] = QLaurent.monomial((2 + 4 * k - 2 * n) * rot)
        acc = acc * TorusElement(ca.signature, terms)
    return acc


def generating_series_N(
    d: PlanarDiagram,
    n: int,
    *,
    cycle_algebra: CycleAlgebra | None = None,
) -> dict[Coloring, QLaurent]:
    """Level-``n`` evaluation table computed through the cycle algebra."""
    ca = cycle_algebra or CycleAlgebra(d)
    flag_side = ca.mu(pochhammer_N(ca, n))
    table: dict[Coloring, QLaurent] = {}
    for exps, coeff in flag_side.terms.items():
        coloring = ca.flag_algebra.flow_of_monomial(exps)
        assert coloring is not None, "cycle-algebra product produced a non-flow monomial"
        table[coloring] = table.get(coloring, QLaurent.zero()) + coeff
    return {coloring: value for coloring, value in table.items() if value}
