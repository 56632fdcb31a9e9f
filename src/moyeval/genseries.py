"""Cycle-polynomial generating series for colored diagram evaluations.

The *cycle polynomial* of a diagram is the element

    Phi = sum_{cycles C} v**(2 rot C) * b**(-2 rot C) * x_C

of the cycle algebra (the empty cycle contributes the constant term 1).
Twisting by ``k`` multiplies the ``x_C`` coefficient by ``v**(4 k rot C)``.
The level-``n`` evaluation table of the diagram is recovered as a finite
twisted product: substitute ``a = q**n``, multiply the twists ``k = 0`` to
``n - 1`` in ascending order, each a linear factor ``1 + sum_C c_C x_C``
multiplied in by ``torus_mul``, and read the coefficient of each flow off
the image of the result (``CycleAlgebra.flow_table``, which sums the
cycles' color slots where ``mu`` sums their flag variables).  The
``q = 1`` shadow of the same structure is a plain convolution power of
the cycle indicator polynomial, which just counts states; it is computed
on the diagram's color-slot vectors, apart from the state sum, so the two
stay independent routes to the same counts.
"""

from __future__ import annotations

from operator import add

from .cycles import CycleSet, _cycle_set_of
from .diagram import Coloring, PlanarDiagram
from .qexact import QLaurent
from .qtorus import CycleAlgebra, TorusElement, torus_mul

__all__ = [
    "classical_series",
    "pochhammer_N",
    "generating_series_N",
]


def classical_series(d: PlanarDiagram, n: int, *, cycle_set: CycleSet | None = None) -> dict[Coloring, int]:
    """The ``n``-fold convolution power of the classical cycle polynomial.

    The coefficient of a coloring counts the level-``n`` states realizing
    it, so this table matches the ``q = 1`` state-sum evaluations.
    """
    if n < 0:
        raise ValueError("classical series are defined for n >= 0")
    held = [set(d.slots(c.edge_ids, c.circle_ids)) for c in _cycle_set_of(d, cycle_set)]
    base = [[int(i in h) for i in range(d.slot_count)] for h in held]
    table = {(0,) * d.slot_count: 1}
    for _ in range(n):
        new: dict[tuple[int, ...], int] = {}
        for key, count in table.items():
            for indicator in base:
                combined = tuple(map(add, key, indicator))
                new[combined] = new.get(combined, 0) + count
        table = new
    return {d.coloring_of(key): count for key, count in table.items()}


def pochhammer_N(ca: CycleAlgebra, n: int) -> TorusElement:
    """The finite twisted product at level ``n``, with ``a = q**n`` applied.

    Multiplies the twists ``k = 0, ..., n-1`` of the cycle polynomial in
    ascending order, each built as the element ``1 + sum_t c_t x_t`` and
    multiplied in by ``torus_mul``, the kernel every torus product runs;
    coefficients are plain ``QLaurent`` since ``a`` has been substituted.
    """
    if n < 0:
        raise ValueError("finite twisted products are defined for n >= 0")
    acc = TorusElement(ca.signature, {(): QLaurent.one()})
    for k in range(n):
        twist = {(t,): QLaurent.monomial((2 + 4 * k - 2 * n) * rot) for t, rot in enumerate(ca.rots)}
        acc = torus_mul(acc, TorusElement(ca.signature, {(): QLaurent.one(), **twist}))
    return acc


def generating_series_N(
    d: PlanarDiagram,
    n: int,
    *,
    cycle_algebra: CycleAlgebra | None = None,
) -> dict[Coloring, QLaurent]:
    """Level-``n`` evaluation table computed through the cycle algebra."""
    ca = cycle_algebra or CycleAlgebra(d)
    _cycle_set_of(d, ca.cycle_set)  # refuses an algebra built for another diagram
    return ca.flow_table(pochhammer_N(ca, n))
