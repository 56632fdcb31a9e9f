"""State-sum evaluation of colored MOY graphs.

Fix a level ``N``.  The ``N`` strand labels are the half-integers
``-(N-1)/2, ..., (N-1)/2``; internally they are doubled so that everything
stays an integer.  A *state* assigns one cycle of the diagram to each
label.  A state contributes the monomial ``v**E`` where

    E = 2 * sum_labels (doubled label) * rot(assigned cycle)
        + sum_vertices (R - L),

and at a vertex ``L`` counts pairs of labels ``(s, t)`` with ``s`` on the
left flag, ``t`` on the right flag and ``s > t``, while ``R`` counts those
with ``s < t``.  Summing over all states whose accumulated edge/circle
multiplicities match a given coloring yields the evaluation of that
colored diagram; it is always a Laurent polynomial in ``v**2``, i.e. in
half-integer powers of ``q``.

``eval_table`` and ``moy_eval`` add the labels in ascending order and keep,
for each partial coloring, the exponents reached so far.  Label ``s`` is
larger than every earlier label, so joining cycle ``C`` shifts the exponent
by ``2 s rot(C)``, plus the current color of the ``l`` edge at each vertex
where ``C`` holds ``r`` (new ``R`` pairs), minus the current color of the
``r`` edge at each vertex where ``C`` holds ``l`` (new ``L`` pairs).
``moy_eval`` drops partial colorings that already exceed its target.

Both run that programme once per connected component of the diagram (a
free circle is a component of its own) and multiply the parts.  The
evaluation of a split diagram is the product of its components'
evaluations, state by state:

* a cycle of a split diagram is a union of vertex-disjoint circuits, each
  lying in one component, so it is exactly a tuple of component cycles,
  one per component (empty ones included), and a state is one state per
  component;
* ``rot`` adds over the circuits of a cycle, so the label term
  ``2 * sum s * rot`` is the sum of the components' label terms;
* each vertex term is read at one vertex, from the labels of the cycles
  holding its flags, all of which lie in that vertex's component;
* the colorings of different components sit on disjoint slots, so a
  coloring is a tuple of component colorings, and the colors of one slot
  count the labels of one component only.

So a coloring's exponent counts are the convolution of its components'
counts.  ``eval_table`` joins the components' slot vectors and convolves
their counts; ``moy_eval`` restricts its target to each component's slots
and multiplies the parts, stopping at the first part no state reaches.
``eval_table_alt`` is the reference: it lists all (cycles)**N states of the
whole diagram and uses the equivalent vertex exponent
``|left| * |right| - 2L``, equal because no label can sit on both flags of
one vertex.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Iterator, Sequence

from .cycles import Cycle, CycleSet, _cycle_set_of, _unions
from .diagram import Coloring, DiagramError, Flag, PlanarDiagram, validate_coloring
from .qexact import QLaurent

__all__ = [
    "doubled_labels",
    "moy_eval",
    "moy_eval_alt",
    "classical_eval",
    "eval_table",
    "eval_table_alt",
]


def doubled_labels(n: int) -> list[int]:
    """Twice the strand labels at level ``n``: ``[-(n-1), -(n-3), ..., n-1]``."""
    return [2 * i - (n - 1) for i in range(n)]


def _parts(d: PlanarDiagram, cycle_set: CycleSet | None) -> Iterator[tuple[list[int], tuple[Cycle, ...]]]:
    """The connected components of ``d``, each as its slots in slot order
    and its cycles.

    Vertices joined by an edge share a component (union-find), and each
    free circle is a component alone.  A component owns the slots of its
    edges and circles, and its cycles are the unions of its circuits.
    """
    root = {v.id: v.id for v in d.vertices}

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    for e in d.edges:
        root[find(e.tail.vertex)] = find(e.head.vertex)
    groups: dict[tuple, tuple[list[int], list]] = {}
    for e in d.edges:
        groups.setdefault(("vertex", find(e.tail.vertex)), ([], []))[0].append(d.edge_slot[e.id])
    for c in d.circles:
        groups[("circle", c.id)] = ([d.circle_slot[c.id]], [])
    for circuit in _cycle_set_of(d, cycle_set).circuits:
        if circuit.circle_id is None:
            key = ("vertex", find(d.edge_by_id[circuit.edge_ids[0]].tail.vertex))
        else:
            key = ("circle", circuit.circle_id)
        groups[key][1].append(circuit)
    for slots, circuits in groups.values():
        yield slots, _unions(circuits)


def _programme(
    d: PlanarDiagram,
    cycles: Sequence[Cycle],
    slots: Sequence[int],
    n: int,
    cap: Sequence[int] | None = None,
) -> dict[tuple[int, ...], dict[int, int]]:
    """Exponent counts of the colorings that states over ``cycles`` realize
    at level ``n``, keyed by their colors on ``slots`` (diagram slots, see
    ``PlanarDiagram``), which must hold every edge and circle of the cycles.

    With a ``cap`` of colors on ``slots``, only colorings that exceed it in
    no slot are kept.
    """
    index = {slot: i for i, slot in enumerate(slots)}

    def at(vertex: int, role: str) -> int:
        return index[d.edge_slot[d.edge_at(Flag(vertex, role)).id]]

    moves = [
        (
            cycle.rot,
            [index[slot] for slot in d.slots(cycle.edge_ids, cycle.circle_ids)],
            [at(v, "l") for v in cycle.right_at],
            [at(v, "r") for v in cycle.left_at],
        )
        for cycle in cycles
    ]
    layer = {(0,) * len(slots): {0: 1}}
    for s in doubled_labels(n):
        grown: dict[tuple[int, ...], dict[int, int]] = {}
        for coloring, counts in layer.items():
            for rot, held, plus, minus in moves:
                if cap is not None and any(coloring[i] >= cap[i] for i in held):
                    continue
                shift = 2 * s * rot + sum(coloring[i] for i in plus) - sum(coloring[i] for i in minus)
                key = list(coloring)
                for i in held:
                    key[i] += 1
                bucket = grown.setdefault(tuple(key), {})
                for exponent, count in counts.items():
                    bucket[exponent + shift] = bucket.get(exponent + shift, 0) + count
        layer = grown
    return layer


def _convolve(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """The exponent counts of the products of a state counted in ``a`` and one in ``b``."""
    out: dict[int, int] = {}
    get = out.get
    terms = b.items()
    for e1, c1 in a.items():
        for e2, c2 in terms:
            key = e1 + e2
            out[key] = get(key, 0) + c1 * c2
    return out


def eval_table(
    d: PlanarDiagram,
    n: int,
    *,
    cycle_set: CycleSet | None = None,
) -> dict[Coloring, QLaurent]:
    """Evaluations of all colorings realized at level ``n``, by state sum,
    one programme per connected component.

    A row's key joins its components' colors in component order; ``where``
    reads them back in slot order.
    """
    rows: dict[tuple[int, ...], dict[int, int]] = {(): {0: 1}}
    order: list[int] = []
    for slots, cycles in _parts(d, cycle_set):
        layer = _programme(d, cycles, slots, n)
        if order:
            rows = {key + tail: _convolve(counts, more) for key, counts in rows.items() for tail, more in layer.items()}
        else:
            rows = layer
        order += slots
    where = sorted(range(len(order)), key=order.__getitem__)
    return {d.coloring_of([key[i] for i in where]): QLaurent(counts) for key, counts in rows.items()}


def _require_flow(d: PlanarDiagram, coloring: Coloring) -> None:
    violations = validate_coloring(d, coloring)
    if violations:
        where = ", ".join(
            f"vertex {v.vertex} ({v.side_sum} != {v.middle})" for v in violations
        )
        raise DiagramError(f"coloring violates flow conservation at {where}")


def moy_eval(
    d: PlanarDiagram,
    coloring: Coloring,
    n: int,
    *,
    cycle_set: CycleSet | None = None,
) -> QLaurent:
    """Evaluate one colored diagram at level ``n``.

    The coloring must satisfy flow conservation; violations raise
    ``DiagramError``.  Conserved colorings that no state realizes (for
    instance colors larger than ``n``) evaluate to zero.
    """
    _require_flow(d, coloring)
    cap = [0] * d.slot_count
    for e, k in coloring.edges:
        cap[d.edge_slot[e]] = k
    for c, k in coloring.circles:
        cap[d.circle_slot[c]] = k
    counts = {0: 1}
    for slots, cycles in _parts(d, cycle_set):
        target = tuple([cap[slot] for slot in slots])
        part = _programme(d, cycles, slots, n, target).get(target)
        if part is None:
            return QLaurent.zero()
        counts = _convolve(counts, part)
    return QLaurent(counts)


def eval_table_alt(
    d: PlanarDiagram,
    n: int,
    *,
    cycle_set: CycleSet | None = None,
) -> dict[Coloring, QLaurent]:
    """The level-``n`` table by listing every state, with the vertex
    exponent ``|l||r| - 2L``; the reference for ``eval_table``.

    Each vertex keeps two label lists, for its ``l`` and ``r`` flags,
    reused from state to state, and each cycle lists once the label lists
    of the flags it holds and the vertices it passes.  A state appends its
    labels to the lists of its cycles' flags, then visits the vertices its
    cycles pass: only those with labels on both sides add to the exponent,
    and each is emptied for the next state.  A state's coloring depends
    only on the multiset of its cycles, so each multiset's coloring is
    built once, through the validating ``Coloring`` constructor, and the
    multiset keeps the coloring's exponent counts.
    """
    cycles = _cycle_set_of(d, cycle_set).cycles
    at = {v.id: ([], []) for v in d.vertices}
    flags = [[at[v][0] for v in cycle.left_at] + [at[v][1] for v in cycle.right_at] for cycle in cycles]
    passed = [[at[v] for v in cycle.left_at | cycle.right_at] for cycle in cycles]
    rots = [cycle.rot for cycle in cycles]
    labels = doubled_labels(n)
    buckets: dict[tuple[int, ...], dict[int, int]] = {}
    table: dict[Coloring, dict[int, int]] = {}
    for indices in itertools.product(range(len(cycles)), repeat=n):
        exponent = 0
        for s, i in zip(labels, indices):
            exponent += 2 * s * rots[i]
            for held in flags[i]:
                held.append(s)
        for i in indices:
            for left, right in passed[i]:
                if left and right:
                    exponent += len(left) * len(right) - 2 * sum(1 for s in left for t in right if s > t)
                left.clear()
                right.clear()
        multiset = tuple(sorted(indices))
        bucket = buckets.get(multiset)
        if bucket is None:
            state = [cycles[i] for i in indices]
            coloring = Coloring(
                edges=Counter(e for cycle in state for e in cycle.edge_ids),
                circles=Counter(c for cycle in state for c in cycle.circle_ids),
            )
            bucket = buckets[multiset] = table.setdefault(coloring, {})
        bucket[exponent] = bucket.get(exponent, 0) + 1
    return {coloring: QLaurent(counts) for coloring, counts in table.items()}


def moy_eval_alt(
    d: PlanarDiagram,
    coloring: Coloring,
    n: int,
    *,
    cycle_set: CycleSet | None = None,
) -> QLaurent:
    """``moy_eval`` read from the reference ``eval_table_alt``."""
    _require_flow(d, coloring)
    return eval_table_alt(d, n, cycle_set=cycle_set).get(coloring, QLaurent.zero())


def classical_eval(d: PlanarDiagram, coloring: Coloring, n: int, *, cycle_set: CycleSet | None = None) -> int:
    """The number of states realizing a coloring (the ``q = 1`` evaluation)."""
    return moy_eval(d, coloring, n, cycle_set=cycle_set).evaluate_one()
