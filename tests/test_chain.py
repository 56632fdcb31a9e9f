"""A connected, skewed, positive family: chains of stacked bigons.

``chain(k)`` has ``k`` split/merge bigons stacked on ``x = 0``: split ``i``
at ``(0, 4i)``, merge ``i`` at ``(0, 4i + 2)``, a straight ``l`` edge and
an ``r`` edge bending right through ``(1, 4i + 1)``.  The ``m`` edges join
merge ``i`` to split ``i + 1``, and one return edge runs from the top
merge to split 0 through ``(-3, 4k - 1)`` and ``(-3, -1)``.  It is valid
and positive, with ``2**k + 1`` cycles, each nonempty one a single circuit
of rotation +1 that picks ``l`` or ``r`` in every bigon.

Edge ids: ``l_i = 3i``, ``r_i = 3i + 1``, ``m_i = 3i + 2`` for ``i < k - 1``,
and the return edge is ``3k - 1``.
"""

import itertools

import pytest

from moyeval.cycles import CycleSet
from moyeval.diagram import Coloring, PlanarDiagram
from moyeval.genseries import generating_series_N
from moyeval.homfly import check_fphi, homfly_series
from moyeval.qexact import qbinom
from moyeval.statesum import eval_table

SIZES = (1, 2, 3)


def chain(k):
    vertices, edges = [], []
    for i in range(k):
        vertices += [{"id": 2 * i, "kind": "split", "position": [0, 4 * i]},
                     {"id": 2 * i + 1, "kind": "merge", "position": [0, 4 * i + 2]}]
        edges += [{"id": 3 * i, "tail": [2 * i, "l"], "head": [2 * i + 1, "l"]},
                  {"id": 3 * i + 1, "tail": [2 * i, "r"], "head": [2 * i + 1, "r"],
                   "waypoints": [[1, 4 * i + 1]]}]
        if i + 1 < k:
            edges.append({"id": 3 * i + 2, "tail": [2 * i + 1, "m"], "head": [2 * i + 2, "m"]})
    edges.append({"id": 3 * k - 1, "tail": [2 * k - 1, "m"], "head": [0, "m"],
                  "waypoints": [[-3, 4 * k - 1], [-3, -1]]})
    return PlanarDiagram(vertices, edges)


def flows(k, n):
    """Every flow coloring with return color at most ``n``: the return
    color ``c`` on every ``m`` edge, split as ``l_i + r_i = c`` in each bigon."""
    out = []
    for c in range(n + 1):
        for lefts in itertools.product(range(c + 1), repeat=k):
            edges = {3 * k - 1: c}
            for i, left in enumerate(lefts):
                edges.update({3 * i: left, 3 * i + 1: c - left})
                if i + 1 < k:
                    edges[3 * i + 2] = c
            out.append(Coloring(edges))
    return out


@pytest.mark.parametrize("k", SIZES)
def test_chain_is_positive_and_skewed(k):
    cs = CycleSet(chain(k))
    assert len(cs) == 2**k + 1 and cs.is_positive
    assert all(c.rot == 1 for c in cs.cycles[1:])
    assert any(any(row) for row in cs.pairing_rows())


@pytest.mark.parametrize("k", SIZES)
def test_digon_removal(k):
    # removing the k digons one by one: E(c) = [N, c] * prod_i [c, c_{l_i}]
    d = chain(k)
    for n in (1, 2, 3):
        table = eval_table(d, n)
        assert set(table) == set(flows(k, n)), (k, n)
        for coloring, value in table.items():
            colors = dict(coloring.edges)
            c = colors.get(3 * k - 1, 0)
            expected = qbinom(n, c)
            for i in range(k):
                expected = expected * qbinom(c, colors.get(3 * i, 0))
            assert value == expected, (k, n, coloring)


@pytest.mark.parametrize("k", SIZES)
def test_twisted_product_equals_the_state_sum(k):
    d = chain(k)
    assert generating_series_N(d, 3) == eval_table(d, 3)


@pytest.mark.parametrize("k", SIZES)
def test_defining_equation_on_chains(k):
    report = check_fphi(homfly_series(chain(k), 3, 12))
    assert report.ok, report.detail
    assert f"headroom {8 * k} over 12" in report.detail
