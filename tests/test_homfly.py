"""Truncated HOMFLY generating series and its consistency checks."""

import itertools
import json
import random

import pytest

import moyeval.homfly
import moyeval.qtorus
from moyeval.diagram import Coloring, DiagramError, builtin, parse_diagram
from moyeval.genseries import pochhammer_N
from moyeval.homfly import (
    TruncatedTorusSeries,
    check_fphi,
    check_shift,
    homfly_series,
    series_invert,
    specialization_check,
    specialize_to_N,
)
from moyeval.qexact import QLaurent, TruncatedRSeries, qbinom
from moyeval.qtorus import CycleAlgebra, TorusElement, TorusSignature, _mul_linear, torus_mul
from moyeval.statesum import eval_table
from test_chain import chain
from test_cycles import thetas
from test_qtorus import fold_image, linear_element
from test_statesum import TWO_THETAS


def unknot_algebra():
    return CycleAlgebra(builtin("unknot"))


def tts(ca, x_degree, q_order, coeffs):
    """Series with the given {exps: {(v, b): int}} coefficient table."""
    element = TorusElement(ca.signature, {ca.signature.key(exps): TruncatedRSeries(q_order, terms)
                                          for exps, terms in coeffs.items()})
    return TruncatedTorusSeries(x_degree, q_order, element)


def random_series(rng, ca, x_degree, q_order, count, v_low=0, unit=False):
    """``count`` random terms of x-degree <= ``x_degree``, constant term 1 if ``unit``."""
    k = len(ca.signature)
    coeffs = {}
    for _ in range(count):
        exps = [0] * k
        for _ in range(rng.randrange(1 if unit else 0, x_degree + 1)):
            exps[rng.randrange(k)] += 1
        for _ in range(2):
            key = (rng.randrange(v_low, q_order + 1), rng.randrange(-2, 3))
            coeffs.setdefault(tuple(exps), {})[key] = rng.randrange(-3, 4)
    if unit:
        coeffs[(0,) * k] = {(0, 0): 1}
    return tts(ca, x_degree, q_order, coeffs)


def uncapped_product(a, b):
    """Reference product: every pair of the torus product, then drop x-degree > D."""
    return TruncatedTorusSeries(a.x_degree, a.q_order, a.element * b.element)


def linear_by_product(x, coeffs):
    """Reference linear kernel: ``torus_mul`` against the explicit factor."""
    one = TruncatedRSeries.one(next(iter(x.terms.values())).q_order)
    return torus_mul(x, linear_element(x.signature, one, coeffs))


def factor_product(ca, e_v, e_b, x_degree, q_order, linear=_mul_linear):
    """Reference infinite product: the twist factors ``k = 0, 1, ...`` multiplied
    out one by one, dropping x-degree above the bound after each.  With every
    rotation at least 1 the factors past ``k = (q_order - e_v) // 4`` are 1
    modulo the bound."""
    one = TruncatedTorusSeries.one(ca, x_degree, q_order)
    acc = one.element
    for k in range(max(0, (q_order - e_v) // 4 + 1)):
        coeffs = [TruncatedRSeries.monomial(q_order, (e_v + 4 * k) * rot, e_b * rot) for rot in ca.rots]
        acc = TruncatedTorusSeries(x_degree, q_order, linear(acc, coeffs)).element
    return one._like(acc.terms)


def neumann_invert(s):
    """Reference inverse: ``sum_k (1 - s)**k`` by ``x_degree`` uncapped products."""
    signature = s.element.signature
    one = TruncatedTorusSeries(s.x_degree, s.q_order, TorusElement(
        signature, {(): TruncatedRSeries.one(s.q_order)}))
    rest, out = one - s, one
    for _ in range(s.x_degree):
        out = one + uncapped_product(rest, out)
    return out


# -- the truncated series ring ------------------------------------------------


def test_series_construction_enforces_bounds():
    ca = unknot_algebra()
    el = TorusElement(ca.signature, {(): TruncatedRSeries.one(4)})
    with pytest.raises(ValueError, match="coefficient bound 4 does not match series bound 8"):
        TruncatedTorusSeries(2, 8, el)
    # terms beyond the x-degree bound are dropped on construction
    s = tts(ca, 1, 8, {(0,): {(0, 0): 1}, (2,): {(0, 0): 5}})
    assert s.coefficient((2,)) == TruncatedRSeries.zero(8)
    assert s.constant_term() == TruncatedRSeries.one(8)


def test_series_arithmetic_and_bound_mismatches():
    ca = unknot_algebra()
    one = TruncatedTorusSeries.one(ca, 2, 8)
    x = tts(ca, 2, 8, {(1,): {(0, 0): 1}})
    s = one + x
    assert (s - x) == one
    assert (s * s).coefficient((1,)) == TruncatedRSeries(8, {(0, 0): 2})
    assert (s * s).coefficient((2,)) == TruncatedRSeries.one(8)
    shifted = TruncatedTorusSeries(2, 8, TorusElement(
        ca.signature, {(): TruncatedRSeries.monomial(8, 2, 0)}))
    assert shifted.constant_term() == TruncatedRSeries(8, {(2, 0): 1})
    with pytest.raises(ValueError, match="x-degree bound mismatch"):
        one * TruncatedTorusSeries.one(ca, 3, 8)
    with pytest.raises(ValueError, match="truncation bound mismatch"):
        one * TruncatedTorusSeries.one(ca, 2, 12)
    with pytest.raises(ValueError, match="different signatures"):
        one * TruncatedTorusSeries.one(CycleAlgebra(builtin("theta")), 2, 8)
    # a series refuses a raised bound itself, so one without terms does too
    for series in (one, TruncatedTorusSeries(2, 8, TorusElement(ca.signature))):
        with pytest.raises(ValueError, match=r"cannot raise a truncation bound \(8 -> 12\)"):
            series.retruncate(12)
        assert series.retruncate(6).q_order == 6
    # products file terms by x-degree, and keys hold no negative exponent
    with pytest.raises(ValueError, match="negative entry"):
        tts(ca, 2, 8, {(-1,): {(0, 0): 1}})


def test_coefficient_refuses_an_exponent_vector_of_the_wrong_length():
    # theta has two cycle variables; (1,) once read as a missing monomial
    s = homfly_series(builtin("theta"), 2, 8).series
    assert s.coefficient((1, 0)) != TruncatedRSeries.zero(8)
    for exps in ((1,), (1, 0, 0)):
        with pytest.raises(ValueError, match="not one per variable"):
            s.coefficient(exps)


def test_coefficient_refuses_a_negative_exponent():
    s = homfly_series(builtin("theta"), 2, 8).series
    with pytest.raises(ValueError, match="negative entry"):
        s.coefficient((2, -1))


def test_series_invert_geometric():
    ca = unknot_algebra()
    s = tts(ca, 3, 8, {(0,): {(0, 0): 1}, (1,): {(0, 0): 1}})
    inv = series_invert(s)
    for k, sign in enumerate((1, -1, 1, -1)):
        assert inv.coefficient((k,)) == TruncatedRSeries(8, {(0, 0): sign})
    assert s * inv == TruncatedTorusSeries.one(ca, 3, 8)
    assert inv * s == TruncatedTorusSeries.one(ca, 3, 8)


def test_graded_product_equals_the_uncapped_product():
    ca = CycleAlgebra(parse_diagram(TWO_THETAS))  # 8 variables, skewed in pairs
    rng = random.Random(5309)
    for x_degree in (2, 3, 4):
        for _ in range(4):
            a = random_series(rng, ca, x_degree, 8, 12, v_low=-4)
            b = random_series(rng, ca, x_degree, 8, 12, v_low=-4)
            assert a * b == uncapped_product(a, b)
            assert b * a == uncapped_product(b, a)


def test_products_form_no_pair_above_the_degree_bound(monkeypatch):
    # the series products normal-order each pair through _mul_exps, and
    # must form only those of degree sum <= 3.  Each coefficient product
    # multiplies only the pairs that land within its bound, and none is
    # made with an empty coefficient.  The q-difference solves (the two
    # infinite products and G) offer a coefficient product only when it
    # forms a pair, so every raw map they divide holds one.  On the
    # benchmark's circles3 job no product settles a map without a pair (one
    # whose pairs cancel is no waste of this kind); multiplying out the
    # twist factors once left 608 of 2,370.
    theta = builtin("theta")
    signature = CycleAlgebra(theta).signature
    degree_sums = []
    original = moyeval.qtorus._mul_exps

    def recording(sig, ea, eb):
        if sig == signature:  # not the flag side of mu
            degree_sums.append(len(ea) + len(eb))
        return original(sig, ea, eb)

    made = [0]

    class Counted(int):
        def __mul__(self, other):
            made[0] += 1
            return int(self) * other

    coefficient_products = []  # per call: (multiplications made, pairs within the bound, bound, in a solve)
    addmul = TruncatedRSeries._addmul
    solving = [False]

    def counting(self, dest, other, shift):
        q_order, bound, rows = other
        assert rows, "a coefficient product with an empty coefficient"
        top = min(q_order, bound - shift)
        within = sum(1 for v1, _ in self.terms for v2, _, _ in rows if v1 + v2 <= top)
        before = made[0]
        addmul(self._like({key: Counted(c) for key, c in self.terms.items()}), dest, other, shift)
        coefficient_products.append((made[0] - before, within, bound, solving[0]))

    solve, untwist = moyeval.homfly._solve_twisted, moyeval.homfly._untwist
    divided = []

    def recording_solve(*args):
        solving[0] = True
        try:
            return solve(*args)
        finally:
            solving[0] = False

    def recording_untwist(raw, step, bound):
        divided.append(len(raw))
        return untwist(raw, step, bound)

    settled = []
    settle = moyeval.qtorus._settle

    def recording_settle(acc, terms):
        settled.extend(len(raw) for raw in acc.values())
        return settle(acc, terms)

    monkeypatch.setattr(moyeval.homfly, "_settle", recording_settle)
    monkeypatch.setattr(moyeval.qtorus, "_settle", recording_settle)
    monkeypatch.setattr(moyeval.qtorus, "_mul_exps", recording)
    monkeypatch.setattr(TruncatedRSeries, "_addmul", counting)
    monkeypatch.setattr(moyeval.homfly, "_solve_twisted", recording_solve)
    monkeypatch.setattr(moyeval.homfly, "_untwist", recording_untwist)
    assert check_fphi(homfly_series(theta, 3, 8)).ok
    assert degree_sums and max(degree_sums) == 3
    # the benchmark's theta job, whose check forms its product at the
    # target bound; then three circles, whose cycles of rotation 2 and 3
    # carry first-factor coefficients past a small bound, and the
    # benchmark's circles3 job
    coefficient_products.clear()
    hs = homfly_series(theta, 5, 36)
    in_series = len(coefficient_products)
    assert check_fphi(hs).ok
    bounds = [bound for _, _, bound, _ in coefficient_products]
    assert set(bounds[:in_series]) == {hs.poch_a.q_order} and set(bounds[in_series:]) == {36}
    assert check_fphi(homfly_series(circles(3), 2, 4)).ok
    settled.clear()
    assert check_fphi(homfly_series(circles(3), 4, 24)).ok
    assert all(made == within for made, within, _, _ in coefficient_products)
    solve_pairs = [made for made, _, _, solve in coefficient_products if solve]
    assert solve_pairs and min(solve_pairs) > 0
    assert sum(made for made, _, _, solve in coefficient_products if not solve) > 0
    assert divided and min(divided) > 0
    assert settled and min(settled) > 0


def circles(k):
    """``k`` counterclockwise unit circles side by side: zero skew, rotations up to ``k``."""
    return parse_diagram(json.dumps({"circles": [
        {"id": i, "center": [4 * i, 0], "radius": 1, "orientation": "ccw"} for i in range(k)]}))


def pairwise_product(x, y, bound):
    """``(x * y).retruncate(bound)`` pair by pair, as ``{key: {(v, b): coeff}}``:
    a coefficient pair is kept when ``v1 + v2`` is within the common bound
    and ``v1 + v2 + shift`` within ``bound``."""
    out = {}
    for ea, ca in x.terms.items():
        for eb, cb in y.terms.items():
            if len(ea) + len(eb) > x.x_degree:
                continue
            shift, key = moyeval.qtorus._mul_exps(x.element.signature, ea, eb)
            raw = out.setdefault(key, {})
            for (v1, b1), c1 in ca.terms.items():
                for (v2, b2), c2 in cb.terms.items():
                    if v1 + v2 <= x.q_order and v1 + v2 + shift <= bound:
                        term = (v1 + v2 + shift, b1 + b2)
                        raw[term] = raw.get(term, 0) + c1 * c2
    out = {key: {term: c for term, c in raw.items() if c} for key, raw in out.items()}
    return {key: raw for key, raw in out.items() if raw}


def test_target_bound_products_equal_the_truncated_product():
    # _product(x, y, Q) forms only the pairs that land within Q.  On seeded
    # unit series at the work bound W = Q + M it equals (x * y).retruncate(Q)
    # and the pair-by-pair oracle, every coefficient at bound Q; and, as the
    # lemma in _headroom says, no pair of x-degree sum <= D shifts by less
    # than -M, so the work bound never cuts a pair that lands within Q
    diagrams = [builtin("theta"), builtin("unknot"), thetas(2), circles(2), circles(3)]
    diagrams += [chain(k) for k in (1, 2, 3)]
    rng = random.Random(6151)
    shifts = set()
    for d in diagrams:
        ca = CycleAlgebra(d)
        for x_degree, q_order in ((2, 4), (3, 8), (4, 12)):
            margin, _ = moyeval.homfly._headroom(ca, x_degree)
            work = q_order + margin
            for _ in range(2):
                x, y = (random_series(rng, ca, x_degree, work, 8, v_low=-4, unit=True) for _ in range(2))
                for ea in x.terms:
                    for eb in y.terms:
                        if len(ea) + len(eb) <= x_degree:
                            shift, _ = moyeval.qtorus._mul_exps(ca.signature, ea, eb)
                            assert shift >= -margin, (ea, eb)
                            shifts.add(shift)
                target = moyeval.homfly._product(x, y, q_order)
                assert target.q_order == q_order
                assert all(coeff.q_order == q_order for coeff in target.terms.values())
                assert target == (x * y).retruncate(q_order)
                assert {key: c.terms for key, c in target.terms.items()} == pairwise_product(x, y, q_order)
                assert {key: c.terms for key, c in (x * y).terms.items()} == pairwise_product(x, y, work)
    assert min(shifts) < 0 < max(shifts)


class CountingRows(list):
    """Operand rows that count the scans opened over them."""

    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


def test_the_coefficient_kernel_scans_only_what_can_land():
    # the sorted rows stop each scan at the room v1 leaves, and a term with
    # no room for the lowest v2 opens no scan at all
    rng = random.Random(3301)
    for _ in range(300):
        q_order = rng.randrange(0, 12)
        bound, shift = rng.randrange(q_order - 6, q_order + 1), rng.randrange(-6, 7)

        def rseries():
            return TruncatedRSeries(q_order, {
                (rng.randrange(-4, q_order + 1), rng.randrange(-2, 3)): rng.randrange(-3, 4)
                for _ in range(rng.randrange(0, 6))})

        a, b = rseries(), rseries()
        _, _, rows = b._operand(bound)
        counted = CountingRows(rows)
        dest = {}
        a._addmul(dest, (q_order, bound, counted), shift)
        top = min(q_order, bound - shift)
        expected = {}
        for (v1, b1), c1 in a.terms.items():
            for (v2, b2), c2 in b.terms.items():
                if v1 + v2 <= top:
                    term = (v1 + v2 + shift, b1 + b2)
                    expected[term] = expected.get(term, 0) + c1 * c2
        assert dest == expected
        assert counted.scans == sum(1 for v1, _ in a.terms if rows and top - v1 >= rows[0][0])


def test_series_invert_random_units():
    # theta at x-degree 2: the inverse is two-sided at the bound itself
    ca = CycleAlgebra(builtin("theta"))
    rng = random.Random(4207)
    one = TruncatedTorusSeries.one(ca, 2, 6)
    for _ in range(10):
        coeffs = {(0, 0): {(0, 0): 1}}
        for _ in range(4):
            exps = (rng.randrange(0, 3), rng.randrange(0, 3))
            if exps == (0, 0):
                continue
            coeffs.setdefault(exps, {})[(rng.randrange(0, 7), rng.randrange(-2, 3))] = \
                rng.randrange(-3, 4)
        s = tts(ca, 2, 6, coeffs)
        inv = series_invert(s)
        assert s * inv == one and inv * s == one
    # Higher degrees on two thetas: skew shifts can lower v-exponents, so
    # v-truncation is no ring quotient and each order of the identity can
    # break near the bound.  With the proven headroom above the target both
    # orders hold there, and the recursion is an exact left inverse.
    ca = CycleAlgebra(parse_diagram(TWO_THETAS))
    for x_degree in (3, 4):
        work = 6 + moyeval.homfly._headroom(ca, x_degree)[0]
        one = TruncatedTorusSeries.one(ca, x_degree, 6)
        for _ in range(8):
            s = random_series(rng, ca, x_degree, work, 6, unit=True)
            inv = series_invert(s)
            assert inv * s == TruncatedTorusSeries.one(ca, x_degree, work)
            assert (s * inv).retruncate(6) == one and (inv * s).retruncate(6) == one
            assert inv.retruncate(6) == neumann_invert(s).retruncate(6)


def test_series_invert_requires_unit_constant_term():
    ca = unknot_algebra()
    with pytest.raises(ValueError, match="constant term must be exactly 1"):
        series_invert(TruncatedTorusSeries(2, 8, TorusElement(ca.signature)))
    with pytest.raises(ValueError, match="constant term must be exactly 1"):
        series_invert(TruncatedTorusSeries(2, 8, TorusElement(
            ca.signature, {(): TruncatedRSeries.monomial(8, 2, 0)})))


def assert_clean(value):
    """No stored coefficient is falsy, no term lies above a v- or x-degree
    bound, and every monomial key is canonical: a sorted tuple of indices."""
    for key, coeff in value.terms.items():
        assert coeff, (type(value).__name__, key)
        if isinstance(value, TruncatedRSeries):
            assert key[0] <= value.q_order, (key, value.q_order)
        if isinstance(value, TruncatedTorusSeries):
            assert len(key) <= value.x_degree, (key, value.x_degree)
        if isinstance(value, (TorusElement, TruncatedTorusSeries)):
            n = len(getattr(value, "element", value).signature)
            assert type(key) is tuple and list(key) == sorted(key), key
            assert all(type(i) is int and 0 <= i < n for i in key), (key, n)
        if not isinstance(coeff, int):
            assert_clean(coeff)


def test_every_operation_keeps_terms_clean():
    # Random walks over the four containers: each step applies one operation
    # to values made so far and checks its result.  Small coefficients make
    # sums cancel, and times_v, shift_a and retruncate push truncated terms
    # over the bound, so a result that skipped its constructor's filter shows.
    rng = random.Random(7321)
    ca = CycleAlgebra(builtin("tetrahedron"))  # three cycles, skewed by +-4
    x_degree, q_order = 3, 8
    k = len(ca.signature)

    def laurent():
        return QLaurent({rng.randrange(-6, 7): rng.randrange(-2, 3) for _ in range(4)})

    def rseries():
        return TruncatedRSeries(q_order, {
            (rng.randrange(-4, q_order + 1), rng.randrange(-2, 3)): rng.randrange(-2, 3)
            for _ in range(4)})

    def element(coeff):
        return TorusElement(ca.signature, {
            tuple(sorted(rng.randrange(k) for _ in range(rng.randrange(4)))): coeff() for _ in range(4)})

    def invert(s):
        # set the constant term to 1, then invert
        constant = s.constant_term() - TruncatedRSeries.one(q_order)
        return series_invert(s - TruncatedTorusSeries(
            x_degree, q_order, TorusElement(ca.signature, {(): constant})))

    def linear(coeff):
        # the linear kernel of the finite twisted products
        return [lambda x, y: _mul_linear(x, [coeff() for _ in range(k)])]

    shared = [lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y,
              lambda x, y: -x, lambda x, y: x - x]
    # the linear kernel on the series' terms, cut to the x-degree bound by the constructor
    series_linear = [lambda x, y: TruncatedTorusSeries(
        x_degree, q_order, _mul_linear(x.element, [rseries() for _ in range(k)]))]
    times_v = [lambda x, y: x.times_v(rng.randrange(-4, q_order + 4))]
    shift_a = [lambda x, y: x.shift_a(rng.randrange(-q_order, q_order + 1))]
    retruncate = [lambda x: x.retruncate(rng.randrange(-2, q_order + 1))]
    # (start values, steps, finals): a final changes the bound or signature,
    # so its results are checked but not walked on
    walks = [
        ([laurent() for _ in range(3)], shared + times_v, []),
        ([rseries() for _ in range(3)], shared + times_v + shift_a, retruncate),
        ([element(laurent) for _ in range(3)], shared + times_v + linear(laurent), [ca.mu]),
        ([element(rseries) for _ in range(3)], shared + times_v + linear(rseries), [ca.mu]),
        ([random_series(rng, ca, x_degree, q_order, 5, v_low=-4) for _ in range(3)],
         shared + shift_a + series_linear, retruncate + [invert, lambda s: ca.mu(s.element)]),
    ]
    for values, steps, finals in walks:
        for _ in range(25):
            result = rng.choice(steps)(rng.choice(values), rng.choice(values))
            assert_clean(result)
            values.append(result)
        for final in finals:
            for value in values:
                assert_clean(final(value))


# -- infinite twisted products ------------------------------------------------


def test_pochhammer_inf_unknot_frozen():
    p = homfly_series(builtin("unknot"), 2, 8).poch_a.retruncate(8)
    assert dict(p.coefficient((0,)).terms) == {(0, 0): 1}
    assert dict(p.coefficient((1,)).terms) == {(2, -2): 1, (6, -2): 1}
    assert dict(p.coefficient((2,)).terms) == {(8, -4): 1}


def test_pochhammer_inf_b_exponent_signs():
    for name in ("unknot", "theta"):
        hs = homfly_series(builtin(name), 3, 8)
        for series, sign in ((hs.poch_a, -1), (hs.poch_ainv, 1)):
            for coeff in series.element.terms.values():
                assert all(sign * b >= 0 for _, b in coeff.terms)


# the slopes _poch_inf is called with: poch(a), poch(a^{-1}), and the
# q-inverse and tail products of check_shift
SLOPES = ((2, -2), (2, 2), (-2, -2), (6, 2))


def solve_cases():
    cases = [(builtin("unknot"), x, q) for x, q in ((1, 4), (3, 8), (4, 16))]
    cases += [(builtin("theta"), x, q) for x, q in ((2, 8), (3, 12), (4, 20))]
    cases += [(parse_diagram(TWO_THETAS), 2, 8), (parse_diagram(TWO_THETAS), 3, 12)]
    cases += [(chain(2), 2, 12), (chain(2), 3, 8), (chain(3), 2, 8), (chain(3), 3, 4)]
    cases += [(circles(k), x, q) for k, x, q in ((1, 3, 12), (2, 3, 8), (3, 2, 12), (3, 4, 4))]
    return cases


def test_the_solve_equals_the_factor_product_at_the_target_bound():
    # at every bound each slope is solved at (Q + M in homfly_series, and
    # Q + M_shift in check_shift for all four), the q-difference solve and
    # the factor-by-factor product agree on every term at the target bound
    for d, x_degree, q_order in solve_cases():
        ca = CycleAlgebra(d)
        margin, margin_shift = moyeval.homfly._headroom(ca, x_degree)
        for e_v, e_b in SLOPES:
            for work in {q_order + margin_shift} | ({q_order + margin} if e_v == 2 else set()):
                solved = moyeval.homfly._poch_inf(ca, e_v, e_b, x_degree, work)
                assert_clean(solved)
                assert (solved.x_degree, solved.q_order) == (x_degree, work)
                expected = factor_product(ca, e_v, e_b, x_degree, work).retruncate(q_order)
                assert solved.retruncate(q_order) == expected, (d, x_degree, q_order, e_v, e_b)


def _key_lam(skew, key):
    """``lam`` of ``_headroom`` on a key: ``max(0, -c(t, l))`` over its pairs of positions."""
    return sum(max(0, -skew[t][l]) for n, t in enumerate(key) for l in key[:n])


def test_the_solve_is_exact_where_the_headroom_proof_says():
    # the solve at W against the factor product at W + 60, which is exact
    # far above W: they agree on every term with e + lam(alpha) <= W - h,
    # and no solved term has e + lam(alpha) < -h, where h = 0 for e_v in
    # {2, 6} and h = 2R for e_v = -2 (the solve paragraph of _headroom).
    # Above W - h the two truncations differ, so the window is not vacuous.
    cases = [(builtin("unknot"), 4, 12), (builtin("theta"), 3, 16), (parse_diagram(TWO_THETAS), 3, 12),
             (chain(2), 3, 12), (chain(3), 2, 12), (circles(3), 3, 12)]
    differs = set()
    for d, x_degree, work in cases:
        ca = CycleAlgebra(d)
        skew, r_max = ca.signature.skew, max(ca.rots)
        for e_v, e_b in SLOPES:
            h = 2 * r_max if e_v < 0 else 0
            solved = moyeval.homfly._poch_inf(ca, e_v, e_b, x_degree, work)
            truth = factor_product(ca, e_v, e_b, x_degree, work + 60)
            for key in solved.terms.keys() | truth.terms.keys():
                lam = _key_lam(skew, key)
                mine, true = (s.terms[key].terms if key in s.terms else {} for s in (solved, truth))
                assert all(v + lam >= -h for v, _ in mine), (d, e_v, key)
                for term in mine.keys() | true.keys():
                    if term[0] + lam <= work - h:
                        assert mine.get(term, 0) == true.get(term, 0), (d, e_v, key, term)
                    elif term[0] <= work and mine.get(term, 0) != true.get(term, 0):
                        differs.add(e_v)
    assert differs == {-2, 2, 6}


def test_the_quotient_solve_is_exact_where_the_headroom_proof_says():
    # G solved at W against the reference quotient at W + 60, which is exact
    # far above W: they agree on every term with e + lam(alpha) <= W, no
    # solved term has e + lam(alpha) < 0 (G is 0-exact, the quotient
    # paragraph of _headroom), and above W the two truncations differ
    cases = [(builtin("unknot"), 4, 12), (builtin("theta"), 3, 16), (parse_diagram(TWO_THETAS), 3, 12),
             (chain(2), 3, 12), (chain(3), 2, 12), (circles(3), 3, 12)]
    differs = 0
    for d, x_degree, work in cases:
        ca = CycleAlgebra(d)
        solved = moyeval.homfly._poch_quotient(ca, x_degree, work)
        assert_clean(solved)
        assert (solved.x_degree, solved.q_order) == (x_degree, work)
        truth = reference_quotient(ca, x_degree, work + 60)
        for key in solved.terms.keys() | truth.terms.keys():
            lam = _key_lam(ca.signature.skew, key)
            mine, true = (s.terms[key].terms if key in s.terms else {} for s in (solved, truth))
            assert all(v + lam >= 0 for v, _ in mine), (d, key)
            for term in mine.keys() | true.keys():
                if term[0] + lam <= work:
                    assert mine.get(term, 0) == true.get(term, 0), (d, key, term)
                elif term[0] <= work and mine.get(term, 0) != true.get(term, 0):
                    differs += 1
    assert differs > 0


def test_a_flipped_right_push_fails_the_defining_equation(monkeypatch):
    # G pushes the right factor's coefficients with a minus sign; with a
    # plus sign the two products are unchanged (they have no right factor),
    # and check_fphi, which compares three independent solves, fails
    solve = moyeval.homfly._solve_twisted

    def flipped(ca, x_degree, q_order, left, right=()):
        return solve(ca, x_degree, q_order, left, [-c for c in right])

    for d, x_degree, q_order in ((builtin("theta"), 3, 8), (circles(3), 2, 8)):
        assert check_fphi(homfly_series(d, x_degree, q_order)).ok
        with monkeypatch.context() as m:
            m.setattr(moyeval.homfly, "_solve_twisted", flipped)
            report = check_fphi(homfly_series(d, x_degree, q_order))
        assert not report.ok and report.detail.startswith("residual has "), d


def closed_form(ca, x_degree, q_order):
    """``G = sum_{n <= D} g_n X**n`` on a diagram whose cycles all have rotation 1,
    at the target bound: ``X = sum_t x_t``, so every twist factor is
    ``1 + (scalar) X``, the factors commute, and the q-binomial theorem gives
    ``g_n = (-1)**n v**(2n) b**(2n) (b**-4; v**4)_n / (v**4; v**4)_n``.
    The powers of ``X`` are exact, over ``QLaurent``; each ``g_n`` is expanded
    as far as the lowest v-exponent of its power of ``X`` needs."""
    assert set(ca.rots) == {1}
    x = TorusElement(ca.signature, {(t,): QLaurent.one() for t in range(len(ca.rots))})
    power, terms = TorusElement(ca.signature, {(): QLaurent.one()}), {}
    for n in range(x_degree + 1):
        lowest = min(min(c.terms) for c in power.terms.values())
        bound = q_order - min(lowest, 0)
        g = TruncatedRSeries.monomial(bound, 2 * n, 2 * n, (-1) ** n)
        for k in range(n):
            g = g * TruncatedRSeries(bound, {(0, 0): 1, (4 * k, -4): -1})
            g = g * TruncatedRSeries(bound, {(4 * (k + 1) * j, 0): 1 for j in range(bound + 1)})
        for key, coeff in power.terms.items():
            row = (g * TruncatedRSeries(bound, {(v, 0): c for v, c in coeff.terms.items()})).retruncate(q_order)
            if row:
                terms[key] = row
        power = torus_mul(power, x)
    return TruncatedTorusSeries(x_degree, q_order, TorusElement(ca.signature, terms))


def test_the_series_equals_the_closed_form_on_uniform_diagrams():
    # on diagrams whose nonempty cycles all have rotation 1, the solved G,
    # read at the target bound, is the closed form term by term
    for d, x_degree, q_order, keys in ((builtin("theta"), 4, 16, 15), (chain(2), 3, 12, 35),
                                       (chain(3), 3, 12, 165)):
        hs = homfly_series(d, x_degree, q_order)
        assert len(hs.series.terms) == keys
        assert hs.series == closed_form(hs.cycle_algebra, x_degree, q_order), d


def test_pochhammer_inf_needs_positive_diagram(monkeypatch):
    # homfly_series refuses before the cycle algebra, the headroom walk or any product
    def unreachable(*args):
        raise AssertionError("ran before the positivity check")

    for name in ("CycleAlgebra", "_headroom", "_poch_inf", "_poch_quotient", "_solve_twisted"):
        monkeypatch.setattr(moyeval.homfly, name, unreachable)
    with pytest.raises(DiagramError, match="positive diagram"):
        homfly_series(builtin("tetrahedron"), 2, 8)


# -- the assembled series and its checks --------------------------------------


def test_homfly_series_unknot_table_frozen():
    hs = homfly_series(builtin("unknot"), 2, 8)
    table = {tuple(c.circles): dict(v.terms) for c, v in hs.table.items()}
    assert table == {
        (): {(0, 0): 1},
        ((0, 1),): {(2, -2): 1, (6, -2): 1, (2, 2): -1, (6, 2): -1},
        ((0, 2),): {(8, -4): 1, (4, 4): 1, (8, 4): 1, (4, 0): -1, (8, 0): -2},
    }


def test_the_flow_table_merges_no_terms():
    # a flow's monomial is fixed by its coloring, so reading mu's image as a
    # flow table keeps every term: no two of them share a coloring
    cases = [(builtin(name), 3, 12) for name in ("unknot", "theta")]
    cases += [(builtin("tetrahedron"), None, None), (parse_diagram(TWO_THETAS), 2, 8)]
    for d, x_degree, q_order in cases:
        ca = CycleAlgebra(d)
        elements = [pochhammer_N(ca, 3)]
        if x_degree is not None:  # the tetrahedron is not positive
            elements.append(homfly_series(d, x_degree, q_order).series_work.element)
        for element in elements:
            assert len(ca.flow_table(element)) == len(ca.mu(element).terms) > 1


def test_truncation_bounds_are_coherent():
    # recomputing with a looser bound and truncating back changes nothing
    tight = homfly_series(builtin("theta"), 3, 8)
    loose = homfly_series(builtin("theta"), 3, 12)
    assert loose.series.retruncate(8) == tight.series
    assert set(loose.table) == set(tight.table)
    for coloring, value in tight.table.items():
        assert loose.table[coloring].retruncate(8) == value


def reference_quotient(ca, x_degree, q_order, linear=_mul_linear):
    """Reference ``G``: ``poch(a) * poch(a^{-1})**-1`` from the factor products,
    a Neumann inverse and an uncapped product, none of them a q-difference solve."""
    poch_a, poch_ainv = (factor_product(ca, 2, e_b, x_degree, q_order, linear) for e_b in (-2, 2))
    return uncapped_product(poch_a, neumann_invert(poch_ainv))


def test_series_matches_the_uncapped_reference_pipeline(monkeypatch):
    # every product of homfly_series replaced: the two infinite products by
    # the twist factors multiplied out against explicit linear elements, and
    # G by the reference quotient instead of its own q-difference solve
    def reference_assemble(ca, x_degree, work):
        poch_a, poch_ainv = (factor_product(ca, 2, e_b, x_degree, work, linear_by_product)
                             for e_b in (-2, 2))
        return poch_a, poch_ainv, reference_quotient(ca, x_degree, work, linear_by_product)

    cases = [("unknot", x, 12) for x in range(5)] + [("theta", x, 8) for x in range(5)]
    for name, x_degree, q_order in cases:
        hs = homfly_series(builtin(name), x_degree, q_order)
        with monkeypatch.context() as m:
            m.setattr(TruncatedTorusSeries, "__mul__", uncapped_product)
            m.setattr(moyeval.homfly, "_assemble", reference_assemble)
            reference = homfly_series(builtin(name), x_degree, q_order)
        assert hs.table == reference.table, (name, x_degree)
        assert hs.series == reference.series, (name, x_degree)


def test_more_skew_margin_changes_nothing(monkeypatch):
    # twelve more units of both headrooms change no stored or checked value
    original = moyeval.homfly._headroom
    cases = [(builtin(name), x, 8) for name in ("unknot", "theta") for x in (2, 3, 4)]
    cases += [(builtin("theta"), 5, 8), (parse_diagram(TWO_THETAS), 2, 8),
              (parse_diagram(TWO_THETAS), 3, 8), (chain(2), 3, 12), (chain(3), 3, 12)]
    for d, x_degree, q_order in cases:
        results = []
        for extra in (0, 12):
            with monkeypatch.context() as m:
                m.setattr(moyeval.homfly, "_headroom",
                          lambda ca, x, extra=extra: tuple(h + extra for h in original(ca, x)))
                hs = homfly_series(d, x_degree, q_order)
                fphi, shift = check_fphi(hs).ok, check_shift(hs)
            results.append((hs.table, hs.series, fphi, shift.all_ok(),
                            [(r.name, r.ok) for r in shift.sub]))
        assert results[0] == results[1], (d, x_degree)
        assert results[0][2] and results[0][3]


def test_less_headroom_changes_the_series(monkeypatch):
    # four units below the proven headroom, a stored or checked value breaks
    original = moyeval.homfly._headroom
    cases = ((builtin("theta"), 4, 20), (builtin("theta"), 5, 36),
             (parse_diagram(TWO_THETAS), 3, 12), (chain(2), 3, 12), (chain(3), 3, 12))
    for d, x_degree, q_order in cases:
        hs = homfly_series(d, x_degree, q_order)
        assert check_fphi(hs).ok
        with monkeypatch.context() as m:
            m.setattr(moyeval.homfly, "_headroom",
                      lambda ca, x: (original(ca, x)[0] - 4, original(ca, x)[1]))
            mutant = homfly_series(d, x_degree, q_order)
            mutant_ok = check_fphi(mutant).ok
        assert mutant.series_work.q_order == hs.series_work.q_order - 4
        assert mutant.series != hs.series or not mutant_ok, (d, x_degree)


def _lam(skew, alpha):
    return sum(alpha[i] * alpha[l] * max(0, -skew[i][l])
               for i in range(len(alpha)) for l in range(i))


def _monomials(k, degree):
    """Every exponent tuple in ``k`` variables of total degree at most ``degree``."""
    return [tuple(indices.count(i) for i in range(k))
            for d in range(degree + 1)
            for indices in itertools.combinations_with_replacement(range(k), d)]


def test_the_skew_grading_is_super_additive():
    # lam(a+b) - lam(a) - lam(b) + sig(a, b) >= 0, with sig the shift torus_mul applies
    for d in (builtin("theta"), parse_diagram(TWO_THETAS), builtin("tetrahedron")):
        signature = CycleAlgebra(d).signature
        monomials = [signature.key(m) for m in _monomials(len(signature), 3)]
        assert any(e < 0 for row in signature.skew for e in row)
        lam = {signature.key(m): _lam(signature.skew, m) for m in _monomials(len(signature), 6)}
        for a in monomials:
            for b in monomials:
                shift, total = moyeval.qtorus._mul_exps(signature, a, b)
                assert lam[total] - lam[a] - lam[b] + shift >= 0, (a, b)


def test_headroom_is_the_maximum_over_monomials():
    # with the cycle skew zeroed, lam vanishes and only the flag side counts
    flat = CycleAlgebra(parse_diagram(TWO_THETAS))
    k = len(flat.signature)
    flat.signature = TorusSignature(flat.signature.names, [[0] * k] * k)
    pinned = ((CycleAlgebra(builtin("theta")), 5, 24),
              (CycleAlgebra(parse_diagram(TWO_THETAS)), 3, 16),
              (CycleAlgebra(circles(3)), 4, 0), (CycleAlgebra(builtin("unknot")), 3, 0),
              (flat, 3, 4), (CycleAlgebra(thetas(3)), 3, 24))  # 26 variables
    for ca, x_degree, margin in pinned:
        r_max = max(ca.rots)
        # brute force: lam by its formula, phi from the flag monomials of the
        # cycles multiplied one by one, not from the table _headroom reads
        series = shift = 0
        for alpha in _monomials(len(ca.signature), x_degree):
            phi, _ = fold_image(ca, ca.signature.key(alpha))
            lam = _lam(ca.signature.skew, alpha)
            series = max(series, lam + max(0, -phi))
            shift = max(shift, lam + 4 * r_max * sum(alpha))
        assert moyeval.homfly._headroom(ca, x_degree) == (series, shift + 2 * r_max)
        assert series == margin


def test_defining_equation_residual_vanishes():
    for name, x_degree in (("unknot", 2), ("theta", 3)):
        report = check_fphi(homfly_series(builtin(name), x_degree, 8))
        assert report.name == "defining-equation"
        assert report.ok, report.detail
        assert f"x-degree <= {x_degree}" in report.detail
        work = homfly_series(builtin(name), x_degree, 8).poch_a.q_order
        assert f"monomials compared at internal bound {work} (headroom {work - 8} over 8)" \
            in report.detail


def test_defining_equation_checks_the_kept_series():
    hs = homfly_series(builtin("theta"), 3, 8)
    terms = hs.series_work.element.terms
    key = next(e for e in sorted(terms) if e)
    altered = dict(terms)
    altered[key] = terms[key] + TruncatedRSeries.monomial(hs.series_work.q_order, 4, 0)
    broken = hs._replace(
        series_work=TruncatedTorusSeries(
            hs.x_degree,
            hs.series_work.q_order,
            TorusElement(hs.series_work.element.signature, altered),
        ),
    )
    report = check_fphi(broken)
    assert not report.ok
    assert report.detail.startswith("residual has ")


def test_products_are_built_once_per_series_and_check(monkeypatch):
    # two infinite products and G, each one solve
    calls = []
    original = moyeval.homfly._solve_twisted

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(moyeval.homfly, "_solve_twisted", counting)
    hs = homfly_series(builtin("theta"), 2, 8)
    assert check_fphi(hs).ok
    assert len(calls) == 3


def test_shift_property_holds():
    for name, x_degree in (("unknot", 2), ("theta", 3)):
        report = check_shift(homfly_series(builtin(name), x_degree, 8))
        assert report.name == "shift"
        assert report.ok, report.detail
        assert [s.name for s in report.sub] == ["reindex-q", "reindex-a", "conjugate"]
        assert all(s.ok for s in report.sub)
        assert "single linear polynomials" in report.detail


def test_specialize_to_finite_level():
    hs = homfly_series(builtin("unknot"), 2, 16)
    spec = specialize_to_N(hs, 2)
    table = eval_table(builtin("unknot"), 2)
    assert set(spec) == set(table)
    for coloring, sc in spec.items():
        # within the window the specialization equals the exact state sum
        expected = QLaurent({e: c for e, c in table[coloring].terms.items()
                             if e <= sc.window})
        assert sc.value == expected
    assert spec[Coloring(circles={0: 1})].value == qbinom(2, 1)
    report = specialization_check(hs, 2)
    assert report.ok and report.detail == "matches the level-2 state sum on 3 colorings"


def test_specialization_window_cuts_off_when_bound_is_small():
    hs = homfly_series(builtin("unknot"), 2, 8)
    spec = specialize_to_N(hs, 2)
    one_color = Coloring(circles={0: 1})
    assert spec[one_color].window == 0
    assert spec[one_color].value == QLaurent.monomial(-2)  # v^2 lies past the window


def test_specialization_reports_a_value_mismatch(monkeypatch):
    # one state-sum value off by 1 inside the window: the check names both values
    original = moyeval.homfly.eval_table
    coloring = Coloring(circles={0: 1})

    def perturbed(*args, **kwargs):
        table = original(*args, **kwargs)
        table[coloring] = table[coloring] + QLaurent.one()
        return table

    monkeypatch.setattr(moyeval.homfly, "eval_table", perturbed)
    report = specialization_check(homfly_series(builtin("unknot"), 2, 16), 2)
    exact = qbinom(2, 1)
    assert not report.ok
    assert report.detail == (f"circles 0=1: series specializes to {exact!r}, "
                             f"state sum gives {exact + QLaurent.one()!r}")


def test_specialization_diagnostics():
    # the level-2 state sum needs x-degree 2; D = 1 cannot see it
    report = specialization_check(homfly_series(builtin("unknot"), 1, 16), 2)
    assert not report.ok
    assert "absent from the series table; the x-degree bound 1 is too small" in report.detail
    # at Q = 8 the window shrinks to zero and the exact value pokes out
    report = specialization_check(homfly_series(builtin("unknot"), 2, 8), 2)
    assert not report.ok
    assert "beyond the window 0; the truncation bound 8 is too small" in report.detail
    # theta at x-degree 1 sees the coloring, but Q = 0 puts every term past the window
    report = specialization_check(homfly_series(builtin("theta"), 1, 0), 1)
    assert not report.ok
    assert "edges 0=1,1=1: exact value reaches v-exponent" in report.detail
    assert "the truncation bound 0 is too small" in report.detail
    assert "x-degree" not in report.detail
