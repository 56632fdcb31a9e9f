"""Truncated HOMFLY generating series and its consistency checks."""

import dataclasses
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
from moyeval.qtorus import CycleAlgebra, TorusElement, TorusSignature
from moyeval.statesum import eval_table
from test_qtorus import fold_image
from test_statesum import TWO_THETAS


def unknot_algebra():
    return CycleAlgebra(builtin("unknot"))


def tts(ca, x_degree, q_order, coeffs):
    """Series with the given {exps: {(v, b): int}} coefficient table."""
    element = TorusElement.zero(ca.signature)
    for exps, terms in coeffs.items():
        element = element + TorusElement.monomial(
            ca.signature, exps, TruncatedRSeries(q_order, terms))
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


def neumann_invert(s):
    """Reference inverse: ``sum_k (1 - s)**k`` by ``x_degree`` uncapped products."""
    signature = s.element.signature
    one = TruncatedTorusSeries(s.x_degree, s.q_order, TorusElement.monomial(
        signature, (0,) * len(signature), TruncatedRSeries.one(s.q_order)))
    rest, out = one - s, one
    for _ in range(s.x_degree):
        out = one + uncapped_product(rest, out)
    return out


# -- the truncated series ring ------------------------------------------------


def test_series_construction_enforces_bounds():
    ca = unknot_algebra()
    el = TorusElement.monomial(ca.signature, (0,), TruncatedRSeries.one(4))
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
    shifted = TruncatedTorusSeries(2, 8, TorusElement.monomial(
        ca.signature, (0,), TruncatedRSeries.monomial(8, 2, 0)))
    assert shifted.constant_term() == TruncatedRSeries(8, {(2, 0): 1})
    with pytest.raises(ValueError, match="x-degree bound mismatch"):
        one * TruncatedTorusSeries.one(ca, 3, 8)
    with pytest.raises(ValueError, match="truncation bound mismatch"):
        one * TruncatedTorusSeries.one(ca, 2, 12)
    with pytest.raises(ValueError, match="cannot raise a truncation bound"):
        one.retruncate(12)
    # the graded product files terms by x-degree, which needs exponents >= 0
    with pytest.raises(ValueError, match="nonnegative x-exponents"):
        tts(ca, 2, 8, {(-1,): {(0, 0): 1}}) * one


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
    theta = builtin("theta")
    signature = CycleAlgebra(theta).signature
    degree_sums = []
    original = moyeval.qtorus._mul_exps

    def recording(sig, ea, eb):
        if sig == signature:  # not the flag side of mu
            degree_sums.append(sum(ea) + sum(eb))
        return original(sig, ea, eb)

    monkeypatch.setattr(moyeval.qtorus, "_mul_exps", recording)
    assert check_fphi(homfly_series(theta, 3, 8)).ok
    assert degree_sums and max(degree_sums) == 3


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
        series_invert(TruncatedTorusSeries.zero(ca, 2, 8))
    with pytest.raises(ValueError, match="constant term must be exactly 1"):
        series_invert(TruncatedTorusSeries(2, 8, TorusElement.monomial(
            ca.signature, (0,), TruncatedRSeries.monomial(8, 2, 0))))


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


def test_pochhammer_inf_needs_positive_diagram():
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


def test_series_matches_the_uncapped_reference_pipeline(monkeypatch):
    cases = [("unknot", x, 12) for x in range(5)] + [("theta", x, 8) for x in range(5)]
    for name, x_degree, q_order in cases:
        hs = homfly_series(builtin(name), x_degree, q_order)
        with monkeypatch.context() as m:
            m.setattr(TruncatedTorusSeries, "__mul__", uncapped_product)
            m.setattr(moyeval.homfly, "series_invert", neumann_invert)
            reference = homfly_series(builtin(name), x_degree, q_order)
        assert hs.table == reference.table, (name, x_degree)
        assert hs.series == reference.series, (name, x_degree)


def test_more_skew_margin_changes_nothing(monkeypatch):
    # twelve more units of both headrooms change no stored or checked value
    original = moyeval.homfly._headroom
    cases = [(builtin(name), x, 8) for name in ("unknot", "theta") for x in (2, 3, 4)]
    cases += [(builtin("theta"), 5, 8), (parse_diagram(TWO_THETAS), 2, 8),
              (parse_diagram(TWO_THETAS), 3, 8)]
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
             (parse_diagram(TWO_THETAS), 3, 12))
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
        monomials = _monomials(len(signature), 3)
        assert any(e < 0 for row in signature.skew for e in row)
        lam = {m: _lam(signature.skew, m) for m in _monomials(len(signature), 6)}
        for a in monomials:
            for b in monomials:
                shift, total = moyeval.qtorus._mul_exps(signature, a, b)
                assert lam[total] - lam[a] - lam[b] + shift >= 0, (a, b)


def test_headroom_is_the_maximum_over_monomials():
    three_circles = parse_diagram(json.dumps({"circles": [
        {"id": i, "center": [4 * i, 0], "radius": 1, "orientation": "ccw"}
        for i in range(3)]}))
    # with the cycle skew zeroed, lam vanishes and only the flag side counts
    flat = CycleAlgebra(parse_diagram(TWO_THETAS))
    k = len(flat.signature)
    flat.signature = TorusSignature(flat.signature.names, [[0] * k] * k)
    pinned = ((CycleAlgebra(builtin("theta")), 5, 24),
              (CycleAlgebra(parse_diagram(TWO_THETAS)), 3, 16),
              (CycleAlgebra(three_circles), 4, 0), (CycleAlgebra(builtin("unknot")), 3, 0),
              (flat, 3, 4))
    for ca, x_degree, margin in pinned:
        r_max = max(ca.rots)
        # brute force: lam by its formula, phi from the flag monomials of the
        # cycles multiplied one by one, not from the table _headroom reads
        series = shift = 0
        for alpha in _monomials(len(ca.signature), x_degree):
            phi, _ = fold_image(ca, alpha)
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
    exps = next(e for e in sorted(terms) if any(e))
    altered = dict(terms)
    altered[exps] = terms[exps] + TruncatedRSeries.monomial(hs.series_work.q_order, 4, 0)
    broken = dataclasses.replace(
        hs,
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
    calls = []
    original = moyeval.homfly._poch_inf

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(moyeval.homfly, "_poch_inf", counting)
    hs = homfly_series(builtin("theta"), 2, 8)
    assert check_fphi(hs).ok
    assert len(calls) == 2


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
