"""Quantum-torus elements, flag algebras, and the cycle-to-flag map mu."""

import functools
import itertools
import operator
import random

import pytest

from moyeval import cycles as cycles_module
from moyeval.cli import _check_mu
from moyeval.cycles import CycleSet
from moyeval.diagram import Coloring, Flag, builtin, parse_diagram
from moyeval.homfly import TruncatedTorusSeries
from moyeval.qexact import QLaurent, TruncatedRSeries
from moyeval.qtorus import (
    CycleAlgebra,
    FlagAlgebra,
    TorusElement,
    TorusSignature,
    _mul_exps,
    _mul_linear,
    torus_mul,
)
from test_chain import chain
from test_cycles import thetas
from test_statesum import CIRCLE_PLACES, TWO_THETAS, theta_with_circles

FIXTURES = ("unknot", "theta", "tetrahedron")


def fold_image(ca, key):
    """``mu(x**key)`` as ``(phi, flag key)``: the flag monomials of the
    cycles of ``key``, multiplied by ``torus_mul`` in ascending index order."""
    fa = ca.flag_algebra
    product = TorusElement(fa.signature, {(): QLaurent.one()})
    for t in key:
        image = TorusElement(fa.signature, {fa.cycle_key(ca.variables[t]): QLaurent.one()})
        product = torus_mul(product, image)
    ((image_key, coeff),) = product.terms.items()
    (phi,) = coeff.terms
    return phi, image_key


def mu_by_fold(ca, element):
    """Reference ``mu``: each term's coefficient shifted by its folded image."""
    out = TorusElement(ca.flag_algebra.signature)
    for key, coeff in element.terms.items():
        phi, image_key = fold_image(ca, key)
        out = out + TorusElement(out.signature, {image_key: coeff.times_v(phi)})
    return out


def small_signature():
    # two variables with u_1 u_0 = v^(-2) u_0 u_1
    return TorusSignature.from_entries(("u_0", "u_1"), {(0, 1): 2})


def linear_element(signature, one, coeffs):
    """The element ``one + sum_t coeffs[t] * x_t``, built term by term."""
    terms = {(): one}
    for t, coeff in enumerate(coeffs):
        terms[(t,)] = coeff
    return TorusElement(signature, terms)


def dense(key, k):
    """The exponent vector of a monomial key in ``k`` variables."""
    exps = [0] * k
    for i in key:
        exps[i] += 1
    return tuple(exps)


def times_v_by_hand(coeff, k):
    """``coeff * v**k``, written out so as to share no code with the rings."""
    if isinstance(coeff, QLaurent):
        return QLaurent({e + k: c for e, c in coeff.terms.items()})
    return TruncatedRSeries(coeff.q_order, {(v + k, b): c for (v, b), c in coeff.terms.items()})


def dense_shift(skew, a, b):
    """The normal-ordering shift of exponent vectors ``a`` and ``b``: sum over i > j."""
    return sum(a[i] * b[j] * skew[i][j] for i in range(len(a)) for j in range(i))


def dense_product(x, y):
    """``torus_mul`` by the dense formulas, on exponent vectors."""
    signature = x.signature
    k = len(signature)
    out = {}
    for ea, ca in x.terms.items():
        a = dense(ea, k)
        for eb, cb in y.terms.items():
            b = dense(eb, k)
            exps = tuple(map(operator.add, a, b))
            term = times_v_by_hand(ca * cb, dense_shift(signature.skew, a, b))
            out[exps] = out[exps] + term if exps in out else term
    return TorusElement(signature, {signature.key(e): c for e, c in out.items()})


def dense_image(ca, element, supports, size):
    """``{sum_t alpha_t supports[t]: coeff * v**phi(alpha)}`` on exponent
    vectors, with ``phi`` the quadratic form in ``image_shifts``."""
    table, k = ca.image_shifts, len(ca.signature)
    out = {}
    for key, coeff in element.terms.items():
        alpha = dense(key, k)
        phi = sum(alpha[l] * alpha[t] * table[l][t] for t in range(k) for l in range(t))
        phi += sum(alpha[t] * (alpha[t] - 1) // 2 * table[t][t] for t in range(k))
        image = [0] * size
        for t, a in enumerate(alpha):
            for i, e in enumerate(supports[t]):
                image[i] += a * e
        term = times_v_by_hand(coeff, phi)
        image = tuple(image)
        out[image] = out[image] + term if image in out else term
    return {e: c for e, c in out.items() if c}


def algebra_zoo():
    """The cycle algebras of the built-ins, two and three thetas and chainK, K <= 3."""
    diagrams = [builtin(name) for name in FIXTURES] + [thetas(2), thetas(3)]
    return [CycleAlgebra(d) for d in diagrams + [chain(k) for k in (1, 2, 3)]]


def poisoned(signature):
    """``signature`` with a nonzero diagonal, which no kernel may read."""
    out = TorusSignature(signature.names, signature.skew)
    out.skew = tuple(tuple(7 if i == j else c for j, c in enumerate(row))
                     for i, row in enumerate(signature.skew))
    return out


def ring(v, c, q_order=8):
    """A one-term coefficient of either ring: ``QLaurent`` for ``q_order`` None."""
    if q_order is None:
        return QLaurent({v: c})
    return TruncatedRSeries(q_order, {(v, -1): c})


def random_key(rng, k, degree):
    return tuple(sorted(rng.randrange(k) for _ in range(rng.randrange(degree + 1))))


# -- signatures ---------------------------------------------------------------


def test_signature_validation():
    sig = small_signature()
    assert sig.skew == ((0, 2), (-2, 0))
    with pytest.raises(ValueError, match="skew matrix shape"):
        TorusSignature(("a", "b"), ((0, 1),))
    with pytest.raises(ValueError, match="not antisymmetric"):
        TorusSignature(("a", "b"), ((0, 1), (1, 0)))
    with pytest.raises(ValueError, match="diagonal skew entries must vanish"):
        TorusSignature.from_entries(("a",), {(0, 0): 1})


def first_asymmetry(skew):
    """The first ``(i, j)`` in row-major order with ``c(i, j) != -c(j, i)``, entry by entry."""
    n = len(skew)
    for i in range(n):
        for j in range(n):
            if skew[i][j] != -skew[j][i]:
                return i, j
    return None


def test_the_antisymmetry_check_names_the_first_bad_entry():
    # the row-against-column check reports the entry the double loop finds first
    rng = random.Random(2718)
    for _ in range(200):
        n = rng.randrange(1, 7)
        names = [f"u_{i}" for i in range(n)]
        entries = {(i, j): rng.randrange(-3, 4) for i in range(n) for j in range(i + 1, n)}
        skew = [list(row) for row in TorusSignature.from_entries(names, entries).skew]
        for _ in range(rng.randrange(0, 3)):
            skew[rng.randrange(n)][rng.randrange(n)] += rng.choice((-1, 1))
        bad = first_asymmetry(skew)
        if bad is None:
            signature = TorusSignature(names, skew)
            assert signature == signature == TorusSignature(names, skew)
        else:
            with pytest.raises(ValueError) as raised:
                TorusSignature(names, skew)
            assert str(raised.value) == f"skew matrix is not antisymmetric at {bad}"


# -- elements and multiplication ----------------------------------------------


def test_element_basics():
    sig = small_signature()
    zero = TorusElement(sig)
    a = TorusElement(sig, {(0,): QLaurent.one()})
    b = TorusElement(sig, {(1,): QLaurent.monomial(2)})
    assert zero.terms == {}
    assert (a - a) == zero
    assert a + b - b == a
    assert a.terms == {(0,): QLaurent.one()}
    assert a.times_v(3).terms == {(0,): QLaurent.monomial(3)}
    assert repr(torus_mul(a, torus_mul(a, b))) == "(QLaurent({2: 1}))*u_0^2*u_1"


def test_skew_commutation():
    sig = small_signature()
    a = TorusElement(sig, {(0,): QLaurent.one()})
    b = TorusElement(sig, {(1,): QLaurent.one()})
    ab = torus_mul(a, b)
    ba = torus_mul(b, a)
    # u_0 u_1 is already normally ordered; the reversal picks up v^(-2)
    assert ab == TorusElement(sig, {(0, 1): QLaurent.one()})
    assert ba == ab.times_v(-2)


def test_normal_ordering_matches_the_dense_sum():
    # _mul_exps on keys against the shift summed over exponent vectors; a
    # poisoned diagonal shows a kernel that reads c(i, i)
    rng = random.Random(7321)
    signatures = []
    for n in (1, 2, 5, 9):
        for density in (1.0, 0.2):
            entries = {(i, j): rng.choice((-3, -2, -1, 1, 2, 3))
                       for i in range(n) for j in range(i + 1, n) if rng.random() < density}
            signatures.append(TorusSignature.from_entries([f"u_{i}" for i in range(n)], entries))
    for ca in algebra_zoo() + [CycleAlgebra(parse_diagram(TWO_THETAS))]:
        signatures += [ca.signature, ca.flag_algebra.signature]
    signatures += [poisoned(sig) for sig in signatures]
    for signature in signatures:
        n = len(signature)
        for _ in range(30):
            a = tuple(rng.randrange(0, 4) if rng.random() < 0.5 else 0 for _ in range(n))
            b = tuple(rng.randrange(0, 4) if rng.random() < 0.5 else 0 for _ in range(n))
            expected = (dense_shift(signature.skew, a, b), signature.key(tuple(map(operator.add, a, b))))
            assert _mul_exps(signature, signature.key(a), signature.key(b)) == expected, (signature, a, b)


def test_products_match_the_dense_formulas():
    # torus_mul on seeded random elements of the zoo, over both rings and
    # with a poisoned diagonal, against the product on exponent vectors
    rng = random.Random(2718)
    for ca in algebra_zoo():
        k = len(ca.signature)
        for signature in (ca.signature, poisoned(ca.signature)):
            for q_order in (None, 8):
                for _ in range(3):
                    terms = [(random_key(rng, k, 3), rng.randrange(-6, 9), rng.randrange(-3, 4))
                             for _ in range(5)]
                    x, y = [TorusElement(signature, {key: ring(v, c, q_order) for key, v, c in terms[i::2]})
                            for i in (0, 1)]
                    assert torus_mul(x, y) == dense_product(x, y)


def test_linear_kernel_is_the_product_with_the_linear_element():
    # on skewed cycle algebras, over both rings: the kernel equals torus_mul
    # against the explicit factor
    rng = random.Random(9157)

    def laurent():
        return QLaurent({rng.randrange(-6, 7): rng.randrange(-2, 3) for _ in range(3)})

    def rseries():
        return TruncatedRSeries(8, {
            (rng.randrange(-4, 9), rng.randrange(-2, 3)): rng.randrange(-2, 3) for _ in range(3)})

    for d in (builtin("tetrahedron"), parse_diagram(TWO_THETAS)):
        signature = CycleAlgebra(d).signature
        assert any(c < 0 for row in signature.skew for c in row)
        k = len(signature)
        for one, coeff in ((QLaurent.one(), laurent), (TruncatedRSeries.one(8), rseries)):
            for _ in range(8):
                x = TorusElement(signature)
                for _ in range(6):
                    key = signature.key([rng.randrange(0, 3) for _ in range(k)])
                    x = x + TorusElement(signature, {key: coeff()})
                coeffs = [coeff() for _ in range(k)]
                assert _mul_linear(x, coeffs) == torus_mul(x, linear_element(signature, one, coeffs))


def test_linear_kernel_matches_the_dense_formulas():
    # the kernel against the dense product with the explicit factor, on the
    # zoo, over both rings, with a poisoned diagonal too
    rng = random.Random(1618)
    for ca in algebra_zoo():
        k = len(ca.signature)
        for signature in (ca.signature, poisoned(ca.signature)):
            for q_order in (None, 8):
                one = QLaurent.one() if q_order is None else TruncatedRSeries.one(q_order)
                for _ in range(4):
                    x = TorusElement(signature, {
                        random_key(rng, k, 3): ring(rng.randrange(-6, 9), rng.randrange(-3, 4), q_order)
                        for _ in range(5)})
                    coeffs = [ring(rng.randrange(-4, 9), rng.randrange(-2, 3), q_order) for _ in range(k)]
                    full = dense_product(x, linear_element(signature, one, coeffs))
                    assert _mul_linear(x, coeffs) == full


def test_a_pair_above_the_bound_is_dropped_before_its_shift():
    # u_1 * u_0 = v^(-2) u_0 u_1 at bound 8: the coefficient pair v^5 * v^4
    # forms v^9, which the shift would bring to v^7; it is dropped all the same,
    # by torus_mul, by the linear kernel and by the ring's own accumulator
    sig = small_signature()

    def mono(exps, v):
        return TorusElement(sig, {sig.key(exps): TruncatedRSeries.monomial(8, v, 0)})

    assert torus_mul(mono((0, 1), 5), mono((1, 0), 4)) == TorusElement(sig)
    assert torus_mul(mono((0, 1), 4), mono((1, 0), 4)) == mono((1, 1), 6)
    x = mono((0, 1), 5)
    assert _mul_linear(x, [TruncatedRSeries.monomial(8, 4, 0), TruncatedRSeries.zero(8)]) == x
    a, b = TruncatedRSeries.monomial(8, 5, 1), TruncatedRSeries.monomial(8, 3, 1)
    for shift, kept in ((-2, {(6, 2): 1}), (0, {(8, 2): 1}), (1, {})):
        dest = {}
        a._addmul(dest, b._operand(), shift)
        assert dest == kept, shift
    dest = {}
    a._addmul(dest, TruncatedRSeries.monomial(8, 4, 0)._operand(), -2)
    assert dest == {}


def test_associativity_against_commutative_shadow():
    # Random products in the tetrahedron cycle algebra, checked two ways:
    # associativity exactly, and the v = 1 image against plain convolution.
    ca = CycleAlgebra(builtin("tetrahedron"))
    sig = ca.signature
    rng = random.Random(20240819)

    def rand_element():
        e = TorusElement(sig)
        for _ in range(rng.randrange(1, 4)):
            exps = tuple(rng.randrange(0, 3) for _ in sig.names)
            coeff = QLaurent({rng.randrange(-4, 5): rng.randrange(-3, 4)})
            e = e + TorusElement(sig, {sig.key(exps): coeff})
        return e

    def shadow(e):
        out = {}
        for exps, coeff in e.terms.items():
            out[exps] = out.get(exps, 0) + coeff.evaluate_one()
        return {k: c for k, c in out.items() if c}

    def shadow_mul(s1, s2):
        out = {}
        for e1, c1 in s1.items():
            for e2, c2 in s2.items():
                key = tuple(sorted(e1 + e2))
                out[key] = out.get(key, 0) + c1 * c2
        return {k: c for k, c in out.items() if c}

    for _ in range(40):
        a, b, c = rand_element(), rand_element(), rand_element()
        assert torus_mul(torus_mul(a, b), c) == torus_mul(a, torus_mul(b, c))
        assert shadow(torus_mul(a, b)) == shadow_mul(shadow(a), shadow(b))


# -- flag algebras ------------------------------------------------------------


def test_flag_variable_order_and_names():
    fa = FlagAlgebra(builtin("theta"))
    assert fa.signature.names[:6] == (
        "z[0,l]", "z[0,m]", "z[0,r]", "Z[0,r]", "Z[0,m]", "Z[0,l]")
    assert fa.z_index[Flag(0, "l")] == 0
    assert fa.Z_index[Flag(0, "l")] == 5
    fa_u = FlagAlgebra(builtin("unknot"))
    assert fa_u.signature.names == ("z[circle 0]", "Z[circle 0]")
    assert fa_u.z_circle[0] == 0 and fa_u.Z_circle[0] == 1


def test_flag_commutation_relations():
    fa = FlagAlgebra(builtin("theta"))
    sig = fa.signature

    def var(index):
        return TorusElement(sig, {(index,): QLaurent.one()})

    z_l, z_r = var(fa.z_index[Flag(0, "l")]), var(fa.z_index[Flag(0, "r")])
    Z_l, Z_r = var(fa.Z_index[Flag(0, "l")]), var(fa.Z_index[Flag(0, "r")])
    # within a vertex block: z_r z_l = v^(-1) z_l z_r, Z_l Z_r = v Z_r Z_l
    assert torus_mul(z_r, z_l) == torus_mul(z_l, z_r).times_v(-1)
    assert torus_mul(Z_l, Z_r) == torus_mul(Z_r, Z_l).times_v(1)
    # middle flags and cross-block pairs commute
    z_m = var(fa.z_index[Flag(0, "m")])
    for other in (z_l, z_r, Z_l, Z_r):
        assert torus_mul(z_m, other) == torus_mul(other, z_m)
    assert torus_mul(z_l, Z_r) == torus_mul(Z_r, z_l)
    # variables at different vertices commute
    w = var(fa.z_index[Flag(1, "r")])
    assert torus_mul(z_r, w) == torus_mul(w, z_r)


def decode_flag_monomial(d, fa, key):
    """Reference decoder: a flag monomial read as a coloring, or ``None``
    when the four entries of an edge (z and Z at both ends) or the two of a
    circle disagree, i.e. when the monomial is the image of no flow."""
    exps = dense(key, len(fa.signature))
    edges, circles = {}, {}
    for e in d.edges:
        values = {exps[fa.z_index[e.tail]], exps[fa.z_index[e.head]],
                  exps[fa.Z_index[e.tail]], exps[fa.Z_index[e.head]]}
        if len(values) != 1:
            return None
        edges[e.id] = values.pop()
    for c in d.circles:
        z, Z = exps[fa.z_circle[c.id]], exps[fa.Z_circle[c.id]]
        if z != Z:
            return None
        circles[c.id] = z
    return Coloring(edges, circles)


def test_cycle_monomial_and_flow():
    d = builtin("theta")
    fa = FlagAlgebra(d)
    ca = CycleAlgebra(d)
    for i, cycle in enumerate(ca.variables):
        img = ca.mu(ca.variable(i))
        assert img == TorusElement(fa.signature, {fa.cycle_key(cycle): QLaurent.one()})
        (key,) = img.terms
        assert img.terms[key] == QLaurent.one()
        indicator = Coloring(edges={e: 1 for e in cycle.edge_ids}, circles={c: 1 for c in cycle.circle_ids})
        assert ca.flow_table(ca.variable(i)) == {indicator: QLaurent.one()}
        # both variables of every flag on the cycle appear exactly once, and nothing else
        assert len(key) == 2 * len(cycle.halfedges)
        for flag in cycle.halfedges:
            assert key.count(fa.z_index[flag]) == 1
            assert key.count(fa.Z_index[flag]) == 1


def test_flow_of_product_adds_indicators():
    ca = CycleAlgebra(builtin("tetrahedron"))
    keys = [tuple(sorted(c.edge_ids)) for c in ca.variables]
    r, g = keys.index((0, 1, 4, 5)), keys.index((0, 1, 3))
    flow = Coloring(edges={0: 2, 1: 2, 3: 1, 4: 1, 5: 1})
    product = torus_mul(ca.mu(ca.variable(r)), ca.mu(ca.variable(g)))
    (key,) = product.terms
    assert decode_flag_monomial(ca.diagram, ca.flag_algebra, key) == flow
    assert set(ca.flow_table(torus_mul(ca.variable(r), ca.variable(g)))) == {flow}


def test_flow_of_monomial_circle():
    d = builtin("unknot")
    fa = FlagAlgebra(d)
    assert decode_flag_monomial(d, fa, (0, 0, 0, 1, 1, 1)) == Coloring(circles={0: 3})
    assert decode_flag_monomial(d, fa, (0, 0, 1, 1, 1)) is None
    assert decode_flag_monomial(d, fa, ()) == Coloring()
    ca = CycleAlgebra(d)
    cube = TorusElement(ca.signature, {(0, 0, 0): QLaurent.one()})
    (key,) = ca.mu(cube).terms
    assert key == (0, 0, 0, 1, 1, 1)
    assert ca.flow_table(cube) == {Coloring(circles={0: 3}): QLaurent.one()}


def test_flow_of_monomial_rejects_unbalanced_edges():
    d = builtin("theta")
    fa = FlagAlgebra(d)
    ca = CycleAlgebra(d)
    (key,) = ca.mu(ca.variable(0)).terms
    assert decode_flag_monomial(d, fa, key) is not None
    bumped = tuple(sorted(key + (fa.z_index[Flag(0, "l")],)))
    assert decode_flag_monomial(d, fa, bumped) is None
    # the slot-built table holds only flows, one per term of the image
    assert list(ca.flow_table(ca.variable(0))) == [decode_flag_monomial(d, fa, key)]


def test_flow_table_is_mu_decoded():
    # flow_table sums color slots where mu sums flag variables; decoding
    # mu's image with the reference decoder must give the same table
    center, radius = CIRCLE_PLACES["inner face left of edge 1"]
    diagrams = [builtin(name) for name in FIXTURES]
    diagrams += [parse_diagram(TWO_THETAS), theta_with_circles((center, radius, "cw"))]
    rng = random.Random(4129)
    for d in diagrams:
        ca = CycleAlgebra(d)
        k = len(ca.signature)
        for _ in range(10):
            terms = {}
            for _ in range(rng.randrange(1, 7)):
                alpha = tuple(rng.randrange(0, 4) if rng.random() < 0.6 else 0 for _ in range(k))
                v, c = rng.randrange(-6, 7), rng.randrange(-3, 4)
                terms[ca.signature.key(alpha)] = (QLaurent({v: c}), TruncatedRSeries(30, {(v, -1): c}))
            for ring in (0, 1):
                element = TorusElement(ca.signature, {a: pair[ring] for a, pair in terms.items()})
                decoded = {}
                for key, coeff in ca.mu(element).terms.items():
                    coloring = decode_flag_monomial(d, ca.flag_algebra, key)
                    assert coloring is not None and coloring not in decoded
                    decoded[coloring] = coeff
                assert ca.flow_table(element) == decoded


def test_image_shifts_are_the_doubled_pairing():
    """``image_shifts[l][t] == 2 <C_l, C_t>`` entry by entry.

    Below the diagonal the flag skew has only ``c(z_r, z_l) = -1`` and
    ``c(Z_l, Z_r) = 1`` within each vertex, and circles commute with
    everything.  A cycle holds z and Z of its flags together, so the shift
    of ``f_l`` against ``f_t`` counts the vertices where ``C_l`` holds ``l``
    and ``C_t`` holds ``r`` (the Z pair), minus those where ``C_l`` holds
    ``r`` and ``C_t`` holds ``l`` (the z pair): that is ``pairing_doubled``.
    ``check --suite mu`` compares only the antisymmetric part.
    """
    diagrams = [builtin(name) for name in FIXTURES] + [parse_diagram(TWO_THETAS)]
    for d in diagrams:
        ca = CycleAlgebra(d)
        k = len(ca.variables)
        rows = list(ca.cycle_set.pairing_rows())
        for l in range(k):
            for t in range(k):
                assert ca.image_shifts[l][t] == rows[l + 1][t + 1], (l, t)


def shifts_by_pairs(ca):
    """``image_shifts`` one pair of images at a time: the lower flag-skew
    entries of each flag of ``f_l``, summed over those landing in ``f_t``."""
    skew = ca.flag_algebra.signature.skew
    images = [ca.flag_algebra.cycle_key(c) for c in ca.variables]
    table = []
    for a in images:
        entries = [(j, c) for i in a for j, c in enumerate(skew[i][:i]) if c]
        table.append(tuple(sum(c for j, c in entries if j in b) for b in map(frozenset, images)))
    return tuple(table)


def twisted_tetrahedron(rng):
    """The tetrahedron's cycle algebra over a random flag skew, whose
    cycle images need not commute with themselves."""
    twisted = CycleAlgebra(builtin("tetrahedron"))
    n = len(twisted.flag_algebra.signature)
    twisted.flag_algebra.signature = TorusSignature.from_entries(
        twisted.flag_algebra.signature.names,
        {(i, j): rng.randrange(-2, 3) for i in range(n) for j in range(i + 1, n)})
    return twisted


def test_image_shifts_are_the_per_pair_sums():
    algebras = [CycleAlgebra(builtin(name)) for name in FIXTURES]
    algebras += [CycleAlgebra(parse_diagram(TWO_THETAS)), CycleAlgebra(thetas(3))]
    twisted = twisted_tetrahedron(random.Random(6151))
    assert any(shifts_by_pairs(twisted)[t][t] for t in range(len(twisted.variables)))
    for ca in algebras + [twisted]:
        assert ca.image_shifts == shifts_by_pairs(ca)
        assert all(type(row) is tuple for row in ca.image_shifts)


def test_image_shifts_never_read_the_circuit_table(monkeypatch):
    # check --suite mu compares the flag-side table with the pairing rows,
    # so the table must come from the flag skew alone
    algebras = [CycleAlgebra(d) for d in (builtin("tetrahedron"), thetas(3))]

    def refuse(*args):
        raise AssertionError("image_shifts read the circuit pairing")

    monkeypatch.setattr(CycleSet, "pairing_rows", refuse)
    monkeypatch.setattr(cycles_module, "pairing_doubled", refuse)
    for ca in algebras:
        assert ca.image_shifts == shifts_by_pairs(ca)
    monkeypatch.undo()
    for ca in algebras:
        assert _check_mu(ca)[0]


# -- the map mu ---------------------------------------------------------------


def test_mu_is_multiplicative():
    # words of two and three variables, repeats included, over both rings:
    # mu folds a whole monomial at once, the right side multiplies images
    assert any(any(row) for row in CycleAlgebra(builtin("tetrahedron")).signature.skew)
    coeffs = (QLaurent.monomial(1), TruncatedRSeries.monomial(40, 1, -2))
    for name in FIXTURES:
        ca = CycleAlgebra(builtin(name))
        for coeff in coeffs:
            for degree in (2, 3):
                for word in itertools.product(range(len(ca.variables)), repeat=degree):
                    factors = [TorusElement(ca.signature, {(i,): coeff}) for i in word]
                    inside = ca.mu(functools.reduce(torus_mul, factors))
                    outside = functools.reduce(torus_mul, map(ca.mu, factors))
                    assert inside == outside


def test_mu_matches_the_fold_of_image_products():
    # random sums of monomials with powers up to 3, over both rings, against
    # the images multiplied one by one; the last algebra gets a random flag
    # skew, because on real diagrams a cycle's image commutes with itself
    # (it holds at most one of l and r per vertex), so P[t][t] vanishes
    rng = random.Random(6151)
    algebras = [CycleAlgebra(builtin(name)) for name in FIXTURES]
    algebras.append(CycleAlgebra(parse_diagram(TWO_THETAS)))
    twisted = twisted_tetrahedron(rng)
    assert any(twisted.image_shifts[t][t] for t in range(len(twisted.variables)))
    for ca in algebras + [twisted]:
        k = len(ca.signature)
        for _ in range(12):
            terms = {}
            for _ in range(rng.randrange(1, 5)):
                alpha = tuple(rng.randrange(0, 4) if rng.random() < 0.6 else 0 for _ in range(k))
                v, c = rng.randrange(-6, 7), rng.randrange(1, 4)
                terms[ca.signature.key(alpha)] = (QLaurent({v: c}), TruncatedRSeries(30, {(v, -1): c}))
            for ring in (0, 1):
                element = TorusElement(ca.signature, {a: pair[ring] for a, pair in terms.items()})
                assert ca.mu(element) == mu_by_fold(ca, element)


def test_image_matches_the_quadratic_form():
    # mu and flow_table on the zoo against the image summed on exponent
    # vectors, over both rings; truncated terms sit up to the bound, so a
    # term the shift pushes past it must be dropped
    rng = random.Random(3141)
    for ca in algebra_zoo():
        d, fa, k = ca.diagram, ca.flag_algebra, len(ca.signature)
        flags = [dense(fa.cycle_key(c), len(fa.signature)) for c in ca.variables]
        slots = [dense(d.slots(c.edge_ids, c.circle_ids), d.slot_count) for c in ca.variables]
        assert k < 2 or any(p > 0 for row in ca.image_shifts for p in row)
        for q_order in (None, 6):
            for _ in range(6):
                element = TorusElement(ca.signature, {
                    random_key(rng, k, 4): ring(rng.randrange(-2, 7), rng.randrange(-3, 4), q_order)
                    for _ in range(6)})
                image = dense_image(ca, element, flags, len(fa.signature))
                assert {dense(e, len(fa.signature)): c for e, c in ca.mu(element).terms.items()} == image
                flows = dense_image(ca, element, slots, d.slot_count)
                assert ca.flow_table(element) == {d.coloring_of(e): c for e, c in flows.items()}


def test_image_shift_table_is_built_on_first_use():
    ca = CycleAlgebra(builtin("tetrahedron"))
    assert "image_shifts" not in vars(ca)
    ca.mu(ca.variable(0))
    assert "image_shifts" in vars(ca)


def test_check_mu_reads_the_table_mu_reads():
    # a transposed table negates every exchange shift, so a skewed algebra fails
    ca = CycleAlgebra(builtin("tetrahedron"))
    assert _check_mu(ca) == (True, "checked 6 ordered pairs against the intersection pairing")
    ca.image_shifts = tuple(zip(*ca.image_shifts))
    ok, detail = _check_mu(ca)
    assert not ok and "breaks at skew" in detail


def check_mu_pair_by_pair(ca):
    """``_check_mu`` one ordered pair at a time, ``(i, j)`` then ``(j, i)`` for ``i < j``."""
    table, skew = ca.image_shifts, ca.signature.skew
    count = 0
    for i in range(len(table)):
        for j in range(i + 1, len(table)):
            for a, b in ((i, j), (j, i)):
                if table[a][b] - table[b][a] != skew[a][b]:
                    return False, f"exchange of x_{a + 1} and x_{b + 1} breaks at skew {skew[a][b]}"
            count += 2
    return True, f"checked {count} ordered pairs against the intersection pairing"


def test_check_mu_names_the_first_failing_pair():
    # the whole-row comparison reports what the pair-by-pair walk reports,
    # on sound tables and on tables with one to three entries corrupted
    rng = random.Random(2207)
    failures = 0
    for d in (builtin("tetrahedron"), builtin("theta"), parse_diagram(TWO_THETAS), thetas(3)):
        ca = CycleAlgebra(d)
        sound = ca.image_shifts
        assert _check_mu(ca) == check_mu_pair_by_pair(ca) and _check_mu(ca)[0]
        k = len(sound)
        for _ in range(12):
            rows = [list(row) for row in sound]
            for _ in range(rng.randrange(1, 4)):
                rows[rng.randrange(k)][rng.randrange(k)] += rng.choice((-4, -1, 1, 2))
            ca.image_shifts = tuple(map(tuple, rows))
            expected = check_mu_pair_by_pair(ca)
            assert _check_mu(ca) == expected, expected
            failures += not expected[0]
    assert failures > 30


def test_mu_exchange_follows_skew():
    for name in FIXTURES:
        ca = CycleAlgebra(builtin(name))
        images = [ca.mu(ca.variable(i)) for i in range(len(ca.variables))]
        for i, a in enumerate(images):
            for j, b in enumerate(images):
                assert torus_mul(a, b) == torus_mul(b, a).times_v(ca.signature.skew[i][j])


def test_mu_respects_linearity_and_units():
    ca = CycleAlgebra(builtin("theta"))
    fa_sig = ca.flag_algebra.signature
    unit = TorusElement(fa_sig, {(): QLaurent.one()})
    assert ca.mu(TorusElement(ca.signature, {(): QLaurent.one()})) == unit
    e = TorusElement(ca.signature, {(0,): QLaurent.monomial(2)}) + ca.variable(1)
    assert ca.mu(e) == ca.mu(ca.variable(0)).times_v(2) + ca.mu(ca.variable(1))


def test_monomial_refuses_an_exponent_vector_of_the_wrong_length():
    # theta has two cycle variables; a third entry once made an element
    # whose repr raised IndexError
    ca = CycleAlgebra(builtin("theta"))
    series = TruncatedTorusSeries.one(ca, 2, 8)
    for exps in ((1, 0, 5), (1,), ()):
        with pytest.raises(ValueError, match="not one per variable"):
            ca.signature.key(exps)
        with pytest.raises(ValueError, match="not one per variable"):
            series.coefficient(exps)


def test_monomial_refuses_a_negative_exponent():
    ca = CycleAlgebra(builtin("theta"))
    with pytest.raises(ValueError, match="negative entry"):
        ca.signature.key((1, -1))
    with pytest.raises(ValueError, match="negative entry"):
        TruncatedTorusSeries.one(ca, 2, 8).coefficient((1, -1))


def test_element_keys_must_be_sorted():
    sig = small_signature()
    assert TorusElement(sig, {(0, 1, 1): QLaurent.one()}).terms == {(0, 1, 1): QLaurent.one()}
    with pytest.raises(ValueError, match="not a sorted tuple of variable indices below 2"):
        TorusElement(sig, {(1, 0): QLaurent.one()})


def test_element_keys_must_hold_variable_indices():
    sig = small_signature()
    for key in ((0, 2), (-1, 0), (0, 1.0), (True,)):
        with pytest.raises(ValueError, match="not a sorted tuple of variable indices below 2"):
            TorusElement(sig, {key: QLaurent.one()})


def test_mu_rejects_foreign_elements():
    ca_theta = CycleAlgebra(builtin("theta"))
    ca_tet = CycleAlgebra(builtin("tetrahedron"))
    with pytest.raises(ValueError, match="does not belong to this cycle algebra"):
        ca_theta.mu(ca_tet.variable(0))


def test_mu_image_cache_keeps_coefficient_rings_apart():
    # the same algebra serves exact Laurent and truncated coefficients in turn
    ca = CycleAlgebra(builtin("theta"))
    plain = ca.mu(ca.variable(0))
    truncated = ca.mu(TorusElement(ca.signature, {(0,): TruncatedRSeries.one(6)}))
    again = ca.mu(ca.variable(0))
    (exps,) = plain.terms
    assert plain.terms[exps] == QLaurent.one()
    assert truncated.terms[exps] == TruncatedRSeries.one(6)
    assert isinstance(truncated.terms[exps], TruncatedRSeries)
    assert again == plain
    other = ca.mu(TorusElement(ca.signature, {(0,): TruncatedRSeries.one(4)}))
    assert other.terms[exps].q_order == 4
