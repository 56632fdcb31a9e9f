"""Truncated HOMFLY generating series of positive diagrams.

For a diagram whose circuits all have rotation +1, the full (infinite)
twisted product of cycle polynomials makes sense as a series: the twist-k
factor

    1 + sum_C v**((e_v + 4k) rot C) * b**(e_b rot C) * x_C

differs from 1 only in v-exponents that grow with ``k``, so modulo
``v**(Q+1)`` only finitely many factors matter.  All series arithmetic here
happens in the cycle algebra truncated in two directions at once: total
x-degree at most ``x_degree`` and v-exponent at most ``q_order``.

Skew shifts never change x-degree, so the terms of x-degree above the bound
form a two-sided ideal and dropping them is exact.  Products therefore split
each factor into its homogeneous pieces by x-degree (``_graded``) and form
only the pairs whose degrees sum to at most the bound.  They feed all
their pairs into one raw accumulator (``moyeval.qtorus._accumulate``) and
clean it once, and sort every right-hand coefficient by v-exponent once
per product, so a coefficient product stops at the first pair past the
bound instead of testing every pair.

The HOMFLY series of the diagram is

    G = poch(a) * poch(a^{-1})^{-1}

with ``poch(a)`` the slope-(2, -2) product and ``poch(a^{-1})`` the
slope-(2, 2) one.  Its image ``mu(G)`` in the flag algebra collects, per
flow coloring, a truncated two-variable series in ``q`` and ``a``; setting
``a = q**n`` recovers the level-``n`` evaluations within an explicit
window.  ``check_fphi`` and ``check_shift`` verify the defining equation
and the ``a -> q**2 a`` shift identity on the truncated data.

None of the three series is multiplied out, inverted or formed as a
product.  The twist ``tau``, which multiplies ``x**alpha`` by
``v**(4 rot alpha)``, maps each twist factor to the next, so each product
``P`` satisfies the first-order q-difference equation ``P = L_0 * tau(P)``
with ``L_0`` its first factor, and ``G`` satisfies its own,
``G * L_- = L_+ * tau(G)``, with ``L_+`` and ``L_-`` the first factors of
``poch(a)`` and ``poch(a^{-1})``.  ``_solve_twisted`` solves both kinds
one x-degree at a time (``_poch_inf`` and ``_poch_quotient`` call it), so
the cost follows the terms output, not the number of factors the bound
lets through.  ``series_invert`` is outside the pipeline (see its
docstring).  ``check_shift`` still builds its two single linear factors
with ``_linear_factor``.

``_assemble`` is the only code that builds the two products and ``G``,
three independent solves.  ``homfly_series`` builds them once and keeps
them on ``HomflySeries``; ``check_fphi`` checks those kept series instead
of building a copy.  ``check_shift`` needs a larger internal bound than
the kept ones carry, and a truncation bound can only be lowered, so it
assembles its own.

Truncation by v-exponent is no ring quotient: skew shifts can lower
v-exponents, so a dropped term could reach back below the bound.  Every
product therefore runs at an internal bound ``Q + M``, with the headroom
``M`` proven from a grading of the cycle algebra by the skew, and is
re-truncated at the target ``Q`` only at the end.  ``_headroom`` holds the
argument; ``check_shift``, whose ``shift_a`` substitution also lowers
v-exponents, gets its own headroom from the same argument.  The products
the checks read only at ``Q`` are formed at ``Q`` by ``_product``: they
keep a coefficient pair iff it lands within ``Q``, and the target-bound
lemma of ``_headroom`` shows that these are exactly the pairs the
product at ``Q + M`` keeps below ``Q``, so the checks compare the same
numbers.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import combinations_with_replacement
from typing import NamedTuple, Sequence

from .cycles import CycleSet
from .diagram import Coloring, DiagramError, PlanarDiagram, format_coloring
from .qexact import QLaurent, TruncatedRSeries, _Terms
from .qtorus import CycleAlgebra, TorusElement, _accumulate, _settle
from .statesum import eval_table

__all__ = [
    "TruncatedTorusSeries",
    "HomflySeries",
    "homfly_series",
    "CheckReport",
    "check_fphi",
    "check_shift",
    "SpecializedCoefficient",
    "specialize_to_N",
    "specialization_check",
]


class TruncatedTorusSeries(_Terms):
    """A cycle-algebra element with truncated-series coefficients.

    Terms of total x-degree (the length of their key) above ``x_degree``
    are discarded, and every coefficient is a ``TruncatedRSeries`` at the
    common bound ``q_order``; the constructor checks both.  The terms are
    those of ``element``, whose keys cannot hold a negative x-exponent.
    """

    __slots__ = ("x_degree", "q_order", "element")
    __hash__ = None  # series are never keys

    def __init__(self, x_degree: int, q_order: int, element: TorusElement):
        kept = {}
        for key, coeff in element.terms.items():
            if len(key) > x_degree:
                continue
            if coeff.q_order != q_order:
                raise ValueError(
                    f"coefficient bound {coeff.q_order} does not match series bound {q_order}"
                )
            kept[key] = coeff
        self.x_degree = x_degree
        self.q_order = q_order
        self.element = element._like(kept)

    @classmethod
    def one(cls, ca: CycleAlgebra, x_degree: int, q_order: int) -> "TruncatedTorusSeries":
        return cls(x_degree, q_order, TorusElement(ca.signature, {(): TruncatedRSeries.one(q_order)}))

    @property
    def terms(self) -> dict:
        return self.element.terms

    def _check(self, other: "TruncatedTorusSeries") -> None:
        self.element._check(other.element)
        if self.x_degree != other.x_degree:
            raise ValueError(f"x-degree bound mismatch: {self.x_degree} != {other.x_degree}")
        if self.q_order != other.q_order:
            raise ValueError(f"truncation bound mismatch: {self.q_order} != {other.q_order}")

    def _like(self, terms: dict) -> "TruncatedTorusSeries":
        out = object.__new__(TruncatedTorusSeries)
        out.x_degree = self.x_degree
        out.q_order = self.q_order
        out.element = self.element._like(terms)
        return out

    def __mul__(self, other: "TruncatedTorusSeries") -> "TruncatedTorusSeries":
        """The product, forming only the pairs whose x-degrees sum to at most the bound."""
        if not isinstance(other, TruncatedTorusSeries):
            return NotImplemented
        return _product(self, other, self.q_order)

    def shift_a(self, delta: int) -> "TruncatedTorusSeries":
        """Apply ``a -> q**delta * a`` to every coefficient.

        Only trustworthy when computed with enough headroom above the
        target bound; see ``check_shift``.
        """
        return self._like({e: s for e, c in self.terms.items() if (s := c.shift_a(delta))})

    def retruncate(self, q_order: int) -> "TruncatedTorusSeries":
        """Tighten the truncation bound.  Raising it is an error, even with no terms."""
        if q_order > self.q_order:
            raise ValueError(f"cannot raise a truncation bound ({self.q_order} -> {q_order})")
        terms = {e: t for e, c in self.terms.items() if (t := c.retruncate(q_order))}
        return TruncatedTorusSeries(self.x_degree, q_order, self.element._like(terms))

    def constant_term(self) -> TruncatedRSeries:
        found = self.element.terms.get(())
        return found if found is not None else TruncatedRSeries.zero(self.q_order)

    def coefficient(self, exps: Sequence[int]) -> TruncatedRSeries:
        """The coefficient of the monomial with exponent vector ``exps``."""
        found = self.element.terms.get(self.element.signature.key(exps))
        return found if found is not None else TruncatedRSeries.zero(self.q_order)

    def __repr__(self) -> str:
        return (
            f"TruncatedTorusSeries(x_degree={self.x_degree}, q_order={self.q_order}, "
            f"{len(self.element.terms)} terms)"
        )


def _graded(s: TruncatedTorusSeries) -> list[dict]:
    """The homogeneous pieces of ``s``: entry ``d`` holds its terms of x-degree ``d``."""
    pieces: list[dict] = [{} for _ in range(s.x_degree + 1)]
    for key, coeff in s.terms.items():
        pieces[len(key)][key] = coeff
    return pieces


def _product(x: TruncatedTorusSeries, y: TruncatedTorusSeries, bound: int) -> TruncatedTorusSeries:
    """``(x * y).retruncate(bound)``, forming only the pairs that land within the bounds.

    Piece ``D - k`` of ``x`` meets the terms of ``y`` of x-degree at most
    ``k``; the module docstring says why this is exact.  Each coefficient
    of ``y`` is sorted by v-exponent once, by ``_operand(bound)``, so the
    coefficient products stop at ``bound``.
    """
    x._check(y)
    left = _graded(x)
    acc: dict = {}
    below: dict = {}  # the terms of y of x-degree <= k
    for k, piece in enumerate(_graded(y)):
        below.update((key, coeff._operand(bound)) for key, coeff in piece.items())
        if left[x.x_degree - k]:
            _accumulate(acc, x.element.signature, left[x.x_degree - k], below)
    terms = _settle(acc, {(): TruncatedRSeries.zero(bound)})  # wrapped at ``bound``
    return TruncatedTorusSeries(x.x_degree, bound, x.element._like(terms))


def _linear_factor(ca: CycleAlgebra, e_v: int, e_b: int, x_degree: int, q_order: int) -> TruncatedTorusSeries:
    """``1 + sum_C v**(e_v rot) b**(e_b rot) x_C`` at the given bounds."""
    terms = {(): TruncatedRSeries.one(q_order)}
    terms.update(((t,), coeff) for t, coeff in enumerate(_slope(ca, e_v, e_b, q_order)))
    return TruncatedTorusSeries(x_degree, q_order, TorusElement(ca.signature, terms))


def _headroom(ca: CycleAlgebra, x_degree: int) -> tuple[int, int]:
    """Proven v-headroom: ``M`` for ``homfly_series`` and ``M_shift`` for ``check_shift``.

    Grading.  With ``c`` the cycle skew, let
    ``lam(alpha) = sum_{i>l} alpha_i alpha_l max(0, -c(i,l))`` and give the
    term ``v**e x**alpha`` the degree ``deg = e + lam(alpha) >= e``.  The
    shift ``sig(alpha, beta) = sum_{i>l} alpha_i beta_l c(i,l)`` of
    ``torus_mul`` satisfies

        lam(alpha + beta) - lam(alpha) - lam(beta) + sig(alpha, beta)
            = sum_{i>l} (alpha_i beta_l max(0, c(i,l))
                         + beta_i alpha_l max(0, -c(i,l)))  >=  0,

    so a product term has at least the degree sum of the two terms that
    formed it.  A term the arithmetic drops at bound ``W`` has ``deg > W``:
    either its ``e`` exceeds ``W``, or it is a coefficient product with
    ``e1 + e2 > W`` dropped before its shift, of degree ``>= e1 + e2``.

    Exactness.  For ``h >= 0`` call an element ``h``-exact when all its
    terms, true and computed, have ``deg >= -h``, and the computed terms
    equal the true ones wherever ``deg <= W - h``.  Then a product of an
    ``h``- and a ``k``-exact element is ``(h + k)``-exact, a sum is exact
    with the larger ``h``, and ``series_invert`` of a 0-exact unit is
    0-exact (induction on ``d`` in ``Q_d``).  A linear factor with
    ``e_v = 2`` is 0-exact, and one with ``e_v = -2`` is ``2R``-exact,
    ``R`` the largest rotation: its terms have ``deg = e_v rot``.

    The solve.  ``_poch_inf`` (``_solve_twisted`` with no right factor)
    forms ``p_alpha`` from the ``p_{alpha - t}`` and then divides by
    ``1 - v**(4 rot alpha)``.  With ``lam(t) = 0`` the
    identity above gives ``lam(alpha) >= lam(alpha - t) - sig(t, alpha - t)``,
    so a term of ``p_{alpha - t}`` of degree ``d`` makes terms of degree at
    least ``d + e_v r_t + 4 rot(alpha - t)``.  A pair it drops has
    ``e1 + e_v r_t > W`` or lands at ``e > W``, so it would make a term of
    ``deg > W``; the division only adds ``4 rot alpha`` to ``e`` along each
    chain and cuts only ``e > W``.  By induction on ``|alpha|``, with
    ``h_alpha`` the exactness of ``p_alpha`` and ``h_() = 0`` (``p_() = 1``
    is exact): for ``e_v`` in ``{2, 6}`` every step raises the degree, so
    ``h_alpha = 0``.  For ``e_v = -2`` an error of ``p_{alpha - t}``,
    ``alpha - t`` nonempty, lands at degree above
    ``W - h_{alpha - t} - 2 r_t + 4 rot(alpha - t)``, and with
    ``h_{alpha - t} <= 2 rot(alpha - t)`` that is above ``W - 2 r_t``; the
    same steps bound every term below by ``-2 r_t``.  So
    ``h_alpha <= 2 max_{t in alpha} r_t <= 2R``.  Hence ``poch(a)``,
    ``poch(a^{-1})`` and the ``e_v = 6`` product of ``check_shift`` are
    0-exact and its ``e_v = -2`` product is ``2R``-exact.

    The quotient.  ``_poch_quotient`` solves ``G * L_- = L_+ * tau(G)``
    the same way, with two pushes from each ``g_{alpha - t}``: ``c+_t``
    (slope (2, -2)) on the left, shifted by ``sig(t, alpha - t) +
    4 rot(alpha - t)``, is the ``e_v = 2`` step above and raises the
    degree by at least ``2 r_t``; ``-c-_t`` (slope (2, 2)) on the right,
    shifted by ``sig(alpha - t, t)``, raises it by at least ``2 r_t`` too,
    since the identity with ``lam(t) = 0`` also gives
    ``lam(alpha) >= lam(alpha - t) - sig(alpha - t, t)``.  A pair either
    push drops has ``e1 + 2 r_t > W`` or lands at ``e > W``, so it would
    make a term of ``deg > W``, and the division is as above.  So, by the
    same induction with every step raising the degree, ``G`` is 0-exact
    at ``W`` with no new margin beyond the ``M`` and ``M_shift`` below.

    ``M``: ``.series`` and ``check_fphi`` read terms with ``e <= Q`` of
    0-exact elements, so of ``deg <= Q + lam(alpha)``; the flow table reads
    the terms of ``G`` with ``e + phi(alpha) <= Q``, where ``phi(alpha)``
    is the v-shift ``CycleAlgebra.mu`` adds to ``x**alpha``.  So
    ``M = max_{|alpha| <= D} (lam(alpha) + max(0, -phi(alpha)))``.

    ``M_shift``: the ``e_v = -2`` factor and product of ``check_shift``
    are ``2R``-exact, so all it compares is ``2R``-exact, and
    ``shift_a(2)`` lowers ``e`` by at most ``4R |alpha|`` (b-exponents are
    at least ``-2R |alpha|``).  So
    ``M_shift = max_{|alpha| <= D} (lam(alpha) + 4R |alpha|) + 2R``.

    Target-bound products.  A product read only after ``retruncate(Q)``
    (the one of ``check_fphi`` and the three final ones of
    ``check_shift``) is formed by ``_product(x, y, Q)``, which keeps a
    coefficient pair iff ``e1 + e2 <= W`` and ``e1 + e2 + shift <= Q``:
    exactly the pairs of ``x * y`` that the re-truncation keeps.  The
    first condition never binds.  By the identity above and ``lam >= 0``,
    ``sig(alpha, beta) >= -lam(alpha + beta)``, and for
    ``|alpha + beta| <= D`` that is at least ``-(W - Q)``, because both
    ``M`` and ``M_shift`` are at least ``max lam``.  So a pair with
    ``e1 + e2 > W`` lands above ``Q``, and the rule is just
    ``e1 + e2 + shift <= Q``.

    Both maxima come from one pass over the ``C(K + D, D)`` keys of
    x-degree at most ``D``, as ascending index lists, the order in which
    ``mu`` multiplies the images.  A key's ``lam`` is the sum of
    ``max(0, -c(t,l))`` and its ``phi`` the sum of ``P[l][t]`` over its
    pairs of positions, ``l`` at the earlier one, with ``P`` the table of
    image shifts ``CycleAlgebra.image_shifts`` that ``mu`` reads: O(D^2)
    per key, the pair loop of ``CycleAlgebra._image``, and no running
    vectors.
    """
    skew = ca.signature.skew
    phi_rows = ca.image_shifts
    r_max = max((abs(r) for r in ca.rots), default=0)
    series = shift = 0
    for size in range(x_degree + 1):
        for key in combinations_with_replacement(range(len(skew)), size):
            lam = phi = 0
            for n, t in enumerate(key):
                for l in key[:n]:
                    lam += max(0, -skew[t][l])
                    phi += phi_rows[l][t]
            series = max(series, lam + max(0, -phi))
            shift = max(shift, lam + 4 * r_max * size)
    return series, shift + 2 * r_max


def _poch_inf(ca: CycleAlgebra, e_v: int, e_b: int, x_degree: int, q_order: int) -> TruncatedTorusSeries:
    """The infinite twisted product ``P = L_0 L_1 L_2 ...`` with the given slopes, mod truncation.

    ``L_k = 1 + sum_t c_t v**(4k r_t) x_t`` with ``c_t = v**(e_v r_t) b**(e_b r_t)``,
    so ``L_{k+1} = tau(L_k)`` for the twist ``tau(x**alpha) = v**(4 rot alpha) x**alpha``,
    an automorphism of the cycle algebra, and ``P = L_0 * tau(P)``: the
    equation of ``_solve_twisted`` with no right factor.
    """
    return _solve_twisted(ca, x_degree, q_order, _slope(ca, e_v, e_b, q_order))


def _poch_quotient(ca: CycleAlgebra, x_degree: int, q_order: int) -> TruncatedTorusSeries:
    """``G = poch(a) * poch(a^{-1})^{-1}``, mod truncation, without inverting or multiplying.

    With ``P_+ = poch(a) = L_+ * tau(P_+)`` and ``P_- = poch(a^{-1}) = L_- * tau(P_-)``
    (first factors ``L_+`` of slope (2, -2) and ``L_-`` of slope (2, 2)),
    ``P_-^{-1} * L_- = tau(P_-)^{-1}``, so ``G * L_- = L_+ * tau(G)``: the
    equation of ``_solve_twisted`` with both factors.
    """
    return _solve_twisted(ca, x_degree, q_order, _slope(ca, 2, -2, q_order), _slope(ca, 2, 2, q_order))


def _slope(ca: CycleAlgebra, e_v: int, e_b: int, q_order: int) -> list[TruncatedRSeries]:
    """The coefficients ``v**(e_v r_t) b**(e_b r_t)`` of the linear factor of this slope."""
    return [TruncatedRSeries.monomial(q_order, e_v * rot, e_b * rot) for rot in ca.rots]


def _solve_twisted(
    ca: CycleAlgebra, x_degree: int, q_order: int,
    left: Sequence[TruncatedRSeries], right: Sequence[TruncatedRSeries] = (),
) -> TruncatedTorusSeries:
    """The series ``S`` with ``S_() = 1`` and ``S * R = L * tau(S)``, mod truncation.

    ``L = 1 + sum_t left[t] x_t`` and ``R = 1 + sum_t right[t] x_t`` (no
    terms when ``right`` is empty), and ``tau(x**alpha) = v**(4 rot alpha) x**alpha``
    is the twist.  On the coefficient ``s_alpha`` of ``x**alpha`` that reads

        s_alpha (1 - v**(4 rot alpha))
            = sum_{distinct t in alpha} (left_t v**(sig(t, alpha - t) + 4 rot(alpha - t))
                                         - right_t v**(sig(alpha - t, t))) s_{alpha - t},

    with ``sig(alpha, beta)`` the shift of ``x**alpha * x**beta``.  The right
    side is pushed from each solved key of the degree below through the
    ring's ``_addmul``, one monomial operand per variable and factor,
    skipping a pair whose lowest v-exponent already lands past the bound,
    so no empty map is made; dividing by ``1 - v**(4 rot alpha)`` is one
    running sum along each ``(b, v mod 4 rot alpha)`` chain up to the
    bound.  This needs ``rot alpha >= 1`` for every nonempty ``alpha``: a
    positive diagram (``homfly_series`` checks).  The result is exact only
    up to the grading of ``_headroom``, which proves the solve: callers
    read it at a target bound below ``q_order`` by a headroom proven there.
    """
    skew, rots = ca.signature.skew, ca.rots
    pushes = []  # (t, lowest v, operand, twisted): the left factor twisted, the right one negated
    for twisted, coeffs in ((True, left), (False, [-c for c in right])):
        for t, coeff in enumerate(coeffs):
            if coeff:
                operand = coeff._operand()
                pushes.append((t, operand[2][0][0], operand, twisted))
    one = TruncatedRSeries.one(q_order)
    level = terms = {(): one} if one else {}  # the solved keys of the degree below
    for _ in range(x_degree):
        rhs: dict = {}
        for beta, s in level.items():
            low, twist = min(v for v, _ in s.terms), 4 * sum(map(rots.__getitem__, beta))
            for t, v_t, operand, twisted in pushes:
                pos = bisect_right(beta, t)
                if twisted:  # sig(t, beta), over the entries of beta below t
                    shift = sum(map(skew[t].__getitem__, beta[:pos])) + twist
                else:  # sig(beta, t), over those above
                    shift = -sum(map(skew[t].__getitem__, beta[pos:]))
                if low + v_t + max(shift, 0) <= q_order:  # else no pair lands within the bound
                    key = beta[:pos] + (t,) + beta[pos:]
                    dest = rhs.get(key)
                    if dest is None:
                        dest = rhs[key] = {}
                    s._addmul(dest, operand, shift)
        level = {key: one._like(solved) for key, raw in rhs.items()
                 if (solved := _untwist(raw, 4 * sum(map(rots.__getitem__, key)), q_order))}
        terms = terms | level
    return TruncatedTorusSeries.one(ca, x_degree, q_order)._like(terms)


def _untwist(raw: dict, step: int, bound: int) -> dict:
    """``raw / (1 - v**step)`` up to v-exponent ``bound``, as clean terms.

    Each chain ``(b, v mod step)`` is one running sum from its lowest
    v-exponent, so the cost is the size of the output.
    """
    chains: dict = {}
    for (v, b), c in raw.items():
        chains.setdefault((b, v % step), {})[v] = c
    out = {}
    for (b, _), chain in chains.items():
        total = 0
        for v in range(min(chain), bound + 1, step):
            total += chain.get(v, 0)
            if total:
                out[(v, b)] = total
    return out


def series_invert(s: TruncatedTorusSeries) -> TruncatedTorusSeries:
    """Invert a series with constant term 1, modulo both truncations.

    No code of the package calls it, and it is not exported:
    ``_poch_quotient`` solves ``G`` without an inverse.  It stays because
    the benchmark's tracer (``bench/tracing.py``) binds
    ``moyeval.homfly.series_invert`` by name and raises ``LookupError``
    without it, and its unit tests pin it down.

    With ``P_j`` the x-degree-``j`` piece of ``s`` (so ``P_0 = 1``), the
    inverse is built degree by degree: ``Q_0 = 1`` and
    ``Q_d = -sum_{j=1..d} Q_{d-j} * P_j``, which forms the pairs of a
    single capped product ``Q * s``.  So ``Q * s == 1`` holds exactly at
    the bound.  The v-truncation is no ring quotient (skew shifts can lower
    v-exponents), so ``s * Q == 1`` is promised only in the grading of
    ``_headroom``: when every term of ``s`` has ``deg >= 0``, both orders
    hold at every term of ``deg`` at most the bound, hence at v-exponents
    up to the bound minus ``max lam`` over x-degree at most ``x_degree``.
    """
    if s.constant_term() != TruncatedRSeries.one(s.q_order):
        raise ValueError("series is not invertible here: constant term must be exactly 1")
    pieces = _graded(s)
    negated = [{key: (-coeff)._operand() for key, coeff in piece.items()} for piece in pieces]
    inverse = pieces[:1]
    for d in range(1, s.x_degree + 1):
        acc: dict = {}
        for j in range(1, d + 1):
            _accumulate(acc, s.element.signature, inverse[d - j], negated[j])
        inverse.append(_settle(acc, s.terms))
    terms: dict = {}
    for piece in inverse:
        terms.update(piece)
    return s._like(terms)


def _assemble(
    ca: CycleAlgebra, x_degree: int, work: int
) -> tuple[TruncatedTorusSeries, TruncatedTorusSeries, TruncatedTorusSeries]:
    """``poch(a)``, ``poch(a^{-1})`` and ``G = poch(a) * poch(a^{-1})^{-1}`` at bound ``work``."""
    return (_poch_inf(ca, 2, -2, x_degree, work), _poch_inf(ca, 2, 2, x_degree, work),
            _poch_quotient(ca, x_degree, work))


class HomflySeries(NamedTuple):
    """The truncated HOMFLY data of a positive diagram.

    ``poch_a``, ``poch_ainv`` and ``series_work`` (``G``) are the series
    ``homfly_series`` solved, kept at its internal work bound
    ``poch_a.q_order`` so that ``check_fphi`` checks them, not a copy.
    """

    diagram: PlanarDiagram
    cycle_algebra: CycleAlgebra
    x_degree: int
    q_order: int
    poch_a: TruncatedTorusSeries
    poch_ainv: TruncatedTorusSeries
    series_work: TruncatedTorusSeries  # poch_a * poch_ainv^-1
    table: dict  # Coloring -> TruncatedRSeries

    @property
    def series(self) -> TruncatedTorusSeries:
        """The cycle-side series ``G`` at the target bound ``q_order``."""
        return self.series_work.retruncate(self.q_order)


def homfly_series(d: PlanarDiagram, x_degree: int, q_order: int) -> HomflySeries:
    """Compute the truncated HOMFLY series and its flow table.

    The whole pipeline (the three solves, the flag substitution) runs at
    the internal bound ``q_order + M``, with ``M`` the headroom proven in
    ``_headroom``, and is re-truncated at the end, so every stored table
    term is the true series coefficient.  A diagram that is not positive is
    refused before any of it runs.
    """
    cycle_set = CycleSet(d)
    if not cycle_set.is_positive:
        raise DiagramError(
            "infinite twisted products need a positive diagram "
            "(every circuit must have rotation +1)"
        )
    ca = CycleAlgebra(d, cycle_set)
    margin, _ = _headroom(ca, x_degree)
    poch_a, poch_ainv, series_work = _assemble(ca, x_degree, q_order + margin)
    flows = ca.flow_table(series_work.element)
    table = {c: tight for c, coeff in flows.items() if (tight := coeff.retruncate(q_order))}
    return HomflySeries(d, ca, x_degree, q_order, poch_a, poch_ainv, series_work, table)


class CheckReport(NamedTuple):
    name: str
    ok: bool
    detail: str = ""
    sub: tuple = ()

    def all_ok(self) -> bool:
        return self.ok and all(r.all_ok() for r in self.sub)


def check_fphi(hs: HomflySeries) -> CheckReport:
    """Verify ``G * poch(a^{-1}) == poch(a)`` at the stored bounds.

    The residual is formed from the series ``hs`` keeps at its work
    bound, their product formed only as far as the target bound, so the
    comparison is between true coefficients (see ``_headroom``).  ``G``
    and the two products are three independent solves, each of its own
    q-difference equation, so the check compares all three; none of them
    is built from another.
    """
    bound, work = hs.q_order, hs.poch_a.q_order
    lhs = _product(hs.series_work, hs.poch_ainv, bound)
    rhs = hs.poch_a.retruncate(bound)
    residual = lhs - rhs
    compared = len(lhs.element.terms.keys() | rhs.element.terms.keys())
    ok = not residual
    if ok:
        detail = f"residual vanishes at x-degree <= {hs.x_degree}, v-exponent <= {bound}"
    else:
        detail = f"residual has {len(residual.element.terms)} monomials"
    detail += (f"; {compared} monomials compared at internal bound {work} "
               f"(headroom {work - bound} over {bound})")
    return CheckReport("defining-equation", ok, detail)


def check_shift(hs: HomflySeries) -> CheckReport:
    """Verify the ``a -> q**2 a`` shift identity on the truncated series.

    Everything is recomputed at the internal bound ``q_order + M_shift``:
    the shift lowers v-exponents by up to twice the largest negative
    b-exponent, and the two single linear factors involved carry negative
    v-slopes; ``_headroom`` proves that this headroom makes every compared
    term exact; the products read only at the target bound are formed
    only as far as it.  The two auxiliary identities peel one linear
    factor off an infinite product after re-indexing its twists:
    ``P_{-2} = L * tau(P_{-2})`` with ``tau(P_{-2}) = P_2`` and
    ``P_2 = L * P_6`` for the a-inverse slopes.  Each product is solved
    from its own q-difference equation, so the two identities cross-check
    two independent solves.
    """
    ca = hs.cycle_algebra
    deg, bound = hs.x_degree, hs.q_order
    _, margin = _headroom(ca, deg)
    work = bound + margin

    poch_a, poch_ainv, series = _assemble(ca, deg, work)
    factor_qinv = _linear_factor(ca, -2, -2, deg, work)
    factor_ainv = _linear_factor(ca, 2, 2, deg, work)

    sq_q_lhs = _poch_inf(ca, -2, -2, deg, work).retruncate(bound)
    sq_q_rhs = _product(factor_qinv, poch_a, bound)
    sq_q = CheckReport(
        "reindex-q",
        sq_q_lhs == sq_q_rhs,
        "q-inverse product equals its first factor times the plain product",
    )

    sq_a_lhs = _product(factor_ainv, _poch_inf(ca, 6, 2, deg, work), bound)
    sq_a_rhs = poch_ainv.retruncate(bound)
    sq_a = CheckReport(
        "reindex-a",
        sq_a_lhs == sq_a_rhs,
        "a-inverse product equals its first factor times the tail product",
    )

    main_lhs = series.shift_a(2).retruncate(bound)
    main_rhs = _product(factor_qinv * series, factor_ainv, bound)
    main = CheckReport(
        "conjugate",
        main_lhs == main_rhs,
        "shifted series equals the two-sided linear-factor conjugation",
    )

    ok = sq_q.ok and sq_a.ok and main.ok
    return CheckReport(
        "shift",
        ok,
        "conjugating factors are the two single linear polynomials, not their "
        f"infinite products; computed at internal bound {work} "
        f"(headroom {margin} over {bound})",
        (sq_q, sq_a, main),
    )


class SpecializedCoefficient(NamedTuple):
    value: QLaurent
    window: int  # the substitution is exact for v-exponents <= window


def _specialization_window(hs: HomflySeries, n: int) -> int:
    """The largest v-exponent where ``a = q**n`` gives exact values.

    Coefficients of the series carry b-exponents no lower than
    ``-2 * x_degree * R``; a term discarded above the v-bound can therefore
    land at most ``2 n x_degree R`` below it after substitution.  The
    window is the same for every coloring.
    """
    r_max = max((abs(r) for r in hs.cycle_algebra.rots), default=0)
    return hs.q_order - 2 * n * hs.x_degree * r_max


def specialize_to_N(hs: HomflySeries, n: int) -> dict:
    """Set ``a = q**n`` in every table entry, restricted to its safe window."""
    window = _specialization_window(hs, n)
    out = {}
    for coloring, coeff in hs.table.items():
        substituted = coeff.substitute_a(n)
        value = QLaurent({e: c for e, c in substituted.terms.items() if e <= window})
        out[coloring] = SpecializedCoefficient(value, window)
    return out


def specialization_check(hs: HomflySeries, n: int) -> CheckReport:
    """Compare the specialized series with the level-``n`` state sum.

    The window must contain every exact value, or the truncation bound is
    too small; within it, every coloring realized by the state sum must
    appear in the series table, or the x-degree bound is too small; every
    series coloring the state sum does not realize must specialize to zero.
    """
    reference = eval_table(hs.diagram, n, cycle_set=hs.cycle_algebra.cycle_set)
    specialized = specialize_to_N(hs, n)
    window = _specialization_window(hs, n)
    problems = []
    for coloring in sorted(set(reference) | set(specialized), key=Coloring.sort_key):
        exact = reference.get(coloring, QLaurent.zero())
        if exact and exact.max_exponent() > window:
            problems.append(
                f"{format_coloring(coloring)}: exact value reaches v-exponent "
                f"{exact.max_exponent()} beyond the window {window}; "
                f"the truncation bound {hs.q_order} is too small"
            )
            continue
        if coloring not in specialized:
            if exact:
                problems.append(
                    f"{format_coloring(coloring)}: absent from the series table; "
                    f"the x-degree bound {hs.x_degree} is too small"
                )
            continue
        value = specialized[coloring].value
        if value != exact:
            problems.append(
                f"{format_coloring(coloring)}: series specializes to {value!r}, "
                f"state sum gives {exact!r}"
            )
    if problems:
        return CheckReport("specialize", False, "; ".join(problems))
    return CheckReport(
        "specialize",
        True,
        f"matches the level-{n} state sum on {len(reference)} colorings",
    )
