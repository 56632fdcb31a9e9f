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
only the pairs whose degrees sum to at most the bound, and ``series_invert``
solves for the inverse one degree at a time from the same pieces instead of
summing a Neumann series of full products.

The HOMFLY series of the diagram is

    G = poch(a) * poch(a^{-1})^{-1}

with ``poch(a)`` the slope-(2, -2) product and ``poch(a^{-1})`` the
slope-(2, 2) one.  Its image ``mu(G)`` in the flag algebra collects, per
flow coloring, a truncated two-variable series in ``q`` and ``a``; setting
``a = q**n`` recovers the level-``n`` evaluations within an explicit
window.  ``check_fphi`` and ``check_shift`` verify the defining equation
and the ``a -> q**2 a`` shift identity on the truncated data.

``_assemble`` is the only code that builds the two products and ``G``.
``homfly_series`` builds them once and keeps them on ``HomflySeries``;
``check_fphi`` checks those kept products instead of building a copy.
``check_shift`` needs a larger internal bound than the kept ones carry,
and a truncation bound can only be lowered, so it assembles its own.

Truncation by v-exponent is no ring quotient: skew shifts can lower
v-exponents, so a dropped term could reach back below the bound.  Every
product therefore runs at an internal bound ``Q + M``, with the headroom
``M`` proven from a grading of the cycle algebra by the skew, and is
re-truncated at the target ``Q`` only at the end.  ``_headroom`` holds the
argument; ``check_shift``, whose ``shift_a`` substitution also lowers
v-exponents, gets its own headroom from the same argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .diagram import Coloring, DiagramError, PlanarDiagram, format_coloring
from .qexact import QLaurent, TruncatedRSeries
from .qtorus import CycleAlgebra, TorusElement, torus_mul
from .statesum import eval_table

__all__ = [
    "TruncatedTorusSeries",
    "series_invert",
    "HomflySeries",
    "homfly_series",
    "CheckReport",
    "check_fphi",
    "check_shift",
    "SpecializedCoefficient",
    "specialize_to_N",
    "specialization_check",
]


class TruncatedTorusSeries:
    """A cycle-algebra element with truncated-series coefficients.

    Terms of total x-degree above ``x_degree`` are discarded, and every
    coefficient is a ``TruncatedRSeries`` at the common bound ``q_order``.
    """

    __slots__ = ("x_degree", "q_order", "element")

    def __init__(self, x_degree: int, q_order: int, element: TorusElement):
        kept = {}
        for exps, coeff in element.terms.items():
            if sum(exps) > x_degree:
                continue
            if coeff.q_order != q_order:
                raise ValueError(
                    f"coefficient bound {coeff.q_order} does not match series bound {q_order}"
                )
            kept[exps] = coeff
        self.x_degree = x_degree
        self.q_order = q_order
        self.element = TorusElement(element.signature, kept)

    @classmethod
    def zero(cls, ca: CycleAlgebra, x_degree: int, q_order: int) -> "TruncatedTorusSeries":
        return cls(x_degree, q_order, TorusElement.zero(ca.signature))

    @classmethod
    def one(cls, ca: CycleAlgebra, x_degree: int, q_order: int) -> "TruncatedTorusSeries":
        exps = (0,) * len(ca.signature)
        return cls(
            x_degree,
            q_order,
            TorusElement.monomial(ca.signature, exps, TruncatedRSeries.one(q_order)),
        )

    def _check_compatible(self, other: "TruncatedTorusSeries") -> None:
        if self.x_degree != other.x_degree:
            raise ValueError(f"x-degree bound mismatch: {self.x_degree} != {other.x_degree}")
        if self.q_order != other.q_order:
            raise ValueError(f"truncation bound mismatch: {self.q_order} != {other.q_order}")

    def _wrap(self, element: TorusElement) -> "TruncatedTorusSeries":
        return TruncatedTorusSeries(self.x_degree, self.q_order, element)

    def __bool__(self) -> bool:
        return bool(self.element)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedTorusSeries):
            return NotImplemented
        return (
            self.x_degree == other.x_degree
            and self.q_order == other.q_order
            and self.element == other.element
        )

    def __add__(self, other: "TruncatedTorusSeries") -> "TruncatedTorusSeries":
        if not isinstance(other, TruncatedTorusSeries):
            return NotImplemented
        self._check_compatible(other)
        return self._wrap(self.element + other.element)

    def __neg__(self) -> "TruncatedTorusSeries":
        return self._wrap(-self.element)

    def __sub__(self, other: "TruncatedTorusSeries") -> "TruncatedTorusSeries":
        if not isinstance(other, TruncatedTorusSeries):
            return NotImplemented
        self._check_compatible(other)
        return self._wrap(self.element - other.element)

    def __mul__(self, other: "TruncatedTorusSeries") -> "TruncatedTorusSeries":
        """The product, forming only the pairs whose x-degrees sum to at most the bound.

        Piece ``D - k`` of ``self`` meets the terms of ``other`` of x-degree
        at most ``k``; the module docstring says why this is exact.
        """
        if not isinstance(other, TruncatedTorusSeries):
            return NotImplemented
        self._check_compatible(other)
        left = _graded(self)
        out = below = TorusElement.zero(self.element.signature)
        for k, piece in enumerate(_graded(other)):
            below = below + piece  # the terms of other of x-degree <= k
            if left[self.x_degree - k]:
                out = out + torus_mul(left[self.x_degree - k], below)
        return self._wrap(out)

    def shift_a(self, delta: int) -> "TruncatedTorusSeries":
        """Apply ``a -> q**delta * a`` to every coefficient.

        Only trustworthy when computed with enough headroom above the
        target bound; see ``check_shift``.
        """
        return self._wrap(
            TorusElement(
                self.element.signature,
                {e: c.shift_a(delta) for e, c in self.element.terms.items()},
            )
        )

    def retruncate(self, q_order: int) -> "TruncatedTorusSeries":
        element = TorusElement(
            self.element.signature,
            {e: c.retruncate(q_order) for e, c in self.element.terms.items()},
        )
        return TruncatedTorusSeries(self.x_degree, q_order, element)

    def constant_term(self) -> TruncatedRSeries:
        exps = (0,) * len(self.element.signature)
        found = self.element.terms.get(exps)
        return found if found is not None else TruncatedRSeries.zero(self.q_order)

    def coefficient(self, exps: Sequence[int]) -> TruncatedRSeries:
        found = self.element.terms.get(tuple(exps))
        return found if found is not None else TruncatedRSeries.zero(self.q_order)

    def __repr__(self) -> str:
        return (
            f"TruncatedTorusSeries(x_degree={self.x_degree}, q_order={self.q_order}, "
            f"{len(self.element.terms)} terms)"
        )


def _graded(s: TruncatedTorusSeries) -> list[TorusElement]:
    """The homogeneous pieces of ``s``: entry ``d`` holds its terms of x-degree ``d``."""
    pieces: list[dict] = [{} for _ in range(s.x_degree + 1)]
    for exps, coeff in s.element.terms.items():
        if min(exps, default=0) < 0:
            raise ValueError("series terms need nonnegative x-exponents")
        pieces[sum(exps)][exps] = coeff
    return [TorusElement(s.element.signature, piece) for piece in pieces]


def _linear_factor(
    ca: CycleAlgebra, e_v: int, e_b: int, k: int, x_degree: int, q_order: int
) -> TruncatedTorusSeries:
    """``1 + sum_C v**((e_v+4k) rot) b**(e_b rot) x_C`` at the given bounds."""
    zero_exps = (0,) * len(ca.signature)
    terms = {zero_exps: TruncatedRSeries.one(q_order)}
    if x_degree >= 1:
        for index, rot in enumerate(ca.rots):
            coeff = TruncatedRSeries.monomial(q_order, (e_v + 4 * k) * rot, e_b * rot)
            if coeff:
                exps = [0] * len(ca.signature)
                exps[index] = 1
                terms[tuple(exps)] = coeff
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
    0-exact (induction on ``d`` in ``Q_d``).  An ``e_v = 2`` linear factor
    is 0-exact (its non-constant terms have ``deg = 2 + 4k``), and
    ``_poch_inf`` omits only factors whose non-constant terms have
    ``e > W``; so ``poch(a)``, ``poch(a^{-1})`` and ``G`` are 0-exact.

    ``M``: ``.series`` and ``check_fphi`` read terms with ``e <= Q`` of
    0-exact elements, so of ``deg <= Q + lam(alpha)``; the flow table reads
    the terms of ``G`` with ``e + phi(alpha) <= Q``, where ``phi(alpha)``
    is the v-shift ``CycleAlgebra.mu`` adds to ``x**alpha``.  So
    ``M = max_{|alpha| <= D} (lam(alpha) + max(0, -phi(alpha)))``.

    ``M_shift``: with ``R`` the largest rotation, the ``e_v = -2`` factors
    of ``check_shift`` have terms of ``deg >= -2R``, so all it compares is
    ``2R``-exact, and ``shift_a(2)`` lowers ``e`` by at most ``4R |alpha|``
    (b-exponents are at least ``-2R |alpha|``).  So
    ``M_shift = max_{|alpha| <= D} (lam(alpha) + 4R |alpha|) + 2R``.

    Both maxima come from one walk over the monomials as ascending index
    lists, the order in which ``mu`` multiplies the images.  Appending index
    ``t`` raises ``lam`` by ``sum_l alpha_l max(0, -c(t,l))`` and ``phi`` by
    ``sum_l alpha_l P[l][t]``, with ``P`` the table of image shifts
    ``CycleAlgebra.image_shifts`` that ``mu`` reads; both increments are
    kept for every ``t`` in running vectors, so a step costs O(K).
    """
    k = len(ca.signature)
    skew = ca.signature.skew
    # row l: what an x_l already in the monomial adds when x_t joins, per t
    lam_rows = [[max(0, -skew[t][l]) for t in range(k)] for l in range(k)]
    phi_rows = ca.image_shifts
    r_max = max((abs(r) for r in ca.rots), default=0)
    best = [0, 0]

    def walk(first: int, size: int, lam: int, phi: int, lam_step: list, phi_step: list) -> None:
        best[0] = max(best[0], lam + max(0, -phi))
        best[1] = max(best[1], lam + 4 * r_max * size)
        if size < x_degree:
            for t in range(first, k):
                walk(t, size + 1, lam + lam_step[t], phi + phi_step[t],
                     [a + b for a, b in zip(lam_step, lam_rows[t])],
                     [a + b for a, b in zip(phi_step, phi_rows[t])])

    walk(0, 0, 0, 0, [0] * k, [0] * k)
    return best[0], best[1] + 2 * r_max


def _poch_inf(ca: CycleAlgebra, e_v: int, e_b: int, x_degree: int, q_order: int) -> TruncatedTorusSeries:
    """The infinite twisted product with the given slopes, mod truncation.

    Requires a positive diagram: with every rotation +1 the twist-k factor
    is congruent to 1 once ``e_v + 4k`` exceeds the bound, so the product
    stops at ``k = (q_order - e_v) // 4``.  The result is exact only up to
    the grading of ``_headroom``: callers read it at a target bound below
    ``q_order`` by a headroom proven there.
    """
    if not ca.cycle_set.is_positive:
        raise DiagramError(
            "infinite twisted products need a positive diagram "
            "(every circuit must have rotation +1)"
        )
    cutoff = max(0, (q_order - e_v) // 4 + 1)
    acc = TruncatedTorusSeries.one(ca, x_degree, q_order)
    for k in range(cutoff):
        acc = acc * _linear_factor(ca, e_v, e_b, k, x_degree, q_order)
    return acc


def series_invert(s: TruncatedTorusSeries) -> TruncatedTorusSeries:
    """Invert a series with constant term 1, modulo both truncations.

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
    inverse = pieces[:1]
    for d in range(1, s.x_degree + 1):
        total = TorusElement.zero(s.element.signature)
        for j in range(1, d + 1):
            total = total + torus_mul(inverse[d - j], pieces[j])
        inverse.append(-total)
    return s._wrap(sum(inverse[1:], inverse[0]))


def _assemble(
    ca: CycleAlgebra, x_degree: int, work: int
) -> tuple[TruncatedTorusSeries, TruncatedTorusSeries, TruncatedTorusSeries]:
    """``poch(a)``, ``poch(a^{-1})`` and ``G = poch(a) * poch(a^{-1})^{-1}`` at bound ``work``."""
    poch_a = _poch_inf(ca, 2, -2, x_degree, work)
    poch_ainv = _poch_inf(ca, 2, 2, x_degree, work)
    return poch_a, poch_ainv, poch_a * series_invert(poch_ainv)


@dataclass(frozen=True)
class HomflySeries:
    """The truncated HOMFLY data of a positive diagram.

    ``poch_a``, ``poch_ainv`` and ``series_work`` (``G``) are the products
    ``homfly_series`` built, kept at its internal work bound
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

    The whole pipeline (products, inversion, the flag substitution) runs at
    the internal bound ``q_order + M``, with ``M`` the headroom proven in
    ``_headroom``, and is re-truncated at the end, so every stored table
    term is the true series coefficient.
    """
    ca = CycleAlgebra(d)
    margin, _ = _headroom(ca, x_degree)
    poch_a, poch_ainv, series_work = _assemble(ca, x_degree, q_order + margin)
    flows = ca.flow_table(series_work.element)
    table = {c: tight for c, coeff in flows.items() if (tight := coeff.retruncate(q_order))}
    return HomflySeries(d, ca, x_degree, q_order, poch_a, poch_ainv, series_work, table)


@dataclass(frozen=True)
class CheckReport:
    name: str
    ok: bool
    detail: str = ""
    sub: tuple = ()

    def all_ok(self) -> bool:
        return self.ok and all(r.all_ok() for r in self.sub)


def check_fphi(hs: HomflySeries) -> CheckReport:
    """Verify ``G * poch(a^{-1}) == poch(a)`` at the stored bounds.

    The residual is formed from the products ``hs`` keeps at its work
    bound and compared after truncating back, so the comparison is between
    true coefficients (see ``_headroom``).
    """
    bound, work = hs.q_order, hs.poch_a.q_order
    lhs = (hs.series_work * hs.poch_ainv).retruncate(bound)
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
    term exact.  The two auxiliary identities peel one linear factor off
    an infinite product after re-indexing its twists.
    """
    ca = hs.cycle_algebra
    deg, bound = hs.x_degree, hs.q_order
    _, margin = _headroom(ca, deg)
    work = bound + margin

    poch_a, poch_ainv, series = _assemble(ca, deg, work)
    factor_qinv = _linear_factor(ca, -2, -2, 0, deg, work)
    factor_ainv = _linear_factor(ca, 2, 2, 0, deg, work)

    sq_q_lhs = _poch_inf(ca, -2, -2, deg, work).retruncate(bound)
    sq_q_rhs = (factor_qinv * poch_a).retruncate(bound)
    sq_q = CheckReport(
        "reindex-q",
        sq_q_lhs == sq_q_rhs,
        "q-inverse product equals its first factor times the plain product",
    )

    sq_a_lhs = (factor_ainv * _poch_inf(ca, 6, 2, deg, work)).retruncate(bound)
    sq_a_rhs = poch_ainv.retruncate(bound)
    sq_a = CheckReport(
        "reindex-a",
        sq_a_lhs == sq_a_rhs,
        "a-inverse product equals its first factor times the tail product",
    )

    main_lhs = series.shift_a(2).retruncate(bound)
    main_rhs = (factor_qinv * series * factor_ainv).retruncate(bound)
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
