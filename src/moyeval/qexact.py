"""Exact Laurent arithmetic for quantum polynomials.

Everything in this package is computed over the integers.  Rather than
manipulating fractional powers of ``q`` and ``a`` directly, the rings here
use the substitution variables

* ``v`` with ``v**4 == q`` (so ``q**(1/2) == v**2``), and
* ``b`` with ``b**4 == a``.

Exponents are plain ``int`` values in these v/b units, which keeps every
intermediate result exact and hashable.  Two rings are provided:

``QLaurent``
    Laurent polynomials in ``v`` over the integers: the values of the
    state sum and of the finite twisted products.
``TruncatedRSeries``
    Laurent series in ``v`` and ``b`` truncated at a fixed maximal
    v-exponent, used for infinite-product expansions.

Both stay, although a b-free ``TruncatedRSeries`` with a large enough
bound could stand in for a ``QLaurent``: keying terms by ``int`` instead
of by ``(v, b)`` tuples makes ``QLaurent`` products about 1.5 times as
fast (``qfact(6) * qfact(5)`` under CPython 3.11), and those products are
about half the work of the finite-level tables.  The two rings never mix
in one operation.

Both rings, and the quantum-torus elements and truncated torus series
over them, are sparse term maps built on one private base, ``_Terms``:
truth testing, equality, ``+``, ``-`` and negation are written there
once.  Terms are cleaned once: each public constructor drops zero
coefficients and terms outside its bounds, and results that cannot leave
a bound or empty a coefficient are built by ``_like`` without a second
pass.  Products accumulate raw and clean once in place: each ring's one
product loop, ``_addmul(dest, other, shift)``, adds
``self * other * v**shift`` into a raw term map and leaves zeros there,
and ``_drop_zeros`` then deletes them from that same map before
``_like`` wraps it.  The quantum-torus products feed all their
coefficient pairs into such raw maps, so no ring value is built per pair.
``other`` is the right operand the ring's ``_operand()`` makes, once per
product, not per pair: a ``QLaurent`` is its own operand, and a
``TruncatedRSeries`` gives its terms sorted by v-exponent together with
the bound the product is read at, so each scan stops at that bound and a
product read at a lower bound than its factors forms only what lands
there.
``_addshift(dest, shift)`` adds ``self * v**shift`` the same way, dropping
what the shift pushes past a bound; ``times_v`` and the image ``mu`` of
the quantum torus are built on it.

On top of ``QLaurent`` the usual quantum combinatorics are defined:
``qint``, ``qfact``, ``qbinom`` and ``qmultinom``.  Division is performed
exactly; ``ExactDivisionError`` signals a nonzero remainder, which always
indicates a logic error upstream rather than a recoverable condition.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping, Sequence

__all__ = [
    "ExactDivisionError",
    "QLaurent",
    "TruncatedRSeries",
    "exact_div",
    "qint",
    "qfact",
    "qbinom",
    "qmultinom",
]


class ExactDivisionError(ArithmeticError):
    """Raised when polynomial division leaves a nonzero remainder."""


def _iadd(dest: dict, key, coeff) -> None:
    """Add ``coeff`` into ``dest[key]``, dropping the entry when it cancels.

    Coefficients are ``int`` or ring values; a missing entry means no
    previous value, so a zero ``coeff`` never enters ``dest``.
    """
    prev = dest.get(key)
    new = coeff if prev is None else prev + coeff
    if new:
        dest[key] = new
    else:
        dest.pop(key, None)


def _drop_zeros(raw: dict) -> dict:
    """Delete the zero coefficients of a raw term map in place; return it."""
    for key in [key for key, coeff in raw.items() if not coeff]:
        del raw[key]
    return raw


class _Terms:
    """Sparse terms ``{key: coefficient}``, no coefficient zero.

    Holds the operations that do not depend on the ring, written against
    two hooks: ``_check(other)`` raises when ``other`` has another bound or
    signature, and ``_like(terms)`` builds a sibling over the same bound or
    signature from terms that are already clean (no zero coefficient,
    nothing outside a bound).  Equality compares every slot: a subclass's
    slots hold its bounds and its terms.
    """

    __slots__ = ()

    def _check(self, other) -> None:
        pass

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            _iadd(out, key, coeff)
        return self._like(out)

    def __neg__(self):
        return self._like({key: -coeff for key, coeff in self.terms.items()})

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)


class QLaurent(_Terms):
    """Integer Laurent polynomial in ``v`` (``v**4 == q``).

    Stored sparsely as ``{v_exponent: coefficient}`` with zero coefficients
    never present.  Instances are treated as immutable; they hash by their
    term set and can be shared freely.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        self.terms: dict[int, int] = {}
        if terms:
            for exp, coeff in terms.items():
                if coeff:
                    self.terms[exp] = coeff

    def _like(self, terms: dict[int, int]) -> "QLaurent":
        out = object.__new__(QLaurent)
        out.terms = terms
        return out

    @classmethod
    def zero(cls) -> "QLaurent":
        return cls()

    @classmethod
    def one(cls) -> "QLaurent":
        return cls({0: 1})

    @classmethod
    def monomial(cls, v_exp: int, coeff: int = 1) -> "QLaurent":
        return cls({v_exp: coeff})

    def __mul__(self, other) -> "QLaurent":
        if not isinstance(other, QLaurent):
            return NotImplemented
        out: dict[int, int] = {}
        self._addmul(out, other, 0)
        return self._like(_drop_zeros(out))

    def _operand(self) -> "QLaurent":
        """The right operand of ``_addmul``: the polynomial itself."""
        return self

    def _addmul(self, dest: dict[int, int], other: "QLaurent", shift: int) -> None:
        """Add ``self * other * v**shift`` into the raw map ``dest``, zeros left in place."""
        get = dest.get
        for e1, c1 in self.terms.items():
            base = e1 + shift
            for e2, c2 in other.terms.items():
                key = base + e2
                dest[key] = get(key, 0) + c1 * c2

    def _addshift(self, dest: dict[int, int], shift: int) -> None:
        """Add ``self * v**shift`` into the raw map ``dest``."""
        get = dest.get
        for exp, coeff in self.terms.items():
            key = exp + shift
            dest[key] = get(key, 0) + coeff

    def times_v(self, k: int) -> "QLaurent":
        """Multiply by the monomial ``v**k``."""
        if k == 0:
            return self
        out: dict[int, int] = {}
        self._addshift(out, k)
        return self._like(out)

    def evaluate_one(self) -> int:
        """Evaluate at ``v = 1`` (equivalently ``q = 1``)."""
        return sum(self.terms.values())

    def max_exponent(self) -> int:
        if not self.terms:
            raise ValueError("the zero polynomial has no exponents")
        return max(self.terms)

    def is_symmetric(self) -> bool:
        """True when invariant under ``v -> 1/v``."""
        return all(self.terms.get(-exp, 0) == coeff for exp, coeff in self.terms.items())

    def is_nonnegative(self) -> bool:
        return all(coeff >= 0 for coeff in self.terms.values())

    def in_half_powers(self) -> bool:
        """True when every exponent is even, i.e. the value lies in Z[q**(1/2), q**(-1/2)]."""
        return all(exp % 2 == 0 for exp in self.terms)

    def __repr__(self) -> str:
        return f"QLaurent({dict(sorted(self.terms.items()))!r})"


def exact_div(numerator: QLaurent, denominator: QLaurent) -> QLaurent:
    """Divide two Laurent polynomials, requiring the division to be exact.

    Raises ``ExactDivisionError`` if the quotient is not again a Laurent
    polynomial with integer coefficients.
    """
    if not denominator.terms:
        raise ZeroDivisionError("division by the zero polynomial")
    if not numerator.terms:
        return QLaurent.zero()
    den = denominator.terms
    den_top = max(den)
    den_lead = den[den_top]
    # For an exact quotient every exponent lies in this closed interval.
    low_bound = min(numerator.terms) - min(den)
    rem = dict(numerator.terms)
    quo: dict[int, int] = {}
    while rem:
        top = max(rem)
        lead = rem[top]
        exp = top - den_top
        if exp < low_bound or lead % den_lead:
            raise ExactDivisionError("polynomial division left a nonzero remainder")
        coeff = lead // den_lead
        quo[exp] = coeff
        for e, c in den.items():
            _iadd(rem, exp + e, -coeff * c)
    return QLaurent(quo)


def qint(n: int) -> QLaurent:
    """Quantum integer ``[n] = q**((n-1)/2) + q**((n-3)/2) + ... + q**(-(n-1)/2)``."""
    if n < 0:
        raise ValueError("quantum integers are defined for n >= 0")
    return QLaurent({2 * (n - 1) - 4 * i: 1 for i in range(n)})


@lru_cache(maxsize=None)
def qfact(n: int) -> QLaurent:
    """Quantum factorial ``[n]! = [1][2]...[n]``."""
    if n < 0:
        raise ValueError("quantum factorials are defined for n >= 0")
    if n == 0:
        return QLaurent.one()
    return qfact(n - 1) * qint(n)


def qbinom(n: int, k: int) -> QLaurent:
    """Quantum binomial coefficient; zero outside ``0 <= k <= n``."""
    if n < 0:
        raise ValueError("quantum binomials are defined for n >= 0")
    if k < 0 or k > n:
        return QLaurent.zero()
    return exact_div(qfact(n), qfact(k) * qfact(n - k))


def qmultinom(n: int, parts: Sequence[int]) -> QLaurent:
    """Quantum multinomial coefficient for ``parts`` of an ``n``-element set.

    The parts need not exhaust ``n``; the remainder ``n - sum(parts)`` is
    treated as one further implicit part.  Returns zero when any part is
    negative or the parts overfill ``n``.
    """
    if n < 0:
        raise ValueError("quantum multinomials are defined for n >= 0")
    parts = tuple(parts)
    if any(p < 0 for p in parts):
        return QLaurent.zero()
    rest = n - sum(parts)
    if rest < 0:
        return QLaurent.zero()
    denom = qfact(rest)
    for p in parts:
        denom = denom * qfact(p)
    return exact_div(qfact(n), denom)


class TruncatedRSeries(_Terms):
    """Laurent series in ``v`` and ``b`` truncated above a fixed v-exponent.

    ``q_order`` is the maximal v-exponent retained; every term with a larger
    v-exponent is discarded on construction and during arithmetic.  The
    b-exponent is unconstrained.  Combining series with different bounds is
    an error: a sum or product of two truncations is only meaningful at a
    common bound.

    Truncation by v-exponent is stable under products of these series, but
    not under ``shift_a`` with a negative b-direction, nor under the skew
    shifts of a quantum torus over them: a term dropped here could move back
    below the bound.  Callers work at an enlarged bound and ``retruncate``
    afterwards; ``moyeval.homfly._headroom`` proves how much is enough.
    """

    __slots__ = ("q_order", "terms")

    def __init__(self, q_order: int, terms: Mapping[tuple[int, int], int] | None = None):
        self.q_order = q_order
        self.terms: dict[tuple[int, int], int] = {}
        if terms:
            for (ve, be), coeff in terms.items():
                if coeff and ve <= q_order:
                    self.terms[(ve, be)] = coeff

    @classmethod
    def zero(cls, q_order: int) -> "TruncatedRSeries":
        return cls(q_order)

    @classmethod
    def one(cls, q_order: int) -> "TruncatedRSeries":
        return cls(q_order, {(0, 0): 1})

    @classmethod
    def monomial(cls, q_order: int, v_exp: int, b_exp: int, coeff: int = 1) -> "TruncatedRSeries":
        return cls(q_order, {(v_exp, b_exp): coeff})

    def _check(self, other: "TruncatedRSeries") -> None:
        if self.q_order != other.q_order:
            raise ValueError(
                f"truncation bound mismatch: {self.q_order} != {other.q_order}"
            )

    def _like(self, terms: dict[tuple[int, int], int]) -> "TruncatedRSeries":
        out = object.__new__(TruncatedRSeries)
        out.q_order = self.q_order
        out.terms = terms
        return out

    def __mul__(self, other) -> "TruncatedRSeries":
        if not isinstance(other, TruncatedRSeries):
            return NotImplemented
        out: dict[tuple[int, int], int] = {}
        self._addmul(out, other._operand(), 0)
        return self._like(_drop_zeros(out))

    def _operand(self, bound: int | None = None) -> tuple:
        """The right operand of ``_addmul``, for a product read at ``bound``.

        ``(q_order, bound, rows)``: the rows are the terms as
        ``(v, b, coeff)`` sorted by v-exponent, and ``bound`` defaults to
        ``q_order``.  A product sorts each right-hand coefficient once and
        reuses the rows for every term that meets it.
        """
        rows = sorted((ve, be, coeff) for (ve, be), coeff in self.terms.items())
        return self.q_order, self.q_order if bound is None else bound, rows

    def _addmul(self, dest: dict[tuple[int, int], int], other: tuple, shift: int) -> None:
        """Add ``self * other * v**shift`` into the raw map ``dest``, zeros left in place.

        ``other`` comes from ``_operand(bound)``.  A pair is kept only when
        ``v1 + v2`` is within the common bound and ``v1 + v2 + shift`` is
        within ``bound``, so the result is ``self * other * v**shift``
        truncated at ``bound``, and a negative shift brings back no pair
        the product ``self * other`` drops.  The rows are sorted, so the
        scan stops at the first ``v2`` past the room ``v1`` leaves, and a
        term with no room for the lowest ``v2`` opens no scan.
        ``moyeval.homfly._headroom`` proves its margin for this rule.
        """
        q_order, bound, rows = other
        if q_order != self.q_order:
            raise ValueError(f"truncation bound mismatch: {self.q_order} != {q_order}")
        if not rows:
            return
        top = bound - shift
        if top > q_order:
            top = q_order
        low = rows[0][0]
        get = dest.get
        for (v1, b1), c1 in self.terms.items():
            room = top - v1
            if room < low:
                continue
            base = v1 + shift
            for v2, b2, c2 in rows:
                if v2 > room:
                    break
                key = (base + v2, b1 + b2)
                dest[key] = get(key, 0) + c1 * c2

    def _addshift(self, dest: dict[tuple[int, int], int], shift: int) -> None:
        """Add ``self * v**shift`` into the raw map ``dest``, dropping the
        terms the shift pushes past the bound, as ``times_v`` does."""
        top = self.q_order - shift
        get = dest.get
        for (ve, be), coeff in self.terms.items():
            if ve <= top:
                key = (ve + shift, be)
                dest[key] = get(key, 0) + coeff

    def times_v(self, k: int) -> "TruncatedRSeries":
        if k == 0:
            return self
        out: dict[tuple[int, int], int] = {}
        self._addshift(out, k)
        return self._like(out)

    def shift_a(self, delta: int) -> "TruncatedRSeries":
        """Substitute ``a -> q**delta * a``, i.e. ``b -> v**delta * b``.

        A term ``v**m b**k`` becomes ``v**(m + delta*k) b**k``.  Terms pushed
        above the bound are dropped; see the class docstring for the margin
        caveat when ``delta * k`` can be negative.
        """
        return TruncatedRSeries(
            self.q_order,
            {(ve + delta * be, be): c for (ve, be), c in self.terms.items()},
        )

    def substitute_a(self, n: int) -> QLaurent:
        """Substitute ``a = q**n`` (``b**k -> v**(n*k)``), forgetting the bound.

        The caller is responsible for deciding up to which v-exponent the
        result is trustworthy; terms beyond ``q_order`` discarded earlier can
        re-enter low v-degrees when negative b-exponents are present.
        """
        out: dict[int, int] = {}
        for (ve, be), coeff in self.terms.items():
            _iadd(out, ve + n * be, coeff)
        return QLaurent(out)

    def retruncate(self, q_order: int) -> "TruncatedRSeries":
        """Tighten the truncation bound.  Raising the bound is an error."""
        if q_order > self.q_order:
            raise ValueError(
                f"cannot raise a truncation bound ({self.q_order} -> {q_order})"
            )
        return TruncatedRSeries(q_order, self.terms)

    def __repr__(self) -> str:
        return (
            f"TruncatedRSeries(q_order={self.q_order}, "
            f"terms={dict(sorted(self.terms.items()))!r})"
        )
