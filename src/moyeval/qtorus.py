"""Skew-commuting monomial algebras (quantum tori) over exact coefficients.

A ``TorusSignature`` fixes an ordered list of variables together with an
antisymmetric integer matrix ``c`` measured in v-units.  Monomials multiply
by the normal-ordering rule

    u^alpha * u^beta = v^(sum_{i>j} alpha_i beta_j c(i,j)) u^(alpha+beta),

i.e. exponents always end up sorted by variable index, at the price of a
power of ``v``.  The signature lists the nonzero entries ``c(i, j)``, ``j < i``,
of each row once (``TorusSignature.lower``), and ``_mul_exps`` reads only
those: the flag skew has two of them per vertex.

Coefficients are values of one exact ring from :mod:`moyeval.qexact` per
element, never mixed.  Products need the ring's ``_addmul`` and ``_like``;
``mu`` needs only ``+``, ``times_v`` and truth testing, so its image
keeps the ring (and any truncation bound) of its input without knowing
which ring that is.

``TorusElement`` is built on the sparse-term base of those rings
(``moyeval.qexact._Terms``), so its sums, negation and equality are the
same code as theirs.  Products accumulate raw and clean once in place:
``_accumulate`` adds the coefficient product of every pair of terms,
with its normal-ordering shift, into one raw coefficient map per
monomial through the ring's ``_addmul``, and ``_settle`` then deletes the
zero entries from those same maps, wraps each with ``_like`` and drops
the monomials left empty.  ``torus_mul`` is that loop on two elements;
the graded series products of :mod:`moyeval.homfly` feed all their
degree pairs into one accumulator.  ``_mul_linear`` multiplies by a
linear factor ``1 + sum_t c_t x_t``, the factor of every twisted
product, without building it: it reads each term's shifts against all
variables at once.  Only the public constructor filters; ``times_v``
goes through it, since shifting truncated coefficients can empty them.

Two concrete algebras are built from a diagram:

``FlagAlgebra``
    One pair of variables ``z``/``Z`` per vertex flag and per circle.  Per
    vertex the z-block is ordered ``l, m, r`` and the Z-block ``r, m, l``;
    the only skew pairs are ``c(z_l, z_r) = 1`` and ``c(Z_l, Z_r) = 1``
    within a vertex.  Circles commute with everything.

``CycleAlgebra``
    One variable per nonempty cycle, ordered canonically, skewed by four
    times the intersection pairing: ``c(x_C, x_C') = 4 <C, C'>``.

The algebra map ``mu`` sends a cycle variable to the product of the
flag variables it runs through (both ``z`` and ``Z`` of every halfedge,
and the pair for every circle).  It is a ring homomorphism; the skew
factors picked up on the flag side are exactly the vertex weights of the
state sum.  The image of a cycle monomial ``x**alpha`` is the single flag
monomial ``sum_t alpha_t f_t``, with ``f_t`` the exponents of ``mu(x_t)``,
times ``v**phi(alpha)``, where the shift is the quadratic form

    phi(alpha) = sum_{l<t} alpha_l alpha_t P[l][t] + sum_t C(alpha_t, 2) P[t][t]

in the K x K table ``P[l][t]`` of normal-ordering shifts of ``f_l``
against ``f_t`` (``CycleAlgebra.image_shifts``, built on first use).  On a
diagram the diagonal ``P[t][t]`` is 0, since a cycle holds at most one of
``l`` and ``r`` at each vertex, but the form holds for any flag skew.  So
the image works on exponent tuples, reads the table once per pair of
variables a monomial holds, and shifts each coefficient once.

That sum of supports is the flow ``sum_t alpha_t slots(C_t)`` in another
coordinate system: the flag monomial of a flow holds its color at both
ends of every edge, twice.  ``CycleAlgebra.flow_table`` therefore runs the
same loop on each cycle's color slots in the diagram's layout and decodes
each slot vector once with ``PlanarDiagram.coloring_of``; it never builds
a flag monomial, and internal colorings are not validated again.
"""

from __future__ import annotations

from functools import cached_property
from operator import add
from typing import Mapping, Sequence

from .cycles import Cycle, CycleSet
from .diagram import Coloring, Flag, PlanarDiagram, ROLES
from .qexact import QLaurent, _drop_zeros, _iadd, _Terms

__all__ = [
    "TorusSignature",
    "TorusElement",
    "torus_mul",
    "FlagAlgebra",
    "CycleAlgebra",
]


class TorusSignature:
    """Ordered variable names plus an antisymmetric skew matrix (v-units)."""

    __slots__ = ("names", "skew", "lower")

    def __init__(self, names: Sequence[str], skew: Sequence[Sequence[int]]):
        self.names = tuple(names)
        self.skew = tuple(tuple(row) for row in skew)
        n = len(self.names)
        if len(self.skew) != n or any(len(row) != n for row in self.skew):
            raise ValueError("skew matrix shape does not match the variable count")
        for i in range(n):
            for j in range(n):
                if self.skew[i][j] != -self.skew[j][i]:
                    raise ValueError(f"skew matrix is not antisymmetric at ({i}, {j})")
        # (i, ((j, c(i, j)), ...)) for the rows with a nonzero entry left of the diagonal
        self.lower = tuple(
            (i, tuple((j, c) for j, c in enumerate(row[:i]) if c))
            for i, row in enumerate(self.skew)
            if any(row[:i])
        )

    @classmethod
    def from_entries(cls, names: Sequence[str], entries: Mapping[tuple[int, int], int]) -> "TorusSignature":
        """Build a signature from the upper entries; antisymmetry is filled in."""
        n = len(names)
        skew = [[0] * n for _ in range(n)]
        for (i, j), value in entries.items():
            if i == j and value:
                raise ValueError("diagonal skew entries must vanish")
            skew[i][j] = value
            skew[j][i] = -value
        return cls(names, skew)

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TorusSignature):
            return NotImplemented
        return self.names == other.names and self.skew == other.skew

    def __repr__(self) -> str:
        return f"TorusSignature({list(self.names)!r})"


def _mul_exps(signature: TorusSignature, ea: tuple[int, ...], eb: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Normal-ordering shift (in v-units) and combined exponents.

    Reads only the nonzero lower skew entries that ``signature.lower`` lists.
    """
    shift = 0
    for i, row in signature.lower:
        ai = ea[i]
        if ai:
            for j, c in row:
                shift += ai * eb[j] * c
    return shift, tuple(map(add, ea, eb))


class TorusElement(_Terms):
    """A finite sum of normal-ordered monomials with ring coefficients."""

    __slots__ = ("signature", "terms")
    __hash__ = None  # elements are never keys

    def __init__(self, signature: TorusSignature, terms: Mapping[tuple[int, ...], object] | None = None):
        self.signature = signature
        self.terms: dict[tuple[int, ...], object] = {}
        if terms:
            for exps, coeff in terms.items():
                if coeff:
                    self.terms[tuple(exps)] = coeff

    @classmethod
    def zero(cls, signature: TorusSignature) -> "TorusElement":
        return cls(signature)

    @classmethod
    def monomial(cls, signature: TorusSignature, exps: Sequence[int], coeff) -> "TorusElement":
        return cls(signature, {tuple(exps): coeff})

    def _check(self, other: "TorusElement") -> None:
        if self.signature != other.signature:
            raise ValueError("cannot combine elements over different signatures")

    def _like(self, terms: dict) -> "TorusElement":
        out = object.__new__(TorusElement)
        out.signature = self.signature
        out.terms = terms
        return out

    def __mul__(self, other) -> "TorusElement":
        if isinstance(other, TorusElement):
            return torus_mul(self, other)
        return NotImplemented

    def times_v(self, k: int) -> "TorusElement":
        return TorusElement(self.signature, {e: c.times_v(k) for e, c in self.terms.items()})

    def __repr__(self) -> str:
        parts = []
        for exps in sorted(self.terms):
            mono = "*".join(
                f"{self.signature.names[i]}^{e}" if e != 1 else self.signature.names[i]
                for i, e in enumerate(exps)
                if e
            )
            parts.append(f"({self.terms[exps]!r})*{mono or '1'}")
        return " + ".join(parts) or "0"


def _accumulate(acc: dict, signature: TorusSignature, x_terms: dict, y_terms: dict) -> None:
    """Add the product of every pair of terms of ``x_terms`` and ``y_terms``
    into ``acc``, which maps normal-ordered monomials to raw coefficient
    maps; zeros stay until ``_settle``."""
    for ea, ca in x_terms.items():
        addmul = ca._addmul
        for eb, cb in y_terms.items():
            shift, exps = _mul_exps(signature, ea, eb)
            dest = acc.get(exps)
            if dest is None:
                dest = acc[exps] = {}
            addmul(dest, cb, shift)


def _settle(acc: dict, terms: dict) -> dict:
    """Clean ``acc`` in place and return it.

    Each raw coefficient map loses its zero entries and is wrapped, as the
    same dict, by ``_like`` of a coefficient of ``terms`` (a term map over
    the same ring and bound); monomials left empty are dropped.
    """
    if acc:
        like = next(iter(terms.values()))._like
        empty = []
        for exps, raw in acc.items():  # replacing values keeps the size
            if _drop_zeros(raw):
                acc[exps] = like(raw)
            else:
                empty.append(exps)
        for exps in empty:
            del acc[exps]
    return acc


def torus_mul(x: TorusElement, y: TorusElement) -> TorusElement:
    """Product in the quantum torus, collecting normal-ordered monomials."""
    x._check(y)
    acc: dict[tuple[int, ...], dict] = {}
    _accumulate(acc, x.signature, x.terms, y.terms)
    return x._like(_settle(acc, x.terms))


def _mul_linear(x: TorusElement, coeffs: Sequence, max_degree: int | None = None) -> TorusElement:
    """``x * (1 + sum_t coeffs[t] * x_t)``, forming no term of x-degree above ``max_degree``.

    Equal to ``torus_mul`` against that linear element, minus its terms
    above ``max_degree``.  Moving ``x_t`` left past ``x**ea`` costs
    ``v**sigma_t`` with ``sigma_t = sum_{i>t} ea_i c(i, t)``; the whole
    vector ``sigma`` is read from ``signature.lower`` once per term, not
    once per pair.  Terms of x-degree ``max_degree`` meet only the 1.
    """
    k = len(x.signature)
    lower = x.signature.lower
    units = [tuple(int(i == t) for i in range(k)) for t in range(k)]
    acc: dict[tuple[int, ...], dict] = {}
    for ea, ca in x.terms.items():
        dest = acc.get(ea)
        if dest is None:  # a whole copy: maps grown entry by entry left a larger heap
            acc[ea] = dict(ca.terms)
        else:
            get = dest.get
            for key, c in ca.terms.items():
                dest[key] = get(key, 0) + c
        if max_degree is not None and sum(ea) >= max_degree:
            continue
        sigma = [0] * k
        for i, row in lower:
            ai = ea[i]
            if ai:
                for j, c in row:
                    sigma[j] += ai * c
        for t, ct in enumerate(coeffs):
            exps = tuple(map(add, ea, units[t]))
            dest = acc.get(exps)
            if dest is None:
                dest = acc[exps] = {}
            ca._addmul(dest, ct, sigma[t])
    return x._like(_settle(acc, x.terms))


class FlagAlgebra:
    """The flag-side quantum torus of a diagram.

    Variables come in vertex blocks (ascending vertex id): ``z`` for roles
    ``l, m, r`` followed by ``Z`` for roles ``r, m, l``; then one ``z``/``Z``
    pair per circle (ascending id).
    """

    def __init__(self, d: PlanarDiagram):
        names: list[str] = []
        self.z_index: dict[Flag, int] = {}
        self.Z_index: dict[Flag, int] = {}
        self.z_circle: dict[int, int] = {}
        self.Z_circle: dict[int, int] = {}
        entries: dict[tuple[int, int], int] = {}
        for v in d.vertices:
            base = len(names)
            for role in ROLES:
                self.z_index[Flag(v.id, role)] = len(names)
                names.append(f"z[{v.id},{role}]")
            for role in reversed(ROLES):
                self.Z_index[Flag(v.id, role)] = len(names)
                names.append(f"Z[{v.id},{role}]")
            entries[(base, base + 2)] = 1  # z_l before z_r
            entries[(base + 5, base + 3)] = 1  # Z_l before Z_r
        for c in d.circles:
            self.z_circle[c.id] = len(names)
            names.append(f"z[circle {c.id}]")
            self.Z_circle[c.id] = len(names)
            names.append(f"Z[circle {c.id}]")
        self.signature = TorusSignature.from_entries(names, entries)

    def cycle_exponents(self, cycle: Cycle) -> tuple[int, ...]:
        """Exponents of a cycle's flag monomial: z and Z of each halfedge."""
        exps = [0] * len(self.signature)
        for halfedge in cycle.halfedges:
            exps[self.z_index[halfedge]] += 1
            exps[self.Z_index[halfedge]] += 1
        for circle_id in cycle.circle_ids:
            exps[self.z_circle[circle_id]] += 1
            exps[self.Z_circle[circle_id]] += 1
        return tuple(exps)


class CycleAlgebra:
    """The cycle-side quantum torus: one variable per nonempty cycle."""

    def __init__(self, d: PlanarDiagram, cycle_set: CycleSet | None = None):
        self.diagram = d
        self.cycle_set = cycle_set or CycleSet(d)
        self.variables = self.cycle_set.cycles[1:]  # canonical indices 1..K
        names = [f"x_{i + 1}" for i in range(len(self.variables))]
        skew = [[2 * p for p in row[1:]] for row in self.cycle_set.pairing2[1:]]
        self.signature = TorusSignature(names, skew)
        self.rots = tuple(cycle.rot for cycle in self.variables)
        self.flag_algebra = FlagAlgebra(d)
        self._image_exps = tuple(self.flag_algebra.cycle_exponents(c) for c in self.variables)

    def variable(self, index: int, coeff=None) -> TorusElement:
        """The monomial for variable ``index`` (0-based over nonempty cycles)."""
        exps = [0] * len(self.signature)
        exps[index] = 1
        return TorusElement.monomial(self.signature, exps, coeff if coeff is not None else QLaurent.one())

    @cached_property
    def image_shifts(self) -> tuple[tuple[int, ...], ...]:
        """``P[l][t]``, the flag-side shift of ``mu(x_l)`` against ``mu(x_t)``.

        Built on first read, so an algebra that never calls ``mu`` and is
        never checked never pays for its K*K products.  ``check --suite mu``
        compares ``P[i][j] - P[j][i]`` with the cycle skew, so it checks
        this table.
        """
        flag_sig = self.flag_algebra.signature
        images = self._image_exps
        return tuple(tuple(_mul_exps(flag_sig, a, b)[0] for b in images) for a in images)

    def _image(self, element: TorusElement, supports: Sequence[Sequence[int]], size: int) -> dict:
        """``{sum_t alpha_t * supports[t]: coeff * v**phi(alpha)}`` over the
        terms ``coeff * x**alpha`` of ``element``, as exponent tuples of
        length ``size``; ``supports[t]`` lists the indices variable ``t``
        raises by one (an index may repeat).

        Each term is read in one pass over the nonzero exponents of its
        monomial, through the quadratic form in ``image_shifts`` that the
        module docstring states.  Terms with equal keys are added.
        """
        if element.signature != self.signature:
            raise ValueError("element does not belong to this cycle algebra")
        table = self.image_shifts
        out: dict[tuple[int, ...], object] = {}
        for exps, coeff in element.terms.items():
            support = [(t, a) for t, a in enumerate(exps) if a]
            shift, image = 0, [0] * size
            for n, (t, a) in enumerate(support):
                shift += a * (a - 1) // 2 * table[t][t]
                for l, b in support[:n]:
                    shift += b * a * table[l][t]
                for i in supports[t]:
                    image[i] += a
            _iadd(out, tuple(image), coeff.times_v(shift))
        return out

    def mu(self, element: TorusElement) -> TorusElement:
        """Apply the flag substitution homomorphism to a cycle-side element."""
        supports = [[f for f, e in enumerate(image) for _ in range(e)] for image in self._image_exps]
        flag_sig = self.flag_algebra.signature
        return TorusElement(flag_sig, self._image(element, supports, len(flag_sig)))

    def flow_table(self, element: TorusElement) -> dict[Coloring, object]:
        """The image of ``element`` as a table from flow colorings to coefficients.

        It is the image under ``mu``, keyed by the flow instead of its flag
        monomial.  Keys are built as slot vectors, so each coloring
        is decoded once; a flag monomial and its flow fix each other, so
        the terms add up exactly as they do in ``mu``.
        """
        d = self.diagram
        supports = [d.slots(c.edge_ids, c.circle_ids) for c in self.variables]
        image = self._image(element, supports, d.slot_count)
        return {d.coloring_of(key): coeff for key, coeff in image.items()}
