"""Skew-commuting monomial algebras (quantum tori) over exact coefficients.

A ``TorusSignature`` fixes an ordered list of variables together with an
antisymmetric integer matrix ``c`` measured in v-units.  Monomials multiply
by the normal-ordering rule

    u^alpha * u^beta = v^(sum_{i>j} alpha_i beta_j c(i,j)) u^(alpha+beta),

i.e. exponents always end up sorted by variable index, at the price of a
power of ``v``.

A monomial is keyed by the sorted tuple of the variable indices it holds,
one entry per unit of exponent: ``u_2 u_5^2`` is ``(2, 5, 5)`` and the
unit monomial is ``()``.  A key is as long as the monomial's degree, not
as the variable count: a cycle algebra can have hundreds of variables
(242 on five disjoint thetas), and the twisted products and series never
go past degree ``N`` or the x-degree bound.  On keys the shift of
``a * b`` is the sum of ``c(i, j)`` over the entries ``i`` of ``a`` and
``j`` of ``b`` with ``j < i``, and the product's key is the merge of the
two (``_mul_exps``).  An entry stands for one unit of exponent, so a key
cannot hold a negative exponent.  None is needed: a product only adds
exponents, so no computation forms a negative one, and the truncated
series of :mod:`moyeval.homfly` file their terms by x-degree, which a
negative exponent would leave without meaning.  ``TorusSignature.key``
turns an exponent vector into a key and refuses a wrong length or a
negative entry; the constructor ``TorusElement(signature, terms)``
refuses keys that are not sorted tuples of indices of the signature.

Coefficients are values of one exact ring from :mod:`moyeval.qexact` per
element, never mixed.  Products need the ring's ``_operand``, ``_addmul``
and ``_like``; ``mu`` needs ``_addshift`` and ``_like``, so its image keeps the ring
(and any truncation bound) of its input without knowing which ring that
is.

``TorusElement`` is built on the sparse-term base of those rings
(``moyeval.qexact._Terms``), so its sums, negation and equality are the
same code as theirs.  Products accumulate raw and clean once in place:
``_accumulate`` adds the coefficient product of every pair of terms,
with its normal-ordering shift, into one raw coefficient map per
monomial through the ring's ``_addmul``, and ``_settle`` then deletes the
zero entries from those same maps, wraps each with ``_like`` and drops
the monomials left empty.  The right-hand coefficients go in as the
ring's operands, made once per product (for truncated series, terms
sorted by v-exponent, so each coefficient product stops at its bound).
``torus_mul`` is that loop on two elements; the graded series products
of :mod:`moyeval.homfly` feed all their degree pairs into one
accumulator.  ``_mul_linear`` multiplies by a linear factor
``1 + sum_t c_t x_t``, the factor of the finite twisted products of
:mod:`moyeval.genseries`, without building it: moving ``x_t`` past a key
costs the skew of the key's entries above ``t``, summed over those
entries as in ``_mul_exps``, and ``x_t`` lands in its sorted place.  It
makes operands for the nonzero ``c_t`` only, once per factor.  (The
infinite products of :mod:`moyeval.homfly` are not multiplied out factor
by factor: they are solved from their q-difference equation.)
Only the public constructor validates keys and filters; results built
from clean terms over the same keys go through ``_like``.

Two concrete algebras are built from a diagram:

``FlagAlgebra``
    One pair of variables ``z``/``Z`` per vertex flag and per circle.  Per
    vertex the z-block is ordered ``l, m, r`` and the Z-block ``r, m, l``;
    the only skew pairs are ``c(z_l, z_r) = 1`` and ``c(Z_l, Z_r) = 1``
    within a vertex.  Circles commute with everything.

``CycleAlgebra``
    One variable per nonempty cycle, ordered canonically, skewed by four
    times the intersection pairing: ``c(x_C, x_C') = 4 <C, C'>``.  The
    skew is read in one pass over ``CycleSet.pairing_rows``; no other
    copy of the pairing matrix is kept.

The algebra map ``mu`` sends a cycle variable to the product of the
flag variables it runs through (both ``z`` and ``Z`` of every halfedge,
and the pair for every circle).  It is a ring homomorphism; the skew
factors picked up on the flag side are exactly the vertex weights of the
state sum.  A cycle runs through each flag at most once, so ``mu(x_t)``
is keyed by ``f_t``, the sorted indices of distinct flag variables
(``FlagAlgebra.cycle_key``).  The image of a cycle monomial
``x**alpha`` is the single flag monomial whose key merges ``alpha_t``
copies of each ``f_t``, times ``v**phi(alpha)``, where the shift is the
quadratic form

    phi(alpha) = sum_{l<t} alpha_l alpha_t P[l][t] + sum_t C(alpha_t, 2) P[t][t]

in the K x K table ``P[l][t]`` of normal-ordering shifts of ``f_l``
against ``f_t`` (``CycleAlgebra.image_shifts``, built on first use from
the nonzero lower entries of the flag skew and an index of the images
holding each flag: each entry ``c(i, j)`` of a flag ``i`` of ``f_l`` is
added into row ``l`` at every image holding ``j``, so no pair of images
is visited one by one).  The table reads the flag skew only, never the
circuits' pairing, so ``check --suite mu``, which compares its
antisymmetric part with the cycle skew, compares two independent
computations.  On a key, ``phi`` is the
sum of ``P[l][t]`` over its pairs of positions, ``l`` at the earlier
one.  On a diagram the diagonal ``P[t][t]`` is 0, since a cycle holds at
most one of ``l`` and ``r`` at each vertex, but the form holds for any
flag skew.  So the image reads the table once per pair of entries of a
key, merges the supports of its entries into the image key, and shifts
each coefficient once, into a raw map per image key.

That sum of supports is the flow ``sum_t alpha_t slots(C_t)`` in another
coordinate system: the flag monomial of a flow holds its color at both
ends of every edge, twice.  ``CycleAlgebra.flow_table`` therefore runs the
same loop on each cycle's color slots in the diagram's layout and decodes
each slot key once with ``PlanarDiagram.coloring_of``; it never builds
a flag monomial, and internal colorings are not validated again.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from itertools import groupby, islice
from operator import add
from typing import Mapping, Sequence

from .cycles import Cycle, CycleSet, _cycle_set_of
from .diagram import Coloring, Flag, PlanarDiagram, ROLES
from .qexact import QLaurent, _drop_zeros, _Terms

__all__ = [
    "TorusSignature",
    "TorusElement",
    "torus_mul",
    "FlagAlgebra",
    "CycleAlgebra",
]


class TorusSignature:
    """Ordered variable names plus an antisymmetric skew matrix (v-units)."""

    __slots__ = ("names", "skew")

    def __init__(self, names: Sequence[str], skew: Sequence[Sequence[int]]):
        self.names = tuple(names)
        self.skew = tuple(tuple(row) for row in skew)
        n = len(self.names)
        if len(self.skew) != n or any(len(row) != n for row in self.skew):
            raise ValueError("skew matrix shape does not match the variable count")
        for i, (row, column) in enumerate(zip(self.skew, zip(*self.skew))):
            if any(map(add, row, column)):
                j = next(j for j, (a, b) in enumerate(zip(row, column)) if a + b)
                raise ValueError(f"skew matrix is not antisymmetric at ({i}, {j})")

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

    def key(self, exps: Sequence[int]) -> tuple[int, ...]:
        """The monomial key of an exponent vector: index ``i`` repeated ``exps[i]`` times."""
        if len(exps) != len(self.names):
            raise ValueError(f"exponent vector {tuple(exps)!r} has {len(exps)} entries, "
                             f"not one per variable ({len(self.names)})")
        if any(e < 0 for e in exps):
            raise ValueError(f"exponent vector {tuple(exps)!r} has a negative entry")
        return tuple(i for i, e in enumerate(exps) for _ in range(e))

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, TorusSignature):
            return NotImplemented
        return self.names == other.names and self.skew == other.skew

    def __repr__(self) -> str:
        return f"TorusSignature({list(self.names)!r})"


def _mul_exps(signature: TorusSignature, ea: tuple[int, ...], eb: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Normal-ordering shift (in v-units) and the merged key.

    The shift adds ``c(i, j)`` over the entries ``i`` of ``ea`` and ``j``
    of ``eb`` with ``j < i``; ``eb`` is sorted, so each scan of it stops at
    the first ``j >= i``.
    """
    skew = signature.skew
    shift = 0
    for i in ea:
        row = skew[i]
        for j in eb:
            if j >= i:
                break
            shift += row[j]
    return shift, tuple(sorted(ea + eb))


def _element(signature: TorusSignature, terms: dict) -> "TorusElement":
    """An element over ``signature`` from clean terms with canonical keys, unchecked."""
    out = object.__new__(TorusElement)
    out.signature = signature
    out.terms = terms
    return out


class TorusElement(_Terms):
    """A finite sum of normal-ordered monomials with ring coefficients."""

    __slots__ = ("signature", "terms")
    __hash__ = None  # elements are never keys

    def __init__(self, signature: TorusSignature, terms: Mapping[tuple[int, ...], object] | None = None):
        self.signature = signature
        self.terms: dict[tuple[int, ...], object] = {}
        n = len(signature)
        for key, coeff in (terms or {}).items():
            if not (type(key) is tuple and all(type(i) is int and 0 <= i < n for i in key)
                    and list(key) == sorted(key)):
                raise ValueError(f"monomial key {key!r} is not a sorted tuple of variable indices below {n}")
            if coeff:
                self.terms[key] = coeff

    def _check(self, other: "TorusElement") -> None:
        if self.signature != other.signature:
            raise ValueError("cannot combine elements over different signatures")

    def _like(self, terms: dict) -> "TorusElement":
        return _element(self.signature, terms)

    def __mul__(self, other) -> "TorusElement":
        if isinstance(other, TorusElement):
            return torus_mul(self, other)
        return NotImplemented

    def times_v(self, k: int) -> "TorusElement":
        # shifting truncated coefficients can empty them
        return self._like({e: s for e, c in self.terms.items() if (s := c.times_v(k))})

    def __repr__(self) -> str:
        names = self.signature.names
        parts = []
        for key in sorted(self.terms):
            factors = []
            for i, run in groupby(key):
                e = len(list(run))
                factors.append(names[i] if e == 1 else f"{names[i]}^{e}")
            parts.append(f"({self.terms[key]!r})*{'*'.join(factors) or '1'}")
        return " + ".join(parts) or "0"


def _accumulate(acc: dict, signature: TorusSignature, x_terms: dict, y_operands: dict) -> None:
    """Add the product of every pair of terms of ``x_terms`` and ``y_operands``
    into ``acc``, which maps normal-ordered monomials to raw coefficient
    maps; zeros stay until ``_settle``.  ``y_operands`` holds the right-hand
    coefficients as the ring's ``_operand()`` made them, once per product."""
    for ea, ca in x_terms.items():
        addmul = ca._addmul
        for eb, cb in y_operands.items():
            shift, key = _mul_exps(signature, ea, eb)
            dest = acc.get(key)
            if dest is None:
                dest = acc[key] = {}
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
        for key, raw in acc.items():  # replacing values keeps the size
            if _drop_zeros(raw):
                acc[key] = like(raw)
            else:
                empty.append(key)
        for key in empty:
            del acc[key]
    return acc


def torus_mul(x: TorusElement, y: TorusElement) -> TorusElement:
    """Product in the quantum torus, collecting normal-ordered monomials."""
    x._check(y)
    acc: dict[tuple[int, ...], dict] = {}
    _accumulate(acc, x.signature, x.terms, {key: coeff._operand() for key, coeff in y.terms.items()})
    return x._like(_settle(acc, x.terms))


def _mul_linear(x: TorusElement, coeffs: Sequence) -> TorusElement:
    """``x * (1 + sum_t coeffs[t] * x_t)``, equal to ``torus_mul`` against that linear element.

    Moving ``x_t`` left past the key ``ea`` costs ``v**shift``, with
    ``shift`` the sum of ``c(i, t) = -c(t, i)`` over the entries ``i`` of
    ``tail = ea[pos:]``, where ``pos = bisect_right(ea, t)``; ``x_t`` then
    goes in between ``ea[:pos]`` and ``tail``.  That is ``_mul_exps`` with
    ``(t,)`` on the right, summed over the key's own entries.  The operands
    are made once per factor, for the nonzero coefficients only, so a
    coefficient that truncation has emptied costs nothing per term.
    """
    skew = x.signature.skew
    operands = [(t, coeff._operand()) for t, coeff in enumerate(coeffs) if coeff]
    acc: dict[tuple[int, ...], dict] = {}
    for ea, ca in x.terms.items():
        dest = acc.get(ea)
        if dest is None:  # a whole copy: maps grown entry by entry left a larger heap
            acc[ea] = dict(ca.terms)
        else:
            get = dest.get
            for key, c in ca.terms.items():
                dest[key] = get(key, 0) + c
        addmul = ca._addmul
        for t, operand in operands:
            pos = bisect_right(ea, t)
            tail = ea[pos:]
            key = ea[:pos] + (t,) + tail
            dest = acc.get(key)
            if dest is None:
                dest = acc[key] = {}
            addmul(dest, operand, -sum(map(skew[t].__getitem__, tail)))
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

    def cycle_key(self, cycle: Cycle) -> tuple[int, ...]:
        """The key of a cycle's flag monomial: z and Z of each halfedge and circle, none twice."""
        indices = [index[h] for h in cycle.halfedges for index in (self.z_index, self.Z_index)]
        indices += [index[c] for c in cycle.circle_ids for index in (self.z_circle, self.Z_circle)]
        return tuple(sorted(indices))


class CycleAlgebra:
    """The cycle-side quantum torus: one variable per nonempty cycle."""

    def __init__(self, d: PlanarDiagram, cycle_set: CycleSet | None = None):
        self.diagram = d
        self.cycle_set = _cycle_set_of(d, cycle_set)
        self.variables = self.cycle_set.cycles[1:]  # canonical indices 1..K
        names = [f"x_{i + 1}" for i in range(len(self.variables))]
        rows = islice(self.cycle_set.pairing_rows(), 1, None)  # the empty cycle has no variable
        self.signature = TorusSignature(names, ([2 * p for p in row[1:]] for row in rows))
        self.rots = tuple(cycle.rot for cycle in self.variables)
        self.flag_algebra = FlagAlgebra(d)

    def variable(self, index: int) -> TorusElement:
        """The monomial for variable ``index`` (0-based over nonempty cycles)."""
        return TorusElement(self.signature, {(index,): QLaurent.one()})

    @cached_property
    def image_shifts(self) -> tuple[tuple[int, ...], ...]:
        """``P[l][t]``, the flag-side shift of ``mu(x_l)`` against ``mu(x_t)``.

        The normal-ordering shift of each pair of cycle images, shift only:
        the sum of the nonzero lower entries ``c(i, j)``, ``j < i``, of the
        flag skew over the flags ``i`` of ``mu(x_l)`` and ``j`` of
        ``mu(x_t)``.  The table is built row by row from an index of the
        images holding each flag (a cycle holds each flag once, so an image
        holds it at most once): every entry ``c(i, j)`` of a flag ``i`` of
        ``mu(x_l)`` is added into row ``l`` at each image holding ``j``.
        It reads the flag skew and the images only, never the circuits or
        their pairing.  Built on first read and kept:
        ``mu``, ``flow_table`` and ``_headroom`` all read it.
        ``check --suite mu`` compares ``P[i][j] - P[j][i]`` with the cycle
        skew, so it checks this table.
        """
        fa = self.flag_algebra
        lower = [[(j, c) for j, c in enumerate(row[:i]) if c] for i, row in enumerate(fa.signature.skew)]
        images = [fa.cycle_key(c) for c in self.variables]
        holders: list[list[int]] = [[] for _ in lower]
        for t, image in enumerate(images):
            for j in image:
                holders[j].append(t)
        table = []
        for image in images:
            row = [0] * len(images)
            for i in image:
                for j, c in lower[i]:
                    for t in holders[j]:
                        row[t] += c
            table.append(tuple(row))
        return tuple(table)

    def _image(self, element: TorusElement, supports: Sequence[tuple[int, ...]]) -> dict:
        """``{image key: coeff * v**phi(key)}`` over the terms ``coeff * x**key``
        of ``element``, where the image key is the sorted merge of
        ``supports[t]`` over the entries ``t`` of ``key`` (a support lists
        the indices its variable raises by one, sorted, repeats allowed).

        ``phi`` is the quadratic form of the module docstring, read from
        ``image_shifts`` once per pair of entries of the key.  Each term is
        shifted into one raw map per image key through the ring's
        ``_addshift``, which drops what the shift pushes past a truncation
        bound, and the maps are cleaned once.
        """
        if element.signature != self.signature:
            raise ValueError("element does not belong to this cycle algebra")
        table = self.image_shifts
        acc: dict[tuple[int, ...], dict] = {}
        for key, coeff in element.terms.items():
            shift, image = 0, ()
            for n, t in enumerate(key):
                for l in key[:n]:
                    shift += table[l][t]
                image += supports[t]
            image = tuple(sorted(image))
            dest = acc.get(image)
            if dest is None:
                dest = acc[image] = {}
            coeff._addshift(dest, shift)
        return _settle(acc, element.terms)

    def mu(self, element: TorusElement) -> TorusElement:
        """Apply the flag substitution homomorphism to a cycle-side element."""
        fa = self.flag_algebra
        supports = [fa.cycle_key(c) for c in self.variables]
        return _element(fa.signature, self._image(element, supports))

    def flow_table(self, element: TorusElement) -> dict[Coloring, object]:
        """The image of ``element`` as a table from flow colorings to coefficients.

        It is the image under ``mu``, keyed by the flow instead of its flag
        monomial.  Image keys are sorted slot lists, so each coloring is
        decoded once; a flag monomial and its flow fix each other, so the
        terms add up exactly as they do in ``mu``.
        """
        d = self.diagram
        supports = [tuple(sorted(d.slots(c.edge_ids, c.circle_ids))) for c in self.variables]
        table = {}
        for key, coeff in self._image(element, supports).items():
            colors = [0] * d.slot_count
            for i in key:
                colors[i] += 1
            table[d.coloring_of(colors)] = coeff
        return table
