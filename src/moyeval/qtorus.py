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
element, never mixed.  ``torus_mul`` needs ``+``, ``*``, ``times_v`` and
truth testing of them; ``mu`` needs only ``+``, ``times_v`` and truth
testing, so its image keeps the ring (and any truncation bound) of its
input without knowing which ring that is.

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
``mu`` works on exponent tuples, reads the table once per pair of
variables a monomial holds, and shifts each coefficient once.
``CycleAlgebra.flow_table`` reads the image of ``mu`` as a table from flow
colorings to coefficients; it is the only decoder of flag monomials.
"""

from __future__ import annotations

from functools import cached_property
from operator import add
from typing import Mapping, Sequence

from .cycles import Cycle, CycleSet
from .diagram import Coloring, Flag, PlanarDiagram, ROLES
from .qexact import QLaurent

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


class TorusElement:
    """A finite sum of normal-ordered monomials with ring coefficients."""

    __slots__ = ("signature", "terms")

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

    def _check_signature(self, other: "TorusElement") -> None:
        if self.signature != other.signature:
            raise ValueError("cannot combine elements over different signatures")

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TorusElement):
            return NotImplemented
        return self.signature == other.signature and self.terms == other.terms

    def __add__(self, other: "TorusElement") -> "TorusElement":
        if not isinstance(other, TorusElement):
            return NotImplemented
        self._check_signature(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            if exps in out:
                total = out[exps] + coeff
                if total:
                    out[exps] = total
                else:
                    del out[exps]
            else:
                out[exps] = coeff
        return TorusElement(self.signature, out)

    def __neg__(self) -> "TorusElement":
        return TorusElement(self.signature, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "TorusElement") -> "TorusElement":
        if not isinstance(other, TorusElement):
            return NotImplemented
        return self + (-other)

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


def torus_mul(x: TorusElement, y: TorusElement) -> TorusElement:
    """Product in the quantum torus, collecting normal-ordered monomials."""
    x._check_signature(y)
    out: dict[tuple[int, ...], object] = {}
    for ea, ca in x.terms.items():
        for eb, cb in y.terms.items():
            shift, exps = _mul_exps(x.signature, ea, eb)
            coeff = (ca * cb).times_v(shift)
            if exps in out:
                total = out[exps] + coeff
                if total:
                    out[exps] = total
                else:
                    del out[exps]
            elif coeff:
                out[exps] = coeff
    return TorusElement(x.signature, out)


class FlagAlgebra:
    """The flag-side quantum torus of a diagram.

    Variables come in vertex blocks (ascending vertex id): ``z`` for roles
    ``l, m, r`` followed by ``Z`` for roles ``r, m, l``; then one ``z``/``Z``
    pair per circle (ascending id).
    """

    def __init__(self, d: PlanarDiagram):
        self.diagram = d
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

    def cycle_monomial(self, cycle: Cycle, coeff) -> TorusElement:
        """The flag monomial of a single cycle with the given coefficient."""
        return TorusElement.monomial(self.signature, self.cycle_exponents(cycle), coeff)

    def flow_of_monomial(self, exps: Sequence[int]) -> Coloring | None:
        """Read a monomial's exponents as an edge/circle coloring.

        For every edge the four entries (z and Z at both endpoints) must
        agree; for every circle the z and Z entries must agree.  Returns
        ``None`` when they do not, i.e. when the monomial is not the image
        of a flow.
        """
        exps = tuple(exps)
        edge_colors = {}
        for e in self.diagram.edges:
            values = {
                exps[self.z_index[e.tail]],
                exps[self.z_index[e.head]],
                exps[self.Z_index[e.tail]],
                exps[self.Z_index[e.head]],
            }
            if len(values) != 1:
                return None
            edge_colors[e.id] = next(iter(values))
        circle_colors = {}
        for c in self.diagram.circles:
            z, Z = exps[self.z_circle[c.id]], exps[self.Z_circle[c.id]]
            if z != Z:
                return None
            circle_colors[c.id] = z
        return Coloring(edges=edge_colors, circles=circle_colors)


class CycleAlgebra:
    """The cycle-side quantum torus: one variable per nonempty cycle."""

    def __init__(self, d: PlanarDiagram, cycle_set: CycleSet | None = None):
        self.diagram = d
        self.cycle_set = cycle_set or CycleSet(d)
        self.variables = self.cycle_set.cycles[1:]  # canonical indices 1..K
        names = [f"x_{i + 1}" for i in range(len(self.variables))]
        entries = {}
        for i in range(len(self.variables)):
            for j in range(i + 1, len(self.variables)):
                entries[(i, j)] = 2 * self.cycle_set.pairing2[i + 1][j + 1]
        self.signature = TorusSignature.from_entries(names, entries)
        self.rots = tuple(cycle.rot for cycle in self.variables)
        self.flag_algebra = FlagAlgebra(d)
        self._image_exps = tuple(self.flag_algebra.cycle_exponents(c) for c in self.variables)
        self._image_support = tuple(
            tuple((f, e) for f, e in enumerate(image) if e) for image in self._image_exps
        )

    def variable(self, index: int, coeff=None) -> TorusElement:
        """The monomial for variable ``index`` (0-based over nonempty cycles)."""
        exps = [0] * len(self.signature)
        exps[index] = 1
        return TorusElement.monomial(self.signature, exps, coeff if coeff is not None else QLaurent.one())

    @cached_property
    def image_shifts(self) -> tuple[tuple[int, ...], ...]:
        """``P[l][t]``, the flag-side shift of ``mu(x_l)`` against ``mu(x_t)``.

        Built on first read, so an algebra that never calls ``mu`` never
        pays for its K*K products.
        """
        flag_sig = self.flag_algebra.signature
        images = self._image_exps
        return tuple(tuple(_mul_exps(flag_sig, a, b)[0] for b in images) for a in images)

    def mu(self, element: TorusElement) -> TorusElement:
        """Apply the flag substitution homomorphism to a cycle-side element.

        Each term is read in one pass over the nonzero exponents of its
        monomial, through the quadratic form in ``image_shifts`` that the
        module docstring states.
        """
        if element.signature != self.signature:
            raise ValueError("element does not belong to this cycle algebra")
        table, supports = self.image_shifts, self._image_support
        size = len(self.flag_algebra.signature)
        out: dict[tuple[int, ...], object] = {}
        for exps, coeff in element.terms.items():
            support = [(t, a) for t, a in enumerate(exps) if a]
            shift, image = 0, [0] * size
            for n, (t, a) in enumerate(support):
                shift += a * (a - 1) // 2 * table[t][t]
                for l, b in support[:n]:
                    shift += b * a * table[l][t]
                for f, e in supports[t]:
                    image[f] += a * e
            key = tuple(image)
            term = coeff.times_v(shift)
            prev = out.get(key)
            out[key] = term if prev is None else prev + term
        return TorusElement(self.flag_algebra.signature, out)

    def flow_table(self, element: TorusElement) -> dict:
        """``mu(element)`` read as a table from flow colorings to coefficients.

        This is the one place where flag monomials become colorings.  A
        flow's monomial is fixed by its coloring, so distinct terms of the
        image give distinct colorings and no two of them merge.
        """
        table: dict[Coloring, object] = {}
        for exps, coeff in self.mu(element).terms.items():
            coloring = self.flag_algebra.flow_of_monomial(exps)
            assert coloring is not None, "cycle-algebra product produced a non-flow monomial"
            table[coloring] = coeff
        return table
