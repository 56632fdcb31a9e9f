"""Command-line interface.

Exit codes: 0 success, 1 usage error (a negative bound included), 2
malformed diagram or coloring (a diagram file that cannot be read
included), 3 a requested consistency check failed.

Diagram arguments accept either a path to a JSON file or the name of a
built-in diagram (``unknot``, ``theta``, ``tetrahedron``).  Colorings are
given as comma-separated ``id=value`` pairs; a plain id names an edge if
one exists, else a circle, and the prefixes ``e``/``c`` pick explicitly
(``e0=2,c1=1``).  Unmentioned ids are colored 0.

All output is deterministic: tables are sorted by coloring, polynomials by
descending exponent.  With ``--format json`` stdout carries exactly one
JSON document; the lines of any requested check go to stderr instead, and
the exit codes stay the same.

:mod:`moyeval.homfly` is the package's lazy module: importing it runs
nothing, and only the two commands that read its names (``homfly`` and
``check --suite homfly``) run it, so no other command loads it.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from math import gcd
from operator import sub
from pathlib import Path

from . import homfly
from .cycles import CycleSet
from .diagram import (
    Coloring,
    DiagramError,
    PlanarDiagram,
    builtin,
    builtin_names,
    format_coloring,
    parse_diagram,
    serialize_diagram,
)
from .genseries import classical_series, generating_series_N
from .qexact import QLaurent, TruncatedRSeries
from .qtorus import CycleAlgebra
from .statesum import eval_table, eval_table_alt, moy_eval

__all__ = ["main", "format_qlaurent", "format_rseries", "parse_coloring_spec"]


# --------------------------------------------------------------------------
# formatting


@cache
def _power(var: str, quarter_units: int) -> str | None:
    """Render ``var`` raised to ``quarter_units / 4`` (cached: rows repeat them); None for 0."""
    if quarter_units == 0:
        return None
    g = gcd(quarter_units, 4)
    num, den = quarter_units // g, 4 // g
    if den != 1:
        return f"{var}^({num}/{den})"
    if num == 1:
        return var
    return f"{var}^{num}" if num > 0 else f"{var}^({num})"


def _join_terms(terms: list[tuple[int, list[str | None]]]) -> str:
    """Assemble ``(coefficient, factor strings)`` pairs into a sum."""
    parts: list[str] = []
    for coeff, factors in terms:
        body = "*".join(f for f in factors if f)
        magnitude = abs(coeff)
        if not body:
            body = str(magnitude)
        elif magnitude != 1:
            body = f"{magnitude}*{body}"
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if coeff > 0 else '-'} {body}")
    return " ".join(parts) if parts else "0"


def format_qlaurent(p: QLaurent) -> str:
    return _join_terms(
        [(p.terms[e], [_power("q", e)]) for e in sorted(p.terms, reverse=True)]
    )


def format_rseries(t: TruncatedRSeries) -> str:
    keys = sorted(t.terms, key=lambda k: (-k[0], -k[1]))
    return _join_terms(
        [(t.terms[k], [_power("q", k[0]), _power("a", k[1])]) for k in keys]
    )


def _coloring_json(coloring: Coloring) -> dict:
    return {
        "edges": {str(k): v for k, v in coloring.edges},
        "circles": {str(k): v for k, v in coloring.circles},
    }


def _qlaurent_json(p: QLaurent) -> dict:
    # Coefficients as decimal strings: they outgrow fixed-width integers fast.
    return {"terms": [{"v": e, "c": str(p.terms[e])} for e in sorted(p.terms)]}


def _rseries_json(t: TruncatedRSeries) -> dict:
    return {
        "q_order": t.q_order,
        "terms": [{"v": k[0], "b": k[1], "c": str(t.terms[k])} for k in sorted(t.terms)],
    }


def _emit_json(data) -> None:
    """Print ``json.dumps(data, indent=2)``, writing each piece of
    ``json_chunks`` as it comes.

    No more than one piece is held at a time, so iterators in ``data`` (the
    rows of a pairing matrix) are printed without being kept.  The writer
    is imported here, so that commands printing text never load it.
    """
    from .jsonout import json_chunks

    write = sys.stdout.write
    for chunk in json_chunks(data):
        write(chunk)
    write("\n")


# --------------------------------------------------------------------------
# input handling


def _load_diagram(spec: str) -> PlanarDiagram:
    if spec in builtin_names():
        return builtin(spec)
    path = Path(spec)
    try:
        if not path.exists():
            raise DiagramError(f"no such file or built-in diagram: {spec}")
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DiagramError(f"cannot read diagram file {spec}: {exc}") from exc
    return parse_diagram(text)


def parse_coloring_spec(d: PlanarDiagram, spec: str) -> Coloring:
    """Parse ``id=value`` pairs; see the module docstring for the syntax."""
    edges: dict[int, int] = {}
    circles: dict[int, int] = {}
    if not spec.strip():
        return Coloring()
    for raw in spec.split(","):
        part = raw.strip()
        if "=" not in part:
            raise DiagramError(f"bad coloring entry {part!r}: expected id=value")
        key, _, value_text = part.partition("=")
        key = key.strip()
        try:
            value = int(value_text.strip())
        except ValueError:
            raise DiagramError(f"bad color value in {part!r}") from None
        kind, digits = (key[0], key[1:]) if key[:1] in ("e", "c") else (None, key)
        try:
            # one optional minus sign, then decimal digits: what int() reads,
            # up to its limit on the number of digits
            if not digits.removeprefix("-").isdecimal():
                raise ValueError
            ident = int(digits)
        except ValueError:
            raise DiagramError(f"bad coloring key {key!r}") from None
        if kind == "e":
            target = edges
            if ident not in d.edge_by_id:
                raise DiagramError(f"coloring mentions missing edge {ident}")
        elif kind == "c":
            target = circles
            if ident not in d.circle_by_id:
                raise DiagramError(f"coloring mentions missing circle {ident}")
        elif ident in d.edge_by_id:
            target = edges
        elif ident in d.circle_by_id:
            target = circles
        else:
            raise DiagramError(f"coloring mentions unknown id {ident}")
        if ident in target:
            raise DiagramError(f"id {ident} colored twice")
        target[ident] = value
    return Coloring(edges=edges, circles=circles)


# --------------------------------------------------------------------------
# commands


def _cmd_builtin(args) -> int:
    if args.name:
        sys.stdout.write(serialize_diagram(builtin(args.name)))
    else:
        for name in builtin_names():
            print(name)
    return 0


def _cmd_cycles(args) -> int:
    d = _load_diagram(args.diagram)
    cs = CycleSet(d)
    if args.format == "json":
        _emit_json(
            {
                "cycles": [
                    {
                        "edges": sorted(c.edge_ids),
                        "circles": sorted(c.circle_ids),
                        "components": len(c.components),
                        "rot": c.rot,
                    }
                    for c in cs.cycles
                ],
                "pairing_doubled": cs.pairing_rows(),
                "positive": cs.is_positive,
            }
        )
        return 0
    for i, cycle in enumerate(cs.cycles):
        if cycle.is_empty:
            print(f"cycle {i}: empty")
            continue
        bits = []
        if cycle.edge_ids:
            bits.append("edges " + ",".join(str(e) for e in sorted(cycle.edge_ids)))
        if cycle.circle_ids:
            bits.append("circles " + ",".join(str(c) for c in sorted(cycle.circle_ids)))
        bits.append(f"components {len(cycle.components)}")
        print(f"cycle {i}: {' '.join(bits)} rot {cycle.rot:+d}")
    print("doubled pairing matrix 2<Ci,Cj>:")
    for row in cs.pairing_rows():
        print("  [" + ", ".join(f"{entry:+d}" if entry else "0" for entry in row) + "]")
    print(f"positive: {'yes' if cs.is_positive else 'no'}")
    return 0


def _cmd_eval(args) -> int:
    d = _load_diagram(args.diagram)
    coloring = parse_coloring_spec(d, args.coloring)
    value = moy_eval(d, coloring, args.n)
    if args.format == "json":
        _emit_json(
            {"n": args.n, "coloring": _coloring_json(coloring), "value": _qlaurent_json(value)}
        )
    else:
        print(format_qlaurent(value))
    return 0


# JSON header keys of a table and the text line each one prints as
_HEADER_LINES = {"x_degree": "x-degree bound: {}", "q_order": "q-order bound: {} (v-units)"}


def _write_table(args, table: dict, text, to_json, key: str = "value", **header) -> None:
    """Print a coloring table sorted by coloring: text rows, or one JSON document.

    ``text`` and ``to_json`` format a value; in JSON each row holds it
    under ``key``, and ``header`` keys turn the row list into the ``table``
    entry of an object that starts with them.
    """
    rows = sorted(table.items(), key=lambda item: item[0].sort_key())
    if args.format == "json":
        body = [{"coloring": _coloring_json(c), key: to_json(v)} for c, v in rows]
        _emit_json({**header, "table": body} if header else body)
        return
    for name, value in header.items():
        print(_HEADER_LINES[name].format(value))
    for coloring, value in rows:
        print(f"{format_coloring(coloring)} -> {text(value)}")


def _check_file(args):
    """Where check lines go: stderr in JSON mode, so stdout stays one JSON document."""
    return sys.stderr if args.format == "json" else None  # None: print's stdout


def _report_table_check(table: dict, reference: dict, left: str, right: str, file=None) -> int:
    """Per-coloring PASS/FAIL comparison of two coloring-keyed tables."""
    failures = 0
    for coloring in sorted(set(table) | set(reference), key=Coloring.sort_key):
        a, b = table.get(coloring), reference.get(coloring)
        if a == b:
            print(f"PASS {format_coloring(coloring)}", file=file)
        else:
            failures += 1
            print(f"FAIL {format_coloring(coloring)}: {left} {a!r} vs {right} {b!r}", file=file)
    if failures:
        print(f"{failures} coloring(s) disagree", file=file)
        return 3
    print(f"all {len(reference)} colorings agree", file=file)
    return 0


def _report_line(ok: bool, name: str, detail: str, pad: str = "", file=None) -> None:
    """Print one check's ``ok:``/``FAIL:`` line."""
    detail = f" ({detail})" if detail else ""
    print(f"{pad}{'ok' if ok else 'FAIL'}: {name}{detail}", file=file)


def _print_reports(reports: list[homfly.CheckReport], file=None) -> int:
    """Print each report and, indented below it, its sub-reports; 3 if any failed."""

    def show(report: homfly.CheckReport, pad: str) -> None:
        _report_line(report.ok, report.name, report.detail, pad, file)
        for sub in report.sub:
            show(sub, pad + "  ")

    for report in reports:
        show(report, "")
    return 0 if all(report.all_ok() for report in reports) else 3


def _state_counts(d: PlanarDiagram, n: int, cs: CycleSet) -> dict:
    """The ``q = 1`` values of the level-``n`` state sum: the reference state counts."""
    return {c: v.evaluate_one() for c, v in eval_table(d, n, cycle_set=cs).items()}


def _cmd_table(args) -> int:
    d = _load_diagram(args.diagram)
    _write_table(args, eval_table(d, args.n), format_qlaurent, _qlaurent_json)
    return 0


def _cmd_classical(args) -> int:
    d = _load_diagram(args.diagram)
    cs = CycleSet(d)
    table = classical_series(d, args.n, cycle_set=cs)
    _write_table(args, table, str, lambda count: count, key="count")
    if not args.check:
        return 0
    reference = _state_counts(d, args.n, cs)
    return _report_table_check(table, reference, "convolution count", "state count", _check_file(args))


def _cmd_series(args) -> int:
    d = _load_diagram(args.diagram)
    ca = CycleAlgebra(d)
    table = generating_series_N(d, args.n, cycle_algebra=ca)
    _write_table(args, table, format_qlaurent, _qlaurent_json)
    if not args.check:
        return 0
    reference = eval_table(d, args.n, cycle_set=ca.cycle_set)
    return _report_table_check(table, reference, "twisted product", "state sum", _check_file(args))


def _cmd_homfly(args) -> int:
    d = _load_diagram(args.diagram)
    hs = homfly.homfly_series(d, args.max_x_degree, args.q_order)
    _write_table(args, hs.table, format_rseries, _rseries_json,
                 x_degree=hs.x_degree, q_order=hs.q_order)
    reports = []
    if args.check:
        reports.append(homfly.check_fphi(hs))
    if args.check_shift:
        reports.append(homfly.check_shift(hs))
    if args.specialize is not None:
        reports.append(homfly.specialization_check(hs, args.specialize))
    return _print_reports(reports, _check_file(args))


def _check_mu(ca: CycleAlgebra) -> tuple[bool, str]:
    # mu(x_i) mu(x_j) is v**P[i][j] times the flag monomial of x_i + x_j, so
    # the images exchange at skew c(i, j) exactly when P[i][j] - P[j][i]
    # equals it; P is the table mu reads.  Each row of P minus its column
    # is compared whole.  Both P - P^T and the skew are antisymmetric, so
    # the first failing row i has its first failing entry at some j > i
    # (rows above it all passed, and both diagonals are 0), and (i, j) is
    # the first failing ordered pair of a row-by-row walk over the pairs i < j.
    table, skew = ca.image_shifts, ca.signature.skew
    for i, (row, column, expected) in enumerate(zip(table, zip(*table), skew)):
        differences = tuple(map(sub, row, column))
        if differences != expected:
            j = next(j for j, (d, e) in enumerate(zip(differences, expected)) if d != e)
            return False, f"exchange of x_{i + 1} and x_{j + 1} breaks at skew {expected[j]}"
    return True, f"checked {len(table) * (len(table) - 1)} ordered pairs against the intersection pairing"


def _cmd_check(args) -> int:
    d = _load_diagram(args.diagram)
    n = args.n
    if args.suite == "homfly":
        hs = homfly.homfly_series(d, args.max_x_degree, args.q_order)
        return _print_reports([homfly.check_fphi(hs), homfly.check_shift(hs), homfly.specialization_check(hs, n)])
    cs = CycleSet(d)  # both routes of every other suite share it
    if args.suite == "counts":
        table = classical_series(d, n, cycle_set=cs)
        ok = table == _state_counts(d, n, cs)
        detail = f"convolution vs state counts, {len(table)} colorings at level {n}"
    elif args.suite == "series":
        series = generating_series_N(d, n, cycle_algebra=CycleAlgebra(d, cs))
        ok = series == eval_table(d, n, cycle_set=cs)
        detail = f"twisted product vs state sum at level {n}"
    elif args.suite == "weights":
        ok = eval_table(d, n, cycle_set=cs) == eval_table_alt(d, n, cycle_set=cs)
        detail = f"both vertex-weight forms at level {n}"
    else:  # mu
        ok, detail = _check_mu(CycleAlgebra(d, cs))
    _report_line(ok, args.suite, detail)
    return 0 if ok else 3


# --------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit with code 1
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _add_format(sub) -> None:
    sub.add_argument("--format", choices=("text", "json"), default="text")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and reused: parsing leaves it unchanged."""
    parser = _Parser(prog="moyeval", description="Exact evaluation of colored MOY graphs.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("builtin", help="list built-in diagrams or print one as JSON")
    p.add_argument("name", nargs="?", choices=builtin_names())
    p.set_defaults(func=_cmd_builtin)

    p = sub.add_parser("cycles", help="list cycles, rotations and pairings")
    p.add_argument("diagram")
    _add_format(p)
    p.set_defaults(func=_cmd_cycles)

    p = sub.add_parser("eval", help="evaluate one coloring by state sum")
    p.add_argument("diagram")
    p.add_argument("--N", dest="n", type=_nonneg, required=True, help="level (number of labels)")
    p.add_argument("--coloring", default="", help="id=value pairs, e.g. 0=2,1=1")
    _add_format(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("table", help="evaluate every realized coloring at a level")
    p.add_argument("diagram")
    p.add_argument("--N", dest="n", type=_nonneg, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("classical", help="q=1 state counts via convolution")
    p.add_argument("diagram")
    p.add_argument("--N", dest="n", type=_nonneg, required=True)
    p.add_argument("--check", action="store_true", help="compare with the state sum")
    _add_format(p)
    p.set_defaults(func=_cmd_classical)

    p = sub.add_parser("series", help="evaluation table via the twisted product")
    p.add_argument("diagram")
    p.add_argument("--N", dest="n", type=_nonneg, required=True)
    p.add_argument("--check", action="store_true", help="compare with the state sum")
    _add_format(p)
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("homfly", help="truncated HOMFLY series of a positive diagram")
    p.add_argument("diagram")
    p.add_argument("--max-x-degree", type=_nonneg, default=3)
    p.add_argument("--q-order", type=_nonneg, default=12, help="v-exponent truncation bound")
    p.add_argument("--check", action="store_true", help="verify the defining equation")
    p.add_argument("--check-shift", action="store_true", help="verify the a -> q^2 a identity")
    p.add_argument("--specialize", type=_nonneg, metavar="N", help="compare a = q^N with the state sum")
    _add_format(p)
    p.set_defaults(func=_cmd_homfly)

    p = sub.add_parser("check", help="run a named consistency suite")
    p.add_argument("diagram")
    p.add_argument(
        "--suite",
        required=True,
        choices=("counts", "series", "homfly", "weights", "mu"),
        help="counts: convolution vs q=1 state counts; series: twisted product vs "
        "state sum; homfly: defining equation, shift identity and specialization; "
        "weights: both vertex-weight formulas; mu: flag-image exchange relations",
    )
    p.add_argument("--N", dest="n", type=_nonneg, default=2)
    p.add_argument("--max-x-degree", type=_nonneg, default=3)
    # the specialization window is q-order - 2*N*x*R: 12 would leave 0 at the defaults, 16 leaves 4
    p.add_argument("--q-order", type=_nonneg, default=16, help="v-exponent truncation bound (homfly suite)")
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except DiagramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
