"""The benchmark workloads: which CLI jobs run, and how each is checked.

A workload is a list of jobs, each one ``moyeval`` command line.  One pass
runs every job once, in order, through ``moyeval.cli.main``.  Before the
timed passes, ``build`` writes the seeded diagrams to JSON files and
computes, untimed, what each job must print; ``Job.check`` compares a
job's exit code and captured output with that.

Why these workloads (see README.md for the metric map):

``levels``
    Finite-level tables.  About half the time is the state sum, the other
    half the twisted products over ``QLaurent`` coefficients.  The HOMFLY
    code and ``TruncatedRSeries`` do no work here.
``homfly``
    The truncated HOMFLY series with all three checks.  Series products
    over ``TruncatedRSeries`` dominate; the state sum runs only in the
    ``N = 2`` specialization.
``queries``
    Structure and single-coloring queries on wider diagrams: cycle
    enumeration and JSON output, one-coloring state sums, monomial
    products in the flag algebra.  The same modules as ``levels``, used
    the other way round.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable

import _paths  # noqa: F401
import families
from moyeval.cli import format_coloring, format_qlaurent
from moyeval.cycles import CycleSet
from moyeval.diagram import Coloring, PlanarDiagram, serialize_diagram
from moyeval.genseries import generating_series_N
from moyeval.qexact import QLaurent

__all__ = ["WORKLOADS", "WORK", "Job", "build"]

# Scratch space for generated inputs, outputs and spans; git ignores it.
WORK = Path(__file__).resolve().parent / ".work"

# Diagrams each workload uses, generated in this order from the seed.
WORKLOADS = {
    "levels": ("tetrahedron", "thetas3", "thetas2"),
    "homfly": ("theta", "thetas2", "circles3"),
    "queries": ("thetas5", "thetas3", "tetrahedron", "thetas4", "thetas2"),
}


@dataclass(frozen=True)
class Job:
    command: str  # the CLI subcommand, which names the per-command time
    argv: tuple[str, ...]
    check: Callable[[str], str | None]  # output -> problem, or None if right

    def verify(self, rc: int, output: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        try:
            return self.check(output)
        except (ValueError, KeyError, TypeError, IndexError) as exc:  # malformed JSON output
            return f"unreadable output: {exc!r}"


# --------------------------------------------------------------------------
# reference data, computed untimed before the passes


def _theta_power_table(d: PlanarDiagram, k: int, n: int) -> dict[Coloring, QLaurent]:
    """The level-``n`` table of ``k`` disjoint thetas from one theta's table.

    A disjoint union evaluates to the product of its parts' evaluations
    (proved in test_bench.py), and ``disjoint_union`` numbers the edges
    of part ``i`` from ``3 * i``.
    """
    theta = generating_series_N(PlanarDiagram(vertices=d.vertices[:2], edges=d.edges[:3]), n)
    table = {Coloring(): QLaurent.one()}
    for part in range(k):
        table = {
            Coloring(edges=dict(c.edges) | {e + 3 * part: m for e, m in tc.edges}): v * tv
            for c, v in table.items()
            for tc, tv in theta.items()
        }
    return table


def reference_table(name: str, d: PlanarDiagram, n: int) -> dict[Coloring, QLaurent]:
    """The level-``n`` table by twisted products, never by the state sum."""
    if name.startswith("thetas"):
        return _theta_power_table(d, int(name[len("thetas"):]), n)
    return generating_series_N(d, n)


# The truncated HOMFLY tables the ``homfly`` jobs print, as (rows, sha256 of
# the rows, each ``coloring -> value`` line with its newline).  The seed moves
# only coordinates, so the tables do not depend on it.  They were recorded
# from the jobs' output when the benchmark was added, with every ``--check``,
# ``--check-shift`` and ``--specialize 2`` report ``ok``; a change that drops
# or alters a term within the bounds fails the gate even if it does so on
# every pass.
HOMFLY_TABLES = {
    "theta": (21, "6b84db7dd68d5a8f4ce764825d6f29a74d6c7fa17645ce1d09fcc91f12b9094c"),
    "thetas2": (36, "33bb5d292d957eca9252dbd4f0a59272e2b45bfc92d5c3669ce7fa02e0407867"),
    "circles3": (125, "d9ed292951275845def3b162d8c82c51a601af8b80973e80be7cd6f899c925e6"),
}


def _table_text(table: dict[Coloring, QLaurent]) -> str:
    rows = sorted(table.items(), key=lambda item: item[0].sort_key())
    return "".join(f"{format_coloring(c)} -> {format_qlaurent(v)}\n" for c, v in rows)


def _realized_coloring(d: PlanarDiagram, n: int, rng: random.Random) -> Coloring:
    """The flow of a random state: one random cycle per label.

    Computed here rather than with ``statesum.state_flow``, so the inputs
    do not depend on the state-sum code they are used to measure.
    """
    cycles = CycleSet(d).cycles
    edges: dict[int, int] = {}
    circles: dict[int, int] = {}
    for _ in range(n):
        cycle = cycles[rng.randrange(len(cycles))]
        for e in cycle.edge_ids:
            edges[e] = edges.get(e, 0) + 1
        for c in cycle.circle_ids:
            circles[c] = circles.get(c, 0) + 1
    return Coloring(edges=edges, circles=circles)


def _coloring_arg(c: Coloring) -> str:
    return ",".join([f"e{k}={v}" for k, v in c.edges] + [f"c{k}={v}" for k, v in c.circles])


# --------------------------------------------------------------------------
# output checks


def _exact(expected: str) -> Callable[[str], str | None]:
    def check(output: str) -> str | None:
        if output == expected:
            return None
        return f"output differs from the reference ({len(output)} vs {len(expected)} bytes)"

    return check


def _table_check(colorings: int) -> Callable[[str], str | None]:
    """A ``--check`` table job: one row and one PASS per coloring."""

    def check(output: str) -> str | None:
        lines = output.splitlines()
        rows = sum(" -> " in line for line in lines)
        passes = sum(line.startswith("PASS ") for line in lines)
        if lines[-1:] != [f"all {colorings} colorings agree"]:
            return f"check summary is {lines[-1:]!r}, expected {colorings} agreeing colorings"
        if rows != colorings or passes != colorings:
            return f"{rows} rows and {passes} PASS lines for {colorings} colorings"
        return None

    return check


def _homfly_check(x: int, q: int, oks: int, rows: int, rows_sha256: str) -> Callable[[str], str | None]:
    """A ``homfly`` job: the bound headers, every check report ``ok``, and
    the table rows equal to the reference table (see ``HOMFLY_TABLES``)."""
    header = [f"x-degree bound: {x}", f"q-order bound: {q} (v-units)"]

    def check(output: str) -> str | None:
        lines = output.splitlines()
        if lines[:2] != header:
            return f"output starts {lines[:2]!r}"
        reports = [line.strip() for line in lines if line.lstrip().startswith(("ok:", "FAIL"))]
        if len(reports) != oks or not all(r.startswith("ok:") for r in reports):
            return f"reports {reports!r}, expected {oks} ok"
        table = [line for line in lines if " -> " in line]
        digest = hashlib.sha256("".join(f"{line}\n" for line in table).encode()).hexdigest()
        if len(table) != rows or digest != rows_sha256:
            return f"the {len(table)} table rows differ from the {rows} reference rows"
        return None

    return check


def _cycles_json_check(k: int) -> Callable[[str], str | None]:
    """``cycles thetasK --format json``: 3**K positive cycles, antisymmetric pairing."""

    def check(output: str) -> str | None:
        data = json.loads(output)
        cycles, pairing = data["cycles"], data["pairing_doubled"]
        n = 3**k
        if len(cycles) != n or len(pairing) != n or any(len(row) != n for row in pairing):
            return f"{len(cycles)} cycles, expected {n}"
        if not data["positive"] or any(c["rot"] != c["components"] for c in cycles):
            return "a cycle is not positive"
        if any(pairing[i][j] != -pairing[j][i] for i in range(n) for j in range(i + 1)):
            return "pairing matrix is not antisymmetric"
        # c components: choose c of the k thetas and one of two circuits in each
        counts = Counter(c["components"] for c in cycles)
        if counts != {c: comb(k, c) * 2**c for c in range(k + 1)}:
            return "cycle component counts differ from k disjoint thetas"
        return None

    return check


def _table_json_check(table: dict[Coloring, QLaurent]) -> Callable[[str], str | None]:
    def key(edges: dict, circles: dict) -> tuple:
        return tuple(sorted(edges.items())), tuple(sorted(circles.items()))

    expected = {
        key({str(e): m for e, m in c.edges}, {str(i): m for i, m in c.circles}): {
            e: str(m) for e, m in v.terms.items()
        }
        for c, v in table.items()
    }

    def check(output: str) -> str | None:
        got = {
            key(row["coloring"]["edges"], row["coloring"]["circles"]): {
                t["v"]: t["c"] for t in row["value"]["terms"]
            }
            for row in json.loads(output)
        }
        if got != expected:
            return f"{len(got)} JSON rows differ from the {len(expected)} reference rows"
        return None

    return check


# --------------------------------------------------------------------------
# workloads


def build(workload: str, seed: int, work_dir: Path) -> tuple[list[Job], list[Path]]:
    """Write the seeded diagrams and return the jobs and the diagram files."""
    rng = random.Random(f"{workload}:{seed}")
    diagrams, paths = {}, {}
    for name in WORKLOADS[workload]:
        diagrams[name] = families.family(name, rng)
        paths[name] = work_dir / f"{name}.json"
        paths[name].write_text(serialize_diagram(diagrams[name]))
    d, p = diagrams, {name: str(path) for name, path in paths.items()}

    def colorings(name: str, n: int) -> int:
        return len(reference_table(name, d[name], n))

    if workload == "levels":
        jobs = [
            Job("table", ("table", p["tetrahedron"], "--N", "7"),
                _exact(_table_text(reference_table("tetrahedron", d["tetrahedron"], 7)))),
            Job("series", ("series", p["tetrahedron"], "--N", "6", "--check"),
                _table_check(colorings("tetrahedron", 6))),
            Job("series", ("series", p["thetas3"], "--N", "3", "--check"),
                _table_check(colorings("thetas3", 3))),
            Job("classical", ("classical", p["thetas3"], "--N", "3", "--check"),
                _table_check(colorings("thetas3", 3))),
            Job("check", ("check", p["thetas2"], "--suite", "weights", "--N", "4"),
                _exact("ok: weights (both vertex-weight forms at level 4)\n")),
        ]
    elif workload == "homfly":
        # --specialize 2 on thetas2 needs q-order 20: the window
        # q - 2*N*x*R with R = 2 (two-component cycles) is -4 at q-order 12.
        jobs = [
            Job("homfly", ("homfly", p["theta"], "--max-x-degree", "5", "--q-order", "36", "--check"),
                _homfly_check(5, 36, 1, *HOMFLY_TABLES["theta"])),
            Job("homfly", ("homfly", p["thetas2"], "--max-x-degree", "2", "--q-order", "20",
                           "--check", "--check-shift", "--specialize", "2"),
                _homfly_check(2, 20, 6, *HOMFLY_TABLES["thetas2"])),
            Job("homfly", ("homfly", p["circles3"], "--max-x-degree", "4", "--q-order", "24", "--check"),
                _homfly_check(4, 24, 1, *HOMFLY_TABLES["circles3"])),
        ]
    elif workload == "queries":
        thetas3 = reference_table("thetas3", d["thetas3"], 3)
        tetra = reference_table("tetrahedron", d["tetrahedron"], 7)
        c3 = _realized_coloring(d["thetas3"], 3, rng)
        c7 = _realized_coloring(d["tetrahedron"], 7, rng)
        pairs = (3**4 - 1) * (3**4 - 2)
        jobs = [
            Job("cycles", ("cycles", p["thetas5"], "--format", "json"), _cycles_json_check(5)),
            Job("eval", ("eval", p["thetas3"], "--N", "3", "--coloring", _coloring_arg(c3)),
                _exact(format_qlaurent(thetas3[c3]) + "\n")),
            Job("eval", ("eval", p["tetrahedron"], "--N", "7", "--coloring", _coloring_arg(c7)),
                _exact(format_qlaurent(tetra[c7]) + "\n")),
            Job("check", ("check", p["thetas4"], "--suite", "mu"),
                _exact(f"ok: mu (checked {pairs} ordered pairs against the intersection pairing)\n")),
            Job("table", ("table", p["thetas2"], "--N", "3", "--format", "json"),
                _table_json_check(reference_table("thetas2", d["thetas2"], 3))),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs, list(paths.values())
