"""Tests of the diagram families, the correctness gate and the tracer.

Run with ``python3 -m unittest discover -s bench`` (or pytest on ``bench``).
"""

from __future__ import annotations

import contextlib
import io
import random
import tempfile
import unittest
from pathlib import Path
from unittest import mock

import _paths  # noqa: F401
import families
import moyeval.cli
import moyeval.statesum
import tracing
import workloads
from moyeval.cycles import CycleSet
from moyeval.diagram import Coloring, parse_diagram, serialize_diagram
from moyeval.statesum import eval_table
from tracing import Tracer, layer_metrics

NAMES = ("theta", "tetrahedron", "thetas1", "thetas2", "thetas3", "thetas4", "circles1", "circles3")
SEEDS = range(6)


def _shifted(c: Coloring, edges: int, circles: int) -> Coloring:
    return Coloring(
        edges={e + edges: m for e, m in c.edges},
        circles={i + circles: m for i, m in c.circles},
    )


class FamilyTests(unittest.TestCase):
    def test_every_generated_diagram_validates_and_round_trips(self):
        for name in NAMES:
            for seed in SEEDS:
                d = families.family(name, random.Random(seed))  # validates on construction
                text = serialize_diagram(d)
                self.assertEqual(serialize_diagram(parse_diagram(text)), text, (name, seed))

    def test_seed_moves_coordinates_only(self):
        for name in NAMES:
            drawings = {serialize_diagram(families.family(name, random.Random(s))) for s in SEEDS}
            self.assertGreater(len(drawings), 1, name)
            shapes = {
                tuple((len(c.components), c.rot, tuple(sorted(c.edge_ids))) for c in CycleSet(d).cycles)
                for d in (families.family(name, random.Random(s)) for s in SEEDS)
            }
            self.assertEqual(len(shapes), 1, name)

    def test_families_are_positive(self):
        for name in NAMES:
            if name == "tetrahedron":
                continue
            for seed in SEEDS:
                self.assertTrue(CycleSet(families.family(name, random.Random(seed))).is_positive, (name, seed))

    def test_thetas_k_has_3_to_the_k_cycles_and_circles_k_2_to_the_k(self):
        for k in range(1, 5):
            self.assertEqual(len(CycleSet(families.family(f"thetas{k}", random.Random(k)))), 3**k)
            self.assertEqual(len(CycleSet(families.family(f"circles{k}", random.Random(k)))), 2**k)

    def test_disjoint_union_evaluates_to_the_product_of_its_parts(self):
        rng = random.Random(7)
        cases = [
            ("theta", "theta", 3),
            ("theta", "circle", 3),
            ("tetrahedron", "theta", 2),
            ("circle", "tetrahedron", 3),
        ]
        for left_name, right_name, n in cases:
            left = families.family(left_name, rng)
            right = families.family(right_name, rng)
            union = families.disjoint_union([left, right], rng)
            expected = {}
            for c1, v1 in eval_table(left, n).items():
                for c2, v2 in eval_table(right, n).items():
                    shifted = _shifted(c2, len(left.edges), len(left.circles))
                    expected[Coloring(edges=c1.edges + shifted.edges, circles=c1.circles + shifted.circles)] = v1 * v2
            self.assertEqual(eval_table(union, n), expected, (left_name, right_name, n))


class GateTests(unittest.TestCase):
    def test_gate_passes_real_outputs_and_rejects_altered_ones(self):
        workloads.WORK.mkdir(parents=True, exist_ok=True)
        for workload in workloads.WORKLOADS:
            with tempfile.TemporaryDirectory(dir=workloads.WORK) as tmp:
                jobs, _ = workloads.build(workload, 3, Path(tmp))
                for job in jobs:
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        rc = moyeval.cli.main(list(job.argv))
                    output = out.getvalue()
                    self.assertIsNone(job.verify(rc, output), job.argv)
                    self.assertIsNotNone(job.verify(3, output), job.argv)
                    without_last_line = output[: output.rstrip("\n").rfind("\n") + 1]
                    self.assertIsNotNone(job.verify(rc, without_last_line), job.argv)

    def test_gate_rejects_a_homfly_table_that_passes_its_own_checks(self):
        workloads.WORK.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=workloads.WORK) as tmp:
            jobs, _ = workloads.build("homfly", 4, Path(tmp))
            for job in jobs:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    rc = moyeval.cli.main(list(job.argv))
                lines = out.getvalue().splitlines(keepends=True)
                last_row = max(i for i, line in enumerate(lines) if " -> " in line)
                dropped = "".join(lines[:last_row] + lines[last_row + 1:])
                altered = "".join(lines).replace(" + ", " - ", 1)
                self.assertIsNotNone(job.verify(rc, dropped), job.argv)
                self.assertIsNotNone(job.verify(rc, altered), job.argv)


class TracerTests(unittest.TestCase):
    def test_spans_nest_counts_hold_and_uninstall_restores(self):
        original = moyeval.statesum.eval_table
        d = families.family("thetas2", random.Random(1))
        workloads.WORK.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=workloads.WORK) as tmp:
            path = Path(tmp) / "thetas2.json"
            path.write_text(serialize_diagram(d))
            tracer = Tracer()
            runs = []
            for _ in range(2):
                tracer.spans.clear()
                tracer.install()
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        self.assertEqual(moyeval.cli.main(["table", str(path), "--N", "2"]), 0)
                finally:
                    tracer.uninstall()
                runs.append(layer_metrics(tracer.spans))
        self.assertIs(moyeval.statesum.eval_table, original)
        first = runs[0]
        self.assertEqual(first["statesum.calls"], 1)
        self.assertEqual(first["statesum.states"], 9**2)
        self.assertEqual(first["statesum.colorings_out"], len(eval_table(d, 2)))
        self.assertEqual(first["cycles.cycles"], 9)
        self.assertEqual(first["diagram.parse_calls"], 1)
        self.assertEqual(tracer.spans[0][0], "cli.main")
        self.assertTrue(all(parent < index for index, (_, _, _, parent, _) in enumerate(tracer.spans)))
        counts = {k: v for k, v in first.items() if not k.endswith("_s")}
        self.assertEqual(counts, {k: v for k, v in runs[1].items() if not k.endswith("_s")})

    def test_a_missing_target_fails_instead_of_reading_0(self):
        target = ("homfly.series_invert", "moyeval.homfly", "no_such_function", None)
        with mock.patch.object(tracing, "_TARGETS", tracing._TARGETS + (target,)):
            with self.assertRaises(LookupError):
                Tracer()


if __name__ == "__main__":
    unittest.main()
