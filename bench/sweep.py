"""Scaling sweep: how each route's cost grows.  It reports and gates nothing.

Usage: ``python3 bench/sweep.py``

Four axes, each point one CLI job timed once in a fresh worker process:

* level ``N``: ``table tetrahedron --N 4..8`` (the state sum has 4**N states);
* cycle count: ``table`` and ``series`` on ``thetasK --N 3``, ``K = 1..3``;
* x-degree: ``homfly theta --q-order 36 --max-x-degree 2..5``;
* q-order: ``homfly theta --max-x-degree 4 --q-order 12..60``.

Times are scaled to the reference speed like the benchmark's (calib.py).
A point that runs over ``CAP_S`` seconds is stopped and reported as such.
The seed is fixed: it moves only coordinates, never the work.  The last
line of output is JSON with every point.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import _paths  # noqa: F401
import families
from calib import scaled
from moyeval.diagram import serialize_diagram
from workloads import WORK

BENCH = Path(__file__).resolve().parent
CAP_S = 120  # seconds allowed per point

AXES = (
    ("N", [("table", "tetrahedron", n, ["--N", str(n)]) for n in range(4, 9)]),
    ("cycles", [(cmd, f"thetas{k}", 3**k, ["--N", "3"]) for k in (1, 2, 3) for cmd in ("table", "series")]),
    ("x_degree", [("homfly", "theta", x, ["--max-x-degree", str(x), "--q-order", "36"]) for x in range(2, 6)]),
    ("q_order", [("homfly", "theta", q, ["--max-x-degree", "4", "--q-order", str(q)]) for q in range(12, 61, 12)]),
)


def time_point(work_dir: Path, argv: list[str]) -> dict:
    plan = {
        "jobs": [{"command": argv[0], "argv": argv}],
        "diagrams": [],
        "setup_probes": 0,
        "seconds": 0,  # a single pass
        "trace": False,
        "outputs": [str(work_dir / "out.txt")],
        "spans": str(work_dir / "spans.json"),
    }
    (work_dir / "plan.json").write_text(json.dumps(plan))
    result_path = work_dir / "result.json"
    try:
        subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(work_dir / "plan.json"), str(result_path)],
            check=True,
            timeout=CAP_S,
        )
    except subprocess.TimeoutExpired:
        return {"seconds": None, "rc": None}
    first = json.loads(result_path.read_text())["passes"][0]
    calib = sum(first["calib_s"]) / 2  # the loop before and after the job
    return {"seconds": scaled(first["wall_s"], calib), "rc": first["rc"][0]}


def main() -> int:
    rng = random.Random("sweep")
    work_dir = WORK / "sweep"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    points = []
    try:
        paths = {}
        for name in ("tetrahedron", "theta", "thetas1", "thetas2", "thetas3"):
            paths[name] = work_dir / f"{name}.json"
            paths[name].write_text(serialize_diagram(families.family(name, rng)))
        for axis, specs in AXES:
            previous: dict[str, dict] = {}  # the last point of each command on this axis
            for command, diagram, x, options in specs:
                point = time_point(work_dir, [command, str(paths[diagram]), *options])
                point.update(axis=axis, x=x, command=command, diagram=diagram)
                points.append(point)
                last = previous.get(command)
                if point["seconds"] is None:
                    shown = f"over the {CAP_S} s cap"
                else:
                    shown = f"{point['seconds']:10.4f} s  rc {point['rc']}"
                    if last and last["seconds"]:
                        shown += f"  x{point['seconds'] / last['seconds']:.2f} over the previous point"
                print(f"{axis:<9} {x:>4}  {command:<7} {diagram:<12} {shown}", flush=True)
                previous[command] = point
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({"cap_s": CAP_S, "points": points}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
