"""Run one workload's passes in this fresh, single-threaded process.

Usage: ``python3 bench/worker.py PLAN RESULT``

``PLAN`` is a JSON file written by run.py or sweep.py: the jobs (each a
CLI command line), the diagram files, how many set-up probes to run at
least, the seconds to measure, whether to trace, and where to put the
first pass's outputs and the spans.  Every job runs in-process through
``moyeval.cli.main`` with stdout and stderr captured.  The calibration
loop (calib.py) is timed before the first job of a pass and after every
job.  After each pass, a fresh process times set-up (``setup_probe.py``),
so the set-up samples spread over the whole run like the passes.  The
timings, exit codes, output sizes and peak memory go to ``RESULT`` as
JSON.

With tracing on, passes alternate untraced and traced, starting
untraced.  Untraced passes give the end-to-end times; traced passes give
the per-layer metrics, and the difference is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import _paths  # noqa: F401
import moyeval.cli
from calib import calibrate

PROBE = Path(__file__).resolve().parent / "setup_probe.py"


def run_job(argv: list[str]) -> tuple[int, str, float]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        rc = moyeval.cli.main(argv)
        elapsed = perf_counter() - start
    return rc, out.getvalue(), elapsed


def probe_setup(files: list[str]) -> list[float]:
    """Set-up and calibration seconds of one fresh process (see setup_probe.py)."""
    done = subprocess.run(
        [sys.executable, str(PROBE), *files], capture_output=True, text=True, check=True, timeout=60
    )
    return [float(word) for word in done.stdout.split()]


def main(plan_path: str, result_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text())
    jobs = [job["argv"] for job in plan["jobs"]]
    seconds = plan["seconds"]
    tracer = None
    if plan["trace"]:
        from tracing import Tracer, layer_metrics  # only traced runs import it

        tracer = Tracer()
    digests: list[str | None] = [None] * len(jobs)
    passes = []
    setup = []
    probes = plan["setup_probes"]  # at least this many: one after each pass, the rest at the end
    trace_spans = None
    if probes:
        probe_setup(plan["diagrams"])  # warm-up: writes bytecode caches, as any first use would
    start = perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        # calib_s[j] and calib_s[j + 1] are timed just before and after job j
        record = {"traced": traced, "calib_s": [calibrate()], "job_s": [], "rc": [], "same": []}
        output_bytes = 0
        if traced:
            tracer.spans.clear()
            tracer.install()
        try:
            for index, argv in enumerate(jobs):
                rc, output, elapsed = run_job(argv)
                record["calib_s"].append(calibrate())
                digest = hashlib.sha256(output.encode()).hexdigest()
                if digests[index] is None:
                    digests[index] = digest
                    Path(plan["outputs"][index]).write_text(output)
                record["job_s"].append(elapsed)
                record["rc"].append(rc)
                record["same"].append(digest == digests[index])
                output_bytes += len(output.encode())
        finally:
            if traced:
                tracer.uninstall()
        record["wall_s"] = sum(record["job_s"])
        record["output_bytes"] = output_bytes
        if traced:
            record["layers"] = layer_metrics(tracer.spans)
            if trace_spans is None:
                trace_spans = [span[:4] for span in tracer.spans]
        passes.append(record)
        if probes:
            setup.append(probe_setup(plan["diagrams"]))
        # Start a pass only if it should end within the measuring time, as
        # judged by the last pass of its kind; trace at least once.
        next_traced = tracer is not None and len(passes) % 2 == 1
        predicted = next((p["wall_s"] for p in reversed(passes) if p["traced"] == next_traced), record["wall_s"])
        enough = len(passes) >= (2 if tracer is not None else 1)
        if enough and perf_counter() - start + predicted > seconds:
            break
    while len(setup) < probes:
        setup.append(probe_setup(plan["diagrams"]))
    result = {
        "passes": passes,
        "setup_s": setup,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if trace_spans is not None:
        Path(plan["spans"]).write_text(
            json.dumps({"bound_names": tracer.bound_names(), "spans": trace_spans})
        )
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(*sys.argv[1:])
