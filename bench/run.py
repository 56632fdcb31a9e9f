"""The moyeval benchmark.

Usage::

    python3 bench/run.py --workload {levels,homfly,queries,all} \\
        --seed N --seconds S --trace {0,1}

For one workload it generates the seeded diagrams, runs the workload's
CLI jobs in a fresh worker process for about ``S`` seconds, timing set-up
in fresh processes between passes, checks every job's exit code and
output, and prints a report.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` they are the per-layer ones from a traced run.  The
lines before it print every metric, per-command times and the failure
ratio by name with their units.  ``--workload all`` runs the three
workloads one after another, each in its own worker process, and prints
one JSON object with every workload's metrics.

Exit code 0 means a result was printed; any other means the benchmark
could not run (for instance, no package source next to it).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from calib import scaled

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOAD_NAMES = ("levels", "homfly", "queries")
COMMANDS = ("table", "series", "classical", "homfly", "eval", "cycles", "check")
SETUP_PROBES = 18  # fresh processes timing set-up per run, at least


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _worker(plan_path: Path, result_path: Path, seconds: int) -> None:
    """Run the worker to completion, killing and reaping it if it overruns.

    The worker measures for ``seconds``, overshoots by less than one pass
    and then runs the remaining set-up probes, so twice the measuring time
    and a minute more leaves ample room.
    """
    timeout = 2 * seconds + 60
    try:
        done = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(plan_path), str(result_path)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"the worker ran over {timeout} s") from None
    if done.returncode != 0:
        raise BenchError(f"the worker exited {done.returncode}: {done.stderr.strip()[-2000:]}")


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Measure and check one workload, print its report, return its result."""
    import workloads  # imports the package, so only after the source check

    work_dir = workloads.WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        jobs, files = workloads.build(workload, seed, work_dir)
        plan = {
            "jobs": [{"command": job.command, "argv": list(job.argv)} for job in jobs],
            "diagrams": [str(f) for f in files],
            "setup_probes": SETUP_PROBES,
            "seconds": seconds,
            "trace": trace,
            "outputs": [str(work_dir / f"out-{i}.txt") for i in range(len(jobs))],
            "spans": str(workloads.WORK / f"spans-{workload}-{seed}.json"),
        }
        (work_dir / "plan.json").write_text(json.dumps(plan))
        _worker(work_dir / "plan.json", work_dir / "result.json", seconds)
        result = json.loads((work_dir / "result.json").read_text())
        problems = [
            job.verify(result["passes"][0]["rc"][i], Path(plan["outputs"][i]).read_text())
            for i, job in enumerate(jobs)
        ]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return report(workload, seed, jobs, problems, result, trace)


def _pass_seconds(p: dict, jobs: list, command: str | None = None) -> float:
    """A pass's time over its jobs (or one command's jobs), each job scaled by
    the calibration loop timed just before and after it."""
    calib = p["calib_s"]
    return sum(
        scaled(seconds, (calib[i] + calib[i + 1]) / 2)
        for i, (seconds, job) in enumerate(zip(p["job_s"], jobs))
        if command is None or job.command == command
    )


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, quartiles {q1:.4g}..{q3:.4g}"


def report(workload, seed, jobs, problems, result, trace) -> dict:
    passes, setup = result["passes"], result["setup_s"]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    failed = 0
    for i, job in enumerate(jobs):
        if problems[i]:
            print(f"FAIL {' '.join(job.argv)}: {problems[i]}", file=sys.stderr)
        failed += sum(bool(problems[i]) or p["rc"][i] != 0 or not p["same"][i] for p in passes)
    attempted = len(jobs) * len(passes)
    print(f"workload {workload}, seed {seed}: {len(plain)} untraced and {len(traced)} traced passes "
          f"of {len(jobs)} jobs; times scaled to the reference speed (calib.py)")

    def line(name, value, unit, note=""):
        print(f"  {name:<30} {value:>14.6g} {unit:<6} {note}")

    wall = [_pass_seconds(p, jobs) for p in plain]
    setup_scaled = [scaled(seconds, calib) for seconds, calib in setup]
    end_to_end = {
        "wall_s": (_median(wall), "s", f"median per pass, {_spread(wall)}"),
        "setup_s": (_median(setup_scaled), "s", f"median of fresh processes, {_spread(setup_scaled)}"),
        "peak_rss_mib": (result["peak_rss_kib"] / 1024, "MiB", "peak of the worker process"),
    }
    for name, (value, unit, note) in end_to_end.items():
        line(name, value, unit, note)
    for command in COMMANDS:
        if any(job.command == command for job in jobs):
            per_pass = [_pass_seconds(p, jobs, command) for p in plain]
            line(f"{command}_s", _median(per_pass), "s", f"median per pass, {_spread(per_pass)}")
    line("fail_ratio", failed / attempted, "ratio", f"{failed} of {attempted} jobs")
    calibs = [c for p in passes for c in p["calib_s"]]
    line("env.calib_s", _median(calibs), "s", f"calibration loop, {_spread(calibs)}")
    line("unscaled.wall_s", _median([p["wall_s"] for p in plain]), "s", "median per pass, as read")
    line("unscaled.setup_s", _median([seconds for seconds, _ in setup]), "s", "as read")

    metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _) in end_to_end.items()}
    correct = failed == 0
    if trace:
        from tracing import unit

        layers = {}
        for name in traced[0]["layers"]:
            values = [p["layers"][name] for p in traced]
            if unit(name) == "s":
                layers[name] = (_median([scaled(v, _median(p["calib_s"])) for v, p in zip(values, traced)]), "s")
                continue
            if any(v != values[0] for v in values):
                print(f"per-layer count {name} differs between passes: {values}", file=sys.stderr)
                correct = False
            layers[name] = (values[0], unit(name))
        layers["cli.output_bytes"] = (traced[0]["output_bytes"], "bytes")
        layers["env.calib_s"] = (_median(calibs), "s")
        layers["trace.overhead_s"] = (_median([_pass_seconds(p, jobs) for p in traced]) - _median(wall), "s")
        for name, (value, unit_name) in layers.items():
            line(name, value, unit_name)
        metrics = {name: {"value": value, "unit": unit_name} for name, (value, unit_name) in layers.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(seed: int, seconds: int, trace: bool) -> dict:
    """Every workload, one at a time, each in its own worker process."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for workload in WORKLOAD_NAMES:
        result = run_workload(workload, seed, seconds, trace)
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["workloads"][workload] = result["metrics"]
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "moyeval" / "cli.py").is_file():
            raise BenchError(f"no package source at {ROOT / 'src' / 'moyeval'}")
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, bool(args.trace))
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
