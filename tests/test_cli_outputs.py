"""Exact CLI output on the built-in diagrams and one split diagram, pinned
byte for byte.

``cli_outputs.json`` holds the exit code, stdout and stderr of every command
in ``COMMANDS``: the table commands in text and JSON, the HOMFLY command
with all its checks (passing, failing with exit 3, refused with exit 2),
every ``check`` suite and a refused coloring key.  The split diagram
``two_thetas_and_circle.json`` (two thetas whose edge ids interleave, and a
circle in a face of one of them) adds the table commands, one evaluation and
the state-sum suites.  It is named by its file name in ``COMMANDS`` and in
the recorded argv, and ``run`` resolves that name next to this module, so the
pins hold from any working directory.  Refactoring the CLI must leave all of
it unchanged.
Rewrite the file only when an output change is intended, by running this
module as a script: ``PYTHONPATH=src python tests/test_cli_outputs.py``.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

import moyeval
from moyeval.cli import main

GOLDEN = Path(__file__).with_name("cli_outputs.json")
SPLIT = "two_thetas_and_circle.json"
BUILTINS = ("unknot", "theta", "tetrahedron")
HOMFLY_CHECKS = ("--check", "--check-shift", "--specialize", "2")
SMALL_BOUNDS = ("--max-x-degree", "2", "--q-order", "16")

COMMANDS = [
    (command, name, "--N", "2", *check, *fmt)
    for name in BUILTINS
    for command, check in (("table", ()), ("series", ("--check",)), ("classical", ("--check",)))
    for fmt in ((), ("--format", "json"))
]
COMMANDS += [
    ("homfly", name, *bounds, *HOMFLY_CHECKS, *fmt)
    for name, bounds in (
        ("unknot", ()),  # the default bounds leave no level-2 window: exit 3
        ("theta", ()),
        ("tetrahedron", ()),  # not positive: exit 2
        ("unknot", SMALL_BOUNDS),
        ("theta", SMALL_BOUNDS),
        ("unknot", ("--max-x-degree", "2", "--q-order", "8")),
    )
    for fmt in ((), ("--format", "json"))
]
COMMANDS += [
    ("check", name, "--suite", suite)
    for name in BUILTINS
    for suite in ("counts", "series", "homfly", "weights", "mu")
]
COMMANDS += [("check", "theta", "--suite", "homfly", *SMALL_BOUNDS)]
COMMANDS += [("eval", "theta", "--N", "2", "--coloring=e--5=1")]  # one minus sign at most: exit 2
COMMANDS += [
    ("table", SPLIT, "--N", "2"),
    ("table", SPLIT, "--N", "2", "--format", "json"),
    ("series", SPLIT, "--N", "2", "--check"),
    ("classical", SPLIT, "--N", "2", "--check"),
    ("eval", SPLIT, "--N", "2", "--coloring=e0=2,e2=1,e4=1,e1=1,e3=1,c0=1"),
]
COMMANDS += [("check", SPLIT, "--suite", suite) for suite in ("weights", "counts", "series")]


def _resolved(argv) -> list[str]:
    return [str(GOLDEN.with_name(arg)) if arg == SPLIT else arg for arg in argv]


def run(argv) -> dict:
    argv = _resolved(argv)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@cache
def _recorded() -> dict:
    return {" ".join(row["argv"]): row for row in json.loads(GOLDEN.read_text())}


def test_every_command_is_recorded():
    assert sorted(_recorded()) == sorted(" ".join(argv) for argv in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_output_is_unchanged(argv):
    expected = _recorded()[" ".join(argv)]
    assert run(argv) == {key: expected[key] for key in ("exit", "stdout", "stderr")}


# Runs each argv of the JSON list in argv[1] through main in this fresh
# interpreter and prints, per command, its output and whether homfly.py has
# run by then.  The namespace is read with object.__getattribute__, which
# does not start the lazy module's load.
_FRESH = """
import contextlib, io, json, sys
from moyeval.cli import main

rows = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    module = sys.modules.get("moyeval.homfly")
    ran = module is not None and "homfly_series" in object.__getattribute__(module, "__dict__")
    rows.append({"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "homfly_ran": ran})
print(json.dumps(rows))
"""


def test_only_the_homfly_commands_run_homfly_py():
    # in-process tests cannot see this: earlier tests have run homfly.py
    others = [argv for argv in COMMANDS if argv[0] != "homfly" and "homfly" not in argv]
    others.append(("cycles", "theta"))
    homfly = [("homfly", "theta", *SMALL_BOUNDS, *HOMFLY_CHECKS), ("check", "theta", "--suite", "homfly")]
    argvs = others + homfly
    src = str(Path(moyeval.__file__).parents[1])
    path = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run([sys.executable, "-c", _FRESH, json.dumps([_resolved(a) for a in argvs])],
                          capture_output=True, text=True, check=True, env=env, timeout=120)
    rows = json.loads(done.stdout)
    assert [row.pop("homfly_ran") for row in rows] == [False] * len(others) + [True] * len(homfly)
    recorded = _recorded()
    for argv, row in zip(argvs, rows):
        expected = recorded.get(" ".join(argv), {"exit": 0, "stdout": row["stdout"], "stderr": ""})
        assert row == {key: expected[key] for key in ("exit", "stdout", "stderr")}, argv


if __name__ == "__main__":
    rows = [{"argv": list(argv), **run(argv)} for argv in COMMANDS]
    GOLDEN.write_text(json.dumps(rows, indent=1) + "\n")
