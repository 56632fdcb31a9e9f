"""Exact CLI output on the built-in diagrams, pinned byte for byte.

``cli_outputs.json`` holds the exit code, stdout and stderr of every command
in ``COMMANDS``: the table commands in text and JSON, the HOMFLY command
with all its checks (passing, failing with exit 3, refused with exit 2) and
every ``check`` suite.  Refactoring the CLI must leave all of it unchanged.
Rewrite the file only when an output change is intended, by running this
module as a script: ``PYTHONPATH=src python tests/test_cli_outputs.py``.
"""

import contextlib
import io
import json
from functools import cache
from pathlib import Path

import pytest

from moyeval.cli import main

GOLDEN = Path(__file__).with_name("cli_outputs.json")
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


def run(argv) -> dict:
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


if __name__ == "__main__":
    rows = [{"argv": list(argv), **run(argv)} for argv in COMMANDS]
    GOLDEN.write_text(json.dumps(rows, indent=1) + "\n")
