"""Command-line interface: output formats, exit codes, error reporting."""

import enum
import gc
import json
from fractions import Fraction

import pytest

import moyeval.cli
from moyeval.cli import _emit_json, _power, format_qlaurent, main, parse_coloring_spec
from moyeval.cycles import CycleSet, pairing_doubled
from moyeval.diagram import Coloring, builtin, builtin_names, format_coloring, parse_diagram, serialize_diagram
from moyeval.qexact import QLaurent
from moyeval.statesum import eval_table
from test_cycles import thetas


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- formatting ---------------------------------------------------------------


def test_format_qlaurent():
    assert format_qlaurent(QLaurent.zero()) == "0"
    assert format_qlaurent(QLaurent({0: 3})) == "3"
    assert format_qlaurent(QLaurent({4: -2, 0: 1})) == "-2*q + 1"
    assert format_qlaurent(QLaurent({1: 1})) == "q^(1/4)"
    assert format_qlaurent(QLaurent({-4: 1})) == "q^(-1)"
    assert format_qlaurent(QLaurent({-2: 1})) == "q^(-1/2)"
    assert format_qlaurent(QLaurent({2: 1, -2: 1})) == "q^(1/2) + q^(-1/2)"


def fraction_power(var, quarter_units):
    """The exponent rendering through ``Fraction``, as the formatter once did it."""
    exp = Fraction(quarter_units, 4)
    if exp == 0:
        return None
    if exp == 1:
        return var
    if exp.denominator == 1:
        if exp.numerator > 0:
            return f"{var}^{exp.numerator}"
        return f"{var}^({exp.numerator})"
    return f"{var}^({exp.numerator}/{exp.denominator})"


def test_cached_exponents_match_the_fraction_rendering():
    # twice over: the first call fills the cache, the second reads it
    _power.cache_clear()
    for _ in range(2):
        for var in ("q", "a"):
            for quarter_units in range(-64, 65):
                assert _power(var, quarter_units) == fraction_power(var, quarter_units), quarter_units
    assert _power.cache_info().hits == 2 * 129


# -- argument handling --------------------------------------------------------


def test_a_warm_call_leaves_no_garbage(capsys):
    # main reuses one parser, so a repeated command leaves no cyclic
    # garbage for the collector
    run(capsys, "table", "theta", "--N", "2")
    gc.collect()
    gc.disable()
    try:
        assert run(capsys, "table", "theta", "--N", "2")[0] == 0
        assert gc.collect() < 10
    finally:
        gc.enable()


def test_usage_errors_exit_1(capsys):
    assert run(capsys, )[0] == 1
    assert run(capsys, "frobnicate")[0] == 1
    assert run(capsys, "eval", "unknot")[0] == 1  # --N is required
    assert run(capsys, "eval", "unknot", "--N", "-1")[0] == 1
    assert run(capsys, "check", "theta", "--suite", "nope")[0] == 1
    # a negative truncation bound used to pass --check on an empty table
    for argv in (("homfly", "theta", "--q-order", "-1", "--check"),
                 ("check", "theta", "--suite", "homfly", "--q-order", "-1")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out
        assert "--q-order: must be nonnegative" in err


def test_missing_and_malformed_diagram_files(capsys, tmp_path):
    code, _, err = run(capsys, "eval", str(tmp_path / "none.json"), "--N", "1")
    assert code == 2 and "no such file or built-in diagram" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run(capsys, "eval", str(bad), "--N", "1")
    assert code == 2 and "invalid JSON" in err
    # refused as malformed (exit 2, one error line), not raised as a traceback
    for text, message in (
        ('{"circles": [{"id": 0, "center": [NaN, 0], "radius": 1, "orientation": "cw"}]}',
         "invalid JSON: NaN is not a finite number"),
        ('{"circles": [{"id": 0, "center": [0, 0], "radius": -Infinity, "orientation": "cw"}]}',
         "invalid JSON: -Infinity is not a finite number"),
        ('{"vertices": 5}', "diagram field 'vertices' must be a list"),
        ('{"edges": null}', "diagram field 'edges' must be a list"),
    ):
        bad.write_text(text)
        assert run(capsys, "cycles", str(bad)) == (2, "", f"error: {message}\n")
    # too deep or too long for the decoder, not UTF-8, a directory, a name
    # too long for the file system (a permission-denied case needs a user
    # that file modes bind, so it is not tested here)
    deep, digits, binary = tmp_path / "deep.json", tmp_path / "digits.json", tmp_path / "binary.json"
    deep.write_text("[" * 5000 + "]" * 5000)
    digits.write_text('{"vertices": [' + "1" * 5000 + "]}")
    binary.write_bytes(b'{"circles": []}\xff')
    for path, message in ((deep, "invalid JSON: "), (digits, "invalid JSON: "),
                          (binary, f"cannot read diagram file {binary}: "),
                          (tmp_path, f"cannot read diagram file {tmp_path}: "),
                          (tmp_path / ("a" * 5000), "cannot read diagram file ")):
        code, out, err = run(capsys, "cycles", str(path))
        assert (code, out) == (2, "") and err.startswith(f"error: {message}") and err.count("\n") == 1


def test_huge_decimal_exponents_are_refused(capsys, tmp_path):
    # Fraction would build 10**exponent exactly; past Python's 4,300-digit
    # limit on integer literals the coordinate is refused instead
    path = tmp_path / "circle.json"
    template = '{"circles": [{"id": 0, "center": [0, 0], "radius": %s, "orientation": "ccw"}]}'
    for literal, shown in (("1e1000000", "'1e1000000'"), ("1e-1000000", "'1e-1000000'"),
                           ('"1e1000000"', "'1e1000000'"), ('"1E+4_301"', "'1E+4_301'")):
        path.write_text(template % literal)
        message = f"error: coordinate {shown} has a decimal exponent beyond 4300 in magnitude\n"
        assert run(capsys, "cycles", str(path)) == (2, "", message)
    for literal, radius in (("1e300", Fraction(10**300)), ('"1e-4300"', Fraction(1, 10**4300))):
        path.write_text(template % literal)
        assert parse_diagram(path.read_text()).circle_by_id[0].radius == radius
        code, out, err = run(capsys, "cycles", str(path))
        assert (code, err) == (0, "") and "circles 0" in out


def test_diagram_file_equals_builtin(capsys, tmp_path):
    path = tmp_path / "theta.json"
    path.write_text(serialize_diagram(builtin("theta")))
    from_file = run(capsys, "eval", str(path), "--N", "2", "--coloring", "0=2,1=1,2=1")
    from_name = run(capsys, "eval", "theta", "--N", "2", "--coloring", "0=2,1=1,2=1")
    assert from_file == from_name


# -- coloring specifications --------------------------------------------------


def test_parse_coloring_spec():
    theta = builtin("theta")
    assert parse_coloring_spec(theta, "0=2,1=1,2=1") == \
        Coloring(edges={0: 2, 1: 1, 2: 1})
    assert parse_coloring_spec(theta, "e0=1, e1=1") == Coloring(edges={0: 1, 1: 1})
    assert parse_coloring_spec(theta, "") == Coloring()
    unknot = builtin("unknot")
    # a bare id matches an edge first, then a circle
    assert parse_coloring_spec(unknot, "0=3") == Coloring(circles={0: 3})
    assert parse_coloring_spec(unknot, "c0=3") == Coloring(circles={0: 3})


def test_coloring_spec_errors(capsys):
    cases = (
        ("zzz", "bad coloring entry 'zzz'"),
        ("0=x", "bad color value"),
        ("q5=1", "bad coloring key"),
        ("e--5=1", "bad coloring key 'e--5'"),
        ("--0=1", "bad coloring key '--0'"),
        ("e\u00b2=1", "bad coloring key 'e\u00b2'"),
        ("1" * 5000 + "=1", "bad coloring key '1111"),  # more digits than int() converts
        ("e" + "1" * 5000 + "=1", "bad coloring key 'e1111"),
        ("0=2,0=2", "id 0 colored twice"),
        ("9=1", "coloring mentions unknown id 9"),
        ("e9=1", "coloring mentions missing edge 9"),
        ("c1=1", "coloring mentions missing circle 1"),
    )
    for spec, message in cases:
        code, _, err = run(capsys, "eval", "theta", "--N", "2", f"--coloring={spec}")
        assert code == 2 and message in err


# -- evaluation commands ------------------------------------------------------


def test_eval_prints_the_polynomial(capsys):
    code, out, _ = run(capsys, "eval", "unknot", "--N", "2", "--coloring", "0=1")
    assert code == 0 and out == "q^(1/2) + q^(-1/2)\n"
    code, out, _ = run(capsys, "eval", "unknot", "--N", "2", "--coloring", "c0=2")
    assert code == 0 and out == "1\n"
    code, out, _ = run(capsys, "eval", "unknot", "--N", "2", "--coloring", "0=1", "--format", "json")
    assert code == 0 and json.loads(out) == {
        "n": 2,
        "coloring": {"edges": {}, "circles": {"0": 1}},
        "value": {"terms": [{"v": -2, "c": "1"}, {"v": 2, "c": "1"}]},
    }


def test_eval_reports_flow_violations(capsys):
    code, _, err = run(capsys, "eval", "theta", "--N", "2", "--coloring", "0=1,1=1,2=1")
    assert code == 2
    assert "flow conservation at vertex 0 (2 != 1)" in err
    assert "vertex 1 (2 != 1)" in err


def test_table_json_round_trip(capsys):
    code, out, _ = run(capsys, "table", "theta", "--N", "2", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    rebuilt = {}
    for row in rows:
        coloring = Coloring(
            edges={int(k): v for k, v in row["coloring"]["edges"].items()},
            circles={int(k): v for k, v in row["coloring"]["circles"].items()},
        )
        value = QLaurent({t["v"]: int(t["c"]) for t in row["value"]["terms"]})
        rebuilt[coloring] = value
    assert rebuilt == eval_table(builtin("theta"), 2)
    # rows come out sorted by total color, then lexicographically
    keys = [r["coloring"] for r in rows]
    assert keys[0] == {"edges": {}, "circles": {}}


def test_output_is_deterministic(capsys):
    first = run(capsys, "table", "tetrahedron", "--N", "2", "--format", "json")
    second = run(capsys, "table", "tetrahedron", "--N", "2", "--format", "json")
    assert first == second


def test_builtin_listing_and_emission(capsys):
    code, out, _ = run(capsys, "builtin")
    assert code == 0 and out.split() == ["unknot", "theta", "tetrahedron"]
    code, out, _ = run(capsys, "builtin", "theta")
    assert code == 0
    data = json.loads(out)
    assert {"vertices", "edges"} <= set(data)


def test_cycles_output(capsys):
    code, out, _ = run(capsys, "cycles", "theta")
    assert code == 0
    assert "cycle 0: empty" in out
    assert "cycle 1: edges 0,1 components 1 rot +1" in out
    assert "doubled pairing matrix" in out
    assert "positive: yes" in out
    code, out, _ = run(capsys, "cycles", "theta", "--format", "json")
    data = json.loads(out)
    assert data["pairing_doubled"] == [[0, 0, 0], [0, 0, 2], [0, -2, 0]]
    assert data["positive"] is True
    assert data["cycles"][1] == {"edges": [0, 1], "circles": [], "components": 1, "rot": 1}


def test_cycles_output_matches_the_direct_pairing(capsys, tmp_path):
    diagrams = [(name, builtin(name)) for name in builtin_names()]
    for k in (3, 5):
        path = tmp_path / f"thetas{k}.json"
        path.write_text(serialize_diagram(thetas(k)))
        diagrams.append((str(path), thetas(k)))
    for arg, d in diagrams:
        cs = CycleSet(d)
        pairing = [[pairing_doubled(c1, c2) for c2 in cs] for c1 in cs]
        document = {
            "cycles": [
                {"edges": sorted(c.edge_ids), "circles": sorted(c.circle_ids),
                 "components": len(c.components), "rot": c.rot}
                for c in cs
            ],
            "pairing_doubled": pairing,
            "positive": cs.is_positive,
        }
        code, out, _ = run(capsys, "cycles", arg, "--format", "json")
        assert code == 0 and out == json.dumps(document, indent=2) + "\n", arg
        code, out, _ = run(capsys, "cycles", arg)
        lines = out.splitlines()
        start = lines.index("doubled pairing matrix 2<Ci,Cj>:") + 1
        assert lines[start:-1] == [
            "  [" + ", ".join(f"{entry:+d}" if entry else "0" for entry in row) + "]"
            for row in pairing
        ], arg


def test_classical_check_reports_each_coloring(capsys):
    code, out, _ = run(capsys, "classical", "theta", "--N", "2", "--check")
    assert code == 0
    assert "empty -> 1" in out
    assert "edges 0=1,1=1 -> 2" in out
    assert out.count("PASS") == 6
    assert "all 6 colorings agree" in out


def test_series_check_agrees(capsys):
    code, out, _ = run(capsys, "series", "theta", "--N", "2", "--check")
    assert code == 0 and "colorings agree" in out


@pytest.mark.parametrize("command", ["classical", "series"])
def test_tables_print_the_same_rows_with_and_without_check(capsys, command):
    for fmt in ("text", "json"):
        code, plain, err = run(capsys, command, "tetrahedron", "--N", "2", "--format", fmt)
        assert code == 0 and err == ""
        code, checked, _ = run(capsys, command, "tetrahedron", "--N", "2", "--check", "--format", fmt)
        assert code == 0
        if fmt == "json":
            assert plain == checked
        else:
            assert checked.startswith(plain)
            *passes, last = checked[len(plain):].splitlines()
            assert all(line.startswith("PASS ") for line in passes)
            assert last == f"all {len(passes)} colorings agree"


@pytest.mark.parametrize("command, route, left, right", [
    ("classical", "classical_series", "convolution count", "state count"),
    ("series", "generating_series_N", "twisted product", "state sum"),
])
def test_table_checks_report_a_disagreement(capsys, monkeypatch, command, route, left, right):
    # one value of the checked table doubled: one FAIL line naming both
    # values, the count, and exit 3; in JSON the lines go to stderr
    original = getattr(moyeval.cli, route)
    changed = {}

    def perturbed(*args, **kwargs):
        table = original(*args, **kwargs)
        coloring = max(table, key=Coloring.sort_key)
        changed.update(coloring=coloring, value=table[coloring])
        table[coloring] = table[coloring] + table[coloring]
        return table

    monkeypatch.setattr(moyeval.cli, route, perturbed)
    code, out, err = run(capsys, command, "theta", "--N", "2", "--check")
    assert code == 3 and err == ""
    coloring, value = changed["coloring"], changed["value"]
    fail = f"FAIL {format_coloring(coloring)}: {left} {value + value!r} vs {right} {value!r}"
    lines = out.splitlines()
    assert [line for line in lines if line.startswith("FAIL")] == [fail]
    assert lines[-1] == "1 coloring(s) disagree"
    assert sum(line.startswith("PASS") for line in lines) == 5
    code, out, err = run(capsys, command, "theta", "--N", "2", "--check", "--format", "json")
    assert code == 3
    assert len(json.loads(out)) == 6
    assert fail in err.splitlines() and err.splitlines()[-1] == "1 coloring(s) disagree"


def test_json_output_with_checks_is_one_document(capsys):
    # the check lines go to stderr, so stdout parses as JSON and nothing else
    cases = (
        (("classical", "theta", "--N", "2"), "all 6 colorings agree"),
        (("series", "theta", "--N", "2"), "all 6 colorings agree"),
        (("homfly", "unknot", "--max-x-degree", "2", "--q-order", "16",
          "--check-shift", "--specialize", "2"), "ok: specialize"),
    )
    for argv, last in cases:
        code, out, err = run(capsys, *argv, "--check", "--format", "json")
        assert code == 0, argv
        json.loads(out)
        assert err.splitlines()[-1].startswith(last), argv
        assert "PASS" not in out and "ok:" not in out
    # a failing check keeps its exit code
    code, out, err = run(capsys, "homfly", "unknot", "--max-x-degree", "2",
                         "--q-order", "8", "--specialize", "2", "--format", "json")
    assert code == 3
    assert json.loads(out)["q_order"] == 8
    assert "FAIL: specialize" in err


def test_json_output_is_the_indented_dump_of_its_document(capsys):
    code, out, _ = run(capsys, "table", "tetrahedron", "--N", "5", "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


WRITER_CASES = [
    [], {}, [[]], [{}], {"a": []}, {"a": {}}, [[], {}, [[]]],
    [0], [1, 2, 3], [-1, -2**64, 2**64, 2**70 + 1], [[1, -2], [3], [2**100, -(2**100)]],
    [1, True, 0], [True], [False, 2], [None, 3], [1, None], [0, 1.5], [1, "2"], (1, 2), [(3, 4)],
    {"k": [1, 2], "nested": {"x": [[0]], "y": [{"z": None, "t": True, "f": False}]}},
    {"\u00e9": "\u00fc", "ctl\x00\n\t\"\\": "a\x1fb\u2028", "\U0001f600": ["\x7f", "\u4e2d"]},
    "scalar", 5, -7, None, True, False, 2.5,
]


def written(capsys, data):
    _emit_json(data)
    return capsys.readouterr().out


@pytest.mark.parametrize("data", WRITER_CASES, ids=repr)
def test_json_writer_prints_the_indented_dump(capsys, data):
    assert written(capsys, data) == json.dumps(data, indent=2) + "\n"


def test_json_writer_rejects_what_json_rejects(capsys):
    for data in ({1, 2}, [Fraction(1, 2)], {"a": object()}):
        with pytest.raises(TypeError):
            json.dumps(data)
        with pytest.raises(TypeError):
            written(capsys, data)


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2**70


class Count(int):
    def __repr__(self):
        return "Count()"

    __str__ = __repr__


INTEGER_ROW_CASES = {
    "true beside 1": [[1, True, 1], [True, 1], [1, 1, True], [False, 0, 0]],
    "int subclasses": [[1, Level.LOW, Level.HIGH], [Level.HIGH], [Count(3), 3], [3, Count(-4)]],
    "one entry": [[0], [-5], [2**64]],
    "one repeated value": [[7] * 40, [-1] * 3, [[0] * 5] * 4],
    "huge and very negative": [[10**4000, -(10**4000), 2**200 - 1], [-(2**63), 2**63, -1]],
    "tuples": [(1, 2, 3), [(4,), (5, -6)], {"t": (0, 0)}],
    "nested": [[[1, 2], [3, [4, 5]]], {"a": [[1], [2, 2]], "b": {"c": [3, -3]}}],
}


@pytest.mark.parametrize("name", INTEGER_ROW_CASES)
def test_json_writer_prints_integer_rows_as_json_does(capsys, name):
    for data in INTEGER_ROW_CASES[name]:
        assert written(capsys, data) == json.dumps(data, indent=2) + "\n"
    assert written(capsys, INTEGER_ROW_CASES[name]) == json.dumps(INTEGER_ROW_CASES[name], indent=2) + "\n"
    rows = [row for row in INTEGER_ROW_CASES[name] if isinstance(row, list)]
    assert written(capsys, iter(rows)) == json.dumps(rows, indent=2) + "\n"
    assert written(capsys, {"rows": (list(row) for row in rows)}) == json.dumps({"rows": rows}, indent=2) + "\n"


def test_json_writer_rejects_a_set_beside_integer_rows(capsys):
    for data in ([[1, 2], {3}], {"rows": [[1], [2, {3}]]}, iter([[0], {0}])):
        with pytest.raises(TypeError):
            written(capsys, data)


def test_json_writer_prints_iterators_as_lists(capsys):
    for rows in ([], [[]], [[1, 2], [], [True, 3], [None]], [{"a": 1}, {}, "s"]):
        expected = json.dumps(rows, indent=2) + "\n"
        assert written(capsys, iter(rows)) == expected
        assert written(capsys, (row for row in rows)) == expected
        assert written(capsys, {"rows": iter(rows), "n": 1}) == json.dumps({"rows": rows, "n": 1}, indent=2) + "\n"
    rows = [[1, 2], [], [3]]
    assert written(capsys, [iter(row) for row in rows]) == json.dumps(rows, indent=2) + "\n"
    assert written(capsys, iter([iter([])])) == json.dumps([[]], indent=2) + "\n"


# -- consistency suites -------------------------------------------------------


def test_check_suites_pass(capsys):
    for suite in ("counts", "series", "weights", "mu"):
        code, out, _ = run(capsys, "check", "theta", "--suite", suite)
        assert code == 0, (suite, out)
    code, out, _ = run(capsys, "check", "unknot", "--suite", "homfly", "--q-order", "16")
    assert code == 0
    assert "ok: defining-equation" in out
    assert "ok: shift" in out
    assert "ok: specialize" in out


def test_homfly_command(capsys):
    code, out, _ = run(capsys, "homfly", "unknot", "--max-x-degree", "2", "--q-order", "8")
    assert code == 0
    assert "circles 0=2 -> q^2*a - 2*q^2 + q^2*a^(-1) + q*a - q" in out
    # all three verification flags together
    code, out, _ = run(capsys, "homfly", "unknot", "--max-x-degree", "2",
                       "--q-order", "16", "--check", "--check-shift", "--specialize", "2")
    assert code == 0 and out.count("ok:") >= 3


def test_homfly_rejects_nonpositive_diagrams(capsys):
    code, _, err = run(capsys, "homfly", "tetrahedron")
    assert code == 2 and "positive diagram" in err


def test_failed_check_exits_3(capsys):
    # at q-order 8 the level-2 window is empty, so specialization must fail
    code, out, _ = run(capsys, "homfly", "unknot", "--max-x-degree", "2",
                       "--q-order", "8", "--specialize", "2")
    assert code == 3
    assert "FAIL: specialize" in out
    assert "truncation bound 8 is too small" in out
