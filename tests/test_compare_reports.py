"""`tools/compare_reports.py` on two stub trees.

Each stub's `charfol.cli` prints its working directory and its tree's
path, which differ between the trees and between runs, and writes a
JSON report and a CSV file, whose bytes the test chooses.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_reports.py"

STUB = '''\
import os
import sys
from pathlib import Path

print("working in", os.getcwd())
print("tree at", Path(__file__).resolve().parents[2], file=sys.stderr)
Path("r.json").write_text(repr(sys.argv[1:]))
Path("csv").mkdir()
Path("csv", "grid.csv").write_text({csv!r})
'''


@pytest.fixture
def tool(monkeypatch):
    spec = importlib.util.spec_from_file_location("compare_reports", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    # two command lines at one seed: 2 runs per tree
    monkeypatch.setattr(mod, "COMMANDS", mod.COMMANDS[:2])
    monkeypatch.setattr(mod, "SEEDS", (0,))
    return mod


def _stub(root: Path, csv: str) -> Path:
    package = root / "src" / "charfol"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(STUB.format(csv=csv))
    return root


def test_placeholders_make_equal_outputs_compare_equal(tool, tmp_path, capsys):
    parent = _stub(tmp_path / "parent", "x,y\n0.5,1\n")
    change = _stub(tmp_path / "change", "x,y\n0.5,1\n")
    assert tool.main([str(parent), str(change)]) == 0
    assert capsys.readouterr().out == "2 runs per tree, 0 differences\n"
    # the placeholders stand in for what differs between the trees
    out = tool.run(change.resolve(), tool.COMMANDS[0], 0)
    assert out["stdout"].startswith(b"working in <work>")
    assert out["stderr"] == b"tree at <tree>\n"


def test_a_changed_byte_is_reported(tool, tmp_path, capsys):
    parent = _stub(tmp_path / "parent", "x,y\n0.5,1\n")
    change = _stub(tmp_path / "change", "x,y\n0.6,1\n")
    assert tool.main([str(parent), str(change)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "| run | output | where | difference |", "| --- | --- | --- | --- |",
        *(f"| {' '.join(argv)} --seed 0 | csv/grid.csv | column x "
          f"| 1 float, max rel 0.167, max abs 0.1 |" for argv in tool.COMMANDS),
        "", "2 runs per tree, 2 differences"]


@pytest.mark.parametrize("a, b, want", [
    # the same mapping in another key order
    ('{"x": {"a": 1, "b": 2}}', '{"x": {"b": 2, "a": 1}}',
     [("x", "key order changed")]),
    # an int that becomes a float is a semantic change, not a numeric one
    ('{"n": 1}', '{"n": 1.0}', [("n", "1 -> 1.0")]),
    # NaN against NaN is equal; NaN against a number is an infinite change
    ('{"v": [NaN, 1.0, 2.0]}', '{"v": [NaN, 1.5, NaN]}',
     [("v[*]", "2 floats, max rel inf, max abs inf")]),
    ('{"v": [NaN, 1.0]}', '{"v": [NaN, 1.25]}',
     [("v[*]", "1 float, max rel 0.2, max abs 0.25")]),
    # a signed zero is listed, with relative size 0
    ('{"z": [-0.0, 3.0]}', '{"z": [0.0, 3.0]}',
     [("z[*]", "1 float, max rel 0, max abs 0")]),
    ('{"verdict": "pass", "ok": true}', '{"verdict": "fail", "ok": false}',
     [("verdict", '"pass" -> "fail"'), ("ok", "true -> false")]),
    # a shorter list, and the entries both lists still have
    ('{"orbits": [{"m": [1.0, 2.0]}, {"m": [4.0]}]}',
     '{"orbits": [{"m": [1.0, 2.5]}], "extra": 0}',
     [("orbits", "length 2 -> 1"),
      ("orbits[*].m[*]", "1 float, max rel 0.2, max abs 0.5"),
      ("extra", "key added")]),
    # an infinity against a number; equal infinities are equal
    ('{"m": [1.0, -Infinity]}', '{"m": [Infinity, -Infinity]}',
     [("m[*]", "1 float, max rel inf, max abs inf")]),
    # noise near 0: a large relative change of a tiny absolute size
    ('{"m": [14.6, 5.8e-21]}', '{"m": [14.600000000000001, 5.9e-21]}',
     [("m[*]", "2 floats, max rel 0.0169, max abs 1.78e-15")]),
], ids=["key order", "int to float", "nan", "nan equal", "signed zero",
        "verdict", "list length", "infinity", "noise near zero"])
def test_json_differences(tool, a, b, want):
    assert tool.differences("r.json", a.encode(), b.encode()) == want


def test_csv_text_and_exit_code_differences(tool):
    a = b"id,x,y\n0+,0.5,nan\n1+,-0.0,2\n"
    b = b"id,x,y\n0-,0.5,nan\n1-,0.0,3\n2-,1,1\n"
    assert tool.differences("csv/p.csv", a, b) == [
        ("rows", "2 -> 3"), ("column id", '"0+" -> "0-" (and 1 more)'),
        ("column x", "1 float, max rel 0, max abs 0"),
        ("column y", "1 float, max rel 0.333, max abs 1")]
    assert tool.differences("stdout", b"certify: pass (r.json)\n",
                            b"certify: fail (r.json)\n") == [
        ("line 1", '"certify: pass (r.json)" -> "certify: fail (r.json)"')]
    assert tool.differences("exit code", b"0", b"1") == [("", "0 -> 1")]
    # a change of layout alone, and JSON that does not parse
    assert tool.differences("r.json", b'{"a": 1}', b'{"a":1}') == [
        ("", "bytes differ")]
    assert tool.differences("r.json", b"{", b"{}") == [
        ("line 1", '"{" -> "{}"')]
