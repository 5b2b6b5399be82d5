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
    assert lines == [f"{' '.join(argv)} --seed 0: csv/grid.csv differs"
                     for argv in tool.COMMANDS] + [
        "2 runs per tree, 2 differences"]
