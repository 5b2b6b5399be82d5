"""`tools/shot_counts.py` on this tree against itself, at one delta."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "shot_counts.py"


@pytest.fixture
def tool():
    spec = importlib.util.spec_from_file_location("shot_counts", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_multiplier_errors_match_nearest_first(tool):
    # in order of modulus, each to the nearest reference left
    errs = tool.multiplier_errors([[2.0, 0.0], [0.5, 0.0], [0.5, 1e-9]],
                                  [[0.5, 0.0], [2.0, 2e-6], [0.5, 0.0]])
    assert errs == pytest.approx([0.0, 2e-9, 1e-6], rel=1e-9)


def test_table_of_one_delta(tool):
    recs = tool.probe(ROOT, ["default", "strict"], [0.05])
    head, rule, *rows = tool.table(recs, recs, ["default"], [0.05])
    assert head.startswith("| profile | delta | psi | runs (parent) |")
    assert rule == "| --- " * 9 + "|"
    assert [r.split(" | ")[:3] for r in rows] == [
        ["| default", "0.05", "0"], ["| default", "0.05", "pi"]]
    for row in rows:
        cells = row.strip("| ").split(" | ")
        # the same tree twice: the same cells on both sides
        assert cells[3] == cells[4] and cells[5] == cells[6]
        assert cells[7] == cells[8]
        runs = cells[3].split()[0]
        assert set(runs) == {"c", "f"} and runs.endswith("f")
        assert cells[3] == f"{runs} ({len(runs)})"
        assert float(cells[5]) == pytest.approx(30.0651111, rel=1e-8)
        errs = [float(e) for e in cells[7].split(", ")]
        assert len(errs) == 3 and max(errs) < 1e-6


def test_a_tree_without_the_package_is_refused(tool, tmp_path):
    with pytest.raises(SystemExit):
        tool.main([str(tmp_path), str(ROOT)])
