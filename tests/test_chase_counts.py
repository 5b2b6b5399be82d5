"""`tools/chase_counts.py` on this tree against itself, at one delta."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "chase_counts.py"


@pytest.fixture
def tool():
    spec = importlib.util.spec_from_file_location("chase_counts", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_regions_cell(tool):
    assert tool._regions({"regions": []}) == "-"
    assert tool._regions({"regions": [[0.6431, [0.8, 0.7741]],
                                      [0.5, [0.4]]]}) == (
        "0.6431 (0.8, 0.774); 0.5 (0.4)")


def test_table_of_one_delta(tool):
    recs = tool.probe(ROOT, ["default"], [0.05])
    head, rule, row = tool.table(recs, recs, ["default"], [0.05])
    assert head.startswith("| profile | delta | verdict (parent) | "
                           "verdict (change) | captured (parent) |")
    assert rule == "| --- " * 14 + "|"
    cells = row.strip("| ").split(" | ")
    assert cells[:2] == ["default", "0.05"]
    # the same tree twice: the same cells on both sides
    assert cells[2::2] == cells[3::2]
    verdict, captured, recurrent, flow, steps, regions = cells[2::2]
    assert (verdict, captured, recurrent) == ("pass", "10/10", "0")
    # half the 2,288 time units of chases tested against a fixed radius
    assert 0.0 < float(flow) <= 1144.0 and int(steps) > 0
    assert len(regions.split("; ")) == 2


def test_a_tree_without_the_package_is_refused(tool, tmp_path):
    with pytest.raises(SystemExit):
        tool.main([str(tmp_path), str(ROOT)])
