"""`tools/column_counts.py` on this tree against itself, at one delta."""

from pathlib import Path

import pytest

import column_counts as tool

ROOT = Path(__file__).resolve().parents[1]


def test_multiplier_errors_match_nearest_first():
    # in order of modulus, each to the nearest reference left
    errs = tool.multiplier_errors([[2.0, 0.0], [0.5, 0.0], [0.5, 1e-9]],
                                  [[0.5, 0.0], [2.0, 2e-6], [0.5, 0.0]])
    assert errs == pytest.approx([0.0, 2e-9, 1e-6], rel=1e-9)


def test_regions_cell():
    assert tool._regions({"regions": []}) == "-"
    assert tool._regions({"regions": [[0.6431, [0.8, 0.7741]],
                                      [0.5, [0.4]]]}) == (
        "0.6431 (0.8, 0.774); 0.5 (0.4)")


@pytest.fixture(scope="module")
def recs():
    return tool.sweep(ROOT, ["default", "strict"], [0.05])


def test_shot_table_of_one_delta(recs):
    shots, _ = tool.tables(recs, recs, ["default"], [0.05])
    head, rule, *rows = shots
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


def test_chase_table_of_one_delta(recs):
    _, chases = tool.tables(recs, recs, ["default"], [0.05])
    head, rule, row = chases
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

