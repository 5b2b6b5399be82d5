"""`tools/trees.py`, the harness of the tools that compare two trees."""

from pathlib import Path

import pytest

import bench_pairs
import column_counts
import compare_reports
import kernel_sources
import trees

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("side", ["parent", "change"])
@pytest.mark.parametrize("tool", [compare_reports, kernel_sources,
                                  column_counts, bench_pairs],
                         ids=lambda tool: tool.__name__)
def test_a_tree_without_the_package_is_refused(tool, side, tmp_path,
                                                capsys):
    # a usage error, before any run; bench_pairs needs its workload
    empty = tmp_path.resolve()
    argv = [empty, ROOT] if side == "parent" else [ROOT, empty]
    options = ["--workload", "grid"] if tool is bench_pairs else []
    with pytest.raises(SystemExit) as exc:
        tool.main([*map(str, argv), *options])
    assert exc.value.code == 2
    assert f"{empty} has no src/charfol" in capsys.readouterr().err


def test_a_probe_runs_on_one_worker_in_its_tree():
    code = ("import json, sys\nfrom charfol import parallel\n"
            "print(json.dumps([parallel._cpus(), parallel.__file__, "
            "json.loads(sys.argv[1])]))")
    cpus, where, arg = trees.probe(ROOT, code, {"a": [1, 2.5]})
    assert (cpus, arg) == (1, {"a": [1, 2.5]})
    assert Path(where).is_relative_to(ROOT / "src")
    with pytest.raises(RuntimeError, match="the probe failed in ") as exc:
        trees.probe(ROOT, "1 / 0", None)
    assert "ZeroDivisionError" in str(exc.value)


def test_a_table_escapes_bars():
    assert trees.table(["a", "b|c"], [("x | y", "")]) == [
        "| a | b\\|c |", "| --- | --- |", "| x \\| y |  |"]
