"""`tools/kernel_sources.py` on this tree against itself, on one command."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_load("compare_reports")            # the command lines the tool runs
tool = _load("kernel_sources")

LINE = "foliation s2-height --grid 24"


@pytest.fixture(scope="module")
def sources():
    return tool.probe(ROOT, [LINE.split()])


def test_a_tree_against_itself_has_no_differences(sources):
    again = tool.probe(ROOT, [LINE.split()])
    assert list(sources) == list(again) == [LINE]
    made = sources[LINE]
    # F's kernels and the value kernels, each with its twin
    assert {fn for fn, _ in made} == {"ScalarField._value_and_grad",
                                      "FoliationField._value_outputs"}
    assert sum("_miss" in src for _, src in made) * 2 == len(made) > 2
    assert tool.differences(sources, again) == []
    assert tool._count(sources, again) == f"{len(made)} sources per tree"


def test_a_doctored_source_is_reported(sources):
    made = sources[LINE]
    fn, src = made[1]
    lines = src.splitlines()
    lines[2] += " + 0.0"
    doctored = {LINE: [made[0], (fn, "\n".join(lines) + "\n"), *made[2:]]}
    (row,) = tool.differences(sources, doctored)
    at = len(lines[2]) - len(" + 0.0") - 20
    assert row == (LINE, tool._name(made, 1),
                   f"line 3: `...{src.splitlines()[2][at:]}`",
                   f"line 3: `...{lines[2][at:]}`")
    # a source that one tree does not compile, in any place
    fewer = {LINE: made[1:]}
    assert tool.differences(sources, fewer) == [
        (LINE, tool._name(made, 0), f"{made[0][1].count(chr(10))} lines",
         "-")]
    assert tool.differences(fewer, sources)[0][2:] == (
        "-", f"{made[0][1].count(chr(10))} lines")
    assert tool.differences(sources, {LINE: made[::-1]}) == []
    assert tool._count(sources, fewer) == (
        f"{len(made)} sources in the parent and {len(made) - 1} in the "
        "change")


def test_a_parent_without_the_package_is_refused(tmp_path):
    with pytest.raises(SystemExit):
        tool.main([str(tmp_path), str(ROOT)])


def test_a_change_without_the_package_is_refused(tmp_path):
    with pytest.raises(SystemExit):
        tool.main([str(ROOT), str(tmp_path)])
