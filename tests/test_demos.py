"""Every demo script, and every Python block of the README, runs to the
end on the current API."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_python_blocks_print_what_they_say(capsys):
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    printed = []
    for code in blocks:
        exec(compile(code, "README.md", "exec"), {"__name__": "__main__"})
        printed.append(capsys.readouterr().out)
    assert printed == ["pass\n", "pass\n", "pass True\n"]
