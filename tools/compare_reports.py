"""Byte-compare the reports of two charfol checkouts, and say how they differ.

    python tools/compare_reports.py PARENT CHANGE

PARENT and CHANGE are source trees of charfol (each with `src/charfol`).
Every command line of `COMMANDS` runs at each of `SEEDS` in both trees,
one run at a time, each in a new working directory with
`--json r.json --csv-dir csv` and PYTHONPATH set to the tree's `src`.
The JSON report, every CSV file, stdout, stderr and the exit code are
then compared byte for byte. In stdout and stderr the tree's path and
the working directory are replaced by placeholders first, since
warnings and tracebacks name their files. The exit code is 0 when every
run matches and 1 otherwise.

Each output that differs gets rows in a Markdown table (`differences`):
a semantic difference (a key, string, bool, int, list length, exit code
or line of text that changes) with its first instance, and a numeric
one per JSON path (list indices collapsed, `orbits[*].multipliers[*]`)
or CSV column, with the number of floats that changed, the largest
|a - b| / max(|a|, |b|) and the largest |a - b|, so that a large
relative change of an entry near 0 shows its absolute size. NaN against
NaN is equal; -0.0 against 0.0 is a change of size 0, and a NaN or an
infinity against another value one of infinite size.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (0, 7)

COMMANDS = [
    ["foliation", "s2-height", "--grid", "24"],
    ["foliation", "graph-model", "--grid", "24"],
    ["foliation", "mori-sigma0-n2", "--grid", "40"],
    *([verb, scene] for scene in ("s2-height", "graph-model",
                                  "mori-sigma0-n2", "mori-column")
      for verb in ("classify", "certify")),
    ["certify", "s2-height", "--tolerance-profile", "strict"],
    ["certify", "s2-height", "--tolerance-profile", "fast"],
    ["certify", "graph-model", "--tolerance-profile", "fast"],
    ["certify", "mori-column", "--tolerance-profile", "strict"],
    ["certify", "mori-column", "--tolerance-profile", "fast"],
    ["convexify", "collar-profile"],
    ["mori", "reproduce", "--n", "2"],
    ["mori", "reproduce", "--n", "3"],
    ["mori", "reproduce", "--n", "4"],
    ["mori", "perturb"],
    ["mori", "perturb", "--delta", "0.1"],
    ["mori", "perturb", "--delta", "0.005"],
]


def run(tree: Path, argv: list, seed: int) -> dict:
    """The outputs of one command line in `tree`, by name, as bytes."""
    with tempfile.TemporaryDirectory(prefix="charfol-compare-") as work:
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "charfol.cli", *argv, "--seed", str(seed),
             "--json", "r.json", "--csv-dir", "csv"],
            cwd=work, env=env, capture_output=True)
        out = {"exit code": str(proc.returncode).encode()}
        for name, text in (("stdout", proc.stdout), ("stderr", proc.stderr)):
            for path, mark in ((work, b"<work>"), (str(tree), b"<tree>")):
                text = text.replace(os.fsencode(path), mark)
            out[name] = text
        for path in sorted(Path(work).rglob("*")):
            if path.is_file():
                out[str(path.relative_to(work))] = path.read_bytes()
        return out


def _show(x) -> str:
    text = json.dumps(x, ensure_ascii=False)
    return text if len(text) <= 40 else text[:37] + "..."


def _leaf(found: dict, where: str, a, b) -> None:
    """Note two leaves at `where` that may differ: two floats in the
    numeric entry (count, largest relative and absolute changes),
    anything else in the semantic one (count, first instance)."""
    if type(a) is float and type(b) is float:
        if (a != a and b != b) or (a == b and math.copysign(1.0, a)
                                   == math.copysign(1.0, b)):
            return
        finite = math.isfinite(a) and math.isfinite(b)
        gap = abs(a - b) if finite else math.inf
        rel = gap / max(abs(a), abs(b)) if finite and gap else gap
        n, top, top_gap = found.get((where, float), (0, 0.0, 0.0))
        found[where, float] = (n + 1, max(top, rel), max(top_gap, gap))
    elif type(a) is not type(b) or a != b:
        _semantic(found, where, f"{_show(a)} -> {_show(b)}")


def _semantic(found: dict, where: str, what: str) -> None:
    n, first = found.get((where, str), (0, what))
    found[where, str] = (n + 1, first)


def _json(found: dict, where: str, a, b) -> None:
    if isinstance(a, dict) and isinstance(b, dict):
        for k in [*a, *(k for k in b if k not in a)]:
            at = f"{where}.{k}" if where else k
            if k not in b or k not in a:
                _semantic(found, at, "key removed" if k in a else "key added")
            else:
                _json(found, at, a[k], b[k])
        if [k for k in a if k in b] != [k for k in b if k in a]:
            _semantic(found, where, "key order changed")
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            _semantic(found, where, f"length {len(a)} -> {len(b)}")
        for x, y in zip(a, b):
            _json(found, f"{where}[*]", x, y)
    else:
        _leaf(found, where, a, b)


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _csv(found: dict, a: str, b: str) -> None:
    (head_a, *rows_a), (head_b, *rows_b) = (
        list(csv.reader(io.StringIO(t))) or [[]] for t in (a, b))
    if head_a != head_b:
        _semantic(found, "header", f"{_show(head_a)} -> {_show(head_b)}")
    if len(rows_a) != len(rows_b):
        _semantic(found, "rows", f"{len(rows_a)} -> {len(rows_b)}")
    for x, y in zip(rows_a, rows_b):
        x, y = dict(zip(head_a, x)), dict(zip(head_b, y))
        for col in x:
            if col in y:
                _leaf(found, f"column {col}", _cell(x[col]), _cell(y[col]))


def _lines(found: dict, a: str, b: str) -> None:
    la, lb = a.splitlines(), b.splitlines()
    if len(la) != len(lb):
        _semantic(found, "lines", f"{len(la)} -> {len(lb)}")
    for i, (x, y) in enumerate(zip(la, lb), 1):
        if x != y:
            _semantic(found, f"line {i}", f"{_show(x)} -> {_show(y)}")


def _load(*texts):
    try:
        return [json.loads(t) for t in texts]
    except ValueError:
        return None


def differences(name: str, a: bytes, b: bytes) -> list:
    """(where, what) for each semantic or numeric difference between two
    versions of the output `name`, in the order found, or one "bytes
    differ" row when none shows (a change of layout only)."""
    found = {}
    ta, tb = a.decode(errors="replace"), b.decode(errors="replace")
    if name == "exit code":
        _semantic(found, "", f"{ta} -> {tb}")
    elif name.endswith(".csv"):
        _csv(found, ta, tb)
    elif name.endswith(".json") and (docs := _load(ta, tb)):
        _json(found, "", *docs)
    else:
        _lines(found, ta, tb)
    rows = []
    for (where, kind), (n, what, *gap) in found.items():
        if kind is float:
            what = (f"{n} float{'s' * (n > 1)}, max rel {what:.3g}, "
                    f"max abs {gap[0]:.3g}")
        elif n > 1:
            what += f" (and {n - 1} more)"
        rows.append((where, what))
    return rows or [("", "bytes differ")]


def compare(parent: Path, change: Path, argv: list, seed: int) -> list:
    """(output name, its `differences`) for each output of one command
    line that differs between the two trees."""
    a, b = run(parent, argv, seed), run(change, argv, seed)
    out = []
    for name in sorted(a.keys() | b.keys()):
        if a.get(name) == b.get(name):
            continue
        if name in a and name in b:
            out.append((name, differences(name, a[name], b[name])))
        else:
            side = "parent" if name in a else "change"
            out.append((name, [("", f"only in {side}")]))
    return out


def _row(*cells) -> str:
    return "| " + " | ".join(c.replace("|", "\\|") for c in cells) + " |"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    trees = [args.parent.resolve(), args.change.resolve()]
    for tree in trees:
        if not (tree / "src" / "charfol").is_dir():
            ap.error(f"{tree} has no src/charfol")
    cases = [(argv, seed) for seed in SEEDS for argv in COMMANDS]
    diffs = [(f"{' '.join(argv)} --seed {seed}", *d)
             for argv, seed in cases for d in compare(*trees, argv, seed)]
    if diffs:
        print(_row("run", "output", "where", "difference"))
        print(_row(*["---"] * 4))
        for line, name, found in diffs:
            for where, what in found:
                print(_row(line, name, where, what))
        print()
    print(f"{len(cases)} runs per tree, {len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
