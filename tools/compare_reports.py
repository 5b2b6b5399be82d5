"""Byte-compare the reports of two charfol checkouts.

    python tools/compare_reports.py PARENT CHANGE

PARENT and CHANGE are source trees of charfol (each with `src/charfol`).
Every command line of `COMMANDS` runs at each of `SEEDS` in both trees,
one run at a time, each in a new working directory with
`--json r.json --csv-dir csv` and PYTHONPATH set to the tree's `src`.
The JSON report, every CSV file, stdout, stderr and the exit code are
then compared byte for byte. In stdout and stderr the tree's path and
the working directory are replaced by placeholders first, since
warnings and tracebacks name their files. One line is printed per difference; the exit code is 0
when every run matches and 1 otherwise.
"""

from __future__ import annotations

import argparse
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
    ["certify", "mori-column", "--tolerance-profile", "strict"],
    ["convexify", "collar-profile"],
    ["mori", "reproduce", "--n", "2"],
    ["mori", "reproduce", "--n", "3"],
    ["mori", "perturb"],
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


def compare(parent: Path, change: Path, argv: list, seed: int) -> list:
    """One line per output that differs between the two trees."""
    a, b = run(parent, argv, seed), run(change, argv, seed)
    line = f"{' '.join(argv)} --seed {seed}"
    return [f"{line}: {name} differs" if name in a and name in b else
            f"{line}: {name} only in {'parent' if name in a else 'change'}"
            for name in sorted(a.keys() | b.keys())
            if a.get(name) != b.get(name)]


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
    diffs = [d for case in cases for d in compare(*trees, *case)]
    for d in diffs:
        print(d)
    print(f"{len(cases)} runs per tree, {len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
