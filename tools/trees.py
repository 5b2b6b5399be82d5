"""What the tools that compare two charfol checkouts share: their
arguments (`parse`), runs in a tree's own interpreter (`python`, and
`probe` on one worker), the command lines they run (`COMMANDS`) and
their Markdown tables (`table`).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# the command lines every comparison runs, each at one seed at a time
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

# put before a probe's code: the probe runs on one worker, so that what
# it records happens in its own process (`parallel.pmap` forks nothing)
ONE_WORKER = "from charfol import parallel\nparallel._cpus = lambda: 1\n"


def parse(doc: str, argv=None, **options) -> argparse.Namespace:
    """The arguments of a tool whose docstring is `doc`: PARENT and
    CHANGE, resolved, as `trees`, and an option --NAME for each keyword,
    given the keywords of its `add_argument`. A tree without
    `src/charfol` is refused, as a usage error."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    for name, kwargs in options.items():
        ap.add_argument(f"--{name}", **kwargs)
    args = ap.parse_args(argv)
    args.trees = [args.parent.resolve(), args.change.resolve()]
    for tree in args.trees:
        if not (tree / "src" / "charfol").is_dir():
            ap.error(f"{tree} has no src/charfol")
    return args


def python(tree: Path, args: list, **kwargs) -> subprocess.CompletedProcess:
    """This interpreter run with `args` on `tree`'s package (PYTHONPATH
    at the tree's `src`), its output captured; `kwargs` go to
    `subprocess.run`."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, **kwargs)


def probe(tree: Path, code: str, arg):
    """What `code` prints as JSON when it runs in `tree`'s interpreter
    on one worker, with `arg` as JSON in `sys.argv[1]`."""
    proc = python(tree, ["-c", ONE_WORKER + code, json.dumps(arg)],
                  text=True)
    if proc.returncode:
        raise RuntimeError(f"the probe failed in {tree}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def table(heads, rows) -> list:
    """The lines of a Markdown table with `heads` over `rows`, each a
    sequence of cells; a `|` in a cell is escaped."""
    return ["| " + " | ".join(c.replace("|", "\\|") for c in cells) + " |"
            for cells in [heads, ["---"] * len(heads), *rows]]
