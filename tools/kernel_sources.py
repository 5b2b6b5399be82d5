"""Compare the kernel and twin sources that two charfol checkouts compile.

    python tools/kernel_sources.py PARENT CHANGE

PARENT and CHANGE are source trees of charfol (each with `src/charfol`).
Each tree runs a probe in its own interpreter on one worker
(`trees.probe`): there every command line of `trees.COMMANDS` runs at
`--seed 0` through `cli.main`, one after the other, each in a new
working directory. A wrapper of `compile` inside `charfol.kernel`
records the source of every kernel and array twin, in the order
compiled, with the function of the trace before it (a spy on
`kernel._trace`).

A source of a command line matches the same text compiled by the same
command line in the other tree, in any place, each once. The sources
left unmatched in the two trees are paired in the order compiled, and
each pair, or a source left without a partner, gets a row of a
Markdown table: the command line, the source (kernel or twin, its
place in its tree's list and the traced function), and for each tree
the first line where the pair differs (from a little before the
first character that differs), or the source's length where
the other tree has no partner for it. The last line reads "N sources
per tree, M differences"; the exit code is 1 when a source differs and
0 otherwise.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from itertools import zip_longest

import trees

# run in each tree's interpreter: argv[1] is the JSON list of command
# lines; prints {command line: [[traced function, source], ...]}
PROBE = r'''
import contextlib, io, json, os, sys, tempfile
from charfol import cli, kernel

made, traced = [], ["-"]
trace, build = kernel._trace, compile


def spy_trace(fn, args):
    traced[0] = getattr(fn, "__qualname__", repr(fn))
    return trace(fn, args)


def spy_compile(src, *args, **kwargs):
    made.append([traced[0], src])
    return build(src, *args, **kwargs)


kernel._trace, kernel.compile = spy_trace, spy_compile
home, out = os.getcwd(), {}
for argv in json.loads(sys.argv[1]):
    made.clear()
    with tempfile.TemporaryDirectory(prefix="charfol-sources-") as work:
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                cli.main([*argv, "--seed", "0", "--json", "r.json",
                          "--csv-dir", "csv"])
        finally:
            os.chdir(home)
    out[" ".join(argv)] = list(made)
print(json.dumps(out))
'''


def _show(line: str, col: int) -> str:
    """At most 60 characters of `line`, from 20 before column `col`."""
    i = max(0, col - 20)
    return "`{}{}{}`".format("..." * (i > 0), line[i:i + 60].strip(),
                             "..." * (i + 60 < len(line)))


def _name(sources: list, i: int) -> str:
    fn, src = sources[i]
    return f"{'twin' if '_miss' in src else 'kernel'} {i + 1} of {fn}"


def _cells(a: list, i, b: list, j) -> tuple:
    """The source, parent and change cells of the parent's source i
    against the change's source j (either None where its tree has no
    partner)."""
    if i is None or j is None:
        srcs, k = (b, j) if i is None else (a, i)
        size = f"{srcs[k][1].count(chr(10))} lines"
        return (_name(srcs, k), *((size, "-") if j is None else ("-", size)))
    la, lb = a[i][1].splitlines(), b[j][1].splitlines()
    n = next((n for n, (x, y) in enumerate(zip(la, lb)) if x != y),
             min(len(la), len(lb)))
    col = len(os.path.commonprefix([s[n] for s in (la, lb) if n < len(s)]))
    return (_name(a, i), *(f"line {n + 1}: {_show(s[n], col)}"
                           if n < len(s) else f"ends after line {n}"
                           for s in (la, lb)))


def _unmatched(sources: list, other: list) -> list:
    """The places in `sources` of the texts that `other` does not also
    compile, each text of `other` matching once."""
    left, out = Counter(src for _, src in other), []
    for i, (_, src) in enumerate(sources):
        if left[src]:
            left[src] -= 1
        else:
            out.append(i)
    return out


def differences(parent: dict, change: dict) -> list:
    """(command line, source, parent cell, change cell) for each pair of
    unmatched sources of the two trees' PROBE, or one left without a
    partner."""
    rows = []
    for line in [*parent, *(c for c in change if c not in parent)]:
        a, b = parent.get(line, []), change.get(line, [])
        rows.extend((line, *_cells(a, i, b, j)) for i, j in
                    zip_longest(_unmatched(a, b), _unmatched(b, a)))
    return rows


def _count(parent: dict, change: dict) -> str:
    n, m = (sum(map(len, t.values())) for t in (parent, change))
    return f"{n} sources per tree" if n == m else (
        f"{n} sources in the parent and {m} in the change")


def main(argv=None) -> int:
    args = trees.parse(__doc__, argv)
    parent, change = (trees.probe(tree, PROBE, trees.COMMANDS)
                      for tree in args.trees)
    rows = differences(parent, change)
    if rows:
        print(*trees.table(["command", "source", "parent", "change"], rows),
              "", sep="\n")
    print(f"{_count(parent, change)}, {len(rows)} "
          f"difference{'s' * (len(rows) != 1)}")
    return 1 if rows else 0


if __name__ == "__main__":
    sys.exit(main())
